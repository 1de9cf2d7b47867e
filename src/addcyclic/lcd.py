"""Euclidean hulls, LCD verification, and the LCD sufficiency pipeline.

A linear code is LCD when it meets its dual trivially.  For a mixed-
alphabet code given by a generator matrix G = (G_alpha | G_beta), the
pipeline checks three hypotheses — <G_alpha> self-orthogonal, G_beta
with F_q-independent rows, and the Gray image of <G_beta> LCD — which
together guarantee that the Gray image of the whole code is LCD.  The
observed hull dimension of that image is always computed alongside as an
independent check.  The hypotheses are read from the F_q-expanded
matrix (`lcd_certificate`): G_alpha is its first alpha columns and G_beta
composes its b and c columns.

Memoized: the hull of a GeneratorMatrixCode is built once and kept on
that code, as is its Gray image (`gray.gray_image`), so the certificate,
`is_lcd` and the callers that already hold the image share one image and
one hull.  This is sound because both are functions of the code's
stored rref matrix, which is read-only, and of its split, which nothing
reassigns; a memo lives and dies with its code, there is no cache keyed
on contents.  The hull's dual basis is read from that stored rref and
its pivots (`linalg.kernel_of_rref`) rather than eliminated again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .codes import (
    GeneratorMatrixCode,
    InvariantViolation,
    MixedCode,
    MixedWord,
    _document_int,
    load_tower,
)
from .gray import GrayImageCode, gray_image, gray_rows
from .poly import parse_scalar

LCD_GUARANTEED = "LCD-guaranteed"
INAPPLICABLE = "inapplicable"


def hull(code: GeneratorMatrixCode) -> GeneratorMatrixCode:
    """C ∩ C⊥ under the standard coordinatewise F_q inner product,
    memoized on the code."""
    return code._memo("hull", _build_hull)


def _build_hull(code: GeneratorMatrixCode) -> GeneratorMatrixCode:
    f = code.field
    dual_basis = linalg.kernel_of_rref(f, code.matrix, code.pivots)
    basis = linalg.intersect(f, code.matrix, dual_basis)
    return GeneratorMatrixCode(code.tower, basis)


def is_self_orthogonal(code_or_rows, tower=None) -> bool:
    """True iff all pairwise dot products of the rows vanish (so the span
    is contained in its dual)."""
    if isinstance(code_or_rows, GeneratorMatrixCode):
        rows = code_or_rows.matrix
        f = code_or_rows.field
    else:
        if tower is None:
            raise ValueError("raw rows need the tower argument")
        rows = linalg.as_matrix(code_or_rows)
        f = tower.base
    gram = linalg.matmul(f, rows, rows.T)
    return not gram.any()


def is_lcd(code: GeneratorMatrixCode) -> bool:
    """Trivial hull, cross-checked against the Gram matrix G Gᵀ of the
    full-rank basis G having full rank k, which over a field is
    det(G Gᵀ) != 0; the two criteria must agree."""
    f = code.field
    by_hull = hull(code).rank == 0
    gram = linalg.matmul(f, code.matrix, code.matrix.T)
    by_gram = linalg.rank(f, gram) == code.rank
    if by_hull != by_gram:
        raise InvariantViolation("hull test and Gram-rank test disagree")
    return by_hull


def rows_fq_independent(tower, rows) -> bool:
    """True iff the given F_q2 rows are linearly independent over F_q
    (full rank of the 2*beta-wide base-field expansion).  No rows are
    independent; rows of length 0 are zero vectors, so they are not."""
    rows = linalg.as_matrix(rows, field=tower.ext)
    if len(rows) == 0:
        return True
    b, c = tower.decompose(rows)
    expanded = np.concatenate([b, c], axis=1)
    return linalg.rank(tower.base, expanded) == rows.shape[0]


@dataclass(frozen=True)
class LcdCertificate:
    c_alpha_self_orthogonal: bool
    g_beta_rows_independent: bool
    phi_c_beta_lcd: bool
    conclusion: str
    hull_dimension_observed: int

    @property
    def guaranteed(self):
        return self.conclusion == LCD_GUARANTEED


def lcd_certificate(expanded, image: GrayImageCode) -> LcdCertificate:
    """Evaluate the three sufficiency hypotheses on an F_q-expanded
    generator matrix (the layout of MixedWord.expand), rows taken as
    given, and report the observed hull dimension of `image`, the Gray
    image of the code those rows generate.

    `conclusion` is LCD-guaranteed only when all three hypotheses hold;
    the observed hull is reported either way, since the hypotheses are
    sufficient but not necessary.
    """
    tower, alpha = image.base.tower, image.alpha
    M = linalg.as_matrix(expanded, width=alpha + 2 * image.beta)
    self_orth = is_self_orthogonal(M[:, :alpha], tower=tower)
    phi_c_beta = GeneratorMatrixCode(tower, gray_rows(tower, 0, M[:, alpha:]))
    # the Gray block is the expansion [b | c] under the invertible column
    # map (b, c) -> (b + c, c): its rank is that of rows_fq_independent
    independent = phi_c_beta.rank == len(M)
    beta_lcd = is_lcd(phi_c_beta)
    observed = hull(image.base).rank
    ok = self_orth and independent and beta_lcd
    return LcdCertificate(
        c_alpha_self_orthogonal=self_orth,
        g_beta_rows_independent=independent,
        phi_c_beta_lcd=beta_lcd,
        conclusion=LCD_GUARANTEED if ok else INAPPLICABLE,
        hull_dimension_observed=int(observed),
    )


def lcd_pipeline(tower, alpha, beta, rows) -> LcdCertificate:
    """The certificate of a row-wise generator matrix (rows are
    MixedWords, duplicated or dependent rows kept as given)."""
    expanded = linalg.as_matrix([w.expand() for w in rows], width=alpha + 2 * beta)
    code = GeneratorMatrixCode(tower, expanded, alpha=alpha, beta=beta)
    return lcd_certificate(expanded, gray_image(code))


def lcd_pipeline_code(code: MixedCode) -> LcdCertificate:
    """The certificate of a cyclic code's closure basis rows."""
    return lcd_certificate(code.closure.matrix, gray_image(code))


def load_matrix_document(doc: dict):
    """Parse {"q": int, "alpha": int, "beta": int, "rows": [[literals]],
    "f1": str?, "f2": str?} into (tower, alpha, beta, [MixedWord]); the
    first alpha entries of each row are F_q literals, the rest F_q2
    literals."""
    tw = load_tower(doc)
    alpha = _document_int(doc, "alpha")
    beta = _document_int(doc, "beta")
    if alpha + beta == 0:
        raise ValueError("alpha + beta must be positive")
    rows = doc["rows"]
    if not isinstance(rows, list) or not rows or not all(
            isinstance(row, list) for row in rows):
        raise ValueError("rows must be a nonempty list of rows")
    words = []
    for row in rows:
        if len(row) != alpha + beta:
            raise ValueError(
                f"row has {len(row)} entries, expected alpha + beta = {alpha + beta}"
            )
        u = tuple(parse_scalar(str(e), tw.base, tw) for e in row[:alpha])
        up = tuple(parse_scalar(str(e), tw.ext, tw) for e in row[alpha:])
        words.append(MixedWord(tw, u, up))
    return tw, alpha, beta, words
