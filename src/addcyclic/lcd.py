"""Euclidean hulls, LCD verification, and the LCD sufficiency pipeline.

A linear code is LCD when it meets its dual trivially.  For a mixed-
alphabet code given by a generator matrix G = (G_alpha | G_beta), the
pipeline checks three hypotheses — <G_alpha> self-orthogonal, G_beta
with F_q-independent rows, and the Gray image of <G_beta> LCD — which
together guarantee that the Gray image of the whole code is LCD.  The
observed hull dimension of that image is always computed alongside as an
independent check.
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
from .gray import gray_block, gray_image
from .poly import parse_scalar

LCD_GUARANTEED = "LCD-guaranteed"
INAPPLICABLE = "inapplicable"


def hull(code: GeneratorMatrixCode) -> GeneratorMatrixCode:
    """C ∩ C⊥ under the standard coordinatewise F_q inner product."""
    f = code.field
    dual_basis = linalg.kernel(f, code.matrix)
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
    """Trivial hull, cross-checked against det(G Gᵀ) != 0 for the
    full-rank basis G; the two criteria must agree."""
    f = code.field
    by_hull = hull(code).rank == 0
    gram = linalg.matmul(f, code.matrix, code.matrix.T)
    by_det = linalg.determinant(f, gram) != 0 if code.rank else True
    if by_hull != by_det:
        raise InvariantViolation("hull test and Gram-determinant test disagree")
    return by_hull


def rows_fq_independent(tower, rows) -> bool:
    """True iff the given F_q2 rows are linearly independent over F_q
    (full rank of the 2*beta-wide base-field expansion)."""
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.size == 0:
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


def lcd_pipeline(tower, alpha, beta, rows) -> LcdCertificate:
    """Evaluate the three sufficiency hypotheses on a row-wise generator
    matrix (rows are MixedWords) and report the observed hull dimension
    of the Gray image of the generated code.

    `conclusion` is LCD-guaranteed only when all three hypotheses hold;
    the observed hull is reported either way, since the hypotheses are
    sufficient but not necessary.
    """
    words = list(rows)
    g_alpha = linalg.as_matrix([w.u for w in words], width=alpha)
    g_beta = np.asarray([w.uprime for w in words], dtype=np.uint8).reshape(
        len(words), beta
    )
    self_orth = is_self_orthogonal(g_alpha, tower=tower)
    independent = rows_fq_independent(tower, g_beta)
    phi_c_beta = GeneratorMatrixCode(tower, gray_block(tower, g_beta))
    beta_lcd = is_lcd(phi_c_beta)
    expanded = linalg.as_matrix([w.expand() for w in words], width=alpha + 2 * beta)
    code = GeneratorMatrixCode(tower, expanded, alpha=alpha, beta=beta)
    image = gray_image(code)
    observed = hull(image.base).rank
    ok = self_orth and independent and beta_lcd
    return LcdCertificate(
        c_alpha_self_orthogonal=self_orth,
        g_beta_rows_independent=independent,
        phi_c_beta_lcd=beta_lcd,
        conclusion=LCD_GUARANTEED if ok else INAPPLICABLE,
        hull_dimension_observed=int(observed),
    )


def lcd_pipeline_code(code: MixedCode) -> LcdCertificate:
    """Run the pipeline on a cyclic code's closure basis rows."""
    return lcd_pipeline(
        code.tower, code.alpha, code.beta, code.closure.mixed_words()
    )


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
