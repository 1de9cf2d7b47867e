"""Hull dimensions, LCD verification, and the LCD sufficiency pipeline.

A linear code is LCD when it meets its dual trivially.  For a mixed-
alphabet code given by a generator matrix G = (G_alpha | G_beta), the
pipeline checks three hypotheses — <G_alpha> self-orthogonal, G_beta
with F_q-independent rows, and the Gray image of <G_beta> LCD — which
together guarantee that the Gray image of the whole code is LCD.  The
observed hull dimension of that image is always computed alongside as an
independent check.  The hypotheses are read from the F_q-expanded
matrix (`lcd_certificate`): G_alpha is its first alpha columns and G_beta
composes its b and c columns.

Memoized: the hull's dimension (`hull_dimension`) is computed once and
kept on its GeneratorMatrixCode, as is the Gray image
(`gray.gray_image`), so the certificate, `is_lcd` and the callers that
already hold the image share one image and one dimension.  This is sound
because both are functions of the code's stored rref matrix, which is
read-only, and of its split, which nothing reassigns; a memo lives and
dies with its code, there is no cache keyed on contents.  The dimension
is dim(C ∩ C⊥) = n - rank(C + C⊥): one rank, with no back-substitution,
of the stored basis stacked on the dual basis read from its rref and
pivots (`linalg.kernel_of_rref`).  `is_lcd` cross-checks it against the
rank of the Gram matrix G Gᵀ, which this route never forms:
dim(C ∩ C⊥) = k - rank(G Gᵀ) (Massey 1992).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .codes import GeneratorMatrixCode, InvariantViolation, MixedCode
from .gray import GrayImageCode, gray_image, gray_rows

LCD_GUARANTEED = "LCD-guaranteed"
INAPPLICABLE = "inapplicable"


def hull_dimension(code: GeneratorMatrixCode) -> int:
    """dim(C ∩ C⊥) under the standard coordinatewise F_q inner product,
    n - rank(C + C⊥), memoized on the code."""
    def build(c):
        dual = linalg.kernel_of_rref(c.field, c.matrix, c.pivots)
        return c.width - linalg.rank(c.field, np.vstack([c.matrix, dual]))
    return code._memo("hull_dimension", build)


def is_self_orthogonal(rows, tower) -> bool:
    """True iff all pairwise dot products of the rows vanish (so their
    span is contained in its dual).  Rows outside F_q are refused."""
    rows = linalg.as_matrix(rows, field=tower.base)
    return not linalg.matmul(tower.base, rows, rows.T).any()


def is_lcd(code: GeneratorMatrixCode) -> bool:
    """Trivial hull: the memoized `hull_dimension` is 0.  It is
    cross-checked against the Gram matrix G Gᵀ of the full-rank basis G:
    over any field, x G lies in C⊥ exactly when x G Gᵀ = 0, so
    dim(C ∩ C⊥) = k - rank(G Gᵀ), and the hull dimension and the Gram
    rank must sum to k."""
    f = code.field
    dimension = hull_dimension(code)
    gram = linalg.matmul(f, code.matrix, code.matrix.T)
    if dimension + linalg.rank(f, gram) != code.rank:
        raise InvariantViolation("hull rank and Gram rank do not sum to the rank")
    return dimension == 0


@dataclass(frozen=True)
class LcdCertificate:
    c_alpha_self_orthogonal: bool
    g_beta_rows_independent: bool
    phi_c_beta_lcd: bool
    conclusion: str
    hull_dimension_observed: int


def lcd_certificate(expanded, image: GrayImageCode) -> LcdCertificate:
    """Evaluate the three sufficiency hypotheses on an F_q-expanded
    generator matrix (the layout of the `codes` module), rows taken as
    given, and report the observed hull dimension of `image`, the Gray
    image of the code those rows generate.

    `conclusion` is LCD-guaranteed only when all three hypotheses hold;
    the observed hull is reported either way, since the hypotheses are
    sufficient but not necessary; a matrix of another width is refused.
    """
    tower, alpha, width = image.base.tower, image.alpha, image.length
    M = linalg.as_matrix(expanded, width=width)
    if M.shape[1] != width:
        raise ValueError(f"expanded width {M.shape[1]} is not alpha + 2*beta = {width}")
    self_orth = is_self_orthogonal(M[:, :alpha], tower=tower)
    phi_c_beta = GeneratorMatrixCode(tower, gray_rows(tower, 0, M[:, alpha:]))
    # the Gray block is the expansion [b | c] under the invertible column
    # map (b, c) -> (b + c, c): its rank is the rows' F_q-rank
    independent = phi_c_beta.rank == len(M)
    beta_lcd = is_lcd(phi_c_beta)
    observed = hull_dimension(image.base)
    ok = self_orth and independent and beta_lcd
    return LcdCertificate(
        c_alpha_self_orthogonal=self_orth,
        g_beta_rows_independent=independent,
        phi_c_beta_lcd=beta_lcd,
        conclusion=LCD_GUARANTEED if ok else INAPPLICABLE,
        hull_dimension_observed=observed,
    )


def _rows_certificate(tower, beta, expanded):
    """(image, certificate) of an F_q-expanded generator matrix: the Gray
    image of the code the rows generate, and the certificate of the rows
    as given, duplicated or dependent rows kept."""
    image = gray_image(GeneratorMatrixCode(tower, expanded, beta=beta))
    return image, lcd_certificate(expanded, image)


def lcd_pipeline_code(code: MixedCode) -> LcdCertificate:
    """The certificate of a cyclic code's closure basis rows."""
    return lcd_certificate(code.closure.matrix, gray_image(code))
