"""The Gray map from the mixed alphabet down to F_q.

Per coordinate b + w*c of the extension block the map emits (b + c, c);
on a whole word (u | u') it produces (u, b_0+c_0, ..., b_{beta-1}+c_{beta-1},
c_0, ..., c_{beta-1}), an F_q-linear bijection onto F_q^(alpha + 2 beta).
The image is a plain F_q code (beta = 0), and a plain code is its own
image.  Images of additive cyclic codes are quasi-cyclic of index 3
when alpha = beta, and more generally invariant under the block-shift
permutation that mirrors multiplication by x upstairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .codes import (
    GeneratorMatrixCode,
    InvariantViolation,
    MixedCode,
    _shift_columns,
    invariant_under,
)

QUASI_CYCLIC_3 = "quasi-cyclic index 3"
GENERALIZED_QC = "generalized quasi-cyclic"
CYCLIC_EQUIVALENT = "equivalent to cyclic"


def gray_rows(tower, alpha, rows) -> np.ndarray:
    """Gray images of F_q-expanded rows (the layout of the `codes`
    module), one output row per input row: [u | b + c | c] from the
    column slices u = [:, :alpha], b = [:, alpha::2] and
    c = [:, alpha+1::2]; a half pair is refused."""
    m = linalg.as_matrix(rows, field=tower.base)
    if m.shape[1] < alpha or (m.shape[1] - alpha) % 2:
        raise ValueError(f"width {m.shape[1]} is not alpha={alpha} plus (b, c) pairs")
    b, c = m[:, alpha::2], m[:, alpha + 1 :: 2]
    return np.hstack([m[:, :alpha], tower.base.add(b, c), c])


def classify_gray_image(alpha: int, beta: int) -> str:
    """Structural class of the image of an additive cyclic code:
    index-3 quasi-cyclic when alpha = beta; generalized quasi-cyclic with
    block lengths (alpha, 2 beta) when 3 | alpha + 2 beta; otherwise
    (label only) equivalent to a cyclic code of length alpha + 2 beta.
    With one block empty the image is the other block: the doubled
    extension block of a pure code (alpha = 0), the alpha block itself
    of a plain code (beta = 0)."""
    if alpha < 0 or beta < 0 or not alpha + beta:
        raise ValueError(f"block lengths alpha={alpha}, beta={beta} must be >= 0, not both 0")
    if not alpha or not beta:
        return "extension block only" if beta else "alpha block only"
    if alpha == beta:
        return QUASI_CYCLIC_3
    if (alpha + 2 * beta) % 3 == 0:
        return GENERALIZED_QC
    return CYCLIC_EQUIVALENT


@dataclass(eq=False)
class GrayImageCode:
    """The Gray image of a code: `base` is the image, a plain code over
    F_q (beta = 0), and `alpha` and `beta` are the source code's split,
    which sets the image's classification and its shift sigma."""

    base: GeneratorMatrixCode
    alpha: int
    beta: int

    @property
    def classification(self):
        return classify_gray_image(self.alpha, self.beta)

    @property
    def rank(self):
        return self.base.rank

    @property
    def length(self):
        return self.base.width

    @property
    def matrix(self):
        return self.base.matrix


def gray_image(code) -> GrayImageCode:
    """Row space of the Gray images of a code's basis words.  Linearity
    of the map makes this the image of the whole code; bijectivity keeps
    the F_q-dimension equal to the source dimension.  The image is built
    once per generator matrix and memoized on it, so a cyclic code and
    its closure share one image."""
    gm = code.closure if isinstance(code, MixedCode) else code
    return gm._memo("gray_image", _build_gray_image)


def _build_gray_image(gm: GeneratorMatrixCode) -> GrayImageCode:
    tw, alpha = gm.tower, gm.alpha
    image = GeneratorMatrixCode(tw, gray_rows(tw, alpha, gm.matrix))
    if image.rank != gm.rank:
        raise InvariantViolation("Gray image lost rank; the map must be injective")
    return GrayImageCode(image, alpha, gm.beta)


def shift_invariance_check(image: GrayImageCode) -> bool:
    """True iff the image's row space is sigma-invariant, sigma being the
    cyclic shift of the alpha block together with the simultaneous cyclic
    shift of the two beta halves.  Sigma intertwines with multiplication
    by x upstairs, so images of additive cyclic codes are invariant; for
    alpha = beta this is exactly quasi-cyclicity of index 3 on three
    equal blocks."""
    alpha, beta = image.alpha, image.beta
    # the expanded column behind each image column: u, b_j for b_j + c_j,
    # then c_j; sigma is x on the expanded columns read through it
    behind = np.concatenate([np.arange(alpha), alpha + 2 * np.arange(beta),
                             alpha + 1 + 2 * np.arange(beta)])
    sigma = np.argsort(behind)[_shift_columns(alpha, beta, 1)[behind]]
    return invariant_under(image.base, sigma)
