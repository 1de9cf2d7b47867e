"""The Gray map from the mixed alphabet down to F_q.

Per coordinate b + w*c of the extension block the map emits (b + c, c);
on a whole word (u | u') it produces (u, b_0+c_0, ..., b_{beta-1}+c_{beta-1},
c_0, ..., c_{beta-1}), an F_q-linear bijection onto F_q^(alpha + 2 beta).
Images of additive cyclic codes are quasi-cyclic of index 3 when
alpha = beta, and more generally invariant under the block-shift
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
    MixedWord,
    PureCode,
    _shift_columns,
    invariant_under,
)

QUASI_CYCLIC_3 = "quasi-cyclic index 3"
GENERALIZED_QC = "generalized quasi-cyclic"
CYCLIC_EQUIVALENT = "equivalent to cyclic"


def gray_block(tower, uprime) -> np.ndarray:
    """Map a vector over F_q2 to the doubled vector (b+c pairs first, then
    c); a matrix is mapped row by row."""
    up = np.asarray(uprime, dtype=np.uint8)
    b, c = tower.decompose(up)
    return np.concatenate([tower.base.add(b, c), c], axis=-1).astype(np.uint8)


def gray_rows(tower, alpha, rows) -> np.ndarray:
    """Gray images of F_q-expanded rows (the layout of MixedWord.expand),
    one output row per input row: [u | b + c | c] from the column slices
    u = [:, :alpha], b = [:, alpha::2] and c = [:, alpha+1::2]."""
    m = linalg.as_matrix(rows, field=tower.base)
    b, c = m[:, alpha::2], m[:, alpha + 1 :: 2]
    return np.hstack([m[:, :alpha], tower.base.add(b, c), c])


def gray_word(word: MixedWord) -> np.ndarray:
    """Map a mixed word to F_q^(alpha + 2 beta)."""
    return gray_rows(word.tower, word.alpha, word.expand()[None])[0]


def gray_word_inverse(tower, alpha, beta, vec) -> MixedWord:
    """Inverse of gray_word; the map is bijective."""
    vec = np.asarray(vec, dtype=np.uint8)
    if len(vec) != alpha + 2 * beta:
        raise ValueError("vector length does not match the split")
    u = tuple(int(x) for x in vec[:alpha])
    bc = vec[alpha : alpha + beta]
    c = vec[alpha + beta :]
    b = tower.base.sub(bc, c)
    up = tuple(int(x) for x in tower.compose(b, c))
    return MixedWord(tower, u, up)


def classify_gray_image(alpha: int, beta: int) -> str:
    """Structural class of the image of an additive cyclic code:
    index-3 quasi-cyclic when alpha = beta; generalized quasi-cyclic with
    block lengths (alpha, 2 beta) when 3 | alpha + 2 beta; otherwise
    (label only) equivalent to a cyclic code of length alpha + 2 beta."""
    if alpha < 1 or beta < 1:
        raise ValueError("block lengths must be positive")
    if alpha == beta:
        return QUASI_CYCLIC_3
    if (alpha + 2 * beta) % 3 == 0:
        return GENERALIZED_QC
    return CYCLIC_EQUIVALENT


@dataclass(eq=False)
class GrayImageCode:
    """An image code over F_q, remembering the source split."""

    base: GeneratorMatrixCode
    alpha: int
    beta: int
    classification: str

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
    gm = code.closure if isinstance(code, (PureCode, MixedCode)) else code
    return gm._memo("gray_image", _build_gray_image)


def _build_gray_image(gm: GeneratorMatrixCode) -> GrayImageCode:
    tw = gm.tower
    alpha, beta = gm.alpha, gm.beta
    if alpha is None or beta is None:
        raise ValueError("the Gray map needs the mixed-alphabet split")
    image = GeneratorMatrixCode(tw, gray_rows(tw, alpha, gm.matrix))
    if image.rank != gm.rank:
        raise InvariantViolation("Gray image lost rank; the map must be injective")
    if gm.spanning_rows is not None:
        image.spanning_rows = gray_rows(tw, alpha, gm.spanning_rows)
    # classification is defined for alpha, beta >= 1; a pure code's image
    # is just the doubled extension block, a beta = 0 code's its alpha block
    if alpha >= 1 and beta >= 1:
        label = classify_gray_image(alpha, beta)
    else:
        label = "extension block only" if beta else "alpha block only"
    return GrayImageCode(image, alpha, beta, label)


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
