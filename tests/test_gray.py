"""Gray map: worked values, linearity/bijectivity, classification,
shift invariance, and the distance inequality."""

import random

import numpy as np
import pytest

from addcyclic import gray
from addcyclic.codes import (
    GeneratorMatrixCode,
    InvariantViolation,
    MixedCode,
    extract_mixed_generators,
)
from addcyclic.distance import min_distance_exact
from addcyclic.fields import tower
from addcyclic.gray import (
    CYCLIC_EQUIVALENT,
    GENERALIZED_QC,
    QUASI_CYCLIC_3,
    classify_gray_image,
    gray_image,
    gray_rows,
    shift_invariance_check,
)
from addcyclic.poly import parse_poly

from oracles import MixedWord, add_words, gray_block, gray_word_inverse, projections, scale_word
from test_codes import random_mixed_code, random_plain_codes

T3 = tower(3)
T4 = tower(4)


def P(text, tw=T3, ext=False):
    return parse_poly(text, tw.ext if ext else tw.base, tw)


def gray_word(w):
    """The Gray image of one word: its row of `gray_rows`."""
    return gray_rows(w.tower, w.alpha, w.expand()[None])[0]


def test_gray_block_examples():
    assert list(gray_block(T3, [T3.omega])) == [1, 1]
    assert not gray_block(T3, [0, 0, 0]).any()
    # F_16 over F_4 with u + w: b = u, c = 1 -> (u+1, 1)
    z = int(T4.compose(T4.p, 1))
    got = list(gray_block(T4, [z]))
    assert got == [int(T4.base.add(T4.p, 1)), 1]


def test_gray_word_examples():
    w0 = MixedWord(T3, (0,), (0,))
    assert not gray_word(w0).any()
    w = MixedWord(T3, (2,), (T3.omega,))
    assert list(gray_word(w)) == [2, 1, 1]


def test_gray_roundtrip_randomized():
    rng = random.Random(67)
    for _ in range(10_000):
        tw = rng.choice((T3, T4))
        alpha, beta = rng.randrange(1, 5), rng.randrange(1, 5)
        w = MixedWord(tw, tuple(rng.randrange(tw.q) for _ in range(alpha)),
                      tuple(rng.randrange(tw.q**2) for _ in range(beta)))
        assert gray_word_inverse(tw, alpha, beta, gray_word(w)) == w


@pytest.mark.parametrize("vec,message", [
    ([5, 1, 1], "entry 5 lies outside F_3"),
    ([256, 1, 1], "entry 256 at .* is not an integer in 0..255"),
    (np.array([256, 1, 1]), "entry 256 at .* is not an integer in 0..255"),
], ids=["5", "256-list", "256-array"])
def test_gray_word_inverse_refuses_entries_outside_fq(vec, message):
    # an image word lies in F_q^(alpha + 2 beta): 5 would pass into u as an
    # element outside F_3, and a cast to bytes would wrap 256 to 0
    with pytest.raises(ValueError, match=message):
        gray_word_inverse(T3, 1, 1, vec)


def test_gray_linearity_randomized():
    rng = random.Random(71)
    for _ in range(2_000):
        tw = rng.choice((T3, T4))
        alpha, beta = rng.randrange(1, 4), rng.randrange(1, 4)
        x = MixedWord(tw, tuple(rng.randrange(tw.q) for _ in range(alpha)),
                      tuple(rng.randrange(tw.q**2) for _ in range(beta)))
        y = MixedWord(tw, tuple(rng.randrange(tw.q) for _ in range(alpha)),
                      tuple(rng.randrange(tw.q**2) for _ in range(beta)))
        a = rng.randrange(tw.q)
        lhs = gray_word(add_words(scale_word(x, a), y))
        rhs = tw.base.add(tw.base.mul(a, gray_word(x)), gray_word(y))
        assert np.array_equal(lhs, np.asarray(rhs))


def reference_gray_word(w):
    """The per-word Gray map: u, then the (b + c | c) image of u'."""
    return np.concatenate([np.asarray(w.u, dtype=np.uint8), gray_block(w.tower, w.uprime)])


def test_gray_rows_match_gray_word():
    rng = random.Random(71)
    for _ in range(300):
        tw = rng.choice((T3, T4, tower(8)))
        alpha, beta = rng.randrange(0, 5), rng.randrange(1, 5)
        words = [MixedWord(tw, tuple(rng.randrange(tw.q) for _ in range(alpha)),
                           tuple(rng.randrange(tw.q**2) for _ in range(beta)))
                 for _ in range(rng.randrange(0, 6))]
        expanded = np.array([w.expand() for w in words], dtype=np.uint8)
        got = gray_rows(tw, alpha, expanded.reshape(len(words), alpha + 2 * beta))
        assert got.shape == (len(words), alpha + 2 * beta)
        for w, row in zip(words, got):
            assert np.array_equal(row, reference_gray_word(w))
            assert np.array_equal(gray_word(w), reference_gray_word(w))


@pytest.mark.parametrize("alpha,width", [(1, 4), (0, 3), (2, 1)])
def test_gray_rows_refuses_a_width_without_whole_pairs(alpha, width):
    # an odd beta part would pair b with the next coordinate's b
    with pytest.raises(ValueError, match=f"width {width} is not alpha={alpha}"):
        gray_rows(T3, alpha, np.ones((1, width), dtype=np.uint8))
    assert gray_rows(T3, 1, [[1, 0, 1]]).tolist() == [[1, 1, 1]]


def test_gray_image_rank_loss_raises(monkeypatch):
    code = MixedCode(T3, 1, 3, P("1"), P("x^2+x+1", ext=True),
                     P("x+2"), P("x+2"), P("x^3+2"))
    monkeypatch.setattr(gray, "gray_rows",
                        lambda tw, alpha, rows: np.zeros_like(rows))
    with pytest.raises(InvariantViolation):
        gray_image(code)


def test_classification_cases():
    assert classify_gray_image(3, 3) == QUASI_CYCLIC_3
    assert classify_gray_image(1, 7) == GENERALIZED_QC      # 1 + 14 = 15
    assert classify_gray_image(3, 4) == CYCLIC_EQUIVALENT   # 3 + 8 = 11
    # one empty block: the image is the other block
    assert classify_gray_image(0, 3) == "extension block only"
    assert classify_gray_image(3, 0) == "alpha block only"
    for alpha, beta in ((0, 0), (-1, 3), (3, -1), (-2, 1)):
        with pytest.raises(ValueError, match=f"alpha={alpha}, beta={beta}"):
            classify_gray_image(alpha, beta)


def test_image_code_table2_row1():
    code = MixedCode(T3, 1, 3, P("1"), P("x^2+x+1", ext=True),
                     P("x+2"), P("x+2"), P("x^3+2"))
    img = gray_image(code)
    assert (img.length, img.rank) == (7, 3)
    d = min_distance_exact(img.base).value
    assert d == 4


def test_image_of_zero_code():
    from addcyclic.poly import Poly
    code = MixedCode(T3, 2, 2, Poly.zero(T3.base), Poly.zero(T3.ext),
                     Poly.zero(T3.base), Poly.zero(T3.base), Poly.zero(T3.base))
    img = gray_image(code)
    assert img.rank == 0


def test_images_of_projections():
    # C_alpha has beta = 0: its image is the alpha block itself; C_beta
    # has alpha = 0: its image is the doubled extension block
    rng = random.Random(89)
    for _ in range(40):
        code = random_mixed_code(rng, rng.choice((T3, T4)),
                                 rng.randrange(1, 4), rng.randrange(1, 4))
        c_alpha, c_beta = projections(code)
        img = gray_image(c_alpha)
        assert img.classification == "alpha block only"
        assert np.array_equal(img.matrix, c_alpha.matrix)
        img = gray_image(c_beta)
        assert img.classification == "extension block only"
        assert img.rank == c_beta.rank and img.length == 2 * code.beta


def test_gray_image_of_a_plain_code_is_the_code():
    # at beta = 0 the map is the identity; the image keeps the source
    # split (width, 0), and no mixed generators are read from it
    for gm in random_plain_codes(419):
        image = gray_image(gm)
        assert image.base.equals(gm)
        assert (image.alpha, image.beta) == (gm.width, 0)
        assert image.classification == "alpha block only"


def test_extraction_refuses_a_gray_image():
    # an image is a plain code, beta = 0, refused by name before
    # anything is built
    rng = random.Random(421)
    for _ in range(20):
        code = random_mixed_code(rng, rng.choice((T3, T4)),
                                 rng.randrange(1, 4), rng.randrange(1, 4))
        base = gray_image(code).base
        with pytest.raises(ValueError, match=f"alpha={base.width}, beta=0"):
            extract_mixed_generators(base)


def test_image_dimension_preserved_randomized():
    rng = random.Random(73)
    for _ in range(200):
        code = random_mixed_code(rng, rng.choice((T3, T4)),
                                 rng.randrange(1, 4), rng.randrange(1, 4))
        img = gray_image(code)
        assert img.rank == code.dimension


def test_shift_invariance_of_images():
    rng = random.Random(79)
    for _ in range(200):
        code = random_mixed_code(rng, T3, rng.randrange(1, 4), rng.randrange(1, 4))
        assert shift_invariance_check(gray_image(code))


def test_shift_invariance_of_row9_is_qc3():
    code = MixedCode(T3, 3, 3, P("1"), P("2w+2", ext=True),
                     P("1"), P("x"), P("x^3+2"))
    img = gray_image(code)
    assert img.classification == QUASI_CYCLIC_3
    assert shift_invariance_check(img)


def test_random_subspace_not_shift_invariant():
    from addcyclic.gray import GrayImageCode
    vec = np.zeros((1, 3 + 2 * 3), dtype=np.uint8)
    vec[0, 0] = 1
    img = GrayImageCode(GeneratorMatrixCode(T3, vec), 3, 3)
    assert not shift_invariance_check(img)


def test_distance_lemma_on_enumerable_codes():
    # the image's Hamming distance is never below the mixed-alphabet distance
    rng = random.Random(83)
    checked = 0
    while checked < 60:
        alpha, beta = rng.randrange(1, 4), rng.randrange(1, 4)
        code = random_mixed_code(rng, T3, alpha, beta)
        if code.dimension == 0 or code.closure.size > 3**8:
            continue
        d_mixed = min_distance_exact(code.closure).value
        img = gray_image(code)
        d_gray = min_distance_exact(img.base).value
        assert d_gray >= d_mixed
        checked += 1


def test_coordinatewise_weight_inequality():
    # a nonzero extension symbol maps to a nonzero pair
    for z in range(1, 9):
        assert gray_block(T3, [z]).any()


def reference_shift_columns_image(alpha, beta, mat):
    """sigma by np.roll: the alpha block and the two beta halves each
    shift right by one.  Kept as the oracle of the index permutation."""
    out = np.asarray(mat, dtype=np.uint8).copy()
    if alpha:
        out[:, :alpha] = np.roll(out[:, :alpha], 1, axis=1)
    out[:, alpha : alpha + beta] = np.roll(out[:, alpha : alpha + beta], 1, axis=1)
    out[:, alpha + beta :] = np.roll(out[:, alpha + beta :], 1, axis=1)
    return out


def test_shift_invariance_agrees_with_roll_sigma():
    from addcyclic.gray import GrayImageCode
    from test_codes import orbit_span, x_order
    rng = random.Random(197)
    nprng = np.random.default_rng(197)
    outcomes = set()
    for _ in range(80):
        tw = rng.choice((T3, tower(4), tower(8)))
        alpha, beta = rng.randrange(0, 4), rng.randrange(1, 4)
        width = alpha + 2 * beta
        sigma = lambda m: reference_shift_columns_image(alpha, beta, m)
        vec = nprng.integers(0, tw.q, size=width, dtype=np.uint8)
        orbit = orbit_span(tw, vec, sigma, x_order(alpha, beta))
        extra = nprng.integers(0, tw.q, size=(1, width), dtype=np.uint8)
        for base in (orbit, GeneratorMatrixCode(tw, np.vstack([orbit.matrix, extra]))):
            img = GrayImageCode(base, alpha, beta)
            expected = base.contains_rows(sigma(base.matrix))
            assert shift_invariance_check(img) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}
