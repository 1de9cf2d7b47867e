"""Code construction, closures, spanning sets, duals, cyclicity."""

import inspect
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from addcyclic import codes as codes_module, linalg
from addcyclic.codes import (
    Cardinality,
    CodeConstructionError,
    MAX_CLOSURE_CELLS,
    ExtractedGenerators,
    GeneratorMatrixCode,
    MixedCode,
    SingletonResult,
    SpanningSet,
    dual,
    extract_mixed_generators,
    invariant_under,
    is_cyclic,
    load_definition,
    module_closure,
    singleton_check,
    _closure_rows,
    _echelon_generators,
    _shift_columns,
    _span_degree,
)
from addcyclic.fields import tower
from addcyclic.poly import Poly, divides, lift, parse_poly, poly_gcd
from addcyclic.tables import TABLE1, TABLE2

from oracles import MixedWord, add_words, beta_generator_words, canonicalize_pure, codewords
from oracles import combine_components, expand_words, field_sum, generator_words
from oracles import inner_product, intersect, is_zero_word, projections, scale_word
from oracles import shift_word, star
from test_linalg import in_rowspace, row_basis, rowspace_equal, solve
from test_poly import ext_gcd

T3 = tower(3)
T4 = tower(4)
T8 = tower(8)


def P(text, tw=T3, ext=False):
    return parse_poly(text, tw.ext if ext else tw.base, tw)


def word(tw, u, uprime):
    return MixedWord(tw, tuple(u), tuple(uprime))


def span_words(code):
    """Oracle: iteratively close the generator words under addition and
    shifting, never touching the linear-algebra path."""
    tw, alpha, beta = code.tower, code.alpha, code.beta
    gens = generator_words(code)
    zero = MixedWord(tw, (0,) * alpha, (0,) * beta)
    seen = {zero}
    frontier = [zero]
    while frontier:
        w = frontier.pop()
        for g in gens:
            for c in range(1, tw.q):
                cand = add_words(w, scale_word(g, c))
                if cand not in seen:
                    seen.add(cand)
                    frontier.append(cand)
        shifted = shift_word(w)
        if shifted not in seen:
            seen.add(shifted)
            frontier.append(shifted)
    return seen


# -- random valid codes -------------------------------------------------------


def random_divisor(rng, field, n):
    """A monic divisor of x^n - 1 (gcd with a random polynomial)."""
    xn1 = Poly.xn_minus_1(field, n)
    r = Poly(field, [rng.randrange(field.order) for _ in range(rng.randrange(1, n + 2))])
    if r.is_zero():
        return xn1
    return poly_gcd(r, xn1)


def random_pure_code(rng, tw, n):
    f = tw.base
    g = random_divisor(rng, f, n)
    k = random_divisor(rng, f, n)
    h = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(n + 1))])
    return MixedCode(tw, 0, n, None, None, g, h, k)


def random_mixed_code(rng, tw, alpha, beta):
    """Valid by construction: h is a multiple of k/gcd(k, (x^beta-1)/g)
    and l is an element of the beta-side kernel module."""
    f = tw.base
    xb1 = Poly.xn_minus_1(f, beta)
    s = random_divisor(rng, f, alpha)
    g = random_divisor(rng, f, beta)
    k = random_divisor(rng, f, beta)
    t = xb1 // g
    d = poly_gcd(k, t) if not t.is_zero() else k
    r = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(1, beta + 1))])
    h = (k // d) * r
    e1 = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(beta + 1))])
    e2 = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(beta + 1))])
    gwh = combine_components(g, h, tw)
    wk = combine_components(Poly.zero(f), k, tw)
    l = lift(e1, tw.ext) * gwh + lift(e2, tw.ext) * wk
    return MixedCode(tw, alpha, beta, s, l, g, h, k)


# -- pure codes ---------------------------------------------------------------


def test_build_pure_table_row():
    code = MixedCode(T4, 0, 5, None, None, P("1", T4), P("x^2+ux", T4),
                     P("x^4+x^3+x^2+x+1", T4))
    assert code.dimension == 6
    card = code.cardinality()
    assert card.formula == card.actual == 4**6


def test_build_pure_full_space():
    code = MixedCode(T3, 0, 4, None, None, P("1"), Poly.zero(T3.base), P("1"))
    assert code.dimension == 8  # all of F_9^4 as an F_3 space
    assert code.cardinality().actual == 3 ** (2 * 4)


def test_build_pure_divisibility_error():
    # x^2+1 = (x+1)^2 does not divide the squarefree x^5-1 over F_4
    with pytest.raises(CodeConstructionError):
        MixedCode(T4, 0, 5, None, None, P("x^2+1", T4), Poly.zero(T4.base), P("1", T4))


@pytest.mark.parametrize("alpha, beta, s, l, named", [
    (0, 4, "1", None, "s must be None"),
    (0, 4, None, "w", "l must be None"),
    (-1, 4, None, None, "alpha=-1"),
    (0, 0, None, None, "beta=0"),
    (2, 0, "1", "w", "beta=0"),
    (2, 3, None, "w", "s is needed"),
    (2, 3, "1", None, "l is needed"),
    (1.0, 2, "1", "w", "alpha must be an int, got 1.0"),
    (False, 3, None, None, "alpha must be an int, got False"),
    (0, 3.0, None, None, "beta must be an int, got 3.0"),
])
def test_constructor_refuses_block_lengths_and_stray_generators(alpha, beta, s, l, named):
    # a pure code (alpha = 0) takes no s or l, a code with alpha >= 1
    # needs both; alpha < 0, beta < 1 and anything but an int (a bool
    # included, as in a document) are no block lengths
    one = P("1")
    with pytest.raises(ValueError) as exc:
        MixedCode(T3, alpha, beta, s and P(s), l and P(l, ext=True), one, one, one)
    assert named in str(exc.value)
    assert not isinstance(exc.value, CodeConstructionError)


@pytest.mark.parametrize("entry", TABLE1, ids=lambda e: f"row{e.row}")
def test_constructor_and_load_definition_agree_on_table1(entry):
    doc = entry.doc
    tw = tower(doc["q"])
    g, h, k = (parse_poly(doc[key], tw.base, tw) for key in "ghk")
    built = MixedCode(tw, 0, doc["beta"], None, None, g, h, k)
    loaded = load_definition(doc)
    assert built.closure.equals(loaded.closure)
    assert built.cardinality() == loaded.cardinality()
    assert np.array_equal(built.spanning_set().rows, loaded.spanning_set().rows)


def test_pure_basis_table_row():
    code = MixedCode(T4, 0, 5, None, None, P("1", T4), P("x^2+ux", T4),
                     P("x^4+x^3+x^2+x+1", T4))
    mat = code.spanning_set().rows
    assert len(mat) == 6  # (5 - 0) + (5 - 4)
    assert linalg.rank(T4.base, mat) == 6  # F_q-independent
    assert rowspace_equal(T4.base, mat, code.closure.matrix)


def test_pure_basis_trivial_kernel():
    # g=1, h=0, k = x^n-1: the embedded copy of F_q^n
    code = MixedCode(T3, 0, 4, None, None, P("1"), Poly.zero(T3.base), P("x^4+2"))
    assert len(code.spanning_set().rows) == 4
    assert code.dimension == 4


def test_pure_basis_omega_copy():
    # g = x^n-1, h = 0, k = 1: the set w*F_q^n
    code = MixedCode(T3, 0, 4, None, None, P("x^4+2"), Poly.zero(T3.base), P("1"))
    rows = code.spanning_set().rows
    assert len(rows) == 4
    assert not rows[:, 0::2].any()  # every b column is zero


def test_pure_closure_matches_bruteforce_span():
    rng = random.Random(11)
    for tw, n in ((T3, 3), (T3, 4), (T4, 3)):
        for _ in range(5):
            code = random_pure_code(rng, tw, n)
            assert len(span_words(code)) == code.closure.size


# -- canonicalization ---------------------------------------------------------


def reference_canonicalize_pure(tw, n, g, h, k):
    """The canonical triple by polynomial arithmetic, kept as the oracle
    of the echelon read: g* = gcd(g, x^n - 1) = a*g + t*(x^n - 1), k* the
    gcd of x^n - 1, k and h*(x^n - 1)/g*, and h* = a*h reduced mod k*."""
    base = tw.base
    xn1 = Poly.xn_minus_1(base, n)
    if g.is_zero() or divides(xn1, g):
        gstar = xn1
        a = Poly.zero(base)
    else:
        gstar, a, _ = ext_gcd(g, xn1)
    kernel_gens = [xn1]
    if not k.is_zero():
        kernel_gens.append(k)
    lifted = h * (xn1 // gstar)
    if not lifted.is_zero():
        kernel_gens.append(lifted)
    kstar = kernel_gens[0]
    for p in kernel_gens[1:]:
        kstar = poly_gcd(kstar, p)
    hstar = (a * h) % xn1
    if not kstar.is_zero():
        hstar = hstar % kstar
    return gstar.monic(), hstar, kstar.monic()


def test_canonicalize_known_degenerate():
    gs, hs, ks = canonicalize_pure(T3, 3, P("x^3+2"), P("2x^2+2x+2"), P("x^3+2"))
    assert gs == P("x^3+2")
    assert hs.is_zero()
    assert ks == P("x^2+x+1")


def test_canonicalize_already_canonical():
    g, h, k = P("1", T4), P("x^2+ux", T4), P("x^4+x^3+x^2+x+1", T4)
    assert canonicalize_pure(T4, 5, g, h, k) == (g, h, k)


def test_canonicalize_full_space():
    one, zero = Poly.one(T3.base), Poly.zero(T3.base)
    assert canonicalize_pure(T3, 5, one, zero, one) == (one, zero, one)


def test_canonicalize_idempotent_and_closure_preserving():
    rng = random.Random(13)
    cases = 0
    while cases < 150:
        tw = rng.choice((T3, T4))
        n = rng.randrange(2, 6)
        f = tw.base
        # raw triples, not even divisors: canonicalize must cope
        g = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(n + 2))])
        h = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(n + 2))])
        k = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(n + 2))])
        gs, hs, ks = canonicalize_pure(tw, n, g, h, k)
        assert (gs, hs, ks) == reference_canonicalize_pure(tw, n, g, h, k)
        assert canonicalize_pure(tw, n, gs, hs, ks) == (gs, hs, ks)
        raw = module_closure(tw, 0, n, MixedCode(tw, 0, n, None, None, gs, hs, ks)
                             .generator_rows())
        # original triple need not satisfy the divisor conditions, so build
        # its closure directly from words
        original = module_closure(tw, 0, n, expand_words(
            beta_generator_words(tw, 0, n, g, h, k), 2 * n))
        assert raw.equals(original)
        canon_code = MixedCode(tw, 0, n, None, None, gs, hs, ks)
        g2, h2, k2 = canonicalize_pure(tw, n, canon_code.g, canon_code.h, canon_code.k)
        assert (canon_code.g.monic(), canon_code.h % canon_code.k,
                canon_code.k.monic()) == (g2, h2, k2)
        assert len(canon_code.spanning_set().rows) == canon_code.dimension
        cases += 1


# -- module closure -----------------------------------------------------------


def test_module_closure_table2_rows():
    c8 = MixedCode(T3, 3, 3, P("x^2+x+1"), P("(w+1)x^2+(w+1)x+w+1", ext=True),
                   P("x^3+2"), P("2x^2+2x+2"), P("x^3+2"))
    assert c8.dimension == 2
    c9 = MixedCode(T3, 3, 3, P("1"), P("2w+2", ext=True),
                   P("1"), P("x"), P("x^3+2"))
    assert c9.dimension == 6


def test_module_closure_empty():
    gm = module_closure(T3, 2, 2, [])
    assert gm.rank == 0 and gm.width == 6


def test_mixed_closure_matches_bruteforce_span():
    rng = random.Random(29)
    for _ in range(6):
        code = random_mixed_code(rng, T3, rng.randrange(1, 4), rng.randrange(1, 4))
        assert len(span_words(code)) == code.closure.size


# -- mixed construction --------------------------------------------------------


def test_build_mixed_conditions_ok():
    code = MixedCode(T3, 3, 3, P("1"), P("2w+2", ext=True),
                     P("1"), P("x"), P("x^3+2"))
    assert code.condition_failures == ()


def test_build_mixed_divisibility_error():
    with pytest.raises(CodeConstructionError):
        MixedCode(T3, 3, 3, P("x^2+1"), P("0", ext=True),
                  P("1"), P("0"), P("1"))


def test_build_mixed_membership_error_strict():
    # l = 1 with s = x^alpha-1 needs 1 in <g+wh, wk>; pick a tiny kernel
    bad = dict(s=P("x^3+2"), l=P("1", ext=True), g=P("x^3+2"),
               h=P("0"), k=P("x^3+2"))
    with pytest.raises(CodeConstructionError) as info:
        MixedCode(T3, 3, 3, bad["s"], bad["l"], bad["g"], bad["h"], bad["k"])
    assert "not in" in str(info.value)
    lenient = MixedCode(T3, 3, 3, bad["s"], bad["l"], bad["g"], bad["h"],
                        bad["k"], strict=False)
    assert lenient.condition_failures


def reference_condition_failures(code):
    """The eager check MixedCode.__init__ ran on every code before the
    conditions were checked on first read."""
    tw, alpha, beta = code.tower, code.alpha, code.beta
    s, l, g, h, k = code.s, code.l, code.g, code.h, code.k
    base = tw.base
    xa1 = Poly.xn_minus_1(base, alpha)
    xb1 = Poly.xn_minus_1(base, beta)
    failures = []
    g_vanishes = divides(xb1, g)
    if not g_vanishes and not divides(k, h * (xb1 // g)):
        failures.append("k does not divide h*(x^beta-1)/g")
    leftover = lift(xa1 // s, tw.ext) * l
    member_word = MixedWord.from_polys(tw, 0, beta, Poly.zero(base), leftover)
    kernel_code = module_closure(tw, 0, beta, expand_words(
        beta_generator_words(tw, 0, beta, g, h, k), 2 * beta))
    if not kernel_code.contains(member_word.expand()):
        failures.append("((x^alpha-1)/s)*l is not in <g+wh, wk>")
    return tuple(failures)


DIVISIBILITY = "k does not divide h*(x^beta-1)/g"
MEMBERSHIP = "((x^alpha-1)/s)*l is not in <g+wh, wk>"
# (alpha, beta, s, l, g, h, k) over F_3 and the conditions they violate
CONDITION_CASES = [
    ((1, 3, "1", "x^2+x+1", "x+2", "x+2", "x^3+2"), ()),
    ((3, 3, "1", "2w+2", "1", "x", "x^3+2"), ()),
    ((3, 3, "1", "0", "x+2", "1", "x^3+2"), (DIVISIBILITY,)),
    ((1, 3, "1", "1", "0", "0", "0"), (MEMBERSHIP,)),
    ((3, 3, "x^3+2", "1", "x^3+2", "0", "x^3+2"), (MEMBERSHIP,)),
    ((1, 3, "1", "1", "x+2", "1", "x^3+2"), (DIVISIBILITY, MEMBERSHIP)),
]


def test_lazy_condition_failures_match_eager_check():
    for (alpha, beta, s, l, g, h, k), violated in CONDITION_CASES:
        args = (T3, alpha, beta, P(s), P(l, ext=True), P(g), P(h), P(k))
        lenient = MixedCode(*args, strict=False)
        assert "condition_failures" not in vars(lenient)  # checked on read
        assert reference_condition_failures(lenient) == violated
        assert lenient.condition_failures == violated
        if violated:
            with pytest.raises(CodeConstructionError) as info:
                MixedCode(*args)
            assert str(info.value) == "; ".join(violated)
        else:
            assert MixedCode(*args).condition_failures == ()


def test_lazy_condition_failures_match_eager_check_randomized():
    rng = random.Random(227)
    seen = set()
    for trial in range(120):
        tw = tower((2, 3, 4, 5, 7, 8)[trial % 6])
        f = tw.base
        alpha, beta = rng.randrange(1, 6), rng.randrange(1, 7)
        if trial % 3 == 0:
            code = random_mixed_code(rng, tw, alpha, beta)
        else:
            code = MixedCode(
                tw, alpha, beta, random_divisor(rng, f, alpha),
                Poly(tw.ext, [rng.randrange(tw.ext.order) for _ in range(beta)]),
                random_divisor(rng, f, beta),
                Poly(f, [rng.randrange(f.order) for _ in range(beta)]),
                random_divisor(rng, f, beta), strict=False)
        expected = reference_condition_failures(code)
        assert code.condition_failures == expected
        seen.add(expected)
    assert () in seen and (DIVISIBILITY,) in seen and (MEMBERSHIP,) in seen


@pytest.mark.xfail(strict=True, reason=(
    "k | h*(x^beta-1)/g is not checked when g = 0 mod x^beta - 1; the mend adds "
    "a details line to table-2 row 8 and so moves the report digest the "
    "benchmark pins (perfbench/reference.py): it waits for a benchmark change"))
def test_a_condition_fails_exactly_when_the_formula_misses_the_closure():
    code = load_definition({"q": 3, "alpha": 2, "beta": 1, "s": "0", "l": "w",
                            "g": "0", "h": "1", "k": "0"}, strict=False)
    card = code.cardinality()
    assert (card.formula, card.actual) == (1, 3)
    assert bool(code.condition_failures) == (not card.agree)


def test_build_mixed_all_zero():
    code = MixedCode(T3, 2, 2, Poly.zero(T3.base), Poly.zero(T3.ext),
                     Poly.zero(T3.base), Poly.zero(T3.base), Poly.zero(T3.base))
    assert code.dimension == 0
    assert code.cardinality() == type(code.cardinality())(1, 1)


def test_spanning_set_row9():
    code = MixedCode(T3, 3, 3, P("1"), P("2w+2", ext=True),
                     P("1"), P("x"), P("x^3+2"))
    span = code.spanning_set()
    assert len(span.rows) == 6 and span.spans_ok
    assert code.cardinality().agree


def test_spanning_set_row8_degenerate():
    code = MixedCode(T3, 3, 3, P("x^2+x+1"), P("(w+1)x^2+(w+1)x+w+1", ext=True),
                     P("x^3+2"), P("2x^2+2x+2"), P("x^3+2"))
    span = code.spanning_set()
    assert len(span.rows) == 1 and not span.spans_ok
    card = code.cardinality()
    assert card.formula == 3 and card.actual == 9


def test_spanning_set_zero_code():
    code = MixedCode(T3, 2, 2, Poly.zero(T3.base), Poly.zero(T3.ext),
                     Poly.zero(T3.base), Poly.zero(T3.base), Poly.zero(T3.base))
    span = code.spanning_set()
    assert span.rows.shape == (0, 6) and span.spans_ok


def test_cardinality_agreement_iff_spans_ok():
    rng = random.Random(37)
    for _ in range(200):
        code = random_mixed_code(rng, rng.choice((T3, T4)),
                                 rng.randrange(1, 4), rng.randrange(1, 4))
        span = code.spanning_set()
        assert span.spans_ok == code.cardinality().agree
        if span.spans_ok:
            assert len(span.rows) == code.dimension


# -- degree-counted spanning sets against the shift loop ----------------------


def reference_degree_counted_words(code):
    """The degree-counted spanning set built word by word: generator i
    of (s | l), (0 | g + w*h), (0 | w*k) followed by its x-shifts, as
    many words as its degree count."""
    tw, zero = code.tower, Poly.zero(code.tower.base)
    alpha, beta = code.alpha, code.beta
    gens = [(code.s, code.l, alpha - code.s.degree())] if alpha else []
    gens += [(zero, combine_components(code.g, code.h, tw), beta - code.g.degree()),
             (zero, combine_components(zero, code.k, tw), beta - code.k.degree())]
    words = []
    for a, b, count in gens:
        cur = MixedWord.from_polys(tw, alpha, beta, a, b)
        for _ in range(count):
            words.append(cur)
            cur = shift_word(cur)
    return words


def reference_spans_ok(code, words):
    width = code.closure.width
    mat = expand_words(words, width)
    return GeneratorMatrixCode(code.tower, mat).equals(code.closure)


DEGREE_COUNT_TOWERS = [tower(q) for q in (2, 3, 4, 5, 7, 8)]


def check_spanning_set(code):
    want = reference_degree_counted_words(code)
    span = code.spanning_set()
    assert span.rows.dtype == np.uint8
    assert np.array_equal(span.rows, expand_words(want, code.closure.width))
    assert span.spans_ok == reference_spans_ok(code, want)
    assert code.cardinality() == Cardinality(code.tower.q ** len(want),
                                             code.tower.q ** code.dimension)


def check_basis_words(code):
    """A pure code's spanning set is its degree-counted words, spans_ok
    saying whether they span; those of its canonical triple always span."""
    check_spanning_set(code)
    code = MixedCode(code.tower, 0, code.beta, None, None,
                     *canonicalize_pure(code.tower, code.beta, code.g, code.h, code.k))
    want = reference_degree_counted_words(code)
    assert np.array_equal(code.spanning_set().rows, expand_words(want, 2 * code.beta))
    assert reference_spans_ok(code, want)


def test_spanning_set_matches_the_shift_loop():
    rng = random.Random(419)
    for i in range(120):
        tw = DEGREE_COUNT_TOWERS[i % len(DEGREE_COUNT_TOWERS)]
        alpha, beta = rng.randrange(1, 7), rng.randrange(1, 8)
        make = random_mixed_code if i % 2 else random_lenient_code
        check_spanning_set(make(rng, tw, alpha, beta))


def test_basis_words_match_the_shift_loop():
    rng = random.Random(421)
    for i in range(120):
        tw = DEGREE_COUNT_TOWERS[i % len(DEGREE_COUNT_TOWERS)]
        check_basis_words(random_pure_code(rng, tw, rng.randrange(1, 9)))


# -- generator and spanning rows against the word pipeline ---------------------


def check_word_pipeline(code):
    """The generator rows are the expanded generator words built from
    the polynomials, row for row, and the spanning rows those of the
    shift loop (`check_spanning_set`)."""
    rows = code.generator_rows()
    assert rows.dtype == np.uint8
    assert np.array_equal(rows, expand_words(generator_words(code),
                                             code.alpha + 2 * code.beta))
    check_spanning_set(code)


def degenerate_code(rng, tw, alpha, beta, case):
    """A lenient code with arbitrary h and l of degree up to twice the
    block length (so both fold mod x^beta - 1), and by `case` g ≡ 0,
    k ≡ 0, l = 0 or s = x^alpha - 1; alpha = 0 gives a pure code."""
    f, zero = tw.base, Poly.zero(tw.base)
    g, k = random_divisor(rng, f, beta), random_divisor(rng, f, beta)
    h = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(2 * beta + 2))])
    g = zero if case == 0 else g
    k = zero if case == 1 else k
    if not alpha:
        return MixedCode(tw, 0, beta, None, None, g, h, k)
    l = Poly(tw.ext, [rng.randrange(tw.ext.order) for _ in range(rng.randrange(2 * beta + 2))])
    l = Poly.zero(tw.ext) if case == 2 else l
    s = Poly.xn_minus_1(f, alpha) if case == 3 else random_divisor(rng, f, alpha)
    return MixedCode(tw, alpha, beta, s, l, g, h, k, strict=False)


def test_generator_and_spanning_rows_match_the_word_pipeline():
    for entry in TABLE1:
        check_word_pipeline(load_definition(entry.doc))
    for entry in TABLE2:
        check_word_pipeline(load_definition(entry.doc, strict=False))
    rng = random.Random(431)
    seen = set()
    for i in range(300):
        tw = tower((2, 3, 4, 8, 9)[i % 5])
        alpha, beta = rng.randrange(0, 7), rng.randrange(1, 7)
        case = (i // 5) % 5
        code = degenerate_code(rng, tw, alpha, beta, case)
        check_word_pipeline(code)
        seen.add((alpha > 0, case))
    assert seen == {(mixed, case) for mixed in (False, True) for case in range(5)}


def empty_spanning_set(span, width):
    return (isinstance(span, SpanningSet) and span.rows.shape == (0, width)
            and span.spans_ok)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_degree_counts_of_zero_generators(q):
    tw = tower(q)
    f, zero, one = tw.base, Poly.zero(tw.base), Poly.one(tw.base)
    xa1, xb1 = Poly.xn_minus_1(f, 3), Poly.xn_minus_1(f, 4)
    lw, l0 = Poly(tw.ext, [tw.omega, 1]), Poly.zero(tw.ext)
    mixed = [
        MixedCode(tw, 3, 4, xa1, lw, one, zero, one, strict=False),  # s = x^3-1
        MixedCode(tw, 3, 4, one, l0, xb1, zero, one, strict=False),  # g = x^4-1
        MixedCode(tw, 3, 4, one, l0, one, zero, xb1, strict=False),  # k = x^4-1
        MixedCode(tw, 3, 4, zero, l0, zero, zero, zero),
    ]
    for code in mixed:
        check_spanning_set(code)
    assert empty_spanning_set(mixed[-1].spanning_set(), 11)
    pure = [MixedCode(tw, 0, 4, None, None, xb1, zero, one),
            MixedCode(tw, 0, 4, None, None, one, zero, xb1),
            MixedCode(tw, 0, 4, None, None, zero, zero, zero)]
    for code in pure:
        check_basis_words(code)
    assert empty_spanning_set(pure[-1].spanning_set(), 8)


def test_divisor_messages_of_both_constructors():
    def message(build):
        with pytest.raises(CodeConstructionError) as exc:
            build()
        return str(exc.value)

    one, zero = P("1"), Poly.zero(T3.base)
    assert message(lambda: MixedCode(T4, 0, 5, None, None, P("x^2+1", T4),
                                     Poly.zero(T4.base), P("1", T4))) == \
        "g = x^2+1 does not divide x^5-1 over F_4"
    assert message(lambda: MixedCode(T3, 0, 4, None, None, one, zero,
                                     P("x^2+x+1"))) == \
        "k = x^2+x+1 does not divide x^4-1 over F_3"
    assert message(lambda: MixedCode(T3, 3, 3, P("x^2+1"), Poly.zero(T3.ext),
                                     one, zero, one)) == \
        "s = x^2+1 does not divide x^3-1"
    assert message(lambda: MixedCode(T3, 3, 4, one, Poly.zero(T3.ext),
                                     P("x^2+x+1"), zero, one)) == \
        "g = x^2+x+1 does not divide x^4-1"
    assert message(lambda: MixedCode(T3, 3, 4, one, Poly.zero(T3.ext),
                                     one, zero, P("x^2+x+1"))) == \
        "k = x^2+x+1 does not divide x^4-1"


# -- the module action ----------------------------------------------------------


def test_star_x_is_shift():
    rng = random.Random(41)
    for _ in range(50):
        alpha, beta = rng.randrange(1, 5), rng.randrange(1, 5)
        w = word(T3, [rng.randrange(3) for _ in range(alpha)],
                 [rng.randrange(9) for _ in range(beta)])
        assert star(P("x"), w) == shift_word(w)


def test_star_identity_and_annihilator():
    w = word(T3, (1, 2, 0), (4, 0, 7))
    assert star(P("1"), w) == w
    z = star(P("x^3+2"), w)  # x^3-1 kills both blocks when alpha = beta = 3
    assert is_zero_word(z)


def test_shift_order_divides_lcm():
    import math
    rng = random.Random(43)
    for _ in range(50):
        alpha, beta = rng.randrange(1, 5), rng.randrange(1, 5)
        w = word(T3, [rng.randrange(3) for _ in range(alpha)],
                 [rng.randrange(9) for _ in range(beta)])
        cur = w
        for _ in range(math.lcm(alpha, beta)):
            cur = shift_word(cur)
        assert cur == w


# -- inner product and duals ----------------------------------------------------


def test_inner_product_examples():
    assert inner_product(word(T3, (1,), (0,)), word(T3, (1,), (0,))) == T3.omega
    assert inner_product(word(T3, (1,), (T3.omega,)), word(T3, (0,), (0,))) == 0
    # (1|w) with itself: w + w^2 = 2 + w
    v = word(T3, (1,), (T3.omega,))
    assert inner_product(v, v) == int(T3.compose(2, 1))


def test_dual_of_full_and_zero():
    zero = module_closure(T3, 2, 2, [])
    full_basis = np.eye(6, dtype=np.uint8)
    full = GeneratorMatrixCode(T3, full_basis, beta=2)
    assert dual(full).rank == 0
    assert dual(zero).rank == 6


def _form_matrix(tw, alpha, beta):
    """Gram matrix of the F_q2-valued form on the expanded F_q basis."""
    n = alpha + 2 * beta
    ext = tw.ext
    B = np.zeros((n, n), dtype=np.uint8)
    for i in range(alpha):
        B[i, i] = tw.omega
    wsq = int(ext.mul(tw.omega, tw.omega))
    for j in range(beta):
        b = alpha + 2 * j
        B[b, b] = 1
        B[b, b + 1] = tw.omega
        B[b + 1, b] = tw.omega
        B[b + 1, b + 1] = wsq
    return B


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_dual_constraints_match_the_product_with_the_form_matrix(monkeypatch, q):
    """`dual` writes the forms down from the form matrix's blocks; its
    constraints are byte-identical to those of the product M·B."""
    seen = []
    kernel = linalg.kernel

    def recorded(field, mat):
        seen.append(mat)
        return kernel(field, mat)

    monkeypatch.setattr(linalg, "kernel", recorded)
    tw = tower(q)
    rng = np.random.default_rng(q)
    for alpha, beta, rows in [(0, 3, 5), (1, 2, 4), (3, 4, 9), (2, 1, 1),
                              (4, 0, 3), (2, 3, 0), (0, 5, 0)]:
        n = alpha + 2 * beta
        code = GeneratorMatrixCode(
            tw, rng.integers(0, q, size=(rows, n), dtype=np.uint8),
            beta=beta)
        forms = linalg.matmul(tw.ext, code.matrix, _form_matrix(tw, alpha, beta))
        b, c = tw.decompose(forms)
        expected = np.stack([b, c], axis=1).reshape(-1, n)
        seen.clear()
        dm = dual(code)
        assert len(seen) == 1
        assert seen[0].dtype == expected.dtype
        assert seen[0].shape == expected.shape
        assert seen[0].tobytes() == expected.tobytes()
        assert np.array_equal(dm.matrix, row_basis(tw.base, kernel(tw.base, expected)))


def orthogonality_matrix(tw, alpha, beta, cwords, dwords):
    """All pairwise inner products, vectorized through the form matrix."""
    B = _form_matrix(tw, alpha, beta)
    ext = tw.ext
    left = field_sum(ext, ext.mul(cwords[:, :, None], B[None, :, :]), axis=1)
    out = np.zeros((len(cwords), len(dwords)), dtype=np.uint8)
    for t in range(B.shape[0]):
        out = ext.add(out, ext.mul(left[:, t : t + 1], dwords[None, :, t]))
    return out


def test_dual_orthogonality_full_enumeration():
    rng = random.Random(47)
    checked = 0
    while checked < 60:
        alpha, beta = rng.randrange(1, 4), rng.randrange(1, 4)
        code = random_mixed_code(rng, T3, alpha, beta)
        dm = dual(code.closure)
        if code.closure.size * dm.size > 2**20:
            continue
        cw = codewords(code.closure)
        dw = codewords(dm)
        assert not orthogonality_matrix(T3, alpha, beta, cw, dw).any()
        checked += 1


def test_dual_contains_double_dual():
    rng = random.Random(53)
    for _ in range(300):
        tw = rng.choice((T3, T4))
        code = random_mixed_code(rng, tw, rng.randrange(1, 4), rng.randrange(1, 4))
        dd = dual(dual(code.closure))
        assert dd.contains_code(code.closure)


# -- cyclicity -------------------------------------------------------------------


def test_constructed_codes_and_duals_cyclic():
    rng = random.Random(59)
    for _ in range(250):
        tw = rng.choice((T3, T4, T8))
        code = random_mixed_code(rng, tw, rng.randrange(1, 4), rng.randrange(1, 4))
        assert is_cyclic(code.closure)
        assert is_cyclic(dual(code.closure))


def test_block_membership_agrees_with_in_rowspace():
    rng = random.Random(61)
    nprng = np.random.default_rng(61)
    for _ in range(60):
        tw = rng.choice((T3, T4, T8))
        code = random_mixed_code(rng, tw, rng.randrange(1, 4), rng.randrange(1, 4))
        gm = code.closure
        q, k, n = tw.q, gm.rank, gm.width
        members = linalg.matmul(
            tw.base, nprng.integers(0, q, size=(5, k), dtype=np.uint8), gm.matrix)
        others = nprng.integers(0, q, size=(5, n), dtype=np.uint8)
        for row in np.vstack([members, others]):
            expected = in_rowspace(tw.base, gm.matrix, row)
            assert gm.contains(row) == expected
            assert gm.contains_rows(np.vstack([members, row])) == expected
        assert gm.contains_rows(members)
        assert gm.contains_rows(np.zeros((0, n), dtype=np.uint8))


def test_unit_vector_span_not_cyclic():
    vec = np.zeros((1, 3 + 2 * 2), dtype=np.uint8)
    vec[0, 0] = 1
    gm = GeneratorMatrixCode(T3, vec, beta=2)
    assert not is_cyclic(gm)


# -- plain codes: beta = 0 -------------------------------------------------------

PLAIN_QS = (2, 3, 4, 5, 7, 8, 9, 16)


def random_plain_codes(seed, per_field=40):
    """Seeded plain F_q codes (beta = 0), per q of PLAIN_QS: the zero
    code, the span of all cyclic shifts of a random row (cyclic by
    construction) one time in three, else random rows."""
    rng = np.random.default_rng(seed)
    for q in PLAIN_QS:
        tw = tower(q)
        for i in range(per_field):
            width = int(rng.integers(1, 9))
            if i == 0:
                mat = np.zeros((0, width), np.uint8)
            elif i % 3 == 1:
                row = rng.integers(0, q, size=width, dtype=np.uint8)
                mat = np.stack([np.roll(row, t) for t in range(width)])
            else:
                rows = int(rng.integers(1, width + 1))
                mat = rng.integers(0, q, size=(rows, width), dtype=np.uint8)
            yield GeneratorMatrixCode(tw, mat)


def test_dual_of_a_plain_code_is_its_euclidean_dual():
    # at beta = 0 every column is an F_q symbol: the form is the dot
    # product, so the dual is the kernel of the basis
    for gm in random_plain_codes(401):
        dm = dual(gm)
        assert (gm.alpha, gm.beta, dm.beta) == (gm.width, 0, 0)
        assert rowspace_equal(gm.field, dm.matrix, linalg.kernel(gm.field, gm.matrix))
        assert gm.rank + dm.rank == gm.width
        assert dual(dm).equals(gm)


def test_is_cyclic_of_a_plain_code_is_the_ordinary_shift():
    outcomes = set()
    for gm in random_plain_codes(409):
        rolled = np.roll(gm.matrix, 1, axis=1)
        expected = all(in_rowspace(gm.field, gm.matrix, row) for row in rolled)
        assert is_cyclic(gm) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


# -- projections ------------------------------------------------------------------


def test_projections_zero_and_pure():
    zero = module_closure(T3, 2, 2, [])
    ca, cb = projections(zero)
    assert ca.rank == 0 and cb.rank == 0
    pure = MixedCode(T3, 0, 3, None, None, P("1"), P("x"), P("x^3+2"))
    ca, cb = projections(pure.closure)
    assert ca.width == 0 and ca.rank == 0
    assert cb.rank == pure.dimension


# -- singleton ---------------------------------------------------------------------


def test_singleton_examples():
    # ranks over F_q against (q^2)^(n-d+1): q^6 = (q^2)^3
    assert singleton_check(5, 6, 3).attains
    assert singleton_check(6, 4, 5).attains
    res = singleton_check(5, 4, 3)
    assert not res.attains and res.slack == 1


def test_singleton_violation_raises():
    with pytest.raises(ValueError):
        singleton_check(5, 8, 3)


def test_singleton_odd_power_of_q():
    # |C| = 3^7 over the alphabet F_9: 9^(7/2), so the slack against
    # 9^(n-d+1) is a half-integer and the bound is never attained
    res = singleton_check(4, 7, 1)
    assert not res.attains and res.slack == Fraction(1, 2)
    assert str(res.slack) == "1/2"
    assert singleton_check(4, 8, 1) == SingletonResult(True, 0)
    assert singleton_check(3, 5, 1).slack == Fraction(1, 2)
    # 3^9 = 9^4.5 > 9^4
    with pytest.raises(ValueError, match="Singleton bound violated"):
        singleton_check(4, 9, 1)


# -- generator extraction ------------------------------------------------------------


def test_extract_generators_roundtrip():
    rng = random.Random(61)
    hits = 0
    for _ in range(40):
        code = random_mixed_code(rng, T3, rng.randrange(1, 4), rng.randrange(1, 4))
        got = extract_mixed_generators(code.closure)
        assert got.closure_ok  # extraction must reproduce the row space
        hits += 1
    assert hits == 40


def test_extract_generators_of_dual():
    code = MixedCode(T3, 3, 3, P("x^2+x+1"), P("(w+1)x^2+(w+1)x+w+1", ext=True),
                     P("x^3+2"), P("2x^2+2x+2"), P("x^3+2"))
    dm = dual(code.closure)
    got = extract_mixed_generators(dm)
    assert got.closure_ok


def reference_extract(code):
    """Generator extraction by gcds, particular solutions and an
    intersection, kept as the oracle of the echelon read: s is the gcd of
    the alpha parts, l the beta part of a word whose alpha part is s, g
    the gcd of the b parts of the alpha kernel, k the gcd of the c parts
    of the words with u = b = 0, h the c part of a kernel word whose b
    part is g, then (g, h, k) made canonical."""
    tw = code.tower
    alpha, beta = code.alpha, code.beta
    base = tw.base
    s = Poly.xn_minus_1(base, alpha)
    for u in code.matrix[:, :alpha]:
        if u.any():
            s = poly_gcd(s, Poly(base, u))
    sol = solve(base, code.matrix[:, :alpha].T, s.cyclic_vector(alpha))
    if sol is None:
        l = Poly.zero(tw.ext)
    else:
        word = field_sum(base, base.mul(sol[:, None], code.matrix), axis=0)
        l = Poly(tw.ext, MixedWord.from_rows(tw, alpha, beta, word[None])[0].uprime)
    # the rows pivoting past the alpha block span the alpha kernel
    ker = code.matrix[np.asarray(code.pivots, dtype=np.intp) >= alpha]
    xb1 = Poly.xn_minus_1(base, beta)
    g = xb1
    for row in ker:
        if row[alpha::2].any():
            g = poly_gcd(g, Poly(base, row[alpha::2]))
    c_selector = np.zeros((beta, alpha + 2 * beta), dtype=np.uint8)
    c_selector[np.arange(beta), alpha + 2 * np.arange(beta) + 1] = 1
    k = xb1
    for row in intersect(base, code.matrix, c_selector):
        if row[alpha + 1 :: 2].any():
            k = poly_gcd(k, Poly(base, row[alpha + 1 :: 2]))
    h = Poly.zero(base)
    if not divides(xb1, g) and len(ker):
        sol_h = solve(base, ker[:, alpha::2].T, g.cyclic_vector(beta))
        if sol_h is not None:
            word = field_sum(base, base.mul(sol_h[:, None], ker), axis=0)
            h = Poly(base, word[alpha + 1 :: 2])
    g, h, k = reference_canonicalize_pure(tw, beta, g, h, k)
    candidate = MixedCode(tw, alpha, beta, s, l, g, h, k, strict=False)
    return ExtractedGenerators(s, l, g, h, k, candidate.closure.equals(code))


def random_lenient_code(rng, tw, alpha, beta):
    """A code shaped like the benchmark's algebra items: s, g and k are
    divisors of x^n - 1 or their cofactors, h and l are arbitrary, and
    the generator conditions are left unchecked."""
    f = tw.base

    def divisor(n):
        d = random_divisor(rng, f, n)
        return (Poly.xn_minus_1(f, n) // d).monic() if rng.random() < 0.5 else d

    def anything(field):
        return Poly(field, [rng.randrange(field.order) for _ in range(beta)])

    return MixedCode(tw, alpha, beta, divisor(alpha), anything(tw.ext),
                     divisor(beta), anything(f), divisor(beta), strict=False)


def check_extraction(gm):
    """The echelon read agrees with the reference on s, g, h, k and
    closure_ok, reproduces the cyclic code gm, and is a fixed point: the
    quintuple read from its own closure is the same, l included."""
    got, want = extract_mixed_generators(gm), reference_extract(gm)
    assert (got.s, got.g, got.h, got.k, got.closure_ok) == (
        want.s, want.g, want.h, want.k, want.closure_ok)
    assert got.closure_ok
    again = MixedCode(gm.tower, gm.alpha, gm.beta, got.s, got.l, got.g, got.h,
                      got.k, strict=False)
    assert extract_mixed_generators(again.closure) == got


def test_extraction_matches_reference_on_lenient_codes_and_duals():
    # 25 codes per tower; F_9's top field F_81 is one that nothing
    # eliminates over
    rng = random.Random(211)
    towers = [tower(q) for q in (2, 3, 4, 5, 7, 8, 9)]
    for i in range(175):
        tw = towers[i % len(towers)]
        code = random_lenient_code(rng, tw, rng.randrange(1, 7), rng.randrange(1, 9))
        for gm in (code.closure, dual(code)):
            check_extraction(gm)


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's arguments."""
    calls, real = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_extraction_of_a_closure_builds_no_second_closure(monkeypatch):
    # closure_ok is proven from the memoized is_cyclic, one containment
    # rank and the degree count: the one elimination is the echelon read
    rng = random.Random(223)
    closures = []
    for q in (2, 3, 4, 9):
        for _ in range(4):
            code = random_lenient_code(rng, tower(q), rng.randrange(1, 5), rng.randrange(1, 5))
            closures.append(code.closure)
            assert is_cyclic(code.closure)
    closure_builds = count_calls(monkeypatch, codes_module, "module_closure")
    code_builds = count_calls(monkeypatch, GeneratorMatrixCode, "__post_init__")
    eliminations = count_calls(monkeypatch, linalg, "rref")
    ranks = count_calls(monkeypatch, linalg, "rank")
    for gm in closures:
        eliminations.clear()
        ranks.clear()
        assert extract_mixed_generators(gm).closure_ok
        assert len(eliminations) == 1 and len(ranks) == 1
    assert closure_builds == code_builds == []


def test_is_cyclic_is_memoized_on_each_code(monkeypatch):
    tw = tower(3)
    closure = random_lenient_code(random.Random(227), tw, 2, 3).closure
    twin = GeneratorMatrixCode(tw, closure.matrix, beta=closure.beta)
    # a unit word whose x-shift moves it to the next alpha column
    other = GeneratorMatrixCode(tw, np.eye(1, closure.width, dtype=np.uint8),
                                beta=closure.beta)
    ranks = count_calls(monkeypatch, linalg, "rank")
    assert is_cyclic(closure) and is_cyclic(closure)
    assert len(ranks) == 1
    # an equal code is another object, with its own memo
    assert is_cyclic(twin) and len(ranks) == 2
    assert not is_cyclic(other) and not is_cyclic(other)
    assert len(ranks) == 3


def test_extraction_matches_reference_on_table2_and_duals():
    for entry in TABLE2:
        code = load_definition(entry.doc, strict=False)
        for gm in (code.closure, dual(code)):
            check_extraction(gm)


def test_extraction_matches_reference_on_degenerate_codes():
    for tw in (T3, T4, tower(2)):
        for alpha, beta in ((1, 1), (2, 3), (3, 2)):
            f = tw.base
            zero, one = Poly.zero(f), Poly.one(f)
            nothing = MixedCode(tw, alpha, beta, zero, Poly.zero(tw.ext), zero, zero,
                                zero, strict=False)
            everything = MixedCode(tw, alpha, beta, one, Poly.zero(tw.ext), one, zero,
                                   one, strict=False)
            assert nothing.dimension == 0
            assert everything.dimension == alpha + 2 * beta
            for code in (nothing, everything):
                for gm in (code.closure, dual(code)):
                    check_extraction(gm)
            got = extract_mixed_generators(nothing.closure)
            assert got.s == Poly.xn_minus_1(f, alpha) and got.l.is_zero()
            assert got.g == got.k == Poly.xn_minus_1(f, beta) and got.h.is_zero()


def test_extraction_reads_table2_row8_by_hand():
    # s = x^2+x+1 = (x-1)^2 generates the alpha projection.  With
    # g = x^3-1 the kernel is spanned by w*h = 2w(x^2+x+1), w*k = 0 and
    # ((x^3-1)/s)*(s | l) = (0 | (x-1)(w+1)(x^2+x+1)) = 0, so g* = x^3-1,
    # h* = 0, k* = x^2+x+1, and l = (w+1)(x^2+x+1) loses its w-part
    # x^2+x+1, a multiple of k*, once reduced against the kernel rows
    code = load_definition(TABLE2[7].doc, strict=False)
    got = extract_mixed_generators(code.closure)
    assert (got.s, got.l, got.g, got.h, got.k) == (
        P("x^2+x+1"), P("x^2+x+1", ext=True), P("x^3+2"), Poly.zero(T3.base),
        P("x^2+x+1"))
    assert got.closure_ok


def test_extraction_of_a_code_that_is_not_cyclic():
    """Best effort off the cyclic codes: the generators of the smallest
    cyclic code holding it, still divisors, with closure_ok false."""
    rng = random.Random(223)
    nprng = np.random.default_rng(223)
    seen = 0
    for _ in range(40):
        tw = rng.choice((T3, T4, T8))
        alpha, beta = rng.randrange(1, 4), rng.randrange(1, 4)
        width = alpha + 2 * beta
        gm = GeneratorMatrixCode(
            tw, nprng.integers(0, tw.q, size=(rng.randrange(1, width), width),
                               dtype=np.uint8), beta=beta)
        if is_cyclic(gm):
            continue
        seen += 1
        got = extract_mixed_generators(gm)
        assert not got.closure_ok
        f = tw.base
        assert divides(got.s, Poly.xn_minus_1(f, alpha))
        for p in (got.g, got.k):
            assert divides(p, Poly.xn_minus_1(f, beta))
        span = MixedCode(tw, alpha, beta, got.s, got.l, got.g, got.h, got.k,
                         strict=False).closure
        assert span.contains_code(gm) and is_cyclic(span)
        assert span.equals(module_closure(tw, alpha, beta, gm.matrix))
    assert seen >= 20


def x_order(alpha, beta):
    """The order of x on F_q^alpha x F_q2^beta: lcm(alpha, beta), or the
    other length when one block is empty.  A word has no more distinct
    x-shifts than that."""
    return math.lcm(alpha, beta) or alpha + beta


def full_orbit(alpha, beta, expanded):
    """All `x_order` x-shifts of each expanded row, a row's shifts in
    order: the whole orbit that a closure's first shifts must span."""
    width = alpha + 2 * beta
    shifts = _shift_columns(alpha, beta, np.arange(x_order(alpha, beta)))
    return np.asarray(expanded, dtype=np.uint8).reshape(-1, width)[:, shifts].reshape(-1, width)


def test_extraction_fallback_reads_the_full_shift_set():
    """Off the cyclic codes, the generators read from the first
    alpha + beta - gcd shifts of each basis row are those read from all
    lcm(alpha, beta) of them."""
    rng = random.Random(229)
    nprng = np.random.default_rng(229)
    seen = 0
    for _ in range(30):
        tw = rng.choice((T3, T4, T8, tower(9)))
        alpha, beta = rng.choice([shape for shape in CLOSURE_SHAPES if shape[0]])
        width = alpha + 2 * beta
        gm = GeneratorMatrixCode(
            tw, nprng.integers(0, tw.q, size=(rng.randrange(1, 4), width),
                               dtype=np.uint8), beta=beta)
        got = extract_mixed_generators(gm)
        if got.closure_ok:
            continue
        seen += 1
        want = _echelon_generators(tw, alpha, beta, full_orbit(alpha, beta, gm.matrix))
        assert (got.s, got.l, got.g, got.h, got.k) == want
    assert seen >= 20


# -- definition documents --------------------------------------------------------------


def test_load_definition_mixed():
    doc = {"q": 3, "alpha": 3, "beta": 3, "s": "1", "l": "2w+2",
           "g": "1", "h": "x", "k": "x^3+2"}
    code = load_definition(doc)
    assert isinstance(code, MixedCode) and code.dimension == 6


def test_load_definition_pure_with_moduli():
    doc = {"q": 4, "alpha": 0, "beta": 5, "g": "1", "h": "x^2+ux",
           "k": "x^4+x^3+x^2+x+1", "f1": "x^2+x+1", "f2": "x^2+x+u"}
    code = load_definition(doc)
    assert isinstance(code, MixedCode) and code.alpha == 0 and code.dimension == 6


@pytest.mark.parametrize("key", ["alhpa", "G", "f3", "rows"])
def test_load_definition_refuses_keys_outside_its_set(key):
    # a misspelt alpha would be read as missing, and make a pure code
    doc = {"q": 3, "alpha": 3, "beta": 3, "s": "1", "l": "2w+2",
           "g": "1", "h": "x", "k": "x^3+2", key: "1"}
    with pytest.raises(ValueError, match=f"unknown key '{key}'"):
        load_definition(doc)


def test_words_match_list_based_enumeration():
    """words() equals the enumeration that builds each row's multiples as
    a list, in the same order."""
    rng = random.Random(97)
    for tw in (T3, T4, T8):
        for _ in range(4):
            code = random_mixed_code(rng, tw, rng.randrange(1, 3), rng.randrange(1, 3))
            gm = code.closure
            if gm.size > 2**14:
                continue
            f = gm.field
            acc = np.zeros((1, gm.width), dtype=np.uint8)
            for row in gm.matrix:
                multiples = np.array([f.mul(c, row) for c in range(f.order)])
                acc = f.add(acc[:, None, :], multiples[None, :, :]).reshape(-1, gm.width)
            assert np.array_equal(codewords(gm), acc)
    zero = module_closure(T3, 1, 1, [])
    assert np.array_equal(codewords(zero), np.zeros((1, 3), dtype=np.uint8))


CLOSURE_SHAPES = ((2, 3), (3, 4), (4, 6), (6, 3), (1, 5), (0, 5), (11, 16))


def test_closure_rows_and_dual_match_row_loops():
    """module_closure keeps each generator's first alpha + beta -
    gcd(alpha, beta) x-shifts in order, its matrix and pivots are the rref
    of all lcm(alpha, beta) of them although it builds only that prefix,
    and dual solves the constraints built one basis row at a time."""
    rng = random.Random(89)
    cases = [(rng.choice((T3, T4, T8)), rng.randrange(0, 4), rng.randrange(1, 5))
             for _ in range(60)]
    cases += [(tw, alpha, beta) for tw in (T3, T4, T8, tower(9))
              for alpha, beta in CLOSURE_SHAPES]
    for tw, alpha, beta in cases:
        if alpha:
            code = random_mixed_code(rng, tw, alpha, beta)
        else:
            code = random_pure_code(rng, tw, beta)
        order = math.lcm(alpha, beta) if alpha else beta
        m = alpha + beta - math.gcd(alpha, beta) if alpha else beta
        rows = []
        for gen in generator_words(code):
            for _ in range(order):
                rows.append(gen.expand())
                gen = shift_word(gen)
        rows = np.array(rows, dtype=np.uint8).reshape(-1, order, alpha + 2 * beta)
        gm = code.closure
        assert np.array_equal(gm.spanning_rows, rows[:, :m].reshape(-1, gm.width))
        R, r, pivots = linalg.rref(tw.base, rows.reshape(-1, gm.width))
        assert np.array_equal(gm.matrix, R[:r]) and gm.pivots == tuple(pivots)
        B = _form_matrix(tw, alpha, beta)
        constraints = []
        for x in gm.matrix:
            b, c = tw.decompose(field_sum(tw.ext, tw.ext.mul(x[:, None], B), axis=0))
            constraints += [b, c]
        cons = linalg.as_matrix(constraints, width=gm.width)
        assert np.array_equal(dual(gm).matrix,
                              row_basis(tw.base, linalg.kernel(tw.base, cons)))


def test_first_shifts_of_a_word_span_all_of_them():
    """The first m = alpha + beta - gcd(alpha, beta) x-shifts of any word
    span all lcm(alpha, beta) of them, and m is tight: the word
    (1, 0, ... | 1, 0, ...), whose annihilator is x's whole minimal
    polynomial lcm(x^alpha - 1, x^beta - 1), has m independent shifts."""
    nprng = np.random.default_rng(227)
    for tw in (T3, T4, T8, tower(9)):
        for alpha, beta in CLOSURE_SHAPES:
            m = _span_degree(alpha, beta)
            assert m == (alpha + beta - math.gcd(alpha, beta) if alpha else beta)
            width = alpha + 2 * beta
            unit = np.zeros(width, dtype=np.uint8)
            unit[[0, alpha]] = 1
            for vec in (unit, *nprng.integers(0, tw.q, size=(3, width), dtype=np.uint8)):
                shifts = full_orbit(alpha, beta, vec)
                assert len(shifts) == x_order(alpha, beta) >= m
                assert np.array_equal(_closure_rows(alpha, beta, vec), shifts[:m])
                assert linalg.rank(tw.base, shifts[:m]) == linalg.rank(tw.base, shifts)
            assert linalg.rank(tw.base, _closure_rows(alpha, beta, unit)) == m


def test_closure_of_one_empty_block():
    """A split with one empty block closes under the other block's
    shifts alone, all of them; a split with no coordinates is refused by
    name, also by a definition document."""
    assert (x_order(2, 0), _span_degree(2, 0)) == (2, 2)
    assert (x_order(0, 5), _span_degree(0, 5)) == (5, 5)
    gm = module_closure(T3, 2, 0, [[1, 0]])
    assert gm.rank == 2 and gm.spanning_rows.shape == (2, 2)
    assert np.array_equal(gm.spanning_rows, full_orbit(2, 0, [1, 0]))
    gm = module_closure(T4, 3, 0, [[1, 1, 0]])
    assert gm.rank == 2 and is_cyclic(gm)
    with pytest.raises(ValueError, match="alpha=0, beta=0"):
        _span_degree(0, 0)
    with pytest.raises(ValueError, match="alpha=0, beta=0"):
        module_closure(T3, 0, 0, [])
    with pytest.raises(ValueError, match="alpha=0, beta=0"):
        load_definition({"q": 3, "alpha": 0, "beta": 0, "g": "1", "h": "0", "k": "1"})


# -- one permutation test, the stored-basis kernel and equality ----------------


def reference_shift_columns(alpha, beta, mat):
    """The simultaneous right cyclic shift of expanded rows by np.roll,
    kept as the oracle of the index-array permutation."""
    out = np.asarray(mat, dtype=np.uint8).copy()
    if alpha:
        out[:, :alpha] = np.roll(out[:, :alpha], 1, axis=1)
    out[:, alpha:] = np.roll(out[:, alpha:], 2, axis=1)
    return out


def orbit_span(tw, vec, shift, order, **split):
    """The code spanned by vec and its images under repeated `shift`:
    invariant under that shift by construction."""
    rows = [np.asarray(vec, dtype=np.uint8)[None]]
    for _ in range(order - 1):
        rows.append(shift(rows[-1]))
    return GeneratorMatrixCode(tw, np.vstack(rows), **split)


def test_invariant_under_agrees_with_roll_shift():
    rng = random.Random(181)
    nprng = np.random.default_rng(181)
    outcomes = set()
    for _ in range(80):
        tw = rng.choice((T3, T4, T8))
        alpha, beta = rng.randrange(0, 4), rng.randrange(1, 4)
        width = alpha + 2 * beta
        shift = lambda m: reference_shift_columns(alpha, beta, m)
        vec = nprng.integers(0, tw.q, size=width, dtype=np.uint8)
        orbit = orbit_span(tw, vec, shift, x_order(alpha, beta), beta=beta)
        extra = nprng.integers(0, tw.q, size=(1, width), dtype=np.uint8)
        for gm in (orbit, GeneratorMatrixCode(tw, np.vstack([orbit.matrix, extra]),
                                              beta=beta)):
            expected = gm.contains_rows(shift(gm.matrix))
            assert is_cyclic(gm) == expected
            outcomes.add(expected)
        assert is_cyclic(orbit)
    assert outcomes == {True, False}
    with pytest.raises(ValueError):
        invariant_under(orbit, np.arange(orbit.width - 1))


# [1.5, 0, 2] and [0.0, 1, 2] truncate to permutations as indices
@pytest.mark.parametrize("perm", [[0, 0, 2], [0, 5, 2], [-1, 0, 1], [1, 2, 2],
                                  [1.5, 0], [1.5, 0, 2], [0.0, 1, 2]])
def test_invariant_under_refuses_what_is_not_a_permutation(perm):
    gm = GeneratorMatrixCode(T3, [[1, 1, 0]])
    with pytest.raises(ValueError, match="not a permutation"):
        invariant_under(gm, perm)
    assert invariant_under(gm, [1, 0, 2]) and not invariant_under(gm, [2, 1, 0])


def test_equals_agrees_with_rowspace_equal():
    rng = np.random.default_rng(193)
    for tw in (T3, T4, T8):
        for _ in range(30):
            k, n = (int(x) for x in rng.integers(0, 6, size=2))
            A = rng.integers(0, tw.q, size=(k, n), dtype=np.uint8)
            mixer = rng.integers(0, tw.q, size=(int(rng.integers(0, 7)), k),
                                 dtype=np.uint8)
            B = linalg.matmul(tw.base, mixer, A) if k else np.zeros((0, n), np.uint8)
            C = rng.integers(0, tw.q, size=(k, n), dtype=np.uint8)
            for other in (B, C):
                expected = rowspace_equal(tw.base, A, other)
                assert GeneratorMatrixCode(tw, A).equals(
                    GeneratorMatrixCode(tw, other)) == expected
    assert not GeneratorMatrixCode(T3, np.zeros((0, 2), np.uint8)).equals(
        GeneratorMatrixCode(T3, np.zeros((0, 3), np.uint8)))


def test_generator_matrix_code_refuses_a_split_off_its_width():
    # the split sets the weight of the code's words: beta pairs fill the
    # last 2 * beta columns and alpha = width - 2 * beta the rest; a plain
    # code is beta = 0, one F_q symbol per column
    mat = np.array([[1, 2, 0, 1]], dtype=np.uint8)
    for beta in (3, 5):
        with pytest.raises(ValueError, match=f"beta={beta} does not fit the 4 columns"):
            GeneratorMatrixCode(T3, mat, beta=beta)
    for beta, alpha in ((0, 4), (1, 2), (2, 0)):
        gm = GeneratorMatrixCode(T3, mat, beta=beta)
        assert (gm.width, gm.alpha, gm.beta) == (4, alpha, beta)
    assert GeneratorMatrixCode(T3, mat).beta == 0
    with pytest.raises(ValueError, match="beta=2 does not fit the 3 columns"):
        GeneratorMatrixCode(T3, np.zeros((0, 3), np.uint8), beta=2)


def test_generator_matrix_code_refuses_a_negative_block_length():
    # beta = 3 on 4 columns would leave alpha = -2 symbols, and no
    # alphabet has -1 pairs
    with pytest.raises(ValueError, match="beta=3 does not fit the 4 columns"):
        GeneratorMatrixCode(tower(3), [[1, 0, 1, 2]], beta=3)
    with pytest.raises(ValueError, match="beta=-1 does not fit the 3 columns"):
        GeneratorMatrixCode(tower(3), [[1, 0, 1]], beta=-1)


@pytest.mark.parametrize("beta", [1.5, True, 1.0])
def test_generator_matrix_code_refuses_a_beta_that_is_no_int(beta):
    # beta counts columns; a bool is no block length, as in a document
    with pytest.raises(ValueError, match=f"beta must be an int, got {beta}"):
        GeneratorMatrixCode(T3, [[1, 0, 1, 2]], beta=beta)


def test_generator_matrix_code_refuses_half_a_split():
    # beta is the one alphabet parameter: alpha, the split's other half,
    # is read from the width, neither given nor set
    params = inspect.signature(GeneratorMatrixCode).parameters
    assert list(params) == ["tower", "matrix", "beta"]
    gm = GeneratorMatrixCode(T3, np.ones((1, 5), np.uint8), beta=1)
    with pytest.raises(AttributeError):
        gm.alpha = 1
    assert gm.alpha == 3


@pytest.mark.parametrize("q,mat,entry", [
    (3, [[5, 1, 0], [0, 1, 1]], 5),      # odd prime: the lane code
    (4, [[7, 1, 0]], 7),                 # characteristic 2: XOR rows
    (9, [[12, 1, 0], [0, 1, 30]], 30),   # odd prime power: the lane code
])
def test_generator_matrix_code_refuses_entries_outside_fq(q, mat, entry):
    # the elimination has no scaling table for such an entry, so the
    # stored matrix would be no rref of the input
    with pytest.raises(ValueError, match=f"entry {entry} lies outside F_{q}"):
        GeneratorMatrixCode(tower(q), np.array(mat, np.uint8))
    inside = np.array(mat, np.uint8) % q
    assert GeneratorMatrixCode(tower(q), inside).rank == linalg.rank(tower(q).base, inside)


@pytest.mark.parametrize("vec,message", [
    (np.array([256, 1, 1]), "entry 256 at .* is not an integer in 0..255"),
    ([1, 4, 1], "entry 4 lies outside F_3"),
], ids=["256-array", "4"])
def test_from_expanded_refuses_entries_outside_fq(vec, message):
    # a cast to bytes would wrap 256 to 0, and (4, 1) would pack as the
    # F_9 element 7, a pair whose b lies outside F_3
    with pytest.raises(ValueError, match=message):
        MixedWord.from_rows(T3, 1, 1, linalg.as_matrix([vec], field=T3.base))


@pytest.mark.parametrize("u,uprime,message", [
    ((5,), (1,), "an entry of u lies outside F_3"),
    ((0,), (100,), "an entry of u' lies outside F_9"),
    ((1, 2), (8, 9), "an entry of u' lies outside F_9"),
    ((-1,), (), "an entry of u lies outside F_3"),
], ids=["u-5", "uprime-100", "uprime-9", "u-negative"])
def test_mixed_word_refuses_entries_outside_its_fields(u, uprime, message):
    # (5 | 100) would expand to [5, 1, 33], entries outside F_3
    with pytest.raises(ValueError, match=message):
        MixedWord(T3, u, uprime)


def test_mixed_word_arithmetic_stays_in_its_fields():
    # star, sums and from_polys build their words through the checked
    # constructor, at the edges of F_q and F_q2
    for q in (2, 3, 16):
        tw = tower(q)
        top, ext_top = q - 1, q * q - 1
        w = word(tw, (top, 0, 1), (ext_top, 0, q))
        for built in (add_words(w, w), star(Poly(tw.base, [1, top]), w)):
            assert built.expand().max() < q
        made = MixedWord.from_polys(tw, 2, 3, Poly(tw.base, [top, 1]),
                                    Poly(tw.ext, [ext_top, 0, q]))
        assert made.u == (top, 1) and made.uprime == (ext_top, 0, q)


def test_closure_limit_rejects_absurd_block_lengths():
    for alpha, beta in ((0, 200_000), (997, 1009)):
        doc = {"q": 3, "alpha": alpha, "beta": beta, "g": "1", "h": "0", "k": "1"}
        if alpha:
            doc.update(s="1", l="0")
        with pytest.raises(ValueError, match="x-orbit of"):
            load_definition(doc)


def test_closure_limit_admits_every_table_row():
    from addcyclic.tables import TABLE1, TABLE2, TABLE3
    for entry in TABLE1 + TABLE2 + TABLE3:
        doc = entry.doc
        alpha, beta = doc.get("alpha", 0), doc["beta"]
        cells = (3 if alpha else 2) * x_order(alpha, beta) * (alpha + 2 * beta)
        assert cells <= MAX_CLOSURE_CELLS
