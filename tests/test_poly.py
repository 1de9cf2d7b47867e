"""Polynomial arithmetic, gcds, and the table-notation parser."""

import hashlib
import random

import numpy as np
import pytest

import math
import re

from addcyclic import poly
from addcyclic.fields import FieldMismatchError, format_element, tower
from addcyclic.poly import (
    Poly,
    PolyParseError,
    _scalars,
    divides,
    format_poly,
    lift,
    parse_poly,
    parse_scalar,
    poly_gcd,
)

from oracles import evaluate

T3 = tower(3)
T4 = tower(4)
T8 = tower(8)


def P(text, tw=T3, ext=False):
    return parse_poly(text, tw.ext if ext else tw.base, tw)


# -- list tables against the numpy tables ---------------------------------


def test_scalar_tables_equal_the_numpy_tables():
    orders = set()
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        tw = tower(q)
        for f in (tw.prime, tw.base, tw.ext):
            orders.add(f.order)
            tables = _scalars(f)
            for got, want in zip(tables, (f.add_table, f.mul_table,
                                          f.neg_table, f.inv_table)):
                assert np.array_equal(np.array(got), want)
                assert all(type(c) is int for c in np.array(got, dtype=object).flat)
    assert {81, 121, 169, 256} <= orders


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16])
def test_xn_minus_1(q):
    tw = tower(q)
    for f in (tw.base, tw.ext):
        assert Poly.xn_minus_1(f, 0).is_zero()  # x^0 - 1 = 0
        for n in (1, 2, 5):
            p = Poly.xn_minus_1(f, n)
            assert p.coeffs == (int(f.neg(1)),) + (0,) * (n - 1) + (1,)
            for a in range(f.order):
                power = 1
                for _ in range(n):
                    power = int(f.mul(power, a))
                assert evaluate(p, a) == int(f.sub(power, 1))
    assert Poly.xn_minus_1(tw.base, np.int64(2)) == Poly.xn_minus_1(tw.base, 2)


@pytest.mark.parametrize("n", [-1, -5, 2.0, True, None])
def test_xn_minus_1_refuses_what_is_not_a_length(n):
    # -1 would index past the coefficient list, and 2.0 would build it
    with pytest.raises(ValueError, match=rf"int n >= 0, got {re.escape(repr(n))}$"):
        Poly.xn_minus_1(T3.base, n)


# numpy-table references for Poly arithmetic: coefficient tuples in, a
# Poly out, one `add_table`/`mul_table` lookup per scalar operation


def table_sum(f, a, b, negate=False):
    n = max(len(a.coeffs), len(b.coeffs))
    return Poly(f, [f.add_table[a[i], f.neg_table[b[i]] if negate else b[i]]
                    for i in range(n)])


def table_product(f, a, b):
    out = [0] * max(0, len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = f.add_table[out[i + j], f.mul_table[x, y]]
    return Poly(f, out)


def table_scale(f, c, a):
    return Poly(f, [f.mul_table[c, x] for x in a.coeffs])


def table_divmod(f, a, b):
    rem, db = list(a.coeffs), b.degree()
    quot = [0] * max(0, len(rem) - db)
    while len(rem) - 1 >= db:
        c = f.mul_table[rem[-1], f.inv_table[b.coeffs[-1]]]
        shift = len(rem) - 1 - db
        quot[shift] = c
        for i, y in enumerate(b.coeffs):
            rem[shift + i] = f.add_table[rem[shift + i], f.neg_table[f.mul_table[c, y]]]
        while rem and rem[-1] == 0:
            rem.pop()
    return Poly(f, quot), Poly(f, rem)


def table_value(f, a, x):
    acc = 0
    for c in reversed(a.coeffs):
        acc = f.add_table[f.mul_table[acc, x], c]
    return int(acc)


def table_fold(f, a, n):
    v = np.zeros(n, dtype=np.uint8)
    for d, c in enumerate(a.coeffs):
        v[d % n] = f.add_table[v[d % n], c]
    return v


@pytest.mark.parametrize("q", (2, 3, 4, 8, 9))
def test_poly_arithmetic_equals_the_numpy_table_reference(q):
    tw = tower(q)
    rng = random.Random(2600 + q)
    for f in (tw.base, tw.ext):
        def draw(terms):
            return Poly(f, [rng.randrange(f.order) for _ in range(terms)])

        for _ in range(80):
            a, b = draw(rng.randrange(9)), draw(rng.randrange(9))
            c, x = rng.randrange(f.order), rng.randrange(f.order)
            assert a + b == table_sum(f, a, b)
            assert a + -b == table_sum(f, a, b, negate=True)
            assert -a == table_sum(f, Poly.zero(f), a, negate=True)
            assert a * b == table_product(f, a, b)
            assert a.scale(c) == table_scale(f, c, a)
            assert evaluate(a, x) == table_value(f, a, x)
            assert type(evaluate(a, x)) is int
            n = rng.randrange(1, 7)
            folded = a.cyclic_vector(n)
            assert folded.dtype == np.uint8
            assert np.array_equal(folded, table_fold(f, a, n))
            if not b.is_zero():
                assert divmod(a, b) == table_divmod(f, a, b)
                assert b.monic() == table_scale(f, f.inv_table[b.coeffs[-1]], b)


# -- checked input, trusted results ------------------------------------------


@pytest.mark.parametrize("bad", [[1.5, 2.9], ["2"], [1, 2.0], [np.float64(1.0)],
                                 [None], [1, "0"]],
                         ids=["floats", "numeric-string", "integral-float",
                              "numpy-float", "none", "string-after-int"])
def test_coefficients_must_be_integers(bad):
    # each is refused by name, where int() truncated or read it
    offender = next(c for c in bad if not isinstance(c, int))
    with pytest.raises(ValueError, match="is not an integer") as info:
        Poly(T3.base, bad)
    assert repr(offender) in str(info.value)


def test_integer_coefficients_are_read_as_python_ints():
    f = T3.base
    # numpy integer rows, as codes._echelon_generators passes them
    for dtype in (np.uint8, np.int64):
        p = Poly(f, np.array([2, 0, 1, 0], dtype=dtype))
        assert p.coeffs == (2, 0, 1)
        assert all(type(c) is int for c in p.coeffs)
    assert Poly(f, (np.uint8(1), True, 0)).coeffs == (1, 1)
    for bad in ([3], [-1], [0, 1, np.uint8(7)]):
        with pytest.raises(ValueError, match="out of range"):
            Poly(f, bad)


@pytest.mark.parametrize("c", [-1, 4, 1.0], ids=["negative", "order", "float"])
def test_scale_refuses_a_scalar_outside_the_field(c):
    # unchecked, -1 would index F_4's table from its end (the scale by
    # u+1), and 4 past it
    with pytest.raises(ValueError, match=re.escape(f"scalar c = {c!r} is not in 0..3")):
        Poly(T4.base, [1, 1]).scale(c)


def test_lift_takes_only_a_polynomial_over_the_subfield():
    assert lift(Poly(T3.base, [2, 1]), T3.ext) == Poly(T3.ext, [2, 1])
    assert lift(Poly(T4.base, [3]), T4.ext) == Poly(T4.ext, [3])
    # F_5's 4 would read as 1+w in F_9; F_3 and F_9 lift into neither
    # themselves nor F_3
    for p, field in ((Poly(tower(5).base, [4]), T3.ext), (Poly(T3.base, [2]), T3.base),
                     (Poly(T3.ext, [2]), T3.ext), (Poly(T3.ext, [2]), T3.base)):
        with pytest.raises(FieldMismatchError, match="lift: p is over"):
            lift(p, field)


def assert_trusted(f, p):
    """p, built by an operation without the constructor's checks, holds
    Python ints of `f` with no trailing zero: what Poly(f, coeffs) makes."""
    assert p.field is f
    assert all(type(c) is int and 0 <= c < f.order for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0
    assert p == Poly(f, p.coeffs)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 16))
def test_arithmetic_results_are_what_the_checked_constructor_builds(q):
    tw = tower(q)
    rng = random.Random(4300 + q)
    for f in (tw.base, tw.ext):
        def draw(terms):
            return Poly(f, [rng.randrange(f.order) for _ in range(terms)])

        for n in range(6):
            assert_trusted(f, Poly.xn_minus_1(f, n))
        cancelled = 0
        for _ in range(40):
            a = draw(rng.randrange(8))
            b = draw(rng.randrange(7)) + Poly(f, [0] * rng.randrange(7) + [1])
            if b.is_zero():
                continue
            low = draw(rng.randrange(max(1, len(a.coeffs))))
            c = rng.randrange(f.order)
            # sums whose top terms cancel, and a zero scale, leave trailing
            # zeros before the trim
            results = [a + b, a + -b, -a, a + -a, a + (-a + low), a * b,
                       a.scale(c), a.scale(0), *divmod(a, b), *divmod(a * b, b),
                       a.monic(), b.monic()]
            for p in results:
                assert_trusted(f, p)
            cancelled += (a + (-a + low)).degree() < a.degree()
        assert cancelled


# -- divmod ------------------------------------------------------------------

def test_divmod_example():
    q, r = divmod(P("x^4+2x"), P("x^3+2"))
    assert q == P("x") and r.is_zero()


def test_mod_x3_minus_1():
    assert P("x^5") % P("x^3+2") == P("x^2")


def test_div_by_self():
    a = P("x^2+x+1")
    q, r = divmod(a, a)
    assert q == P("1") and r.is_zero()


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(P("x"), Poly.zero(T3.base))


def test_divmod_identity_randomized():
    rng = random.Random(42)
    for tw in (T3, T4, T8):
        f = tw.base
        for _ in range(400):
            a = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(9))])
            b = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(1, 6))])
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert b * q + r == a
            assert r.is_zero() or r.degree() < b.degree()


# -- gcd ---------------------------------------------------------------------

def ext_gcd(a: Poly, b: Poly):
    """Monic g = gcd(a, b) together with s, t such that s*a + t*b = g, by
    the extended Euclidean algorithm: the oracle behind the reference
    canonical triple in test_codes."""
    f = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(f), Poly.zero(f)
    t0, t1 = Poly.zero(f), Poly.one(f)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 + -(q * s1)
        t0, t1 = t1, t0 + -(q * t1)
    lead = int(f.inv(r0.coeffs[-1]))
    return r0.monic(), s0.scale(lead), t0.scale(lead)


def test_gcd_examples():
    assert poly_gcd(P("x^3+2"), P("x^4+2x")) == P("x^3+2")
    a = P("2x^2+x")
    assert poly_gcd(a, Poly.zero(T3.base)) == a.monic()
    assert poly_gcd(P("x+2"), P("x+1")) == P("1")


def test_gcd_both_zero():
    with pytest.raises(ValueError):
        poly_gcd(Poly.zero(T3.base), Poly.zero(T3.base))


def test_gcd_properties_randomized():
    rng = random.Random(99)
    for tw in (T3, T4, T8):
        f = tw.base
        for _ in range(400):
            a = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(8))])
            b = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(8))])
            if a.is_zero() and b.is_zero():
                continue
            g = poly_gcd(a, b)
            assert g.coeffs[-1] == 1  # monic
            for p in (a, b):
                if not p.is_zero():
                    assert divides(g, p)
            g2, s, t = ext_gcd(a, b)
            assert g2 == g
            assert s * a + t * b == g


# -- divisibility ------------------------------------------------------------

def test_divides_examples():
    assert divides(P("x+2"), P("x^3+2"))
    assert divides(P("x^2+u", T4), P("x^6+1", T4))
    assert not divides(P("x+1"), P("x^3+2"))


def test_divides_zero_divisor():
    with pytest.raises(ValueError):
        divides(Poly.zero(T3.base), P("x"))


# -- parser ------------------------------------------------------------------

def test_parse_table_literals():
    assert P("x^2+ux", T4).coeffs == (0, T4.p, 1)
    assert P("x^3+2").coeffs == (2, 0, 0, 1)


@pytest.mark.parametrize("text, pos, message", [
    ("x^^2", 2, "expected an integer exponent"),
    # digits are ASCII only: a superscript two, and an Arabic-Indic three
    # that int() reads as 3, are unexpected characters where they stand
    ("x²+1", 1, "unexpected character '²'"),
    ("x^٣+1", 2, "unexpected character '٣'"),
    ("٣x+1", 0, "unexpected character '٣'"),
], ids=["double-caret", "superscript-exponent", "arabic-indic-exponent",
        "arabic-indic-coefficient"])
def test_parse_syntax_error_position(text, pos, message):
    with pytest.raises(PolyParseError, match=message) as info:
        P(text)
    assert info.value.pos == pos


def test_parse_bounds_degree_and_nesting():
    # each bound turns an input that would hang or overflow the stack
    # into a parse error
    assert P("x^1024").degree() == 1024
    assert P("x^512*x^512").degree() == 1024
    for text, pos in (("x^1025", 1), ("x^600x^600", 5), ("(x^2+1)^600", 7),
                      ("2^99999999999", 1), ("(" * 65 + "x" + ")" * 65, 64)):
        with pytest.raises(PolyParseError) as info:
            P(text)
        assert info.value.pos == pos
    assert P("(" * 64 + "x" + ")" * 64) == P("x")


# bases other than x, over the base field of each tower
POWER_BASES = {3: ("x+2", "2x", "2x^2+x+1", "2"), 4: ("x+u", "ux", "ux^2+1", "u"),
               8: ("x+u", "u^3x^2+x+1", "u^2"), 9: ("x+u", "ux^2+2x+1", "u+1")}


def test_powers_of_x_are_monomials(monkeypatch):
    f = T4.base
    power = Poly.one(f)
    for e in range(41):
        assert P(f"x^{e}", T4) == power
        power = power * Poly.x(f)
    for q, bases in POWER_BASES.items():  # other bases: square and multiply
        for text in bases:
            other = Poly.one(tower(q).base)
            for e in range(41):
                assert P(f"({text})^{e}", tower(q)) == other
                other = other * P(text, tower(q))
    assert P("(x+1)^1024", T4) == P("x^1024+1", T4)  # Frobenius
    # the parser multiplies coefficient lists through `poly._product`:
    # count its calls, and see that a power of x+1 makes some
    products = []
    product = poly._product

    def counted(*args):
        products.append(1)
        return product(*args)

    monkeypatch.setattr(poly, "_product", counted)
    assert P("x^1024").coeffs == (0,) * 1024 + (1,)
    assert P("ux^1000+x^999", T4).coeffs == (0,) * 999 + (1, T4.p)
    assert len(products) <= 2
    for e in (2, 3, 7, 40, 255, 1000, 1023, 1024):
        del products[:]
        P(f"(x+1)^{e}", T4)
        assert 0 < len(products) <= 2 * math.ceil(math.log2(e)) + 2


def test_parse_rejects_minus():
    with pytest.raises(PolyParseError):
        P("x^2-1")


def test_parse_w_needs_extension_coefficients():
    with pytest.raises(PolyParseError):
        P("x+w")  # base-field polynomial cannot carry w
    assert P("x+w", ext=True).coeffs == (T3.omega, 1)


def test_parse_u_needs_proper_prime_power():
    with pytest.raises(PolyParseError):
        P("ux")  # q = 3 has no middle generator
    assert P("ux", T8).coeffs == (0, T8.p)


def test_parse_y_alias():
    assert P("y^2+2y") == P("x^2+2x")


def test_parse_parenthesized_coefficients():
    p = P("(2w+2)x^4+(w+1)x^3+2wx^2+(w+2)x+w+1", ext=True)
    assert p.coeffs == (
        int(T3.compose(1, 1)),
        int(T3.compose(2, 1)),
        int(T3.compose(0, 2)),
        int(T3.compose(1, 1)),
        int(T3.compose(2, 2)),
    )


def test_parse_explicit_product_and_whitespace():
    assert P("2*w + 2", ext=True) == P("2w+2", ext=True)


def test_parse_u_powers():
    p = P("x^4+u^5x^3+u^4x^2+x+u^4", T8)
    f = T8.base
    u2 = f.mul(T8.p, T8.p)
    u4 = f.mul(u2, u2)
    assert p.coeffs == (u4, 1, u4, f.mul(u4, T8.p), 1)


def test_parse_trailing_garbage():
    with pytest.raises(PolyParseError):
        P("x^2+1)")


def test_parse_scalar():
    assert parse_scalar("2w+1", T3.ext, T3) == int(T3.compose(1, 2))
    with pytest.raises(PolyParseError):
        parse_scalar("x+1", T3.ext, T3)


def test_render_roundtrip_randomized():
    rng = random.Random(5)
    for tw in (T3, T4, T8):
        for f in (tw.base, tw.ext):
            for _ in range(300):
                p = Poly(f, [rng.randrange(f.order)
                             for _ in range(rng.randrange(7))])
                assert parse_poly(format_poly(p), f, tw) == p


def test_rendered_text_is_pinned():
    # the u/w notation of every element of the base and extension field
    # of every tower with q <= 16, then of 200 seeded random polynomials
    # over each of those fields: the text of every report's generators
    digest, rng = hashlib.sha256(), random.Random(40)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        for f in (tower(q).base, tower(q).ext):
            for a in range(f.order):
                digest.update(format_element(f, a).encode() + b"\n")
            for _ in range(200):
                p = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(8))])
                digest.update(format_poly(p).encode() + b"\n")
    assert digest.hexdigest() == (
        "51a42181fb16be5ce8412331d890f02a7a6d4072484147a66b331cb806d4dc4e")


def test_cyclic_vector_folds():
    v = P("x^3+2").cyclic_vector(3)  # x^3 == 1 -> 2 + 1 = 0
    assert not v.any()
    assert list(P("x^5").cyclic_vector(3)) == [0, 0, 1]
