"""Field tower arithmetic: worked values, axioms, irreducibility oracles."""

import hashlib
import random
from functools import lru_cache

import numpy as np
import pytest

from addcyclic.fields import (
    Field,
    FieldMismatchError,
    FieldTower,
    _first_irreducible_quadratic,
    format_element,
    tower,
)
from addcyclic.poly import Poly

from oracles import MixedWord, add_words, evaluate

T3 = tower(3)
T4 = tower(4)
T8 = tower(8)
TOWERS = (T3, T4, T8)


def test_add_mod3():
    assert T3.base.add(2, 2) == 1


def test_add_char2():
    u = T4.p  # u is encoded by its digits (0, 1) base 2
    assert T4.base.add(u, u) == 0


def test_add_f9_componentwise():
    # (2+w) + (1+2w) = 0
    a, b = int(T3.compose(2, 1)), int(T3.compose(1, 2))
    assert T3.ext.add(a, b) == 0


def test_mul_f4_defining_poly():
    u = T4.p
    assert T4.base.mul(u, u) == T4.base.add(u, 1)  # u^2 = u+1


def test_mul_f8_defining_poly():
    f, u = T8.base, T8.p
    assert f.mul(f.mul(u, u), u) == 3  # u^3 = u+1, encoded as digits (1,1,0) base 2


def test_mul_f9_omega():
    # w(w+1) = w^2 + w = 2 + w
    f, w = T3.ext, T3.omega
    assert f.mul(w, f.add(w, 1)) == int(T3.compose(2, 1))


def test_inv_f4():
    u = T4.p
    assert T4.base.inv(u) == T4.base.add(u, 1)  # u+1


def test_inv_f9():
    # w^-1 = 2w, as w^2 = -1
    assert T3.ext.inv(T3.omega) == int(T3.compose(0, 2))


def test_inv_zero_raises():
    for tw in TOWERS:
        with pytest.raises(ZeroDivisionError):
            tw.ext.inv(0)
        with pytest.raises(ZeroDivisionError):
            tw.base.inv(0)


def test_inv_zero_raises_for_every_argument_kind():
    # Python ints and numpy scalars take the scalar check, arrays the
    # array check; both must refuse a zero
    for tw in TOWERS:
        for f in (tw.base, tw.ext):
            for zero in (0, np.uint8(0), np.int64(0),
                         np.array([1, 0, 2 % f.order]), np.array(0)):
                with pytest.raises(ZeroDivisionError):
                    f.inv(zero)
            nonzero = np.arange(1, f.order, dtype=np.uint8)
            inverses = f.inv(nonzero)
            assert np.all(f.mul(nonzero, inverses) == 1)
            assert [int(f.inv(int(a))) for a in nonzero] == inverses.tolist()
            assert [int(f.inv(a)) for a in nonzero] == inverses.tolist()


def test_tower_mismatch():
    # polynomials and words from different towers do not mix
    with pytest.raises(FieldMismatchError):
        Poly(T3.base, (1,)) + Poly(T4.base, (1,))
    with pytest.raises(FieldMismatchError):
        Poly(T3.base, (1,)) * Poly(T3.ext, (1,))
    with pytest.raises(FieldMismatchError):
        add_words(MixedWord(T3, (1,), (1,)), MixedWord(T4, (1,), (1,)))


def test_decompose_examples():
    assert tuple(int(x) for x in T3.decompose(int(T3.compose(2, 1)))) == (2, 1)
    assert tuple(int(x) for x in T3.decompose(0)) == (0, 0)
    # embedded base element of F16 over F4: u -> (u, 0)
    assert tuple(int(x) for x in T4.decompose(T4.p)) == (T4.p, 0)


def test_compose_decompose_roundtrip_exhaustive():
    for tw in TOWERS + (tower(9),):
        for b in range(tw.q):
            for c in range(tw.q):
                z = int(tw.compose(b, c))
                assert tuple(int(x) for x in tw.decompose(z)) == (b, c)


def test_lagrange_exhaustive():
    # x^(|F|-1) = 1 for every nonzero x, all fields up to order 64
    for tw in TOWERS:
        for f in (tw.base, tw.ext):
            x = np.arange(1, f.order, dtype=np.uint8)
            power = np.ones_like(x)
            for _ in range(f.order - 1):
                power = f.mul(power, x)
            assert np.all(power == 1)


@pytest.mark.parametrize("tw", TOWERS, ids=lambda t: f"q{t.q}")
def test_field_axioms_randomized(tw):
    rng = np.random.default_rng(12345)
    n = 10_000
    for f in (tw.base, tw.ext):
        a = rng.integers(0, f.order, n)
        b = rng.integers(0, f.order, n)
        c = rng.integers(0, f.order, n)
        assert np.array_equal(f.add(f.add(a, b), c), f.add(a, f.add(b, c)))
        assert np.array_equal(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)))
        assert np.array_equal(f.add(a, b), f.add(b, a))
        assert np.array_equal(f.mul(a, b), f.mul(b, a))
        assert np.array_equal(f.mul(a, f.add(b, c)),
                              f.add(f.mul(a, b), f.mul(a, c)))
        assert np.array_equal(f.add(a, f.neg(a)), np.zeros(n, dtype=np.uint8))


def test_inverses_randomized():
    rng = random.Random(7)
    for tw in TOWERS:
        for f in (tw.base, tw.ext):
            for _ in range(200):
                x = rng.randrange(1, f.order)
                assert int(f.mul(x, f.inv(x))) == 1


def test_default_moduli_irreducible_by_root_search():
    # quadratic is irreducible over its base iff it has no root there
    for tw in TOWERS:
        f2 = Poly(tw.base, tw.f2)
        assert all(evaluate(f2, x) for x in range(tw.base.order))
    assert T4.f2 == (2, 1, 1)   # x^2 + x + u over F_4
    assert T8.f2 == (1, 1, 1)   # x^2 + x + 1 over F_8
    assert T3.f2 == (1, 0, 1)   # x^2 + 1 over F_3


def monic_polys(field, degree):
    """Every monic polynomial of the given degree, as a Poly."""
    for packed in range(field.order**degree):
        yield Poly(field, [(packed // field.order**i) % field.order
                           for i in range(degree)] + [1])


@pytest.mark.parametrize("field,top", [(tower(2).base, 5), (T3.base, 4), (T4.base, 3)],
                         ids=("F2", "F3", "F4"))
def test_irreducibility_matches_products_of_monic_factors(field, top):
    # oracle: the reducible monic polynomials are the products of two
    # monic factors of positive degree; building F[t]/<f> must succeed
    # exactly for the others, and the f2 search must return the first
    # irreducible quadratic in packed order
    for degree in range(1, top + 1):
        reducible = {(a * b).coeffs for i in range(1, degree // 2 + 1)
                     for a in monic_polys(field, i)
                     for b in monic_polys(field, degree - i)}
        for f in monic_polys(field, degree):
            if f.coeffs in reducible:
                with pytest.raises(ValueError, match="zero divisor"):
                    Field(field.p, modulus=f.coeffs, subfield=field)
            else:
                ext = Field(field.p, modulus=f.coeffs, subfield=field)
                assert ext.order == field.order ** degree
        if degree == 2:
            first = next(f.coeffs for f in monic_polys(field, 2)
                         if f.coeffs not in reducible)
            assert _first_irreducible_quadratic(field) == first


def test_reducible_f2_rejected():
    # x^2 - 1 = (x-1)(x+1) has roots everywhere
    with pytest.raises(ValueError, match=r"f2 \(2, 0, 1\) is reducible: it has a root"):
        FieldTower(3, f2=(2, 0, 1))
    # x^2+1 is reducible over F_2: 1 is a root
    with pytest.raises(ValueError, match="has a root in the base field"):
        FieldTower(4, f1=(1, 1, 1), f2=(1, 0, 1))


def test_reducible_f1_rejected():
    with pytest.raises(ValueError, match=r"f1 \(1, 0, 1\) is reducible over F_2"):
        FieldTower(4, f1=(1, 0, 1))  # x^2+1 = (x+1)^2 over F_2


@pytest.mark.parametrize("q, moduli, message", [
    (4, {"f1": (1, 1, 0, 1)}, "f1 must be monic of degree 2"),
    (4, {"f1": (1, 1, 0)}, "f1 must be monic of degree 2"),
    (4, {"f1": (2, 1, 1)}, "f1 coefficients must lie in F_2"),
    (8, {"f1": (1, 1, -1, 1)}, "f1 coefficients must lie in F_2"),
    (3, {"f2": (2, 0, 0, 1)}, "f2 must be monic of degree 2"),
    (3, {"f2": (1, 0, 2)}, "f2 must be monic of degree 2"),
    (3, {"f2": (3, 0, 1)}, "f2 coefficients must lie in F_3"),
    (4, {"f2": (2, 4, 1)}, "f2 coefficients must lie in F_4"),
    (4, {"f1": (1, 1.5, 1)}, "f1 coefficients must lie in F_2"),
])
def test_malformed_moduli_are_refused_by_name(q, moduli, message):
    # f1 and f2 get one shape check, on the way into their field: the
    # wrong degree, a leading coefficient other than 1, or a coefficient
    # outside the subfield
    with pytest.raises(ValueError, match=f"^{message}$"):
        tower(q, **moduli)


def test_searched_f2_over_an_overridden_f1():
    # every tower takes the first quadratic with no root over its own
    # base field, an overridden f1 included
    assert tower(9, f1=(2, 1, 1)).f2 == tower(9, f1=(2, 2, 1)).f2 == (3, 0, 1)
    assert tower(16, f1=(1, 0, 0, 1, 1)).f2 == tower(16, f1=(1, 1, 1, 1, 1)).f2 == (2, 1, 1)


def test_non_prime_power_rejected():
    with pytest.raises(ValueError):
        FieldTower(6)


def test_format_element():
    assert format_element(T3.ext, int(T3.compose(2, 2))) == "2w+2"
    assert format_element(T3.ext, 3) == "w"
    assert format_element(T4.base, T4.p) == "u"
    assert format_element(T8.base, int(T8.base.mul(T8.p, T8.base.mul(T8.p, T8.p)))) == "u+1"
    assert format_element(T3.base, 0) == "0"


def test_poly_eval_helper():
    # f2 of the q=3 tower has no roots but f(w) = 0 in the extension
    assert evaluate(Poly(T3.ext, T3.f2), T3.omega) == 0


def test_tower_accepts_coefficient_lists():
    assert tower(4, f2=[2, 1, 1]) is tower(4, f2=(2, 1, 1))
    assert tower(8, f1=[1, 1, 0, 1], f2=[1, 1, 1]) is tower(8, f1=(1, 1, 0, 1), f2=(1, 1, 1))
    assert tower(4, f2=[2, 1, 1]).f2 == (2, 1, 1)


# every field the characteristic-2 towers build, F_2 up to F_256
CHAR2_FIELDS = [f for q in (2, 4, 8, 16)
                for f in (tower(q).prime, tower(q).base, tower(q).ext)]
ODD_FIELDS = [f for q in (3, 5, 7, 9) for f in (tower(q).base, tower(q).ext)]


def _field_id(f):
    return f"F{f.order}" + (f"/{f.modulus}" if f.modulus else "")


@pytest.mark.parametrize("f", CHAR2_FIELDS, ids=_field_id)
def test_char2_add_and_sub_match_the_add_table(f):
    # XOR on arrays, the table on scalars: both must read as add_table
    table = f.add_table
    for a in range(f.order):
        for b in range(f.order):
            for x, y in ((a, b), (np.uint8(a), np.uint8(b))):
                for got in (f.add(x, y), f.sub(x, y)):
                    assert type(got) is np.uint8 and got == table[a, b]
    col = np.arange(f.order, dtype=np.uint8)[:, None]
    for got in (f.add(col, col.T), f.sub(col, col.T), f.add(col.T, col)):
        assert got.dtype == np.uint8 and got.shape == table.shape
        assert np.array_equal(got, table)
    # a uint8 array with a scalar broadcasts like the table too
    for x in (3 % f.order, np.uint8(1)):
        assert np.array_equal(f.add(col, x), table[col, x])
        assert f.add(col, x).dtype == np.uint8


@pytest.mark.parametrize("f", ODD_FIELDS, ids=_field_id)
def test_odd_characteristic_add_and_sub_use_the_table(f):
    col = np.arange(f.order, dtype=np.uint8)[:, None]
    added, subtracted = f.add(col, col.T), f.sub(col, col.T)
    assert added.dtype == subtracted.dtype == np.uint8
    assert np.array_equal(added, f.add_table)
    assert np.array_equal(subtracted, f.add_table[col, f.neg_table[col.T]])
    assert not np.array_equal(added, col ^ col.T)


# -- table construction against the per-pair reference -----------------------


@lru_cache(maxsize=None)
def reference_field_tables(field):
    """(add, mul, neg, inv) of `field` built one element pair at a time:
    one scalar subfield operation per digit, on the reference tables of
    the subfield (never the library's), with schoolbook multiplication
    reduced term by term by the monic modulus."""
    if field.subfield is None:
        p = field.p
        add = [[(a + b) % p for b in range(p)] for a in range(p)]
        mul = [[(a * b) % p for b in range(p)] for a in range(p)]
    else:
        s_add, s_mul, s_neg, _ = (t.tolist() for t in
                                  reference_field_tables(field.subfield))
        base, m, modulus = field.subfield.order, field.degree, field.modulus

        def digits(a):
            return [(a // base**i) % base for i in range(m)]

        def pack(ds):
            return sum(d * base**i for i, d in enumerate(ds))

        def polymul_mod(da, db):
            prod = [0] * (2 * m - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    prod[i + j] = s_add[prod[i + j]][s_mul[x][y]]
            for d in range(2 * m - 2, m - 1, -1):
                c, prod[d] = prod[d], 0
                for i, f in enumerate(modulus[:-1]):
                    prod[d - m + i] = s_add[prod[d - m + i]][s_neg[s_mul[c][f]]]
            return prod[:m]

        order = base**m
        add = [[pack([s_add[x][y] for x, y in zip(digits(a), digits(b))])
                for b in range(order)] for a in range(order)]
        mul = [[pack(polymul_mod(digits(a), digits(b))) for b in range(order)]
               for a in range(order)]
    neg = [row.index(0) for row in add]
    inv = [0] + [row.index(1) for row in mul[1:]]
    return tuple(np.array(t, dtype=np.uint8) for t in (add, mul, neg, inv))


TABLE_QS = (2, 3, 4, 5, 7, 8, 9, 16)
TABLE_TOWERS = [(f"q{q}", tower(q)) for q in TABLE_QS] + [
    ("q4-f2=(2,1,1)", tower(4, f2=(2, 1, 1))),
    ("q4-f2=(3,1,1)", tower(4, f2=(3, 1, 1))),
    ("q8-f1=(1,0,1,1)", tower(8, f1=(1, 0, 1, 1))),
]
TABLE_FIELDS = [(f"{name}-{level}", getattr(tw, level))
                for name, tw in TABLE_TOWERS for level in ("prime", "base", "ext")]


@pytest.mark.parametrize("f", [f for _, f in TABLE_FIELDS],
                         ids=[name for name, _ in TABLE_FIELDS])
def test_tables_match_the_per_pair_construction(f):
    for name, want in zip(("add_table", "mul_table", "neg_table", "inv_table"),
                          reference_field_tables(f)):
        got = getattr(f, name)
        assert got.dtype == np.uint8 and got.shape == want.shape, name
        assert np.array_equal(got, want), name


def test_table_digest_is_pinned():
    # the element encoding is part of every report: the sha256 of all
    # tables of the default towers, in this order, must never move
    digest = hashlib.sha256()
    for q in TABLE_QS:
        tw = tower(q)
        for f in (tw.prime, tw.base, tw.ext):
            for t in (f.add_table, f.mul_table, f.neg_table, f.inv_table):
                digest.update(t.tobytes(order="C"))
    assert digest.hexdigest() == (
        "56fbb7dcc7939ee44c84f386f5109574eb9dc5c349f9246823dc789a832870c0")


def test_reducible_modulus_raises_zero_divisor():
    # x^2 + 1 = (x + 1)^2 over F_2: x + 1 has no inverse
    with pytest.raises(ValueError, match="found a zero divisor"):
        Field(2, modulus=(1, 0, 1), subfield=Field(2))


@pytest.mark.parametrize("p", [0, 1, 4, 9, -3], ids=lambda p: f"p{p}")
def test_field_refuses_a_p_that_is_no_prime(p):
    # the integers mod p are a field only for a prime p
    with pytest.raises(ValueError, match=f"p={p} is not a prime of at most 256"):
        Field(p)


@pytest.mark.parametrize("p, modulus, message", [
    # an F_4 with p = 3 was built, and elimination over it never ended
    (3, (1, 1, 1), "p=3 is not the subfield's characteristic 2"),
    (2, (1, 5, 1), "modulus coefficient 5 is not an element of F_2"),
    (2, (1.5, 1, 1), "modulus coefficient 1.5 is not an element of F_2"),
    # -1 indexed the tables from their end and built F_4
    (2, (1, -1, 1), "modulus coefficient -1 is not an element of F_2"),
    (2, (True, 1, 1), "modulus coefficient True is not an element of F_2"),
    (2, (1, 1, 1.0), "modulus coefficient 1.0 is not an element of F_2"),
])
def test_extension_refuses_a_foreign_p_or_coefficient(p, modulus, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Field(p, modulus=modulus, subfield=Field(2))


def test_extension_takes_numpy_coefficients():
    assert (Field(2, modulus=np.array([1, 1, 1]), subfield=Field(2))
            == Field(2, modulus=(1, 1, 1), subfield=Field(2)) == tower(4).base)


def test_field_refuses_an_order_past_256(recwarn):
    # elements are held as bytes, so no order may pass 256, and no
    # table is built first (its uint8 place values would wrap)
    with pytest.raises(ValueError, match="p=257 is not a prime of at most 256"):
        Field(257)
    with pytest.raises(ValueError, match="field order 512 is past 256"):
        Field(2, modulus=(1, 1, 0, 0, 0, 0, 0, 0, 0, 1), subfield=Field(2))
    assert not recwarn.list
    # degree 8, order 256, is the largest extension of F_2 that is built
    assert Field(2, modulus=(1, 0, 1, 1, 1, 0, 0, 0, 1), subfield=Field(2)).order == 256
