"""Exact arithmetic in the two-level field tower F_p <= F_q <= F_q2.

Elements are plain integers.  An element of F_(p^m) is encoded by its
coordinate vector (c_0, ..., c_{m-1}) with respect to the power basis
1, u, ..., u^(m-1), packed little-endian in base p:

    value = c_0 + c_1*p + ... + c_{m-1}*p^(m-1)

The quadratic extension F_q2 = F_q[w]/<f2> packs the pair b + w*c as
b + q*c, so base-field elements embed as themselves and decomposition
into components is divmod by q.

Arithmetic goes through precomputed tables (the fields at play have at
most 256 elements; characteristic-2 array addition is the exception
below), so every operation accepts ints or numpy arrays, and there is
no element class.  `linalg` does not call this class per row.
Elimination holds rows as bytes and reduces a row only at its leading
column, scaling by `bytes.translate` through rows of mul_table and
adding as big integers, by XOR in characteristic 2 (below) and in a
carry-free lane code of the base-p digits otherwise.  A small matrix
product is one integer product over the base-p digits, which are an
element's F_p coordinates on every level of the tower.

An extension's tables are built from its subfield's by whole-array
gathers.  With D the (order, m) matrix of every element's subfield
digits, the add table packs sub.add[D[a], D[b]] by the place values
base^i.  The mul table accumulates the m^2 digit products
sub.mul[D[a, i], D[b, j]] into 2m-1 coefficient planes over the whole
order x order grid, then folds each plane above degree m-1 into the
planes below it through the monic modulus, t^m = -(f_0 + ... +
f_{m-1} t^(m-1)), before packing.  neg and inv are the first zero of
each add row and the first one of each mul row; a nonzero row without
a one is a zero divisor, so the modulus was reducible.

In characteristic 2 the sum of two uint8 arrays is their XOR.  Addition
acts digit by digit on the packed codes, recursively down to the prime
field, and for p = 2 every level's digit is a group of bits (each base
is a power of 2) whose prime-field sum is bitwise addition mod 2: XOR.
Each element is its own negative there, so subtraction is addition.  A
uint8 XOR is about 100 times faster than the two-index table gather on
a 2000 x 34 block; scalars passed here keep the table lookup, which is
faster than wrapping a Python-int XOR as a numpy uint8.  Scalar work in
bulk does not come here: `poly` does its coefficient arithmetic in
Python lists derived from these tables, one list index per operation.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class FieldMismatchError(ValueError):
    """Operands belong to different fields or different towers."""


# Defining polynomials of F_q over F_p used when the caller does not
# supply one, as coefficient tuples, low degree first.
_DEFAULT_F1 = {
    4: (1, 1, 1),         # x^2 + x + 1 over F_2
    8: (1, 1, 0, 1),      # x^3 + x + 1 over F_2
    9: (1, 0, 1),         # x^2 + 1 over F_3
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1 over F_2
}


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    m = 0
    n = q
    while n % p == 0:
        n //= p
        m += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


def _is_int(c) -> bool:
    """True iff c is an int or a numpy integer, not a bool."""
    return isinstance(c, (int, np.integer)) and not isinstance(c, bool)


def _is_element(c, order) -> bool:
    """True iff c is an int, not a bool, in [0, order): an element's code."""
    return _is_int(c) and 0 <= c < order


class Field:
    """A finite field of order <= 256, either F_p or an extension F_sub[t]/<modulus>.

    Carries add/mul/neg/inv lookup tables; `add`, `mul`, `sub`, etc.
    broadcast over numpy arrays.  `symbol` is the display name of the
    adjoined generator ('u' for the middle level, 'w' for the top level).
    An extension takes its subfield's p, and a monic modulus whose
    coefficients are the subfield's elements; anything else is refused.
    """

    def __init__(self, p, modulus=None, subfield=None, symbol=None):
        self.p = p
        self.subfield = subfield
        self.modulus = tuple(modulus) if modulus is not None else None
        self.symbol = symbol
        if subfield is None:
            if not 2 <= p <= 256 or _factor_prime_power(p)[1] != 1:
                raise ValueError(f"p={p!r} is not a prime of at most 256")
            self.degree = 1
            self.order = p
            add = np.add.outer(np.arange(p), np.arange(p)) % p
            mul = np.multiply.outer(np.arange(p), np.arange(p)) % p
            self.add_table = add.astype(np.uint8)
            self.mul_table = mul.astype(np.uint8)
        else:
            if p != subfield.p:
                raise ValueError(f"p={p!r} is not the subfield's characteristic {subfield.p}")
            if self.modulus is None or self.modulus[-1] != 1:
                raise ValueError("extension requires a monic modulus")
            bad = [c for c in self.modulus if not _is_element(c, subfield.order)]
            if bad:
                raise ValueError(f"modulus coefficient {bad[0]!r} is not an element "
                                 f"of F_{subfield.order}")
            self.degree = len(self.modulus) - 1
            self.order = subfield.order ** self.degree
            if self.order > 256:
                raise ValueError(f"field order {self.order} is past 256")
            self.add_table, self.mul_table = self._extension_tables()
        # the first b with a + b = 0, and the first b with a*b = 1
        self.neg_table = np.argmax(self.add_table == 0, axis=1).astype(np.uint8)
        units = self.mul_table == 1
        if not units[1:].any(axis=1).all():
            raise ValueError("modulus is not irreducible: found a zero divisor")
        self.inv_table = np.argmax(units, axis=1).astype(np.uint8)
        self._signature = (p, self.modulus, subfield._signature if subfield else None)

    def _extension_tables(self):
        """(add, mul) tables of F_sub[t]/<modulus> by whole-grid gathers
        on the subfield's tables (module docstring)."""
        sub, m = self.subfield, self.degree
        place = (sub.order ** np.arange(m)).astype(np.uint8)
        # digits[a, i] is the coefficient of t^i in element a
        digits = (np.arange(self.order)[:, None] // place % sub.order).astype(np.uint8)
        left, right = digits[:, None, :], digits[None, :, :]
        # packed values are at most 255, so the uint8 sums cannot wrap
        add = (sub.add_table[left, right] * place).sum(axis=-1, dtype=np.uint8)
        coeffs = np.zeros((2 * m - 1, self.order, self.order), dtype=np.uint8)
        for i in range(m):
            for j in range(m):
                coeffs[i + j] = sub.add_table[
                    coeffs[i + j], sub.mul_table[left[..., i], right[..., j]]]
        # t^m = -(f_0 + ... + f_{m-1} t^(m-1)): fold each plane above
        # degree m-1 into the m planes below it, highest first
        for d in range(2 * m - 2, m - 1, -1):
            for i, f in enumerate(self.modulus[:-1]):
                minus_f = sub.neg_table[sub.mul_table[:, f]]
                coeffs[d - m + i] = sub.add_table[coeffs[d - m + i], minus_f[coeffs[d]]]
        mul = (coeffs[:m] * place[:, None, None]).sum(axis=0, dtype=np.uint8)
        return add, mul

    # -- arithmetic (ints or numpy arrays) --------------------------------

    # add XORs two uint8 arrays in characteristic 2 (module docstring),
    # where sub is add; any other operands, scalars included, read the
    # table

    def add(self, a, b):
        if (self.p == 2 and type(a) is type(b) is np.ndarray
                and a.dtype == b.dtype == np.uint8):
            return a ^ b
        return self.add_table[a, b]

    def neg(self, a):
        return self.neg_table[a]

    def sub(self, a, b):
        if self.p == 2:  # every element is its own negative
            return self.add(a, b)
        return self.add_table[a, self.neg_table[b]]

    def mul(self, a, b):
        return self.mul_table[a, b]

    def inv(self, a):
        if np.any(np.asarray(a) == 0):
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.inv_table[a]

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and self._signature == other._signature

    def __hash__(self):
        return hash(self._signature)

    def __repr__(self):
        return f"Field(order={self.order})"


class FieldTower:
    """The tower F_p <= F_q <= F_q2 with fixed defining polynomials.

    p, m      : q = p^m, at most 16 (F_q2 elements are stored as bytes)
    f1        : monic defining polynomial of F_q over F_p (None when m == 1)
    f2        : monic irreducible quadratic of F_q2 over F_q
    base, ext : the Field objects for F_q and F_q2
    omega     : the adjoined root of f2, as an integer element of `ext`

    Irreducibility is checked by building the field: F_sub[t]/<f> has a
    zero divisor exactly when f is reducible, and Field rejects it.  The
    default f1 is a constant; the default f2 is the first monic quadratic
    with no root in F_q, in packed order (x^2 + 1 over F_3, x^2 + x + u
    over F_4, x^2 + x + 1 over F_8).
    Immutable after construction.
    """

    def __init__(self, q, f1=None, f2=None):
        if not _is_int(q) or not 2 <= q <= 16:
            raise ValueError(f"a tower needs an int 2 <= q <= 16, got {q!r}")
        p, m = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.m = m
        self.prime = Field(p)
        if m == 1:
            if f1 is not None:
                raise ValueError("f1 is only meaningful when q is a proper prime power")
            self.f1 = None
            self.base = self.prime
        else:
            self.f1 = tuple(f1) if f1 is not None else _DEFAULT_F1[q]
            self.base = _extension(self.prime, "f1", self.f1, m, "u",
                                   f"f1 {self.f1} is reducible over F_{p}")
        self.f2 = (tuple(f2) if f2 is not None
                   else _first_irreducible_quadratic(self.base))
        self.ext = _extension(self.base, "f2", self.f2, 2, "w", f"f2 {self.f2} is reducible: "
                              "it has a root in the base field")
        self.omega = self.base.order  # 0 + 1*w

    # -- moving between the two levels ------------------------------------

    def compose(self, b, c):
        """The extension element b + w*c from base components (arrays ok)."""
        return np.asarray(b, dtype=np.uint8) + self.q * np.asarray(c, dtype=np.uint8)

    def decompose(self, z):
        """Base-field components (b, c) of z = b + w*c (arrays ok)."""
        z = np.asarray(z)
        return z % self.q, z // self.q

    def __eq__(self, other):
        return (
            isinstance(other, FieldTower)
            and (self.q, self.f1, self.f2) == (other.q, other.f1, other.f2)
        )

    def __hash__(self):
        return hash((self.q, self.f1, self.f2))

    def __repr__(self):
        return f"FieldTower(q={self.q})"


def tower(q, f1=None, f2=None):
    """Memoized FieldTower factory; f1/f2 are coefficient sequences, low
    degree first, and equal sequences give the same tower object.  The
    cache matches keys by ==, so a q or coefficient that is no int, such
    as 3.0 or True, skips it and is refused by FieldTower."""
    f1, f2 = (None if f is None else tuple(f) for f in (f1, f2))
    if not all(map(_is_int, (q, *(f1 or ()), *(f2 or ())))):
        return FieldTower(q, f1=f1, f2=f2)
    f1, f2 = (None if f is None else tuple(map(int, f)) for f in (f1, f2))
    return _tower(int(q), f1, f2)


@lru_cache(maxsize=None)
def _tower(q, f1, f2):
    return FieldTower(q, f1=f1, f2=f2)


# -- the defining polynomials ---------------------------------------------


def _extension(subfield, name, modulus, degree, symbol, reducible):
    """subfield[t]/<modulus>, the tower's f1 or f2 (`name`), checked
    monic, of the given degree and over the subfield; then building it is
    the irreducibility test: a ValueError from Field is a zero divisor,
    and `reducible` says which modulus has one."""
    if len(modulus) != degree + 1 or modulus[-1] != 1:
        raise ValueError(f"{name} must be monic of degree {degree}")
    if not all(_is_element(c, subfield.order) for c in modulus):
        raise ValueError(f"{name} coefficients must lie in F_{subfield.order}")
    try:
        return Field(subfield.p, modulus=modulus, subfield=subfield, symbol=symbol)
    except ValueError:
        raise ValueError(reducible) from None


def _first_irreducible_quadratic(base):
    """The first monic x^2 + c1*x + c0 over `base`, in packed order
    c0 + q*c1, with no root in `base`: the first whose -c0 is not a
    value of x^2 + c1*x."""
    xs = np.arange(base.order)
    # values[c1, x] = x^2 + c1*x
    values = base.add_table[base.mul_table[xs, xs], base.mul_table]
    rooted = (values[:, :, None] == base.neg_table).any(axis=1)  # [c1, c0]
    c1, c0 = divmod(int(np.argmin(rooted)), base.order)
    return (c0, c1, 1)


# -- element rendering ------------------------------------------------------


def _format_terms(field, coeffs, symbol):
    """The sum of the terms c*symbol^i over the nonzero coeffs[i], each
    an element of `field`, highest degree first: a coefficient 1 is
    dropped, the constant term is bare, and a coefficient that is a sum
    is parenthesized, as in '(u+1)w' or '(2w+2)x'.  '0' when every
    coefficient is zero."""
    terms = []
    for i in reversed(range(len(coeffs))):
        if not coeffs[i]:
            continue
        coef = format_element(field, coeffs[i])
        if i and "+" in coef:
            coef = f"({coef})"
        power = "" if i == 0 else symbol if i == 1 else f"{symbol}^{i}"
        terms.append(power if i and coeffs[i] == 1 else coef + power)
    return "+".join(terms) or "0"


def format_element(field, value):
    """Render an element in the u/w notation, e.g. 'u^2', '2w+2', '(u+1)w':
    its subfield digits as a sum of terms in the field's symbol."""
    value = int(value)
    if field.subfield is None:
        return str(value)
    base = field.subfield.order
    return _format_terms(field.subfield,
                         [value // base**i % base for i in range(field.degree)],
                         field.symbol)
