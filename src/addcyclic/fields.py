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
Elimination holds rows as bytes, scales them by `bytes.translate`
through rows of mul_table, and adds them as big integers, by XOR in
characteristic 2 (below) and in a carry-free lane code of the base-p
digits otherwise.  A small matrix product is one integer product over
the base-p digits, which are an element's F_p coordinates on every
level of the tower.

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
a 2000 x 34 block; scalars keep the table lookup, which is faster than
wrapping a Python-int XOR as a numpy uint8.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class FieldMismatchError(ValueError):
    """Operands belong to different fields or different towers."""


# Defining polynomials used when the caller does not supply one,
# as coefficient tuples, low degree first.
_DEFAULT_F1 = {
    4: (1, 1, 1),         # x^2 + x + 1 over F_2
    8: (1, 1, 0, 1),      # x^3 + x + 1 over F_2
    9: (1, 0, 1),         # x^2 + 1 over F_3
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1 over F_2
}
_DEFAULT_F2 = {
    3: (1, 0, 1),      # x^2 + 1 over F_3
    4: (2, 1, 1),      # x^2 + x + u over F_4   (2 encodes u)
    8: (1, 1, 1),      # x^2 + x + 1 over F_8
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


class Field:
    """A finite field of order <= 256, either F_p or an extension F_sub[t]/<modulus>.

    Carries add/mul/neg/inv lookup tables; `add`, `mul`, `sub`, etc.
    broadcast over numpy arrays.  `symbol` is the display name of the
    adjoined generator ('u' for the middle level, 'w' for the top level).
    """

    def __init__(self, p, modulus=None, subfield=None, symbol=None):
        self.p = p
        self.subfield = subfield
        self.modulus = tuple(modulus) if modulus is not None else None
        self.symbol = symbol
        if subfield is None:
            self.degree = 1
            self.order = p
            add = np.add.outer(np.arange(p), np.arange(p)) % p
            mul = np.multiply.outer(np.arange(p), np.arange(p)) % p
            self.add_table = add.astype(np.uint8)
            self.mul_table = mul.astype(np.uint8)
        else:
            if self.modulus is None or self.modulus[-1] != 1:
                raise ValueError("extension requires a monic modulus")
            self.degree = len(self.modulus) - 1
            self.order = subfield.order ** self.degree
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

    # add and sub XOR two uint8 arrays in characteristic 2 (module
    # docstring); any other operands, scalars included, read the table

    def add(self, a, b):
        if (self.p == 2 and type(a) is type(b) is np.ndarray
                and a.dtype == b.dtype == np.uint8):
            return a ^ b
        return self.add_table[a, b]

    def neg(self, a):
        return self.neg_table[a]

    def sub(self, a, b):
        if (self.p == 2 and type(a) is type(b) is np.ndarray
                and a.dtype == b.dtype == np.uint8):
            return a ^ b
        return self.add_table[a, self.neg_table[b]]

    def mul(self, a, b):
        return self.mul_table[a, b]

    def inv(self, a):
        if isinstance(a, (int, np.integer)):
            zero = a == 0
        else:
            zero = np.any(np.asarray(a) == 0)
        if zero:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.inv_table[a]

    def sum(self, arr, axis=None):
        """Field sum of a numpy array along `axis` (None: all entries)."""
        arr = np.asarray(arr, dtype=np.uint8)
        if axis is None:
            arr = arr.reshape(-1)
            axis = 0
        arr = np.moveaxis(arr, axis, 0)
        acc = np.zeros(arr.shape[1:], dtype=np.uint8)
        for row in arr:
            acc = self.add_table[acc, row]
        return acc if acc.shape else int(acc)

    def dot(self, x, y):
        return self.sum(self.mul(np.asarray(x), np.asarray(y)))

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
    default f1 is a constant; the default f2 is a constant or, where
    there is none, the first monic quadratic with no root in F_q.
    Immutable after construction.
    """

    def __init__(self, q, f1=None, f2=None):
        if not 2 <= q <= 16:
            raise ValueError(f"a tower needs 2 <= q <= 16, got {q}")
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
            _check_f1(self.prime, self.f1, m)
            self.base = _extension(self.prime, self.f1, "u",
                                   f"f1 {self.f1} is reducible over F_{p}")
        self.f2 = tuple(f2) if f2 is not None else _DEFAULT_F2.get(q)
        if self.f2 is None:
            self.f2 = _first_irreducible_quadratic(self.base)
        _check_f2(self.base, self.f2)
        self.ext = _extension(self.base, self.f2, "w", f"f2 {self.f2} is reducible: "
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
    degree first, and equal sequences give the same tower object."""
    return _tower(q, None if f1 is None else tuple(f1),
                  None if f2 is None else tuple(f2))


@lru_cache(maxsize=None)
def _tower(q, f1, f2):
    return FieldTower(q, f1=f1, f2=f2)


# -- the defining polynomials ---------------------------------------------


def _check_f2(base, f2):
    if len(f2) != 3 or f2[-1] != 1:
        raise ValueError("f2 must be a monic quadratic")
    if any(not 0 <= c < base.order for c in f2):
        raise ValueError("f2 coefficients must lie in the base field")


def _check_f1(prime, f1, m):
    if len(f1) != m + 1 or f1[-1] != 1:
        raise ValueError(f"f1 must be monic of degree {m}")
    if any(not 0 <= c < prime.order for c in f1):
        raise ValueError("f1 coefficients must lie in the prime field")


def _extension(subfield, modulus, symbol, reducible):
    """subfield[t]/<modulus>, whose construction is the irreducibility
    test: the shape checks have passed, so a ValueError from Field is a
    zero divisor and `reducible` says which modulus has one."""
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


def format_element(field, value, parens=False):
    """Render an element in the u/w notation, e.g. 'u^2', '2w+2', '(u+1)w'."""
    value = int(value)
    if field.subfield is None:
        return str(value)
    base = field.subfield.order
    digits = [(value // base**i) % base for i in range(field.degree)]
    terms = []
    for i in range(field.degree - 1, -1, -1):
        d = digits[i]
        if d == 0:
            continue
        if i == 0:
            terms.append(format_element(field.subfield, d))
            continue
        power = field.symbol if i == 1 else f"{field.symbol}^{i}"
        if d == 1:
            terms.append(power)
        else:
            coef = format_element(field.subfield, d, parens=True)
            terms.append(f"{coef}{power}")
    if not terms:
        return "0"
    out = "+".join(terms)
    if parens and "+" in out:
        return f"({out})"
    return out
