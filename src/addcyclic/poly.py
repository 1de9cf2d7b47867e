"""Dense polynomials over a tower level, plus the table-notation parser.

Coefficients are stored low degree first with no trailing zeros, so the
zero polynomial has an empty coefficient tuple and degree() == -1.

Coefficient arithmetic reads the field's tables as nested Python lists
(`_scalars`), derived once per field from its numpy tables.  A
polynomial's coefficients are a handful of Python ints, one at a time,
and `mul[a][b]` costs a list index where `field.mul_table[a, b]` costs a
numpy scalar lookup and an `int()`; whole arrays stay with `Field`.

The text format is the one used throughout the built-in code tables:
sums of terms like `x^4`, `ux^2`, `(2w+2)x`, `u^2`, `2w+1`.  There is no
minus sign; negatives are written through their field representatives.
A power of x is read as its monomial, any other power by square and
multiply.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fields import Field, FieldMismatchError, format_element


class _Scalars(NamedTuple):
    """A field's add, mul, neg and inv tables as Python lists:
    add[a][b] = a + b, mul[a][b] = a*b, neg[a] = -a, inv[a] = 1/a (a != 0)."""

    add: list
    mul: list
    neg: list
    inv: list


@lru_cache(maxsize=None)
def _scalars(field):
    return _Scalars(field.add_table.tolist(), field.mul_table.tolist(),
                    field.neg_table.tolist(), field.inv_table.tolist())


class PolyParseError(ValueError):
    """Syntax or coefficient-domain error, with the offending position."""

    def __init__(self, message, text, pos):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.text = text
        self.pos = pos


class Poly:
    """A dense polynomial over a fixed field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if cs and (min(cs) < 0 or max(cs) >= field.order):
            raise ValueError("coefficient out of range for the field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def xn_minus_1(cls, field, n):
        if n == 0:
            return cls.zero(field)  # x^0 - 1 = 0
        cs = [0] * (n + 1)
        cs[0] = _scalars(field).neg[1]
        cs[n] = 1
        return cls(field, cs)

    # -- basic queries -----------------------------------------------------

    def degree(self):
        """Degree, with -1 as the sentinel for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, d):
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError("expected a Poly")
        if other.field != self.field:
            raise FieldMismatchError("polynomials over different fields")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        add = _scalars(self.field).add
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly(self.field, [add[x][y] for x, y in zip(a, b)] + list(a[len(b):]))

    def __neg__(self):
        neg = _scalars(self.field).neg
        return Poly(self.field, [neg[c] for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        f = self.field
        if self.is_zero() or other.is_zero():
            return Poly.zero(f)
        add, mul, *_ = _scalars(f)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            by_a = mul[a]
            for j, b in enumerate(other.coeffs, i):
                out[j] = add[out[j]][by_a[b]]
        return Poly(f, out)

    def scale(self, c):
        by_c = _scalars(self.field).mul[c]
        return Poly(self.field, [by_c[a] for a in self.coeffs])

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        add, mul, neg, inv = _scalars(f)
        rem = list(self.coeffs)
        db = other.degree()
        by_lead_inv = mul[inv[other.coeffs[-1]]]
        quot = [0] * max(0, len(rem) - db)
        while len(rem) - 1 >= db:
            c = by_lead_inv[rem[-1]]
            shift = len(rem) - 1 - db
            quot[shift] = c
            by_minus_c = mul[neg[c]]
            for i, bc in enumerate(other.coeffs, shift):
                rem[i] = add[rem[i]][by_minus_c[bc]]
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(f, quot), Poly(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(_scalars(self.field).inv[self.coeffs[-1]])

    # -- the quotient ring F[x]/<x^n - 1> -----------------------------------

    def cyclic_vector(self, n):
        """Coefficient vector of this polynomial mod x^n - 1, as a numpy array."""
        add = _scalars(self.field).add
        v = [0] * n
        for d, c in enumerate(self.coeffs):
            v[d % n] = add[v[d % n]][c]
        return np.array(v, dtype=np.uint8)

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


# -- gcd machinery -----------------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; undefined (raises) when both are zero."""
    a._check(b)
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def divides(a: Poly, b: Poly) -> bool:
    """True iff a | b; a must be nonzero."""
    if a.is_zero():
        raise ValueError("divisibility by the zero polynomial")
    return (b % a).is_zero()


def lift(p: Poly, ext_field: Field) -> Poly:
    """Reinterpret a base-field polynomial over the extension (same ints)."""
    return Poly(ext_field, p.coeffs)


# -- parser -------------------------------------------------------------------

_SYMBOL_ALIASES = {"y": "x"}  # some source tables misprint y for x
_MAX_DEGREE = 1024  # bounds the work of one parse; far above any block length
_MAX_NESTING = 64  # parenthesis depth, far below the interpreter's recursion limit
# ASCII digits only: str.isdigit also accepts "²" and other scripts' digits
_DIGITS = frozenset("0123456789")


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch in "uwxy":
            tokens.append(("sym", _SYMBOL_ALIASES.get(ch, ch), i))
            i += 1
        elif ch in "+*^()":
            tokens.append((ch, ch, i))
            i += 1
        elif ch == "-":
            raise PolyParseError(
                "minus is not part of the notation; write field representatives",
                text, i,
            )
        else:
            raise PolyParseError(f"unexpected character {ch!r}", text, i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent for  expr := term (+ term)*,
    term := factor (*? factor)*,  factor := atom (^ uint)?,
    atom := uint | u | w | x | ( expr ).
    """

    def __init__(self, text, field, tower=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0
        self.field = field
        self.tower = tower

    def peek(self):
        return self.tokens[self.k]

    def take(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expr(self):
        acc = self.term()
        while self.peek()[0] == "+":
            self.take()
            acc = acc + self.term()
        return acc

    def term(self):
        acc = self.factor()
        while self.peek()[0] in ("*", "int", "sym", "("):
            if self.peek()[0] == "*":
                self.take()
            pos = self.peek()[2]
            factor = self.factor()
            self._check_degree(acc.degree() + factor.degree(), pos)
            acc = acc * factor
        return acc

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.take()
            kind, value, _ = self.peek()
            if kind != "int":
                raise PolyParseError("expected an integer exponent after '^'",
                                     self.text, pos + 1)
            self.take()
            self._check_degree(max(value, base.degree() * value), pos)
            if base.coeffs == (0, 1):  # x^value
                return Poly(self.field, [0] * value + [1])
            # square and multiply: at most 2 * value.bit_length() products
            acc = Poly.one(self.field)
            while value:
                if value & 1:
                    acc = acc * base
                value >>= 1
                if value:
                    base = base * base
            return acc
        return base

    def _check_degree(self, degree, pos):
        if degree > _MAX_DEGREE:
            raise PolyParseError(
                f"degree or exponent above {_MAX_DEGREE}", self.text, pos)

    def atom(self):
        kind, value, pos = self.take()
        if kind == "int":
            return Poly(self.field, (value % self.field.p,)) if value % self.field.p \
                else Poly.zero(self.field)
        if kind == "sym":
            return self._symbol(value, pos)
        if kind == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise PolyParseError(
                    f"parentheses nested deeper than {_MAX_NESTING}", self.text, pos)
            inner = self.expr()
            self.depth -= 1
            kind2, _, pos2 = self.take()
            if kind2 != ")":
                raise PolyParseError("unbalanced parenthesis", self.text, pos2)
            return inner
        raise PolyParseError(f"unexpected token {kind!r}", self.text, pos)

    def _symbol(self, name, pos):
        field = self.field
        if name == "x":
            return Poly.x(field)
        if name == "u":
            tw = self.tower
            if tw is None or tw.m == 1:
                raise PolyParseError(
                    "symbol 'u' undefined: the base field is prime", self.text, pos)
            # u is an element of F_q; valid in F_q and (embedded) in F_q2
            return Poly(field, (tw.p,))
        if name == "w":
            tw = self.tower
            if tw is None or field != tw.ext:
                raise PolyParseError(
                    "symbol 'w' is not a valid coefficient here: "
                    "this polynomial must have base-field coefficients",
                    self.text, pos)
            return Poly(field, (tw.omega,))
        raise PolyParseError(f"unknown symbol {name!r}", self.text, pos)


def parse_poly(text: str, field: Field, tower=None) -> Poly:
    """Parse table notation into a Poly over `field`.

    `tower` supplies the meaning of the generators u and w; w is rejected
    unless `field` is the tower's top level.
    """
    parser = _Parser(text, field, tower)
    result = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise PolyParseError(f"trailing input starting with {kind!r}", text, pos)
    return result


def parse_scalar(text: str, field: Field, tower=None) -> int:
    """Parse a constant (degree <= 0) literal like '2w+1' into an element."""
    p = parse_poly(text, field, tower)
    if p.degree() > 0:
        raise PolyParseError("expected a constant, got a polynomial in x", text, 0)
    return p[0]


# -- rendering ----------------------------------------------------------------


def format_poly(p: Poly) -> str:
    """Render in descending-degree table notation; inverse of parse_poly."""
    if p.is_zero():
        return "0"
    terms = []
    for d in range(p.degree(), -1, -1):
        c = p[d]
        if c == 0:
            continue
        if d == 0:
            terms.append(format_element(p.field, c))
            continue
        power = "x" if d == 1 else f"x^{d}"
        if c == 1:
            terms.append(power)
        else:
            terms.append(f"{format_element(p.field, c, parens=True)}{power}")
    return "+".join(terms)
