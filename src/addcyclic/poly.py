"""Dense polynomials over a tower level, plus the table-notation parser.

Coefficients are stored low degree first with no trailing zeros, so the
zero polynomial has an empty coefficient tuple and degree() == -1.

Coefficient arithmetic reads the field's tables as nested Python lists
(`_scalars`), derived once per field from its numpy tables.  A
polynomial's coefficients are a handful of Python ints, one at a time,
and `mul[a][b]` costs a list index where `field.mul_table[a, b]` costs a
numpy scalar lookup and an `int()`; whole arrays stay with `Field`.

`Poly(field, coeffs)` checks what it is given: each coefficient must be
an integer (`operator.index`: numpy integers pass, floats and numeric
strings are refused) in 0..order-1, as must the c of `scale(c)`.  The
results of `+`, `neg`, `*`, `scale`, `divmod`, `monic` and `xn_minus_1`
are Python ints read from those tables, so they are built by `_poly`,
which only drops trailing zeros.

The text format is the one used throughout the built-in code tables:
sums of terms like `x^4`, `ux^2`, `(2w+2)x`, `u^2`, `2w+1`.  There is no
minus sign; negatives are written through their field representatives.
`parse_poly` tokenizes a literal with one regular expression and
evaluates it as plain coefficient lists over the same tables, building
one `Poly` at the end.  A power of x is read as its monomial, any other
power by square and multiply.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fields import Field, FieldMismatchError, _format_terms, _is_element, _is_int


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


def _trim(cs):
    """Drop the trailing zeros of a coefficient list, in place."""
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _sum(add, a, b):
    """a + b of two coefficient sequences, as a list."""
    if len(a) < len(b):
        a, b = b, a
    out = [add[x][y] for x, y in zip(a, b)]
    out += a[len(b):]
    return out


def _product(add, mul, a, b):
    """a * b of two coefficient sequences without trailing zeros, as a
    list without trailing zeros (a field has no zero divisors)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        by_x = mul[x]
        for j, y in enumerate(b, i):
            out[j] = add[out[j]][by_x[y]]
    return out


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
        cs = []
        for c in coeffs:
            try:
                if type(c) is bool:  # operator.index reads it as 0 or 1
                    raise TypeError
                cs.append(operator.index(c))
            except TypeError:
                raise ValueError(f"coefficient {c!r} is not an integer") from None
        _trim(cs)
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
        if not _is_int(n) or n < 0:
            raise ValueError(f"x^n - 1 needs an int n >= 0, got {n!r}")
        if n == 0:
            return cls.zero(field)  # x^0 - 1 = 0
        cs = [0] * (n + 1)
        cs[0] = _scalars(field).neg[1]
        cs[n] = 1
        return _poly(field, cs)

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
        return _poly(self.field, _sum(_scalars(self.field).add, self.coeffs, other.coeffs))

    def __neg__(self):
        neg = _scalars(self.field).neg
        return _poly(self.field, [neg[c] for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        add, mul, *_ = _scalars(self.field)
        return _poly(self.field, _product(add, mul, self.coeffs, other.coeffs))

    def scale(self, c):
        if not _is_element(c, self.field.order):
            raise ValueError(f"scalar c = {c!r} is not in 0..{self.field.order - 1}")
        by_c = _scalars(self.field).mul[c]
        return _poly(self.field, [by_c[a] for a in self.coeffs])

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
            _trim(rem)
        return _poly(f, quot), _poly(f, rem)

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
        """Coefficient vector of this polynomial mod x^n - 1, as a numpy
        array; n must be an int >= 1."""
        if not _is_int(n) or n < 1:
            raise ValueError(f"a cyclic vector needs an int n >= 1, got {n!r}")
        add = _scalars(self.field).add
        v = [0] * n
        for d, c in enumerate(self.coeffs):
            v[d % n] = add[v[d % n]][c]
        return np.array(v, dtype=np.uint8)

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


# the slots' own setters, past Poly.__setattr__: faster than
# object.__setattr__, which matters at one Poly per parsed literal
_new_poly = object.__new__
_set_field = Poly.field.__set__
_set_coeffs = Poly.coeffs.__set__


def _poly(field, cs):
    """The Poly of a coefficient list read from `field`'s tables, whose
    entries are Python ints in range already: only trims, in place."""
    p = _new_poly(Poly)
    _set_field(p, field)
    _set_coeffs(p, tuple(_trim(cs)))
    return p


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
    """Reinterpret a polynomial over ext_field's subfield over ext_field
    itself (same ints)."""
    if p.field != ext_field.subfield:
        raise FieldMismatchError(f"lift: p is over F_{p.field.order}, not over "
                                 f"the subfield of F_{ext_field.order}")
    return Poly(ext_field, p.coeffs)


# -- parser -------------------------------------------------------------------

_MAX_DEGREE = 1024  # bounds the work of one parse; far above any block length
_MAX_NESTING = 64  # parenthesis depth, far below the interpreter's recursion limit
# A token is a run of ASCII digits or any one character that is not
# whitespace, which findall passes over.  Digits are ASCII only: \d and
# str.isdigit also take "²" and other scripts' digits, which int() reads.
_TOKEN = re.compile(r"[0-9]+|\S")
_DIGITS = frozenset("0123456789")
# the notation's characters; some source tables misprint y for x
_NOTATION = frozenset("0123456789uwxy+*^()")
_END = "end"  # the token after the last one
_TERM_END = frozenset(("+", "^", ")", _END))


def _positions(text):
    """The position of each token of `text`, then len(text) for _END."""
    return [m.start() for m in _TOKEN.finditer(text)] + [len(text)]


def _kind(token):
    """A token's name in error messages: 'int', 'sym', 'end' or itself."""
    if token[0] in _DIGITS:
        return "int"
    return "sym" if token in ("u", "w", "x", "y") else token


def _tokenize(text):
    """The tokens of `text`, then _END, in reverse order, so that the
    parser takes them with pop().  A character outside the notation is
    refused here, before any syntax error."""
    tokens = _TOKEN.findall(text)
    if not _NOTATION.issuperset(tokens):
        # a character outside the notation, or a run of several digits:
        # int() refuses runs past sys.get_int_max_str_digits(), and that
        # error too comes before any syntax error
        for i, token in enumerate(tokens):
            if token[0] in _DIGITS:
                int(token)
            elif token not in _NOTATION:
                message = ("minus is not part of the notation; write field "
                           "representatives" if token == "-"
                           else f"unexpected character {token!r}")
                raise PolyParseError(message, text, _positions(text)[i])
    tokens.append(_END)
    tokens.reverse()
    return tokens


class _Parser:
    """Recursive descent for  expr := term (+ term)*,
    term := factor (*? factor)*,  factor := atom (^ uint)?,
    atom := uint | u | w | x | ( expr ),
    each rule returning a coefficient list over `field` without trailing
    zeros.  An error names a token by the number of tokens left from it
    on, itself included; its position in the text is looked up then.
    """

    __slots__ = ("text", "tokens", "depth", "field", "tower", "add", "mul")

    def __init__(self, text, field, tower=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.depth = 0
        self.field = field
        self.tower = tower
        self.add, self.mul = _scalars(field)[:2]

    def error(self, message, left, offset=0):
        return PolyParseError(message, self.text,
                              _positions(self.text)[-left] + offset)

    def expr(self):
        acc = self.term()
        tokens = self.tokens
        while tokens[-1] == "+":
            tokens.pop()
            acc = _trim(_sum(self.add, acc, self.term()))
        return acc

    def term(self):
        acc = self.factor()
        tokens = self.tokens
        while tokens[-1] not in _TERM_END:
            if tokens[-1] == "*":
                tokens.pop()
            left = len(tokens)
            factor = self.factor()
            if len(acc) + len(factor) - 2 > _MAX_DEGREE:
                raise self.error(f"degree or exponent above {_MAX_DEGREE}", left)
            acc = _product(self.add, self.mul, acc, factor)
        return acc

    def factor(self):
        base = self.atom()
        tokens = self.tokens
        if tokens[-1] != "^":
            return base
        left = len(tokens)
        tokens.pop()
        if tokens[-1][0] not in _DIGITS:
            raise self.error("expected an integer exponent after '^'", left, 1)
        value = int(tokens.pop())
        if max(value, (len(base) - 1) * value) > _MAX_DEGREE:
            raise self.error(f"degree or exponent above {_MAX_DEGREE}", left)
        if base == [0, 1]:  # x^value
            return [0] * value + [1]
        # square and multiply: at most 2 * value.bit_length() products
        add, mul = self.add, self.mul
        acc = [1]
        while value:
            if value & 1:
                acc = _product(add, mul, acc, base)
            value >>= 1
            if value:
                base = _product(add, mul, base, base)
        return acc

    def atom(self):
        tokens = self.tokens
        token = tokens.pop()
        if token == "x" or token == "y":
            return [0, 1]
        if token[0] in _DIGITS:
            value = int(token) % self.field.p
            return [value] if value else []
        if token == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {_MAX_NESTING}",
                                 len(tokens) + 1)
            inner = self.expr()
            self.depth -= 1
            if tokens.pop() != ")":
                raise self.error("unbalanced parenthesis", len(tokens) + 1)
            return inner
        tw = self.tower
        if token == "u":
            if tw is None or tw.m == 1:
                raise self.error("symbol 'u' undefined: the base field is prime",
                                 len(tokens) + 1)
            # u is an element of F_q; valid in F_q and (embedded) in F_q2
            return [tw.p]
        if token == "w":
            if tw is None or self.field != tw.ext:
                raise self.error("symbol 'w' is not a valid coefficient here: "
                                 "this polynomial must have base-field coefficients",
                                 len(tokens) + 1)
            return [tw.omega]
        raise self.error(f"unexpected token {_kind(token)!r}", len(tokens) + 1)


def parse_poly(text: str, field: Field, tower=None) -> Poly:
    """Parse table notation into a Poly over `field`.

    `tower` supplies the meaning of the generators u and w; w is rejected
    unless `field` is the tower's top level.
    """
    parser = _Parser(text, field, tower)
    coeffs = parser.expr()
    token = parser.tokens[-1]
    if token != _END:
        raise parser.error(f"trailing input starting with {_kind(token)!r}",
                           len(parser.tokens))
    return _poly(field, coeffs)


def parse_scalar(text: str, field: Field, tower=None) -> int:
    """Parse a constant (degree <= 0) literal like '2w+1' into an element."""
    p = parse_poly(text, field, tower)
    if p.degree() > 0:
        raise PolyParseError("expected a constant, got a polynomial in x", text, 0)
    return p[0]


# -- rendering ----------------------------------------------------------------


def format_poly(p: Poly) -> str:
    """Render in descending-degree table notation, the terms of
    `fields._format_terms` in x; inverse of parse_poly."""
    return _format_terms(p.field, p.coeffs, "x")
