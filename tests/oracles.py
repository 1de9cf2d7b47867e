"""Reference definitions the tests compare the library against: word by
word or entry by entry, what the library computes on whole matrices.
The library's callers need none of them.

`MixedWord` is the tests' independent word type: (u | u') held as
tuples of F_q and F_q2 elements, where the library holds only the
expanded row [u | b_0, c_0, ..., b_{beta-1}, c_{beta-1}]."""

from dataclasses import dataclass

import numpy as np

from addcyclic import linalg
from addcyclic.codes import GeneratorMatrixCode, MixedCode
from addcyclic.codes import _closure_rows, _echelon_generators, load_tower
from addcyclic.fields import FieldMismatchError, FieldTower
from addcyclic.linalg import _suffix_block
from addcyclic.poly import _MAX_DEGREE, _MAX_NESTING, Poly, PolyParseError, _scalars
from addcyclic.poly import parse_scalar


@dataclass(frozen=True)
class MixedWord:
    """(u | u') with u over F_q (length alpha) and u' over F_q2 (length beta)."""

    tower: FieldTower
    u: tuple
    uprime: tuple

    def __post_init__(self):
        t = self.tower
        for name, block, order in (("u", self.u, t.q), ("u'", self.uprime, t.ext.order)):
            if block and not 0 <= min(block) <= max(block) < order:
                raise ValueError(f"an entry of {name} lies outside F_{order}")

    @property
    def alpha(self):
        return len(self.u)

    @property
    def beta(self):
        return len(self.uprime)

    def expand(self):
        """F_q expansion: [u | b_0, c_0, ..., b_{beta-1}, c_{beta-1}]."""
        t = self.tower
        out = np.zeros(self.alpha + 2 * self.beta, dtype=np.uint8)
        out[: self.alpha] = self.u
        b, c = t.decompose(np.asarray(self.uprime, dtype=np.uint8))
        out[self.alpha :: 2][: self.beta] = b
        out[self.alpha + 1 :: 2] = c
        return out

    @classmethod
    def from_rows(cls, tower, alpha, beta, rows):
        """The words of a uint8 block of expanded rows over F_q."""
        if rows.shape[1] != alpha + 2 * beta:
            raise ValueError("expanded width does not match the block lengths")
        return [cls(tower, tuple(int(x) for x in row[:alpha]),
                    tuple(int(z) for z in tower.compose(row[alpha::2], row[alpha + 1 :: 2])))
                for row in rows]

    @classmethod
    def from_polys(cls, tower, alpha, beta, a: Poly, b: Poly):
        """Word with u = a mod x^alpha - 1 and u' = b mod x^beta - 1."""
        u = tuple(int(v) for v in a.cyclic_vector(alpha)) if alpha else ()
        up = tuple(int(v) for v in b.cyclic_vector(beta))
        return cls(tower, u, up)


def expand_words(words, width):
    """The expanded rows of a list of words, a uint8 block of `width` columns."""
    return linalg.as_matrix([w.expand() for w in words], width=width)


def combine_components(b: Poly, c: Poly, tower) -> Poly:
    """The polynomial b + w*c over F_q2 from base-field components."""
    n = max(len(b.coeffs), len(c.coeffs))
    return Poly(tower.ext, [b[i] + tower.q * c[i] for i in range(n)])


def beta_generator_words(tw, alpha, beta, g, h, k):
    """The generator words (0 | g + w*h) and (0 | w*k), built from polynomials."""
    zero = Poly.zero(tw.base)
    return [MixedWord.from_polys(tw, alpha, beta, zero, combine_components(g, h, tw)),
            MixedWord.from_polys(tw, alpha, beta, zero, combine_components(zero, k, tw))]


def generator_words(code):
    """A pure or mixed code's generator words: (s | l) for a mixed code,
    then (0 | g + w*h) and (0 | w*k)."""
    tw, alpha, beta = code.tower, code.alpha, code.beta
    lead = [MixedWord.from_polys(tw, alpha, beta, code.s, code.l)] if alpha else []
    return lead + beta_generator_words(tw, alpha, beta, code.g, code.h, code.k)


def document_words(doc):
    """(tower, alpha, beta, words) of a well-formed matrix document, each
    row parsed literal by literal into a word."""
    tw = load_tower(doc, ("q", "alpha", "beta", "rows", "f1", "f2"))
    alpha = doc["alpha"]
    words = [MixedWord(tw, tuple(parse_scalar(str(e), tw.base, tw) for e in row[:alpha]),
                       tuple(parse_scalar(str(e), tw.ext, tw) for e in row[alpha:]))
             for row in doc["rows"]]
    return tw, alpha, doc["beta"], words


def field_sum(field, arr, axis=None):
    """Field sum of a numpy array along `axis` (None: all entries)."""
    arr = np.asarray(arr, dtype=np.uint8)
    if axis is None:
        arr = arr.reshape(-1)
        axis = 0
    arr = np.moveaxis(arr, axis, 0)
    acc = np.zeros(arr.shape[1:], dtype=np.uint8)
    for row in arr:
        acc = field.add_table[acc, row]
    return acc if acc.shape else int(acc)


def dot(field, x, y):
    return field_sum(field, field.mul(np.asarray(x), np.asarray(y)))


def evaluate(p: Poly, x):
    """p(x), by Horner's rule over the field's scalar tables."""
    add, mul, *_ = _scalars(p.field)
    acc = 0
    for c in reversed(p.coeffs):
        acc = add[mul[acc][x]][c]
    return acc


def shift_word(word: MixedWord) -> MixedWord:
    """Simultaneous right cyclic shift of both blocks (= multiply by x)."""
    u = word.u[-1:] + word.u[:-1]
    up = word.uprime[-1:] + word.uprime[:-1]
    return MixedWord(word.tower, u, up)


def add_words(word: MixedWord, other: MixedWord) -> MixedWord:
    if other.tower != word.tower:
        raise FieldMismatchError("words from different towers")
    if (other.alpha, other.beta) != (word.alpha, word.beta):
        raise ValueError("block lengths differ")
    t = word.tower
    u = tuple(int(t.base.add(x, y)) for x, y in zip(word.u, other.u))
    up = tuple(int(t.ext.add(x, y)) for x, y in zip(word.uprime, other.uprime))
    return MixedWord(t, u, up)


def scale_word(word: MixedWord, c) -> MixedWord:
    """Multiply by a base-field scalar."""
    t = word.tower
    u = tuple(int(t.base.mul(c, x)) for x in word.u)
    up = tuple(int(t.ext.mul(c, x)) for x in word.uprime)
    return MixedWord(t, u, up)


def is_zero_word(word: MixedWord) -> bool:
    return not any(word.u) and not any(word.uprime)


def star(s: Poly, word: MixedWord) -> MixedWord:
    """The module action s(x) * (u | u') = (s·u mod x^alpha - 1 | s·u' mod x^beta - 1).

    s must have base-field coefficients; x * word is the simultaneous
    right cyclic shift of both blocks.
    """
    if s.field != word.tower.base:
        raise FieldMismatchError("scalar polynomial must be over the base field")
    acc = MixedWord(word.tower, (0,) * word.alpha, (0,) * word.beta)
    shifted = word
    for d in range(s.degree() + 1):
        if s[d]:
            acc = add_words(acc, scale_word(shifted, s[d]))
        shifted = shift_word(shifted)
    return acc


def inner_product(x: MixedWord, y: MixedWord) -> int:
    """w * sum(u_i v_i) + sum(u'_j v'_j), an element of F_q2."""
    if x.tower != y.tower:
        raise FieldMismatchError("words from different towers")
    if (x.alpha, x.beta) != (y.alpha, y.beta):
        raise ValueError("block lengths differ")
    t = x.tower
    sa = dot(t.base, np.asarray(x.u, np.uint8), np.asarray(y.u, np.uint8)) if x.alpha else 0
    sb = dot(t.ext, np.asarray(x.uprime, np.uint8), np.asarray(y.uprime, np.uint8))
    return int(t.ext.add(t.ext.mul(t.omega, int(sa)), int(sb)))


def gray_block(tower, uprime) -> np.ndarray:
    """Map a vector over F_q2 to the doubled vector (b+c pairs first, then
    c); a matrix is mapped row by row."""
    up = np.asarray(uprime, dtype=np.uint8)
    b, c = tower.decompose(up)
    return np.concatenate([tower.base.add(b, c), c], axis=-1).astype(np.uint8)


def gray_word_inverse(tower, alpha, beta, vec) -> MixedWord:
    """Inverse of the Gray map on one word; the map is bijective.  An
    entry outside F_q is refused."""
    vec = linalg.as_matrix([vec], field=tower.base)[0]
    if len(vec) != alpha + 2 * beta:
        raise ValueError("vector length does not match the split")
    u = tuple(int(x) for x in vec[:alpha])
    bc = vec[alpha : alpha + beta]
    c = vec[alpha + beta :]
    b = tower.base.sub(bc, c)
    up = tuple(int(x) for x in tower.compose(b, c))
    return MixedWord(tower, u, up)


def intersect(field, a, b):
    """Canonical (rref) basis of rowspace(a) ∩ rowspace(b), by one
    Zassenhaus elimination of [A A; B 0].  Its rows are [x + y | x] with
    x in rowspace(a) and y in rowspace(b); those zero on the left have
    x = -y in both spaces.  They are the rref rows whose pivot lies in
    the right half, and their right halves are already in rref.  Kept as
    the oracle of the hull, which the library takes as one kernel."""
    A = linalg.as_matrix(a)
    B = linalg.as_matrix(b, width=A.shape[1])
    n = A.shape[1]
    if B.shape[1] != n:
        raise ValueError(f"column counts differ: {n} vs {B.shape[1]}")
    stacked = np.vstack([np.hstack([A, A]), np.hstack([B, np.zeros_like(B)])])
    R, pivots = linalg.rref(field, stacked)
    right = np.asarray(pivots, dtype=np.intp) >= n
    return R[right, n:]


def reference_hull(code: GeneratorMatrixCode) -> GeneratorMatrixCode:
    """C ∩ C⊥ by a Zassenhaus intersection of the basis with a fresh
    kernel, no memo."""
    f = code.field
    return GeneratorMatrixCode(
        code.tower, intersect(f, code.matrix, linalg.kernel(f, code.matrix)))


def codewords(code: GeneratorMatrixCode):
    """All q^rank codewords in message order (small codes only)."""
    return _suffix_block(code.field, code.matrix)


def projections(code):
    """(C_alpha, C_beta): images under the two coordinate projections,
    with the beta side kept in F_q-expanded form."""
    gm = code.closure if isinstance(code, MixedCode) else code
    tw = gm.tower
    a = gm.alpha
    c_alpha = GeneratorMatrixCode(tw, gm.matrix[:, :a])
    c_beta = GeneratorMatrixCode(tw, gm.matrix[:, a:], beta=gm.beta)
    return c_alpha, c_beta


def rows_fq_independent(tower, rows) -> bool:
    """True iff the given F_q2 rows are linearly independent over F_q
    (full rank of the 2*beta-wide base-field expansion).  No rows are
    independent; rows of length 0 are zero vectors, so they are not."""
    rows = linalg.as_matrix(rows, field=tower.ext)
    if len(rows) == 0:
        return True
    b, c = tower.decompose(rows)
    expanded = np.concatenate([b, c], axis=1)
    return linalg.rank(tower.base, expanded) == rows.shape[0]


def canonicalize_pure(tw: FieldTower, n: int, g: Poly, h: Poly, k: Poly):
    """Canonical generator triple (g*, h*, k*) with the same module closure.

    g* generates the ideal of first components, k* the ideal of w-parts of
    words with zero first component, and h* is the w-part of a preimage of
    g*, reduced mod k*.  Both g* and k* are monic divisors of x^n - 1 (the
    zero ideal is represented by x^n - 1 itself) and the construction is
    idempotent.  The triple is read from one degree-ordered elimination of
    the x-shifts of the raw words g + w*h and w*k, the spanning rows of
    their module closure (`_echelon_generators`, whose last three entries
    are a pure code's triple).
    """
    words = beta_generator_words(tw, 0, n, g, h, k)
    return _echelon_generators(tw, 0, n, _closure_rows(0, n, expand_words(words, 2 * n)))[2:]


# -- the table-notation parser, Poly-valued ---------------------------------

_SYMBOL_ALIASES = {"y": "x"}  # some source tables misprint y for x
# ASCII digits only: str.isdigit also accepts "²" and other scripts' digits
_DIGITS = frozenset("0123456789")


def _reference_tokenize(text):
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


class _ReferenceParser:
    """Recursive descent for  expr := term (+ term)*,
    term := factor (*? factor)*,  factor := atom (^ uint)?,
    atom := uint | u | w | x | ( expr ).
    """

    def __init__(self, text, field, tower=None):
        self.text = text
        self.tokens = _reference_tokenize(text)
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


def reference_parse_poly(text, field, tower=None):
    """`poly.parse_poly` as recursive descent on `Poly` values, one
    validated `Poly` per atom, sum, product and power, over a tokenizer
    that reads the text a character at a time: the reference the
    coefficient-list parser is compared against."""
    parser = _ReferenceParser(text, field, tower)
    result = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise PolyParseError(f"trailing input starting with {kind!r}", text, pos)
    return result
