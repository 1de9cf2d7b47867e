"""Additive cyclic codes over F_q2 and over the mixed alphabet F_q x F_q2.

A word is (u | u') in F_q^alpha x F_q2^beta.  The ground truth for every
code object is its F_q-expanded generator matrix: each F_q2 coordinate
contributes two F_q columns (the b then the c component of b + w*c), and
the codeword set is the F_q-row space of all x-shifts of the generators
(the module closure).  Generator-polynomial bookkeeping — spanning sets,
the cardinality formula, canonical triples — is treated as a set of
claims that are checked against that matrix, because degenerate
generator choices (e.g. g ≡ 0 mod x^beta - 1) do occur in practice and
break the formulas.

A pure code is the mixed code with alpha = 0 and beta = n, and the two
share one implementation: generator words, divisor checks, closure and
cardinality.  The degree-counted spanning set is read from the
closure's spanning rows, which hold each generator's x-shifts in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import linalg
from .fields import (
    FieldMismatchError,
    FieldTower,
    tower as get_tower,
)
from .linalg import _suffix_block
from .poly import Poly, combine_components, divides, lift, parse_poly


class CodeConstructionError(ValueError):
    """A generator-polynomial condition failed; the message names it."""


class CanonicalFormError(ValueError):
    """Operation requires canonical generators; use the module closure instead."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed: two computations that must
    agree did not.  Signals a bug in the library, never bad input."""


# ---------------------------------------------------------------------------
# words


@dataclass(frozen=True)
class MixedWord:
    """(u | u') with u over F_q (length alpha) and u' over F_q2 (length beta)."""

    tower: FieldTower
    u: tuple
    uprime: tuple

    @property
    def alpha(self):
        return len(self.u)

    @property
    def beta(self):
        return len(self.uprime)

    def shift(self):
        """Simultaneous right cyclic shift of both blocks (= multiply by x)."""
        u = self.u[-1:] + self.u[:-1]
        up = self.uprime[-1:] + self.uprime[:-1]
        return MixedWord(self.tower, u, up)

    def expand(self):
        """F_q expansion: [u | b_0, c_0, ..., b_{beta-1}, c_{beta-1}]."""
        t = self.tower
        out = np.zeros(self.alpha + 2 * self.beta, dtype=np.uint8)
        out[: self.alpha] = self.u
        up = np.asarray(self.uprime, dtype=np.uint8)
        b, c = t.decompose(up)
        out[self.alpha :: 2][: self.beta] = b
        out[self.alpha + 1 :: 2] = c
        return out

    @classmethod
    def from_expanded(cls, tower, alpha, beta, vec):
        vec = np.asarray(vec, dtype=np.uint8)
        if len(vec) != alpha + 2 * beta:
            raise ValueError("expanded width does not match the block lengths")
        u = tuple(int(x) for x in vec[:alpha])
        up = tuple(int(x) for x in tower.compose(vec[alpha::2], vec[alpha + 1 :: 2]))
        return cls(tower, u, up)

    @classmethod
    def from_polys(cls, tower, alpha, beta, a: Poly, b: Poly):
        """Word with u = a mod x^alpha - 1 and u' = b mod x^beta - 1."""
        u = tuple(int(v) for v in a.cyclic_vector(alpha)) if alpha else ()
        up = tuple(int(v) for v in b.cyclic_vector(beta))
        return cls(tower, u, up)

    def __add__(self, other):
        if other.tower != self.tower:
            raise FieldMismatchError("words from different towers")
        if (other.alpha, other.beta) != (self.alpha, self.beta):
            raise ValueError("block lengths differ")
        t = self.tower
        u = tuple(int(t.base.add(x, y)) for x, y in zip(self.u, other.u))
        up = tuple(int(t.ext.add(x, y)) for x, y in zip(self.uprime, other.uprime))
        return MixedWord(t, u, up)

    def scale(self, c):
        """Multiply by a base-field scalar."""
        t = self.tower
        u = tuple(int(t.base.mul(c, x)) for x in self.u)
        up = tuple(int(t.ext.mul(c, x)) for x in self.uprime)
        return MixedWord(t, u, up)

    def is_zero(self):
        return not any(self.u) and not any(self.uprime)


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
            acc = acc + shifted.scale(s[d])
        shifted = shifted.shift()
    return acc


def inner_product(x: MixedWord, y: MixedWord) -> int:
    """w * sum(u_i v_i) + sum(u'_j v'_j), an element of F_q2."""
    if x.tower != y.tower:
        raise FieldMismatchError("words from different towers")
    if (x.alpha, x.beta) != (y.alpha, y.beta):
        raise ValueError("block lengths differ")
    t = x.tower
    sa = t.base.dot(np.asarray(x.u, np.uint8), np.asarray(y.u, np.uint8)) if x.alpha else 0
    sb = t.ext.dot(np.asarray(x.uprime, np.uint8), np.asarray(y.uprime, np.uint8))
    return int(t.ext.add(t.ext.mul(t.omega, int(sa)), int(sb)))


# ---------------------------------------------------------------------------
# generator-matrix codes (the ground truth)


@dataclass(eq=False)
class GeneratorMatrixCode:
    """An F_q-linear code given by an rref basis matrix.

    For codes on the mixed alphabet the width is alpha + 2*beta (checked)
    with the expansion layout of MixedWord.expand, and the split sets the
    weight of the code's words; plain F_q codes (Gray images, hulls)
    leave alpha/beta None and weigh one symbol per column.  `pivots`
    holds the pivot column of each basis row, for membership tests
    against the basis.  The stored matrix is read-only: codes derived
    from it are memoized on this object (`_memo`) and must not go stale.
    """

    tower: FieldTower
    matrix: np.ndarray
    alpha: int | None = None
    beta: int | None = None
    spanning_rows: np.ndarray | None = dc_field(default=None, repr=False)
    pivots: tuple = dc_field(default=(), init=False, repr=False)
    _derived: dict = dc_field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        M = linalg.as_matrix(self.matrix, field=self.tower.base)
        R, r, pivots = linalg.rref(self.tower.base, M)
        if None not in (self.alpha, self.beta) and self.alpha + 2 * self.beta != R.shape[1]:
            raise ValueError(f"split alpha={self.alpha}, beta={self.beta} does not "
                             f"cover the {R.shape[1]} columns")
        self.matrix = R[:r].copy()
        self.matrix.setflags(write=False)
        self.pivots = tuple(pivots)

    def _memo(self, key, build):
        """build(self), computed on the first request for `key` and kept
        for the life of this code."""
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]

    @property
    def field(self):
        return self.tower.base

    @property
    def rank(self):
        return self.matrix.shape[0]

    @property
    def width(self):
        return self.matrix.shape[1]

    @property
    def size(self):
        return self.tower.q ** self.rank

    def contains(self, vec) -> bool:
        return self.contains_rows([vec])

    def contains_rows(self, rows) -> bool:
        """True iff every row of the block is a codeword: one elimination
        of the whole block against the stored rref basis.  An entry
        outside F_q is refused, as the constructor refuses it."""
        rows = linalg.as_matrix(rows, width=self.width, field=self.field)
        residues = linalg.reduce_rows(self.field, self.matrix, self.pivots, rows)
        return not residues.any()

    def contains_code(self, other) -> bool:
        return self.contains_rows(other.matrix)

    def equals(self, other) -> bool:
        """Same row space: the stored rref bases are canonical, so they
        are compared as they stand."""
        return self.width == other.width and np.array_equal(self.matrix, other.matrix)

    def words(self):
        """All q^rank codewords in message order (small codes only)."""
        return _suffix_block(self.field, self.matrix)


def _shift_columns(alpha, beta, t):
    """Column of w that x^t * w holds in each column of the expanded
    layout: the alpha block and the (b, c) pairs of the beta block shift
    right by t.  An array of shifts t gives one index row per shift."""
    t = np.asarray(t)[..., None]
    cols = np.arange(2 * beta)
    return np.concatenate([
        (np.arange(alpha) - t) % alpha,
        alpha + 2 * ((cols // 2 - t) % beta) + cols % 2,
    ], axis=-1)


def _closure_order(alpha, beta):
    """The order of x on the ambient module (lcm(alpha, beta), or beta
    for a pure code): that many shifts of each generator span the code."""
    return math.lcm(alpha, beta) if alpha else beta


def _closure_rows(alpha, beta, expanded):
    """The spanning rows of a module closure: every x-shift of each
    expanded generator row, a generator's shifts in order."""
    width = alpha + 2 * beta
    shifts = _shift_columns(alpha, beta, np.arange(_closure_order(alpha, beta)))
    return np.asarray(expanded, dtype=np.uint8).reshape(-1, width)[:, shifts].reshape(-1, width)


def module_closure(tw: FieldTower, alpha, beta, generators) -> GeneratorMatrixCode:
    """F_q-row space of all x-shifts of the generators, in rref.

    x has order dividing lcm(alpha, beta) on the ambient module, so that
    many shifts of each generator suffice.  This matrix is the
    authoritative codeword-set representation.
    """
    mat = _closure_rows(alpha, beta, [gen.expand() for gen in generators])
    return GeneratorMatrixCode(tw, mat, alpha=alpha, beta=beta, spanning_rows=mat)


# ---------------------------------------------------------------------------
# pure and mixed codes


@dataclass(frozen=True)
class Cardinality:
    formula: int
    actual: int

    @property
    def agree(self):
        return self.formula == self.actual


@dataclass(frozen=True)
class SpanningSet:
    words: tuple
    spans_ok: bool


def _check_base_field(tw, **polys):
    for name, p in polys.items():
        if p.field != tw.base:
            raise CodeConstructionError(f"{name} must have base-field coefficients")


def _divisor(name, p, n, field, where=""):
    """p as a divisor of x^n - 1: zero becomes x^n - 1 (the zero ideal's
    representative, so that q^(n - deg) = 1); anything else must divide."""
    xn1 = Poly.xn_minus_1(field, n)
    p = xn1 if p.is_zero() else p
    if not divides(p, xn1):
        raise CodeConstructionError(f"{name} = {p} does not divide x^{n}-1{where}")
    return p


def _beta_generators(tw, alpha, beta, g, h, k):
    """The generator words (0 | g + w*h) and (0 | w*k)."""
    zero = Poly.zero(tw.base)
    return [MixedWord.from_polys(tw, alpha, beta, zero, combine_components(g, h, tw)),
            MixedWord.from_polys(tw, alpha, beta, zero, combine_components(zero, k, tw))]


class _CyclicCode:
    """What pure and mixed codes share.  The codeword set is the module
    closure of `generator_words()`; the degree-counted spanning set takes
    the first `_degree_counts()[i]` x-shifts of generator i, rows the
    closure already holds."""

    @cached_property
    def closure(self) -> GeneratorMatrixCode:
        return module_closure(self.tower, self.alpha, self.beta,
                              self.generator_words())

    @property
    def dimension(self):
        """F_q-dimension of the codeword set."""
        return self.closure.rank

    def cardinality(self) -> Cardinality:
        """(formula, actual): q^(sum of the degree counts) against q^rank;
        they agree exactly when the degree-counted spanning set spans."""
        q = self.tower.q
        return Cardinality(q ** sum(self._degree_counts()), q**self.closure.rank)

    def _degree_counted_rows(self):
        """The degree-counted spanning set in expanded form: generator i
        contributes rows i*L ... i*L + counts[i] - 1 of the closure's
        spanning rows, which hold its L = `_closure_order` shifts in order."""
        order = _closure_order(self.alpha, self.beta)
        rows = self.closure.spanning_rows
        return np.concatenate([rows[i * order : i * order + count]
                               for i, count in enumerate(self._degree_counts())])

    def _words(self, rows):
        return [MixedWord.from_expanded(self.tower, self.alpha, self.beta, row)
                for row in rows]


class PureCode(_CyclicCode):
    """An additive cyclic code over F_q2 of length n, generated (as an
    F_q[x]-module of F_q2[x]/<x^n - 1>) by g + w*h and w*k, where g, h, k
    have base-field coefficients and g, k divide x^n - 1: the mixed code
    with alpha = 0 and beta = n.

    A polynomial vanishing mod x^n - 1 is normalized to x^n - 1 itself
    (the zero ideal's representative), which keeps degree bookkeeping
    consistent: q^(n - deg) = 1.
    """

    alpha = 0

    def __init__(self, tw: FieldTower, n: int, g: Poly, h: Poly, k: Poly):
        if n < 1:
            raise ValueError("length must be positive")
        _check_base_field(tw, g=g, h=h, k=k)
        where = f" over F_{tw.q}"
        self.tower = tw
        self.n = self.beta = n
        self.g = _divisor("g", g, n, tw.base, where)
        self.h = h
        self.k = _divisor("k", k, n, tw.base, where)

    def generator_words(self):
        return _beta_generators(self.tower, 0, self.n, self.g, self.h, self.k)

    def _degree_counts(self):
        return [self.n - self.g.degree(), self.n - self.k.degree()]

    def is_canonical(self):
        g2, h2, k2 = canonicalize_pure(self.tower, self.n, self.g, self.h, self.k)
        return self.g.monic() == g2 and self.k.monic() == k2 and self.h % self.k == h2

    def basis_words(self):
        """The spanning set {x^i (g + w h)} ∪ {w x^j k} with
        i < n - deg g and j < n - deg k.  Only valid (an actual F_q-basis)
        for canonical generator triples; otherwise it can fail to span and
        this method refuses.
        """
        if not self.is_canonical():
            raise CanonicalFormError(
                "generators are not canonical, so the degree-counted set need "
                "not span; canonicalize first or use the module closure"
            )
        return self._words(self._degree_counted_rows())

    def __repr__(self):
        return (
            f"PureCode(q={self.tower.q}, n={self.n}, g={self.g}, "
            f"h={self.h}, k={self.k})"
        )


def canonicalize_pure(tw: FieldTower, n: int, g: Poly, h: Poly, k: Poly):
    """Canonical generator triple (g*, h*, k*) with the same module closure.

    g* generates the ideal of first components, k* the ideal of w-parts of
    words with zero first component, and h* is the w-part of a preimage of
    g*, reduced mod k*.  Both g* and k* are monic divisors of x^n - 1 (the
    zero ideal is represented by x^n - 1 itself) and the construction is
    idempotent.  The triple is read from one degree-ordered elimination of
    the x-shifts of the raw words g + w*h and w*k, the spanning rows of
    their module closure (`_echelon_generators`).
    """
    words = _beta_generators(tw, 0, n, g, h, k)
    return _echelon_generators(tw, 0, n, _closure_rows(0, n, [w.expand() for w in words]))


class MixedCode(_CyclicCode):
    """An additive cyclic code of block length (alpha, beta), generated by
    (s | l), (0 | g + w h) and (0 | w k), where s | x^alpha - 1 and
    g, k | x^beta - 1 with base-field coefficients, and l has F_q2
    coefficients.

    Two further generator conditions characterize the canonical
    presentation: k | h (x^beta - 1)/g (skipped when g ≡ 0 mod
    x^beta - 1) and ((x^alpha - 1)/s) l ∈ <g + w h, w k>.  With
    strict=True (the default) a violation raises; with strict=False the
    code is built anyway — its codeword set is still the perfectly
    well-defined module closure of the three generators — and the names
    of the violated conditions are reported by `condition_failures`,
    checked when it is first read.  Published generator tables do
    contain such degenerate rows.
    """

    def __init__(self, tw: FieldTower, alpha: int, beta: int,
                 s: Poly, l: Poly, g: Poly, h: Poly, k: Poly, strict=True):
        if alpha < 1 or beta < 1:
            raise ValueError("block lengths must be positive")
        _check_base_field(tw, s=s, g=g, h=h, k=k)
        if l.field != tw.ext:
            raise CodeConstructionError("l must have top-field coefficients")
        self.tower = tw
        self.alpha = alpha
        self.beta = beta
        self.s = _divisor("s", s, alpha, tw.base)
        self.l = l
        self.g = _divisor("g", g, beta, tw.base)
        self.h = h
        self.k = _divisor("k", k, beta, tw.base)
        if strict and self.condition_failures:
            raise CodeConstructionError("; ".join(self.condition_failures))

    @cached_property
    def condition_failures(self) -> tuple:
        """Names of the violated generator conditions, empty when both
        hold."""
        tw, base = self.tower, self.tower.base
        beta, s, l, g, h, k = self.beta, self.s, self.l, self.g, self.h, self.k
        xa1 = Poly.xn_minus_1(base, self.alpha)
        xb1 = Poly.xn_minus_1(base, beta)
        failures = []
        g_vanishes = divides(xb1, g)
        if not g_vanishes and not divides(k, h * (xb1 // g)):
            failures.append("k does not divide h*(x^beta-1)/g")
        # membership of ((x^alpha-1)/s) * l in the beta-side kernel module
        leftover = lift(xa1 // s, tw.ext) * l
        member_word = MixedWord.from_polys(tw, 0, beta, Poly.zero(base), leftover)
        kernel_code = module_closure(tw, 0, beta, _beta_generators(tw, 0, beta, g, h, k))
        if not kernel_code.contains(member_word.expand()):
            failures.append("((x^alpha-1)/s)*l is not in <g+wh, wk>")
        return tuple(failures)

    def generator_words(self):
        tw = self.tower
        return [MixedWord.from_polys(tw, self.alpha, self.beta, self.s, self.l),
                *_beta_generators(tw, self.alpha, self.beta, self.g, self.h, self.k)]

    def _degree_counts(self):
        return [self.alpha - self.s.degree(), self.beta - self.g.degree(),
                self.beta - self.k.degree()]

    def spanning_set(self) -> SpanningSet:
        """The degree-counted spanning set S1 ∪ S2 ∪ S3 (x-shift ranges of
        the three generators, |S1| = alpha - deg s, |S2| = beta - deg g,
        |S3| = beta - deg k), with spans_ok reporting whether its span
        really is the whole code.  Its rows are F_q-independent: only S1
        has nonzero alpha parts, only S2 nonzero b parts among the rest,
        and within each of those parts and the c parts of S3 the shifts
        x^i*s, x^i*g, x^j*k have distinct degrees below the block length.
        So the set spans exactly when it has as many rows as the rank."""
        rows = self._degree_counted_rows()
        return SpanningSet(tuple(self._words(rows)), len(rows) == self.closure.rank)

    def __repr__(self):
        return (
            f"MixedCode(q={self.tower.q}, alpha={self.alpha}, beta={self.beta}, "
            f"s={self.s}, l={self.l}, g={self.g}, h={self.h}, k={self.k})"
        )


# ---------------------------------------------------------------------------
# duality, cyclicity, projections


def dual(code) -> GeneratorMatrixCode:
    """All words orthogonal to the code under the mixed inner product.

    Each generator contributes two F_q-linear constraints: the 1- and
    w-components of the F_q2-valued form.  Solved as one kernel
    computation over F_q.
    """
    gm = code.closure if isinstance(code, _CyclicCode) else code
    if gm.alpha is None or gm.beta is None:
        raise ValueError("dual needs the mixed-alphabet split")
    tw, M, a = gm.tower, gm.matrix, gm.alpha
    # row i of `forms` is the form of basis row i against each unit
    # vector of the expanded F_q basis.  The form's matrix is w on the
    # alpha diagonal and [[1, w], [w, w^2]] on each beta pair, so a pair
    # (b, c) of a row has forms z = b + w*c and w*z.
    z = tw.compose(M[:, a::2], M[:, a + 1 :: 2])
    forms = np.empty_like(M)
    forms[:, :a] = tw.ext.mul(tw.omega, M[:, :a])
    forms[:, a::2] = z
    forms[:, a + 1 :: 2] = tw.ext.mul(tw.omega, z)
    b, c = tw.decompose(forms)
    constraints = np.stack([b, c], axis=1).reshape(-1, gm.width)
    basis = linalg.kernel(tw.base, constraints)
    return GeneratorMatrixCode(tw, basis, alpha=gm.alpha, beta=gm.beta)


def invariant_under(code: GeneratorMatrixCode, perm) -> bool:
    """True iff the row space is closed under the column permutation
    that puts column perm[j] of a word in column j."""
    perm = np.asarray(perm, dtype=np.intp)
    if perm.shape != (code.width,):
        raise ValueError("permutation length does not match the code width")
    return code.contains_rows(code.matrix[:, perm])


def is_cyclic(code: GeneratorMatrixCode) -> bool:
    """True iff the row space is closed under the simultaneous right
    cyclic shift of the alpha block and the beta block (the latter acting
    on (b, c) column pairs jointly)."""
    if code.alpha is None or code.beta is None:
        raise ValueError("cyclicity needs the block split")
    return invariant_under(code, _shift_columns(code.alpha, code.beta, 1))


def projections(code):
    """(C_alpha, C_beta): images under the two coordinate projections,
    with the beta side kept in F_q-expanded form."""
    gm = code.closure if isinstance(code, _CyclicCode) else code
    if gm.alpha is None or gm.beta is None:
        raise ValueError("projections need the mixed-alphabet split")
    tw = gm.tower
    a = gm.alpha
    c_alpha = GeneratorMatrixCode(tw, gm.matrix[:, :a], alpha=a, beta=0)
    c_beta = GeneratorMatrixCode(tw, gm.matrix[:, a:], alpha=0, beta=gm.beta)
    return c_alpha, c_beta


@dataclass(frozen=True)
class SingletonResult:
    attains: bool
    slack: Fraction


def singleton_check(n: int, rank: int, d: int) -> SingletonResult:
    """Compare an F_q-linear code of F_q-rank `rank` and length n over
    the alphabet F_q2 against the Singleton bound exactly: |C| = q^rank
    = (q^2)^(rank/2) against (q^2)^(n-d+1).  `slack` is (n-d+1) - rank/2,
    a Fraction, a half-integer when the rank is odd.  A negative slack
    raises, since it means the distance was miscomputed."""
    if d < 1:
        raise ValueError("distance must be >= 1")
    slack = (n - d + 1) - Fraction(rank, 2)
    if slack < 0:
        raise ValueError(
            f"Singleton bound violated: |C| = q^{rank} > (q^2)^{n - d + 1}")
    return SingletonResult(slack == 0, slack)


# ---------------------------------------------------------------------------
# best-effort generator extraction (for duals)


@dataclass(frozen=True)
class ExtractedGenerators:
    s: Poly
    l: Poly
    g: Poly
    h: Poly
    k: Poly
    closure_ok: bool


def _echelon_generators(tw: FieldTower, alpha, beta, spanning):
    """Generator polynomials of the cyclic code spanned by the rows of
    `spanning` (expanded layout), read from one echelon form.

    The columns are ordered as the alpha block, then the b parts,
    then the c parts of the beta block, each highest degree first, and
    reduced once.  The rows pivoting in a part span, as polynomials, the
    ideal that part holds once the parts before it vanish, and the last
    of them is its monic word of lowest degree: the ideal's generator
    (MacWilliams-Sloane ch. 7).  So the last row pivoting in the alpha
    block is (s | l), among the b parts (0 | g + w*h) and among the c
    parts (0 | w*k), with l and h reduced against the rows below them.  A
    part with no pivot gives x^n - 1 and zero.  Returns (s, l, g, h, k),
    or (g, h, k) when alpha = 0.
    """
    base = tw.base
    down = np.arange(beta - 1, -1, -1)
    order = np.concatenate([np.arange(alpha - 1, -1, -1),
                            alpha + 2 * down, alpha + 2 * down + 1])
    R, r, pivots = linalg.rref(base, spanning[:, order])
    rows = np.empty((r, len(order)), dtype=np.uint8)
    rows[:, order] = R[:r]
    # the part of each pivot: 0 alpha, 1 b, 2 c; later rows overwrite
    parts = np.searchsorted([alpha, alpha + beta], pivots, side="right")
    last = {int(part): i for i, part in enumerate(parts)}
    b, c = rows[:, alpha::2], rows[:, alpha + 1 :: 2]
    xb1 = Poly.xn_minus_1(base, beta)
    g, h = ((Poly(base, b[last[1]]), Poly(base, c[last[1]])) if 1 in last
            else (xb1, Poly.zero(base)))
    k = Poly(base, c[last[2]]) if 2 in last else xb1
    if not alpha:
        return g, h, k
    s, l = ((Poly(base, rows[last[0], :alpha]),
             Poly(tw.ext, tw.compose(b[last[0]], c[last[0]]))) if 0 in last
            else (Poly.xn_minus_1(base, alpha), Poly.zero(tw.ext)))
    return s, l, g, h, k


def extract_mixed_generators(code: GeneratorMatrixCode):
    """Recover a generator quintuple (s, l, g, h, k) for a cyclic mixed
    code given by its matrix, read from one echelon form
    (`_echelon_generators`).  Best effort: the quintuple always satisfies
    the divisibility conditions and generates the smallest cyclic code
    holding the input, and closure_ok records whether that is the input
    itself, that is whether the input is cyclic."""
    tw = code.tower
    alpha, beta = code.alpha, code.beta
    if alpha is None or beta is None or alpha < 1:
        raise ValueError("extraction needs a mixed split with alpha >= 1")
    s, l, g, h, k = _echelon_generators(tw, alpha, beta, code.matrix)
    try:
        candidate = MixedCode(tw, alpha, beta, s, l, g, h, k, strict=False)
        ok = candidate.closure.equals(code)
    except CodeConstructionError:
        ok = False
    if not ok:
        # not cyclic: read the smallest cyclic code holding it instead
        s, l, g, h, k = _echelon_generators(
            tw, alpha, beta, _closure_rows(alpha, beta, code.matrix))
    return ExtractedGenerators(s, l, g, h, k, ok)


# ---------------------------------------------------------------------------
# definition documents


# Largest module-closure spanning matrix (generators x order of x, by
# alpha + 2*beta columns) a definition document may ask for: 64 MiB of
# field entries, far beyond every built-in table row.
MAX_CLOSURE_CELLS = 2**26


def _document_int(doc, key, default=None):
    """A nonnegative integer entry of a JSON document; a missing key raises
    KeyError unless a default is given."""
    value = doc[key] if default is None else doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{key} must be a nonnegative integer, got {value!r}")
    return value


def _document_poly(doc, key, field, tower=None):
    """A polynomial entry of a JSON document, in table notation."""
    text = doc[key]
    if not isinstance(text, str):
        raise ValueError(f"{key} must be a polynomial string, got {text!r}")
    return parse_poly(text, field, tower)


def load_tower(doc: dict) -> FieldTower:
    """The tower a JSON document names: {"q": int, "f1": str?, "f2": str?},
    with the defining-polynomial overrides f1 over F_p and f2 over F_q."""
    if not isinstance(doc, dict):
        raise ValueError("the document must be a JSON object")
    q = _document_int(doc, "q")
    tw = get_tower(q)
    f1 = None
    if "f1" in doc:
        f1 = _document_poly(doc, "f1", tw.prime).coeffs
        tw = get_tower(q, f1=f1)
    if "f2" in doc:
        tw = get_tower(q, f1=f1, f2=_document_poly(doc, "f2", tw.base, tw).coeffs)
    return tw


def load_definition(doc: dict, strict=True):
    """Build a code from the JSON definition document:
    {"q": int, "alpha": int, "beta": int, "s","l","g","h","k": str,
     "f1": str?, "f2": str?}.  Pure codes use alpha = 0 (s, l omitted).
    Block lengths whose module-closure spanning matrix would exceed
    MAX_CLOSURE_CELLS entries are rejected before anything is built."""
    tw = load_tower(doc)
    alpha = _document_int(doc, "alpha", 0)
    beta = _document_int(doc, "beta")
    generators = 3 if alpha else 2
    cells = generators * _closure_order(alpha, beta) * (alpha + 2 * beta)
    if cells > MAX_CLOSURE_CELLS:
        raise ValueError(
            f"block lengths alpha={alpha}, beta={beta} need a {cells}-entry "
            f"closure matrix; the limit is {MAX_CLOSURE_CELLS}")
    g = _document_poly(doc, "g", tw.base, tw)
    h = _document_poly(doc, "h", tw.base, tw)
    k = _document_poly(doc, "k", tw.base, tw)
    if alpha == 0:
        return PureCode(tw, beta, g, h, k)
    s = _document_poly(doc, "s", tw.base, tw)
    l = _document_poly(doc, "l", tw.ext, tw)
    return MixedCode(tw, alpha, beta, s, l, g, h, k, strict=strict)
