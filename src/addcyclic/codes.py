"""Additive cyclic codes over F_q2 and over the mixed alphabet F_q x F_q2.

A word is (u | u') in F_q^alpha x F_q2^beta.  The library holds every
word as its F_q-expanded row

    [u_0, ..., u_{alpha-1} | b_0, c_0, ..., b_{beta-1}, c_{beta-1}],

each F_q2 coordinate u'_j = b_j + w*c_j giving two F_q columns, the b
then the c component (`FieldTower.decompose`); this is the one word
format, of generators, spanning sets, closures and matrix documents.
The ground truth for every code object is its F_q-expanded generator
matrix: the codeword set is the F_q-row space of all x-shifts of the
generators (the module closure).  Generator-polynomial bookkeeping —
spanning sets, the cardinality formula, the generator conditions — is
treated as a set of claims that are checked against that matrix,
because degenerate generator choices (e.g. g ≡ 0 mod x^beta - 1) do
occur in practice and break the formulas.

A `GeneratorMatrixCode` has one alphabet parameter, beta: its alpha is
the width less 2*beta, and a plain F_q code (a Gray image, a bare
matrix) is beta = 0.  One class, `MixedCode`, holds every cyclic
code: a pure code, an additive cyclic code over F_q2 of length n, is
the MixedCode with alpha = 0 and beta = n, and has no (s | l)
generator.  The degree-counted spanning set is read from the closure's
spanning rows, which hold each generator's first x-shifts in order.
Only `module_closure` sets spanning rows on a code, so they are also
the one mark of a row space closed under x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import linalg
from .fields import FieldTower, tower as get_tower
from .poly import Poly, divides, lift, parse_poly, parse_scalar


class CodeConstructionError(ValueError):
    """A generator-polynomial condition failed; the message names it."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed: two computations that must
    agree did not.  Signals a bug in the library, never bad input."""


# ---------------------------------------------------------------------------
# generator-matrix codes (the ground truth)


@dataclass(eq=False)
class GeneratorMatrixCode:
    """An F_q-linear code given by an rref basis matrix.

    `beta` is the code's one alphabet parameter: the last 2*beta columns
    are beta F_q2 symbols in the expanded layout of the module docstring,
    the first alpha = width - 2*beta columns F_q symbols, and the split
    sets the weight of the code's words.  A plain F_q code (a Gray image,
    a bare matrix) is beta = 0.  `pivots` holds the pivot column of each
    basis row, read by the hull dimension and the distance engine;
    membership is one rank and reads none.  The stored matrix is
    read-only: what is derived from it (a Gray image, the hull's
    dimension) is memoized on this object (`_memo`) and must not go
    stale.  `spanning_rows`, a class attribute that no constructor
    argument sets, is None except on the codes `module_closure` returns,
    whose row space is closed under x.
    """

    tower: FieldTower
    matrix: np.ndarray
    beta: int = 0
    pivots: tuple = dc_field(default=(), init=False, repr=False)
    _derived: dict = dc_field(default_factory=dict, init=False, repr=False)
    spanning_rows = None

    def __post_init__(self):
        M = linalg.as_matrix(self.matrix, field=self.tower.base)
        if isinstance(self.beta, bool) or not isinstance(self.beta, int):
            raise ValueError(f"beta must be an int, got {self.beta!r}")
        if not 0 <= 2 * self.beta <= M.shape[1]:
            raise ValueError(f"beta={self.beta} does not fit the {M.shape[1]} "
                             "columns: 0 <= 2*beta <= width")
        R, r, pivots = linalg.rref(self.tower.base, M)
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
    def alpha(self):
        return self.width - 2 * self.beta

    @property
    def size(self):
        return self.tower.q ** self.rank

    def contains(self, vec) -> bool:
        return self.contains_rows([vec])

    def contains_rows(self, rows) -> bool:
        """True iff every row of the block is a codeword: stacked under the
        basis, the block leaves the rank as it was.  A row of another width
        is refused, and an entry outside F_q, as the constructor refuses it."""
        rows = linalg.as_matrix(rows, width=self.width, field=self.field)
        if rows.shape[1] != self.width:
            raise ValueError(f"row width {rows.shape[1]} does not match the basis "
                             f"width {self.width}")
        return linalg.rank(self.field, np.vstack([self.matrix, rows])) == self.rank

    def contains_code(self, other) -> bool:
        return self.contains_rows(other.matrix)

    def equals(self, other) -> bool:
        """Same row space: the stored rref bases are canonical, so they
        are compared as they stand."""
        return self.width == other.width and np.array_equal(self.matrix, other.matrix)


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


def _pack(tower, alpha, block):
    """The expanded rows of `block` one entry per symbol: the alpha F_q
    columns as they are, then each F_q2 pair (b, c) as its element
    b + q*c.  F_q-linear, since F_q embeds in F_q2 as the same integers.
    A block with no pairs (beta = 0) is its own packing and is returned
    as it is: rebuilding it added about 1.5% to verifying the exact
    table rows, whose Gray images are beta = 0 codes."""
    if alpha == block.shape[-1]:
        return block
    pairs = tower.compose(block[..., alpha::2], block[..., alpha + 1::2])
    return np.concatenate([block[..., :alpha], pairs], axis=-1) if alpha else pairs


def _span_degree(alpha, beta):
    """The degree m of x's minimal polynomial on the ambient module,
    lcm(x^alpha - 1, x^beta - 1): alpha + beta - gcd(alpha, beta), or the
    other length when one block is empty.  Every word's annihilator
    divides it, so the first m x-shifts of a word span all of them
    (MacWilliams-Sloane ch. 7)."""
    if not alpha and not beta:
        raise ValueError(f"split alpha={alpha}, beta={beta} has no coordinates")
    return alpha + beta - math.gcd(alpha, beta) if alpha and beta else alpha + beta


def _closure_rows(alpha, beta, expanded):
    """The spanning rows of a module closure: the first `_span_degree`
    x-shifts of each expanded generator row, a generator's shifts in
    order."""
    width = alpha + 2 * beta
    shifts = _shift_columns(alpha, beta, np.arange(_span_degree(alpha, beta)))
    return np.asarray(expanded, dtype=np.uint8).reshape(-1, width)[:, shifts].reshape(-1, width)


def module_closure(tw: FieldTower, alpha, beta, rows) -> GeneratorMatrixCode:
    """F_q-row space of all x-shifts of the expanded generator rows, in
    rref: the first `_span_degree` shifts of each generator span them
    all, and they are both the rows eliminated and the spanning rows kept
    on the code as `spanning_rows`, the one mark of a code closed under
    x.  This matrix is the authoritative codeword-set representation.
    """
    rows = _closure_rows(alpha, beta, rows)
    code = GeneratorMatrixCode(tw, rows, beta=beta)
    code.spanning_rows = rows
    return code


# ---------------------------------------------------------------------------
# cyclic codes


@dataclass(frozen=True)
class Cardinality:
    formula: int
    actual: int

    @property
    def agree(self):
        return self.formula == self.actual


@dataclass(frozen=True, eq=False)
class SpanningSet:
    rows: np.ndarray
    spans_ok: bool


def _check_base_field(tw, **polys):
    for name, p in polys.items():
        if p is not None and p.field != tw.base:
            raise CodeConstructionError(f"{name} must have base-field coefficients")


def _divisor(name, p, n, field, where=""):
    """p as a divisor of x^n - 1: zero becomes x^n - 1 (the zero ideal's
    representative, so that q^(n - deg) = 1); anything else must divide."""
    xn1 = Poly.xn_minus_1(field, n)
    p = xn1 if p.is_zero() else p
    if not divides(p, xn1):
        raise CodeConstructionError(f"{name} = {p} does not divide x^{n}-1{where}")
    return p


def _generator_rows(tw, alpha, beta, g, h, k, s=None, l=None):
    """The expanded generator rows (0 | g + w*h) and (0 | w*k), led by
    (s | l) when s is given: u = s mod x^alpha - 1, the (b, c) columns of
    l mod x^beta - 1 split by `tower.decompose`, (g, h) and (0, k) on the
    (b, c) columns, each mod x^beta - 1."""
    rows = np.zeros((3, alpha + 2 * beta), dtype=np.uint8)
    if s is not None:
        rows[0, :alpha] = s.cyclic_vector(alpha)
        rows[0, alpha::2], rows[0, alpha + 1 :: 2] = tw.decompose(l.cyclic_vector(beta))
    rows[1, alpha::2] = g.cyclic_vector(beta)
    rows[1, alpha + 1 :: 2] = h.cyclic_vector(beta)
    rows[2, alpha + 1 :: 2] = k.cyclic_vector(beta)
    return rows if s is not None else rows[1:]


class MixedCode:
    """An additive cyclic code of block length (alpha, beta), generated by
    (s | l), (0 | g + w h) and (0 | w k), where s | x^alpha - 1 and
    g, k | x^beta - 1 with base-field coefficients, and l has F_q2
    coefficients.  The codeword set is the module closure of
    `generator_rows()`.

    At alpha = 0 it is a pure code, an additive cyclic code over F_q2 of
    length beta generated by g + w h and w k alone: s and l are None
    (anything else is refused, as a None s or l is at alpha >= 1), and a
    divisor error names the base field.  A polynomial vanishing mod
    x^n - 1 is normalized to x^n - 1 itself (the zero ideal's
    representative), which keeps degree bookkeeping consistent:
    q^(n - deg) = 1.

    Two further generator conditions characterize the canonical
    presentation of a code with alpha >= 1: k | h (x^beta - 1)/g (skipped
    when g ≡ 0 mod x^beta - 1) and ((x^alpha - 1)/s) l ∈ <g + w h, w k>.
    With strict=True (the default) a violation raises; with strict=False
    the code is built anyway — its codeword set is still the perfectly
    well-defined module closure of the three generators — and the names
    of the violated conditions are reported by `condition_failures`,
    checked when it is first read.  Published generator tables do
    contain such degenerate rows.  A pure code's conditions are not
    checked: its `condition_failures` is empty.
    """

    def __init__(self, tw: FieldTower, alpha: int, beta: int,
                 s: Poly | None, l: Poly | None, g: Poly, h: Poly, k: Poly,
                 strict=True):
        for name, value in (("alpha", alpha), ("beta", beta)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if alpha < 0 or beta < 1:
            raise ValueError(f"block lengths alpha={alpha}, beta={beta}: "
                             "alpha must be >= 0 and beta >= 1")
        for name, p in (("s", s), ("l", l)):
            if not alpha and p is not None:
                raise ValueError(f"{name} must be None when alpha = 0; a pure "
                                 "code takes g, h and k")
            if alpha and p is None:
                raise ValueError(f"{name} is needed when alpha = {alpha} >= 1")
        _check_base_field(tw, s=s, g=g, h=h, k=k)
        if alpha and l.field != tw.ext:
            raise CodeConstructionError("l must have top-field coefficients")
        where = "" if alpha else f" over F_{tw.q}"
        self.tower = tw
        self.alpha = alpha
        self.beta = beta
        self.s = _divisor("s", s, alpha, tw.base) if alpha else None
        self.l = l
        self.g = _divisor("g", g, beta, tw.base, where)
        self.h = h
        self.k = _divisor("k", k, beta, tw.base, where)
        if strict and self.condition_failures:
            raise CodeConstructionError("; ".join(self.condition_failures))

    @cached_property
    def condition_failures(self) -> tuple:
        """Names of the violated generator conditions, empty when both
        hold and for a pure code."""
        if not self.alpha:
            return ()
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
        member, *kernel = _generator_rows(tw, 0, beta, g, h, k,
                                          s=Poly.zero(base), l=leftover)
        if not module_closure(tw, 0, beta, kernel).contains(member):
            failures.append("((x^alpha-1)/s)*l is not in <g+wh, wk>")
        return tuple(failures)

    def generator_rows(self):
        return _generator_rows(self.tower, self.alpha, self.beta, self.g, self.h,
                               self.k, s=self.s, l=self.l)

    def _degree_counts(self):
        """How many x-shifts of each generator the spanning set takes."""
        lead = [self.alpha - self.s.degree()] if self.alpha else []
        return lead + [self.beta - self.g.degree(), self.beta - self.k.degree()]

    @cached_property
    def closure(self) -> GeneratorMatrixCode:
        return module_closure(self.tower, self.alpha, self.beta,
                              self.generator_rows())

    @property
    def dimension(self):
        """F_q-dimension of the codeword set."""
        return self.closure.rank

    def cardinality(self) -> Cardinality:
        """(formula, actual): q^(sum of the degree counts) against q^rank;
        they agree exactly when the degree-counted spanning set spans."""
        q = self.tower.q
        return Cardinality(q ** sum(self._degree_counts()), q**self.closure.rank)

    def spanning_set(self) -> SpanningSet:
        """The degree-counted spanning set S1 ∪ S2 ∪ S3 (x-shift ranges of
        the generators, |S1| = alpha - deg s, |S2| = beta - deg g,
        |S3| = beta - deg k; a pure code has no S1), with spans_ok
        reporting whether its span really is the whole code.  Generator i
        contributes rows i*m ... i*m + counts[i] - 1 of the closure's
        spanning rows, its first m = `_span_degree` shifts (counts <= m).
        The rows are F_q-independent: only S1 has nonzero alpha parts, only
        S2 nonzero b parts among the rest, and within each of those parts
        and the c parts of S3 the shifts x^i*s, x^i*g, x^j*k have distinct
        degrees below the block length.  So the set spans exactly when it
        has as many rows as the rank."""
        m = _span_degree(self.alpha, self.beta)
        rows = np.concatenate([self.closure.spanning_rows[i * m : i * m + count]
                               for i, count in enumerate(self._degree_counts())])
        return SpanningSet(rows, len(rows) == self.closure.rank)

    def __repr__(self):
        return (
            f"MixedCode(q={self.tower.q}, alpha={self.alpha}, beta={self.beta}, "
            f"s={self.s}, l={self.l}, g={self.g}, h={self.h}, k={self.k})"
        )


# ---------------------------------------------------------------------------
# duality and cyclicity


def dual(code) -> GeneratorMatrixCode:
    """All words orthogonal to the code under the mixed inner product;
    at beta = 0 the Euclidean dual.

    Each generator contributes two F_q-linear constraints: the 1- and
    w-components of the F_q2-valued form.  Solved as one kernel
    computation over F_q.
    """
    gm = code.closure if isinstance(code, MixedCode) else code
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
    return GeneratorMatrixCode(tw, basis, beta=gm.beta)


def invariant_under(code: GeneratorMatrixCode, perm) -> bool:
    """True iff the row space is closed under the column permutation
    that puts column perm[j] of a word in column j; anything but a
    permutation of range(width) is refused, an array of floats included,
    which a cast to indices would truncate."""
    perm = np.asarray(perm)
    if perm.dtype.kind not in "iu" or not np.array_equal(np.sort(perm), np.arange(code.width)):
        raise ValueError("perm is not a permutation of the code's columns")
    return code.contains_rows(code.matrix[:, perm])


def is_cyclic(code: GeneratorMatrixCode) -> bool:
    """True iff the row space is closed under the simultaneous right
    cyclic shift of the alpha block and the beta block (the latter acting
    on (b, c) column pairs jointly); at beta = 0 the ordinary cyclic
    shift."""
    return invariant_under(code, _shift_columns(code.alpha, code.beta, 1))


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
    part with no pivot gives x^n - 1 and zero.  Returns (s, l, g, h, k);
    with alpha = 0 the last three are a pure code's (g, h, k).
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
    if alpha < 1 or beta < 1:
        raise ValueError(f"extraction needs alpha, beta >= 1, not alpha={alpha}, beta={beta}")
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


# Bound on the entries of a definition's x-orbit: generators x
# lcm(alpha, beta) (the order of x) x (alpha + 2*beta).  It bounds the
# block lengths, far beyond every built-in table row, not the matrix a
# closure builds from `_span_degree` shifts: counted on that matrix,
# (997, 1009), whose parameters take minutes, would pass.
MAX_CLOSURE_CELLS = 2**26


def _document_value(doc, key, default=None):
    """An entry of a JSON document, refused by name if missing and undefaulted."""
    if default is None and key not in doc:
        raise ValueError(f"missing key {key!r}")
    return doc.get(key, default)


def _document_int(doc, key, default=None):
    """A nonnegative integer entry of a JSON document."""
    value = _document_value(doc, key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{key} must be a nonnegative integer, got {value!r}")
    return value


def _document_poly(doc, key, field, tower=None):
    """A polynomial entry of a JSON document, in table notation."""
    text = _document_value(doc, key)
    if not isinstance(text, str):
        raise ValueError(f"{key} must be a polynomial string, got {text!r}")
    return parse_poly(text, field, tower)


def load_tower(doc: dict, keys) -> FieldTower:
    """The tower a JSON document names: {"q": int, "f1": str?, "f2": str?},
    with the defining-polynomial overrides f1 over F_p and f2 over F_q.
    A key outside `keys`, the document's whole set, is refused by name,
    as a misspelt key would be read as missing."""
    if not isinstance(doc, dict):
        raise ValueError("the document must be a JSON object")
    for key in doc:
        if key not in keys:
            raise ValueError(f"unknown key {key!r}; the document takes {', '.join(keys)}")
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
     "f1": str?, "f2": str?}, built as a `MixedCode`.  Pure codes use
    alpha = 0 (or omit it), and an s or l given with it is refused.
    Any other key is refused by name.  Block lengths whose generators'
    x-orbit would pass MAX_CLOSURE_CELLS entries are rejected before
    anything is built."""
    tw = load_tower(doc, ("q", "alpha", "beta", "s", "l", "g", "h", "k", "f1", "f2"))
    alpha = _document_int(doc, "alpha", 0)
    beta = _document_int(doc, "beta")
    generators = 3 if alpha else 2
    # the x-orbit's entries; lcm(alpha, 0) is 0, and _span_degree then
    # gives the other length, or refuses (0, 0)
    order = math.lcm(alpha, beta) or _span_degree(alpha, beta)
    cells = generators * order * (alpha + 2 * beta)
    if cells > MAX_CLOSURE_CELLS:
        raise ValueError(
            f"block lengths alpha={alpha}, beta={beta} give an x-orbit of {cells} "
            f"entries ({generators} generators x {order} shifts x {alpha + 2 * beta} "
            f"columns); the limit is {MAX_CLOSURE_CELLS}")
    g = _document_poly(doc, "g", tw.base, tw)
    h = _document_poly(doc, "h", tw.base, tw)
    k = _document_poly(doc, "k", tw.base, tw)
    s = l = None
    if alpha == 0:
        for key in ("s", "l"):
            if key in doc:
                raise ValueError(f"{key} is read only when alpha > 0; a pure "
                                 "code takes g, h and k")
    else:
        s = _document_poly(doc, "s", tw.base, tw)
        l = _document_poly(doc, "l", tw.ext, tw)
    return MixedCode(tw, alpha, beta, s, l, g, h, k, strict=strict)


def load_matrix_document(doc: dict):
    """Parse {"q": int, "alpha": int, "beta": int, "rows": [[str]],
    "f1": str?, "f2": str?} into (tower, beta, expanded): the first
    alpha entries of each row are F_q literals, the rest F_q2 literals,
    all of them strings (any other entry is refused by its position),
    and each F_q2 literal is split into its (b, c) columns by
    `tower.decompose`, so that `expanded` is a uint8 matrix in the
    expanded layout of the module docstring, of width alpha + 2*beta.
    Any other key is refused by name."""
    tw = load_tower(doc, ("q", "alpha", "beta", "rows", "f1", "f2"))
    alpha = _document_int(doc, "alpha")
    beta = _document_int(doc, "beta")
    if alpha + beta == 0:
        raise ValueError("alpha + beta must be positive")
    rows = _document_value(doc, "rows")
    if not isinstance(rows, list) or not rows or not all(
            isinstance(row, list) for row in rows):
        raise ValueError("rows must be a nonempty list of rows")
    expanded = np.zeros((len(rows), alpha + 2 * beta), dtype=np.uint8)
    for i, (out, row) in enumerate(zip(expanded, rows)):
        if len(row) != alpha + beta:
            raise ValueError(
                f"row has {len(row)} entries, expected alpha + beta = {alpha + beta}"
            )
        for j, e in enumerate(row):
            if not isinstance(e, str):
                raise ValueError(f"rows[{i}][{j}] must be a literal string, got {e!r}")
        out[:alpha] = [parse_scalar(e, tw.base, tw) for e in row[:alpha]]
        out[alpha::2], out[alpha + 1 :: 2] = tw.decompose(
            [parse_scalar(e, tw.ext, tw) for e in row[alpha:]])
    return tw, beta, expanded
