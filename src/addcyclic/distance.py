"""Minimum-distance computation.

A code's split is its alphabet: alpha F_q symbols of one column and
beta F_q2 symbols of two, so a plain code, beta = 0 (a Gray image),
weighs one F_q symbol per column.  Codes of at most
_WHOLE_CODE words are weighed whole, as layer 1 (below) of their
nonzero words.  Every other distance comes from one search, the
Brouwer-Zimmermann search (Zimmermann 1996; Grassl, "Searching for
linear codes with large minimum distance", 2006).  The
rank-k generator matrix is written in systematic form over several
information sets whose symbols are disjoint: the stored rref first,
then, greedily, the pivots of one rref per set with the still unused
symbols' columns ordered first, until no unused symbol adds rank.  A
module closure is closed under x (Chen 1970; Grassl 2006), so x^t of a
systematic form spans the same code: on the codes that carry the
closure's `spanning_rows`, and on no other, each later form is first
sought as the previous one shifted by t symbols, and kept when, read
with the unused columns first, it already is an rref, which is then the
one elimination would return (the rref of a row space is unique).  Only
a shift that fails this check is replaced by an elimination, so every
form, and every count the search reports, is the same either way.  In
each form the messages of weight w = 1, 2, ... are weighed (layer w
below), only those whose leading coefficient is 1 (scaling keeps the
weight), one layer at a time on the set that has weighed the fewest.
Once every message of weight <= w has been weighed in the form of set
j, of rank r, a word not yet seen has at least t = w + 1 - (k - r)
nonzero pivot coordinates there, so at least as many nonzero symbols
as the fewest symbols of the set whose pivot counts sum to t: t for
F_q symbols, ceil(t/2) when every symbol holds two pivots.  Summed over
the sets this bounds every unseen word from below.

The search has two stopping rules.  The exact engine stops as soon as
the bound reaches the lightest word found (at the latest when one form
has weighed all its messages); the budget applies to q^rank, whatever
the search weighs.  The upper bound, for codes beyond the budget, also
stops once every set has weighed its layers 1 and 2, and reports the
lightest word found (`min_distance_upper`).

The search takes its combinations from one enumerator, `_Layers`:
layer w of a list of rows holds the combinations of exactly w of them
with leading coefficient 1.  Its words with last row m are the words a
of layer w - 1 with last row below m, each plus c*row_m, and the weight
of a + c*row_m is the symbol distance from a to -c*row_m.  So layer w is
weighed unbuilt, as prefixes of layer w - 1 against the q - 1 negated
multiples of row_m.  Layer w - 1 is formed, sorted by last row, when
layer w is first asked for, and kept.

Rows and layers are held symbol-major, one array row per symbol, so a
block of words is weighed by one compare and one sum over the symbols,
however few they are (`_lightest_nonzero`).  The sum adds the compare's
bools as bytes, with no cast to a wider integer.  A block groups
consecutive last rows: the prefix the widest of them needs, against all
their negated multiples, as long as the block computes at most
_BLOCK_TARGET cells.  The cells past a row's own prefix are set by one
broadcast OR to the value a zero word wraps to, which never counts, so
a plain min finds the lightest word.  A row whose prefix alone passes
_BLOCK_TARGET is weighed in slices.

The search weighs symbol words, one byte per symbol: the alpha F_q
columns as they are, each F_q2 pair (b, c) packed as its element
b + q*c (`codes._pack`).  Packing is F_q-linear, since F_q embeds in
F_q2 as the same integers, so the layers combine packed rows by F_q2's
subtraction and its products with c in F_q, and a distance is the
count of differing bytes over alpha + beta symbols.  A beta = 0 code
(a Gray image) packs to itself, its F_q entries read as the
same elements of F_q2, so every code is weighed through one
enumerator, `_Layers`, which packs the rows it is given.  Forms and a
whole code's words are packed once.

The q^rank budget bounds the search's work but not its memory (table-1
row 9 as a pure code, rank 26 over F_4, would ask for a 1.77 GiB layer
6), so `_Layers` refuses, as past the budget, to form a layer of more
than _MAX_LAYER_CELLS cells, words x expanded columns (alpha + 2 beta;
a packed word holds alpha + beta bytes, so a formed layer takes at most
the cap in bytes).  `min_distance`, the distance the CLI and every
table row report, falls back on the upper bound when the search
refuses; the upper bound forms no layer (layer 2 is weighed against
layer 1, the rows), so no cap applies to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .codes import GeneratorMatrixCode, _pack, _shift_columns
from .linalg import _suffix_block

DEFAULT_BUDGET = 2**24
# Codes of at most this many words are weighed whole: the rref per
# information set costs more than the words it saves.  Measured on the
# table rows (best of 41, one core of a 2-core VM): 3^6 words take 0.19
# to 0.21 ms whole and 0.30 to 0.36 ms by the search, a rank-2 image
# with 11 sets 0.06 against 0.78 ms; 3^7 words take 0.45 ms whole and
# 0.32 ms by the search, 4^6 words 0.23 against 0.30 ms.
_WHOLE_CODE = 2**12
_BLOCK_TARGET = 2**16  # most cells (words) a block computes
# cells (words x expanded columns) of the largest layer formed, at most
# 64 MiB packed, the size of codes.MAX_CLOSURE_CELLS
_MAX_LAYER_CELLS = 2**26


class DistanceBudgetError(ValueError):
    """Enumeration would exceed the budget; carries the required count."""

    def __init__(self, required, budget):
        super().__init__(
            f"exact enumeration needs {required} codewords but the budget is "
            f"{budget}; raise the budget or use min_distance_upper"
        )
        self.required = required
        self.budget = budget


class _LayerCapError(DistanceBudgetError):
    """A layer of the exact search would pass its cap of cells."""

    def __init__(self, weight, words, width, cap):
        ValueError.__init__(
            self, f"exact search would form layer {weight} of {words} words "
                  f"x {width} columns, past the cap of {cap} cells")
        self.required = words * width
        self.budget = cap


@lru_cache(maxsize=None)
def _weight_type(symbols):
    """(dtype, top) of the weights of words of `symbols` symbols: the
    least unsigned type that holds `symbols`, and its top value, which
    no weight minus 1 reaches."""
    dtype = np.min_scalar_type(symbols)
    return dtype, dtype.type(np.iinfo(dtype).max)


def _lightest_nonzero(best, negated, words, lengths):
    """(min(best, weight of the lightest nonzero word), words counted)
    of one block of symbol-major arrays: negated (symbols, K, G), the K
    negated multiples of G rows; words (symbols, P), a prefix of a
    layer; and the G rows' prefix lengths.  Cell (c, g, p) is the word
    words[:, p] - negated[:, c, g], counted when p < lengths[g]; its
    weight is the number of symbols in which the two differ.

    The compare's bools are summed as their bytes, which skips numpy's
    bool-to-int cast.  Weights are held minus 1 in an unsigned type, so
    weight 0 wraps to the top value, which no word reaches; one
    broadcast OR sets the cells past their row's prefix to it too, when
    a row is short, and a plain min over the block finds the lightest."""
    symbols, prefix = words.shape
    dtype, top = _weight_type(symbols)
    different = negated[:, :, :, None] != words[:, None, None, :]
    weights = different.view(np.uint8).sum(axis=0, dtype=dtype)
    weights -= 1
    lengths = np.asarray(lengths)
    if lengths.min(initial=prefix) < prefix:
        weights |= (np.arange(prefix) >= lengths[:, None]) * top
    lightest = int(weights.min(initial=top))
    if lightest < top:
        best = min(best, lightest + 1)
    return best, negated.shape[1] * int(lengths.sum())


class _Layers:
    """The layers of `rows`, expanded rows of `code` packed as symbol
    words over F_q2 and combined with the coefficients 1..q - 1 of F_q
    (module docstring).  Rows and formed layers are held symbol-major,
    (symbols, words).  A formed layer is one array sorted by last row,
    with ends[m] its words of last row <= m.  A layer of more than
    _MAX_LAYER_CELLS cells, counted on the code's expanded width, is
    refused."""

    def __init__(self, code, rows):
        tw = code.tower
        self.field, self.scalars, self.width = tw.ext, code.field.order, code.width
        self.rows = np.ascontiguousarray(_pack(tw, code.alpha, rows).T)
        self._formed = [(self.rows, np.arange(1, len(rows) + 1))]

    @cached_property
    def negated(self):
        """negated[:, c - 1, m] = -c times row m, formed when layer 2 is
        first weighed: a search that stops in layer 1 never needs it."""
        field = self.field
        return field.mul(self.rows[:, None], field.neg(np.arange(1, self.scalars))[:, None])

    def layer(self, weight):
        """(words, ends) of layer `weight`, forming the layers below it
        on first use."""
        while len(self._formed) < weight:
            words, ends = self._formed[-1]
            count = (self.scalars - 1) * int(ends[:-1].sum())
            if count * self.width > _MAX_LAYER_CELLS:
                raise _LayerCapError(len(self._formed) + 1, count,
                                     self.width, _MAX_LAYER_CELLS)
            parts = [self.field.sub(words[:, : ends[m - 1], None], self.negated[:, None, :, m])
                     .reshape(len(words), -1) for m in range(1, len(ends))]
            self._formed.append((np.concatenate([words[:, :0]] + parts, axis=1),
                                 np.cumsum([0] + [part.shape[1] for part in parts])))
        return self._formed[weight - 1]

    def weighings(self, weight):
        """Blocks (negated, words, lengths) of `_lightest_nonzero` that
        count once each word of layer `weight` without forming that
        layer, in layer order when each row's cells are read prefix word
        by prefix word.  Layer 1 is the rows against zero, in slices of
        _BLOCK_TARGET.  Above it, consecutive last rows m0..m1-1 share
        one block, the prefix of layer weight - 1 the widest of them
        needs against all their negated multiples, while K * G * P <=
        _BLOCK_TARGET (K = q - 1 scalars, G rows, P words in that
        prefix); a row whose prefix alone passes _BLOCK_TARGET // K
        words is sliced.  No block computes more than
        max(_BLOCK_TARGET, K) cells."""
        if weight == 1:
            zero = np.zeros_like(self.rows[:, :1, None])
            for first in range(0, self.rows.shape[1], _BLOCK_TARGET):
                block = self.rows[:, first : first + _BLOCK_TARGET]
                yield zero, block, [block.shape[1]]
            return
        words, ends = self.layer(weight - 1)
        multiples, rows = self.scalars - 1, len(ends)
        step = max(1, _BLOCK_TARGET // multiples)
        m0 = 1
        while m0 < rows:
            length = ends[m0 - 1]
            if length > step:
                for first in range(0, length, step):
                    block = words[:, first : min(first + step, length)]
                    yield self.negated[:, :, m0 : m0 + 1], block, [block.shape[1]]
                m0 += 1
                continue
            m1 = m0 + 1
            while m1 < rows and multiples * (m1 + 1 - m0) * ends[m1 - 1] <= _BLOCK_TARGET:
                m1 += 1
            if ends[m1 - 2]:
                yield self.negated[:, :, m0:m1], words[:, : ends[m1 - 2]], ends[m0 - 1 : m1 - 1]
            m0 = m1


def _rref_pivots(block):
    """The leading column of each row of `block`, a matrix of nonzero
    rows, when it is an rref: rows ordered by leading column, each
    leading entry 1 and the only nonzero entry of its column.  None
    otherwise."""
    rows, cols = block.nonzero()
    unit = np.arange(len(block))
    # nonzero() lists the entries row by row, so each row's first one leads
    leads = cols[np.searchsorted(rows, unit)]
    if (leads[1:] <= leads[:-1]).any() or (block[:, leads] != (unit[:, None] == unit)).any():
        return None
    return leads


def _information_sets(code):
    """Systematic forms of the code's rref basis over information sets
    whose symbols are disjoint, chosen greedily: the first is the stored
    rref and its pivots; each next one is the pivot columns, inside the
    symbols no earlier set touches, of one rref with those symbols'
    columns ordered first.  Yields (form, pivots, need) per set, the
    first r rows of the form carrying the identity on its r pivot
    columns, and need[t] the fewest symbols of the set that hold t of
    its pivots for t <= r.

    On a module closure, the one code with `spanning_rows`, each next
    form is first tried as the previous form times x^t, t the offset
    from the previous set's first symbol to the first unused one: it
    spans the same code, so when it is an rref with the unused columns
    first (`_rref_pivots`) it is the rref elimination would give.  Any
    other set, on any code, is eliminated."""
    field, matrix, alpha, beta = code.field, code.matrix, code.alpha, code.beta
    symbol = np.concatenate([np.arange(alpha), alpha + np.arange(2 * beta) // 2])
    used = np.zeros(alpha + beta, dtype=bool)
    form, pivots = matrix, np.asarray(code.pivots, dtype=np.intp)
    while pivots.size:
        held = np.bincount(symbol[pivots], minlength=alpha + beta)
        covered = np.cumsum(np.sort(held)[::-1])
        need = np.searchsorted(covered, np.arange(pivots.size + 2)) + 1
        # t = r + 1 pivots: every message of the form was weighed, no word is unseen
        need[0], need[-1] = 0, matrix.shape[1] + 1
        yield form, pivots, need
        used[symbol[pivots]] = True
        taken = used[symbol]
        free = (~taken).nonzero()[0]
        if not free.size:
            return
        order = np.concatenate([free, taken.nonzero()[0]])
        found = None
        if code.spanning_rows is not None:
            form = form[:, _shift_columns(alpha, beta, symbol[free[0]] - symbol[pivots[0]])]
            found = _rref_pivots(form[:, order])
        if found is None:
            reduced, _, found = linalg.rref(field, matrix[:, order])
            form = np.empty_like(reduced)
            form[:, order] = reduced
        pivots = order[[p for p in found if p < free.size]]


def _brouwer_zimmermann(code, depth=None):
    """(lightest weight found, words weighed) of a code of nonzero rank,
    by the Brouwer-Zimmermann search (module docstring).  With depth
    None the search runs until its lower bound meets the lightest word,
    which is then the minimum weight; with a depth it also stops once
    every information set has weighed its layers 1..depth."""
    k = code.rank
    sets = list(_information_sets(code))
    done = [0] * len(sets)  # every message of weight <= done[j] weighed in form j

    def bound():
        # an unseen word has >= done + 1 - (k - r) nonzero pivots in each set
        return sum(int(need[max(0, w + 1 - (k - len(piv)))])
                   for w, (_, piv, need) in zip(done, sets))

    best, examined = code.width + 1, 0
    layers = [_Layers(code, form) for form, _, _ in sets]
    while best > (target := bound()):
        j = done.index(min(done))
        if done[j] == depth:
            break
        for block in layers[j].weighings(done[j] + 1):
            best, counted = _lightest_nonzero(best, *block)
            examined += counted
            if best <= target:
                return best, examined
        done[j] += 1
    return best, examined


def min_distance(code: GeneratorMatrixCode,
                 budget: int = DEFAULT_BUDGET) -> 'DistanceResult':
    """The one distance policy, of every CLI subcommand and every table
    row: `min_distance_exact` within the budget, `min_distance_upper`
    when the exact engine refuses (past the budget, or a layer past
    _MAX_LAYER_CELLS).  `exact` on the result says which one ran."""
    try:
        return min_distance_exact(code, budget=budget)
    except DistanceBudgetError:
        return min_distance_upper(code)


def min_distance_exact(code: GeneratorMatrixCode,
                       budget: int = DEFAULT_BUDGET) -> 'DistanceResult':
    """Exact minimum symbol weight, in the code's alphabet, over all
    nonzero codewords.

    Deterministic; refuses with a DistanceBudgetError when q^rank
    exceeds `budget` or the search would form a layer past
    _MAX_LAYER_CELLS.  Codes of at most _WHOLE_CODE words are weighed
    whole, larger ones by the Brouwer-Zimmermann search;
    `witnesses_examined` counts the words weighed.
    """
    field = code.field
    r = code.rank
    if r == 0:
        raise ValueError("the zero code has no nonzero codewords")
    total = field.order**r
    if total > budget:
        raise DistanceBudgetError(total, budget)
    if total <= _WHOLE_CODE:
        # the q^rank - 1 nonzero words, weighed as layer 1 of themselves
        words = _Layers(code, _suffix_block(field, code.matrix)[1:])
        value = code.width + 1
        for block in words.weighings(1):
            value = _lightest_nonzero(value, *block)[0]
        return DistanceResult(value=value, exact=True, witnesses_examined=total - 1)
    value, examined = _brouwer_zimmermann(code)
    return DistanceResult(value=value, exact=True, witnesses_examined=examined)


def min_distance_upper(code: GeneratorMatrixCode) -> 'DistanceResult':
    """Upper bound, deterministic: the lightest word the
    Brouwer-Zimmermann search finds once every information set has
    weighed its messages of weight 1 and 2 (module docstring), or the
    minimum weight itself when the search's lower bound meets it
    sooner.  Never below the true distance."""
    if code.rank == 0:
        raise ValueError("the zero code has no nonzero codewords")
    value, examined = _brouwer_zimmermann(code, depth=2)
    return DistanceResult(value=value, exact=False, witnesses_examined=examined)


@dataclass(frozen=True)
class DistanceResult:
    """A distance and how it was found.  `witnesses_examined` counts the
    words actually weighed: for the exact engine all q^rank - 1 nonzero
    words of a code of at most _WHOLE_CODE words, else the messages the
    Brouwer-Zimmermann search weighed before its lower bound met the
    lightest of them, or, for the upper bound, before every information
    set had weighed its layers 1 and 2, whichever came first."""

    value: int
    exact: bool
    witnesses_examined: int
