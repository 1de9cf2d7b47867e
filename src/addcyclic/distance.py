"""Minimum-distance computation.

The exact engine weighs codewords against a declared weight profile
(which coordinates form one alphabet symbol).  Codes of at most
_WHOLE_CODE words are weighed whole.  Larger ones go to the
Brouwer-Zimmermann search (Zimmermann 1996; Grassl, "Searching for
linear codes with large minimum distance", 2006).  The rank-k generator
matrix is written in systematic form over several information sets
whose symbol groups are disjoint: the stored rref first, then, greedily,
the pivots of one rref per set with the still unused groups' columns
ordered first, until no unused group adds rank.  In each form the
messages of weight w = 1, 2, ... are weighed, only those whose leading
coefficient is 1 (scaling keeps the weight), each built from a message
of weight w - 1 by one addition of a multiple of a row.  Once every
message of weight <= w has been weighed in the form of set j, of rank
r, a word not yet seen has at least t = w + 1 - (k - r) nonzero pivot
coordinates there, so at least as many nonzero symbols as the fewest
groups of the set whose pivot counts sum to t: t for singleton groups,
ceil(t/2) when every group holds two pivots.  Summed over the sets this
bounds every unseen word from below, and the search stops as soon as
the bound reaches the lightest word found (at the latest when one form
has weighed all its messages).  Words are weighed in blocks of at most
_BLOCK_TARGET, so memory stays bounded.  The budget applies to q^rank,
whatever the search weighs.  Codes beyond it get a seeded randomized
upper bound instead, reinforced with a deterministic sweep of sparse
combinations of the generating rows.  The sweep builds no candidate:
the weight of a + c*b is the symbol distance from a to -c*b.  Every
negated multiple of the row pool is formed once, and so is every scaled
pair pool[i] + b*pool[j] of the triple pool; the pairs and triples are
then weighed as distances between row gathers of those blocks, over
fixed-size chunks of index combinations, and only a running minimum
weight is kept between chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from . import linalg
from .codes import GeneratorMatrixCode
from .linalg import _scaled, _suffix_block

DEFAULT_BUDGET = 2**24
# Codes of at most this many words are weighed whole: the rref per
# information set costs more than the words it saves.  Measured on the
# table rows: 3^6 words take 0.19 ms whole and 0.50 ms by the search, a
# rank-2 image with 11 sets 0.03 against 0.6 ms; 3^7 words take 0.37 ms
# whole and 0.25 ms by the search, 4^6 words 0.24 against 0.28 ms.
_WHOLE_CODE = 2**12
_BLOCK_TARGET = 2**16  # most words weighed at once by the exact search
_SWEEP_CHUNK = 2**14  # candidate rows per block in the upper-bound sweep
_TRIPLE_POOL_MAX = 40  # larger raw generating sets skip the triple sweep


class DistanceBudgetError(ValueError):
    """Enumeration would exceed the budget; carries the required count."""

    def __init__(self, required, budget):
        super().__init__(
            f"exact enumeration needs {required} codewords but the budget is "
            f"{budget}; raise the budget or use min_distance_upper"
        )
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class WeightProfile:
    """Partition of the columns into alphabet symbols.

    Groups must be consecutive runs covering all columns: alpha singletons
    followed by beta pairs for mixed words, or all singletons for Gray
    images.  A group counts 1 toward the weight iff any of its columns is
    nonzero.
    """

    group_starts: tuple
    width: int

    def __post_init__(self):
        starts = self.group_starts
        if not starts or starts[0] != 0 or any(
            a >= b for a, b in zip(starts, starts[1:])
        ) or starts[-1] >= self.width:
            raise ValueError("groups must be consecutive nonempty runs from 0")

    @classmethod
    def mixed(cls, alpha, beta):
        """alpha singleton groups, then beta two-column groups."""
        starts = tuple(range(alpha)) + tuple(alpha + 2 * j for j in range(beta))
        return cls(starts, alpha + 2 * beta)

    @classmethod
    def singletons(cls, n):
        return cls(tuple(range(n)), n)

    @property
    def groups(self):
        return len(self.group_starts)

    @cached_property
    def _pair_split(self):
        """Column count of the leading singleton groups when every later
        group is a pair (the mixed and singleton profiles); None for any
        other grouping."""
        ends = self.group_starts[1:] + (self.width,)
        sizes = [b - a for a, b in zip(self.group_starts, ends)]
        split = next((i for i, size in enumerate(sizes) if size != 1), len(sizes))
        return split if all(size == 2 for size in sizes[split:]) else None

    @cached_property
    def _tally(self):
        """Narrowest unsigned dtype holding any weight: summing the groups
        in it is several times faster than in intp."""
        return np.min_scalar_type(self.groups)

    def distances(self, block, word) -> np.ndarray:
        """Symbol distances between the rows of `block` and `word`: the
        number of groups in which they differ.  The operands broadcast
        as arrays of rows (a block against one word, or a block against
        a block), and the result has their broadcast shape without the
        row axis.  Column-major blocks are summed fastest."""
        block = np.atleast_2d(np.asarray(block))
        word = np.asarray(word)
        if block.shape[-1] != self.width or word.ndim and word.shape[-1] != self.width:
            raise ValueError("row width does not match the profile")
        differ = block != word
        split = self._pair_split
        if split is None:
            grouped = np.bitwise_or.reduceat(differ, self.group_starts, axis=-1)
            return grouped.sum(axis=-1, dtype=self._tally)
        pairs = differ[..., split::2] | differ[..., split + 1::2]
        return (differ[..., :split].sum(axis=-1, dtype=self._tally)
                + pairs.sum(axis=-1, dtype=self._tally))

    def weights(self, block) -> np.ndarray:
        """Vector of symbol weights for a block of row vectors."""
        return self.distances(block, 0)


def weight(vec, profile: WeightProfile) -> int:
    """Number of alphabet symbols of a single word that are nonzero."""
    return int(profile.weights(np.asarray(vec).reshape(1, -1))[0])


def _index_tuples(count, k):
    """All k-subsets of range(count), lexicographic, as a (C, k) intp array."""
    flat = chain.from_iterable(combinations(range(count), k))
    return np.fromiter(flat, dtype=np.intp).reshape(-1, k)


def _lightest_nonzero(profile, best, block, word=0):
    """min(best, smallest nonzero distance between the broadcast rows of
    block and word); with word = 0 these are the weights of the block."""
    weights = profile.distances(block, word)
    weights = weights[weights > 0]
    return min(best, int(weights.min())) if weights.size else best


def _layer_blocks(field, rows, weight, max_words):
    """Every combination of exactly `weight` of the rows whose first
    nonzero coefficient is 1, lazily, in blocks of at most
    max(max_words, len(rows) * (q - 1)) words, each word with the index
    of the last row it combines.  Layer w is built from layer w - 1 by
    adding c * row_i for every row i after that last row and every
    c != 0: one addition per word, of a multiple formed once."""
    k, q = len(rows), field.order
    if weight == 1:
        yield rows, np.arange(k)
        return
    # multiples[c - 1, i] = c * rows[i]
    multiples = _scaled(field, rows, range(1, q))
    for words, last in _layer_blocks(field, rows, weight - 1, max_words):
        children = (k - 1 - last) * (q - 1)
        before = np.concatenate([[0], np.cumsum(children)])  # children of parents < i
        start = 0
        while start < len(words):
            # the parents from start on whose children fit in one block
            stop = max(start + 1, int(np.searchsorted(before, before[start] + max_words,
                                                      "right")) - 1)
            parent = np.repeat(np.arange(start, stop), children[start:stop])
            offset = np.arange(parent.size) - (before[parent] - before[start])
            row = last[parent] + 1 + offset // (q - 1)
            if row.size:
                yield field.add(words[parent], multiples[offset % (q - 1), row]), row
            start = stop


def _information_sets(field, matrix, pivots, profile):
    """Systematic forms of the full-rank `matrix` over information sets
    whose symbol groups are disjoint, chosen greedily: the first is the
    stored rref and its pivots; each next one is the pivot columns,
    inside the groups no earlier set touches, of one rref with those
    groups' columns ordered first.  Yields (form, pivots, need) per set,
    the first r rows of the form carrying the identity on its r pivot
    columns, and need[t] the fewest groups of the set that hold t of its
    pivots for t <= r."""
    ends = profile.group_starts[1:] + (profile.width,)
    group = np.repeat(np.arange(profile.groups),
                      np.subtract(ends, profile.group_starts))
    used = np.zeros(profile.groups, dtype=bool)
    form, pivots = matrix, np.asarray(pivots, dtype=np.intp)
    while pivots.size:
        held = np.bincount(group[pivots], minlength=profile.groups)
        covered = np.cumsum(np.sort(held)[::-1])
        need = np.searchsorted(covered, np.arange(pivots.size + 2)) + 1
        # t = r + 1 pivots: every message of the form was weighed, no word is unseen
        need[0], need[-1] = 0, profile.width + 1
        yield form, pivots, need
        used[group[pivots]] = True
        taken = used[group]
        free = (~taken).nonzero()[0]
        if not free.size:
            return
        order = np.concatenate([free, taken.nonzero()[0]])
        reduced, _, found = linalg.rref(field, matrix[:, order])
        pivots = order[[p for p in found if p < free.size]]
        form = np.empty_like(reduced)
        form[:, order] = reduced


def _brouwer_zimmermann(field, matrix, pivots, profile):
    """(minimum weight, words weighed) of the row space of a full-rank
    `matrix` in rref with the given pivots, by the Brouwer-Zimmermann
    search (module docstring)."""
    k = len(matrix)
    sets = list(_information_sets(field, matrix, pivots, profile))
    done = [0] * len(sets)  # every message of weight <= done[j] weighed in form j

    def bound():
        # an unseen word has >= done + 1 - (k - r) nonzero pivots in each set
        return sum(int(need[max(0, w + 1 - (k - len(piv)))])
                   for w, (_, piv, need) in zip(done, sets))

    best, examined = profile.width + 1, 0
    while best > bound():
        j = done.index(min(done))
        for block, _ in _layer_blocks(field, sets[j][0], done[j] + 1, _BLOCK_TARGET):
            best = min(best, int(profile.weights(block).min()))
            examined += len(block)
            if best <= bound():
                return best, examined
        done[j] += 1
    return best, examined


def min_distance_exact(code: GeneratorMatrixCode, profile: WeightProfile,
                       budget: int = DEFAULT_BUDGET) -> 'DistanceResult':
    """Exact minimum symbol weight over all nonzero codewords.

    Deterministic; refuses when q^rank exceeds `budget`.  Codes of at
    most _WHOLE_CODE words are weighed whole, larger ones by the
    Brouwer-Zimmermann search; `witnesses_examined` counts the words
    weighed.
    """
    field = code.field
    r = code.rank
    if r == 0:
        raise ValueError("the zero code has no nonzero codewords")
    total = field.order**r
    if total > budget:
        raise DistanceBudgetError(total, budget)
    if total <= _WHOLE_CODE:
        value = int(profile.weights(_suffix_block(field, code.matrix)[1:]).min())
        return DistanceResult(value=value, exact=True, witnesses_examined=total - 1)
    value, examined = _brouwer_zimmermann(field, code.matrix, code.pivots, profile)
    return DistanceResult(value=value, exact=True, witnesses_examined=examined)


def min_distance_upper(code: GeneratorMatrixCode, profile: WeightProfile,
                       samples: int = 2000, seed: int = 0) -> 'DistanceResult':
    """Upper bound: the lightest word among seeded random messages plus a
    deterministic sweep of all single rows, scaled pairs and scaled
    triples of the basis rows and (when recorded) the raw generating
    rows.  Reproducible from the seed; never below the true distance."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    field = code.field
    q = field.order
    r = code.rank
    if r == 0:
        raise ValueError("the zero code has no nonzero codewords")
    # the weight of a + c*b is its distance from -c*b, c = 1 .. q-1
    negated = field.neg(np.arange(1, q))
    pool = [code.matrix]
    if code.spanning_rows is not None:
        pool.append(code.spanning_rows)
    rows = np.unique(np.vstack(pool), axis=0)
    rows = rows[np.any(rows, axis=1)]
    best = _lightest_nonzero(profile, profile.width + 1, rows)
    examined = len(rows)
    # scaled pairs rows[i] + c*rows[j], i < j, c != 0
    negscaled = _scaled(field, rows, negated)
    pairs = _index_tuples(len(rows), 2)
    step = max(1, _SWEEP_CHUNK // (q - 1))
    for start in range(0, len(pairs), step):
        i, j = pairs[start : start + step].T
        best = _lightest_nonzero(profile, best, rows[i], negscaled[:, j])
        examined += (q - 1) * len(i)
    # sparse triples of the raw generating rows: x-shifts of the defining
    # generators are where low-weight words tend to live
    triple_pool = code.spanning_rows if code.spanning_rows is not None else rows
    triple_pool = np.unique(np.asarray(triple_pool, dtype=np.uint8), axis=0)
    triple_pool = triple_pool[np.any(triple_pool, axis=1)]
    if len(triple_pool) <= _TRIPLE_POOL_MAX:
        # sums[b, pair_id[i, j]] = pool[i] + b*pool[j] for every pair i < j
        first, second = _index_tuples(len(triple_pool), 2).T
        pair_id = np.zeros((len(triple_pool),) * 2, dtype=np.intp)
        pair_id[first, second] = np.arange(len(first))
        sums = field.axpy(triple_pool[first], np.arange(1, q)[:, None, None],
                          triple_pool[second])
        negscaled = _scaled(field, triple_pool, negated)
        triples = _index_tuples(len(triple_pool), 3)
        step = max(1, _SWEEP_CHUNK // (q - 1) ** 2)
        for start in range(0, len(triples), step):
            i, j, k = triples[start : start + step].T
            # candidate [b, c, t] = sums[b, (i, j)] + c*pool[k]
            best = _lightest_nonzero(profile, best, sums[:, None, pair_id[i, j]],
                                     negscaled[None, :, k])
            examined += (q - 1) ** 2 * len(i)
    rng = np.random.default_rng(seed)
    msgs = rng.integers(0, q, size=(samples, r), dtype=np.uint8)
    msgs = msgs[np.any(msgs, axis=1)]
    if len(msgs):
        best = _lightest_nonzero(profile, best, linalg.matmul(field, msgs, code.matrix))
        examined += len(msgs)
    return DistanceResult(value=best, exact=False,
                          witnesses_examined=examined, seed=seed)


@dataclass(frozen=True)
class DistanceResult:
    """A distance and how it was found.  `witnesses_examined` counts the
    words actually weighed: for the exact engine all q^rank - 1 nonzero
    words of a code of at most _WHOLE_CODE words, else the messages the
    Brouwer-Zimmermann search weighed before its lower bound met the
    lightest of them; for the upper bound every candidate of the sweep
    and the sample."""

    value: int
    exact: bool
    witnesses_examined: int
    seed: int | None = None
