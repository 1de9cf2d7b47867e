"""Minimum-distance computation.

The exact engine enumerates the message space F_q^rank against a
declared weight profile (which coordinates form one alphabet symbol) by
projective coset search.  The trailing basis rows span a suffix block S
that is enumerated once and weighed as it stands.  Every other codeword
lies in a coset p + S of a nonzero prefix word p, a combination of the
leading rows.  As S = -S, that coset is -(S - p), so its weights are the
symbol distances from p to the rows of S: no coset is ever built.  And
as c(p + S) = cp + S has the same weights as p + S for c in F_q^*, only
prefix words whose leading nonzero coefficient is 1 are visited, (q-1)x
fewer than all prefixes.  Prefix words are produced lazily in bounded
blocks; a running best weight is carried across cosets, and the result
does not depend on the prefix/suffix split.  The budget still applies
to q^rank.  Codes beyond it get a seeded randomized upper bound instead,
reinforced with a deterministic sweep of sparse combinations of the
generating rows.  The sweep builds no candidate either: the weight of
a + c*b is the symbol distance from a to -c*b.  Every negated multiple
of the row pool is formed once, and so is every scaled pair
pool[i] + b*pool[j] of the triple pool; the pairs and triples are then
weighed as distances between row gathers of those blocks, over
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
from .linalg import _combination_blocks, _scaled, _suffix_block

DEFAULT_BUDGET = 2**24
_BLOCK_TARGET = 2**16  # row count the suffix block and each prefix block aim for
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


def _projective_blocks(field, rows, max_rows):
    """Every combination of the rows whose leading nonzero coefficient is
    1, lazily, in blocks of at most max(max_rows, q) words: for each lead
    row, that row plus each combination of the rows after it."""
    for lead in range(len(rows)):
        for block in _combination_blocks(field, rows[lead + 1 :], max_rows):
            yield field.add(rows[lead], block)


def min_distance_exact(code: GeneratorMatrixCode, profile: WeightProfile,
                       budget: int = DEFAULT_BUDGET,
                       suffix_rows: int | None = None) -> 'DistanceResult':
    """Exact minimum symbol weight over all nonzero codewords.

    Deterministic and independent of both enumeration order and the
    suffix/prefix partition split.  Refuses when q^rank exceeds `budget`.
    `witnesses_examined` counts the words actually weighed: the nonzero
    suffix words plus q^suffix_rows per projective prefix visited, fewer
    when a weight-1 word ends the search early.
    """
    field = code.field
    q = field.order
    r = code.rank
    if r == 0:
        raise ValueError("the zero code has no nonzero codewords")
    total = q**r
    if total > budget:
        raise DistanceBudgetError(total, budget)
    if suffix_rows is None:
        suffix_rows = r
        while q**suffix_rows > _BLOCK_TARGET and suffix_rows > 1:
            suffix_rows -= 1
    suffix_rows = min(max(suffix_rows, 1), r)
    # column-major, so each weighing sums whole columns
    suffix = np.asfortranarray(_suffix_block(field, code.matrix[r - suffix_rows :]))
    best = int(profile.weights(suffix[1:]).min())
    examined = len(suffix) - 1
    if best > 1:
        prefixes = _projective_blocks(field, code.matrix[: r - suffix_rows],
                                      _BLOCK_TARGET)
        for prefix in chain.from_iterable(prefixes):
            # the coset prefix + S is -(S - prefix): weigh it as distances
            w = int(profile.distances(suffix, prefix).min())
            examined += len(suffix)
            if w < best:
                best = w
                if best == 1:
                    break
    return DistanceResult(value=best, exact=True, witnesses_examined=examined)


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
    words actually weighed: for the exact engine the nonzero suffix words
    plus a whole suffix block per projective prefix coset visited, about
    q^rank/(q-1) when no weight-1 word ends the search early; for the
    upper bound every candidate of the sweep and the sample."""

    value: int
    exact: bool
    witnesses_examined: int
    seed: int | None = None
