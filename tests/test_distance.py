"""Distance engines against a naive full-enumeration oracle.

The oracle below iterates the whole message space with itertools and
computes weights group by group in pure Python; it shares no code with
the vectorized engine it checks.  The chunked upper-bound sweep is
checked against its per-combination loop (`reference_upper`), and the
weight kernel's fast paths against `bitwise_or.reduceat`.
"""

import random
from itertools import combinations, product

import numpy as np
import pytest

from addcyclic import distance
from addcyclic.codes import GeneratorMatrixCode, MixedCode
from addcyclic.distance import (
    DistanceBudgetError,
    WeightProfile,
    min_distance_exact,
    min_distance_upper,
    weight,
)
from addcyclic.fields import tower
from addcyclic.gray import gray_image
from addcyclic.poly import parse_poly
from addcyclic.tables import TABLE1, TABLE2, build_table1_code, build_table2_code

from test_codes import random_mixed_code

T3 = tower(3)
T4 = tower(4)
SWEEP_TOWERS = tuple(tower(q) for q in (2, 3, 4, 5, 7, 8))


def naive_min_distance(field, matrix, groups):
    """Independent oracle: full message-space enumeration, plain Python."""
    matrix = [list(int(x) for x in row) for row in matrix]
    ncols = len(matrix[0]) if matrix else 0
    best = None
    for msg in product(range(field.order), repeat=len(matrix)):
        if not any(msg):
            continue
        vec = [0] * ncols
        for c, row in zip(msg, matrix):
            if c:
                for i, entry in enumerate(row):
                    vec[i] = int(field.add(vec[i], field.mul(c, entry)))
        w = sum(1 for grp in groups if any(vec[i] for i in grp))
        if best is None or w < best:
            best = w
    return best


def groups_of(profile):
    starts = list(profile.group_starts) + [profile.width]
    return [tuple(range(a, b)) for a, b in zip(starts, starts[1:])]


def reference_upper(code, profile, samples=2000, seed=0):
    """The witness sweep one combination at a time, stacking every
    candidate: (value, witnesses_examined) of min_distance_upper."""
    field = code.field
    q = field.order
    r = code.rank
    pool = [code.matrix]
    if code.spanning_rows is not None:
        pool.append(code.spanning_rows)
    rows = np.unique(np.vstack(pool), axis=0)
    rows = rows[np.any(rows, axis=1)]
    candidates = [rows]
    nonzero = range(1, q)
    for i, j in combinations(range(len(rows)), 2):
        candidates.append(np.array(
            [field.add(rows[i], field.mul(c, rows[j])) for c in nonzero],
            dtype=np.uint8))
    triple_pool = code.spanning_rows if code.spanning_rows is not None else rows
    triple_pool = np.unique(np.asarray(triple_pool, dtype=np.uint8), axis=0)
    triple_pool = triple_pool[np.any(triple_pool, axis=1)]
    if len(triple_pool) <= 40:
        for i, j, k in combinations(range(len(triple_pool)), 3):
            for b in nonzero:
                candidates.append(np.array(
                    [field.add(field.add(triple_pool[i],
                                         field.mul(b, triple_pool[j])),
                               field.mul(c, triple_pool[k]))
                     for c in nonzero], dtype=np.uint8))
    rng = np.random.default_rng(seed)
    msgs = rng.integers(0, q, size=(samples, r), dtype=np.uint8)
    msgs = msgs[np.any(msgs, axis=1)]
    if len(msgs):
        sampled = np.zeros((len(msgs), code.width), dtype=np.uint8)
        for t in range(r):
            sampled = field.add(sampled, field.mul(msgs[:, t : t + 1],
                                                   code.matrix[t : t + 1, :]))
        candidates.append(sampled)
    stacked = np.vstack(candidates)
    examined = len(stacked)
    stacked = stacked[np.any(stacked, axis=1)]
    return int(profile.weights(stacked).min()), examined


def assert_upper_matches_reference(code, profile, samples=2000, seed=0):
    res = min_distance_upper(code, profile, samples=samples, seed=seed)
    assert (res.value, res.witnesses_examined) == reference_upper(
        code, profile, samples=samples, seed=seed)
    assert not res.exact and res.seed == seed
    return res


def reference_weights(profile, block):
    """Symbol weights through bitwise_or.reduceat, for every grouping."""
    nz = np.asarray(block) != 0
    return np.bitwise_or.reduceat(nz, profile.group_starts, axis=1).sum(axis=1)


def random_profile(rng, width):
    """Singletons, singletons then pairs, or an arbitrary grouping."""
    kind = rng.randrange(3)
    if kind == 0:
        return WeightProfile.singletons(width)
    if kind == 1:
        alpha = rng.randrange(width + 1)
        alpha += (width - alpha) % 2
        return WeightProfile.mixed(alpha, (width - alpha) // 2)
    cuts = sorted(rng.sample(range(1, width), rng.randrange(width))) if width > 1 else []
    return WeightProfile(tuple([0] + cuts), width)


def test_weight_examples():
    prof = WeightProfile.mixed(2, 2)
    assert weight([1, 0, 0, 0, 0, 1], prof) == 2
    assert weight([0, 0, 0, 0, 0, 0], prof) == 0
    assert weight([1, 1], WeightProfile.singletons(2)) == 2


def test_gray_image_weight_can_exceed_mixed_weight():
    # the word (0 | w) has mixed weight 1; its image (1, 1) has weight 2
    from addcyclic.codes import MixedWord
    from addcyclic.gray import gray_word
    w = MixedWord(T3, (), (T3.omega,))
    assert weight(w.expand(), WeightProfile.mixed(0, 1)) == 1
    img = gray_word(w)
    assert list(img) == [1, 1]
    assert weight(img, WeightProfile.singletons(2)) == 2


def test_weight_profile_validation():
    with pytest.raises(ValueError):
        WeightProfile((1, 2), 4)  # does not start at 0
    with pytest.raises(ValueError):
        WeightProfile((0, 0), 2)  # not increasing
    with pytest.raises(ValueError):
        weight([1, 0, 0], WeightProfile.singletons(2))


def test_exact_all_ones_span():
    rows = np.ones((1, 9), dtype=np.uint8)
    gm = GeneratorMatrixCode(T3, rows)
    res = min_distance_exact(gm, WeightProfile.singletons(9))
    assert res.value == 9 and res.exact


def test_exact_table1_row1():
    code = build_table1_code(TABLE1[0])
    res = min_distance_exact(code.closure, WeightProfile.mixed(0, 5))
    assert res.value == 3


def test_exact_table2_row9_gray():
    code = build_table2_code(TABLE2[8])
    img = gray_image(code)
    res = min_distance_exact(img.base, WeightProfile.singletons(9))
    assert res.value == 3


def test_exact_zero_code():
    gm = GeneratorMatrixCode(T3, np.zeros((0, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        min_distance_exact(gm, WeightProfile.singletons(4))


def test_budget_refusal_names_requirement():
    code = build_table1_code(TABLE1[6])  # 4^20 codewords
    with pytest.raises(DistanceBudgetError) as info:
        min_distance_exact(code.closure, WeightProfile.mixed(0, 13), budget=1000)
    assert info.value.required == 4**20
    assert info.value.budget == 1000


def test_exact_matches_naive_oracle_randomized():
    rng = random.Random(103)
    checked = 0
    while checked < 150:
        tw = rng.choice((T3, T4))
        alpha, beta = rng.randrange(1, 4), rng.randrange(1, 4)
        code = random_mixed_code(rng, tw, alpha, beta)
        if code.dimension == 0 or code.closure.size > 3**8:
            continue
        profile = WeightProfile.mixed(alpha, beta)
        res = min_distance_exact(code.closure, profile)
        oracle = naive_min_distance(tw.base, code.closure.matrix,
                                    groups_of(profile))
        assert res.value == oracle
        checked += 1


def test_exact_matches_oracle_on_gray_images():
    rng = random.Random(107)
    checked = 0
    while checked < 80:
        code = random_mixed_code(rng, T3, rng.randrange(1, 4), rng.randrange(1, 4))
        if code.dimension == 0 or code.closure.size > 3**7:
            continue
        img = gray_image(code)
        profile = WeightProfile.singletons(img.length)
        res = min_distance_exact(img.base, profile)
        oracle = naive_min_distance(T3.base, img.matrix, groups_of(profile))
        assert res.value == oracle
        checked += 1


def test_partition_split_independence():
    # different suffix sizes must give identical results
    rng = random.Random(109)
    for _ in range(25):
        code = random_mixed_code(rng, T3, rng.randrange(1, 4), rng.randrange(1, 4))
        if code.dimension < 2:
            continue
        profile = WeightProfile.mixed(code.alpha, code.beta)
        values = {
            min_distance_exact(code.closure, profile, suffix_rows=s).value
            for s in range(1, code.dimension + 1)
        }
        assert len(values) == 1


def test_upper_bound_finds_table1_bound_row():
    entry = TABLE1[18]  # q=8, n=17, claimed d=5, |C| = 8^26
    code = build_table1_code(entry)
    res = min_distance_upper(code.closure, WeightProfile.mixed(0, 17), seed=0)
    assert res.value == 5
    assert not res.exact


def test_upper_bound_never_below_exact():
    rng = random.Random(113)
    for _ in range(60):
        code = random_mixed_code(rng, T3, rng.randrange(1, 4), rng.randrange(1, 4))
        if code.dimension == 0:
            continue
        profile = WeightProfile.mixed(code.alpha, code.beta)
        exact = min_distance_exact(code.closure, profile).value
        upper = min_distance_upper(code.closure, profile,
                                   samples=50, seed=rng.randrange(1000)).value
        assert upper >= exact


def test_upper_bound_deterministic_per_seed():
    code = build_table1_code(TABLE1[6])
    profile = WeightProfile.mixed(0, 13)
    a = min_distance_upper(code.closure, profile, samples=1, seed=5)
    b = min_distance_upper(code.closure, profile, samples=1, seed=5)
    assert a == b


def test_singleton_bound_on_computed_distances():
    # d <= n - k + 1 for every enumerated linear code; a violation would
    # mean the engine miscomputed the distance
    rng = random.Random(127)
    for _ in range(200):
        code = random_mixed_code(rng, T3, rng.randrange(1, 4), rng.randrange(1, 4))
        if code.dimension == 0:
            continue
        img = gray_image(code)
        d = min_distance_exact(img.base,
                               WeightProfile.singletons(img.length)).value
        assert d <= img.length - img.rank + 1


def test_weight_kernel_matches_reduceat_oracle():
    rng = random.Random(131)
    nprng = np.random.default_rng(131)
    kinds = set()
    for _ in range(300):
        width = rng.randrange(1, 14)
        profile = random_profile(rng, width)
        kinds.add(profile._pair_split is None)
        block = nprng.integers(0, rng.choice((2, 3, 9)),
                               size=(rng.randrange(0, 40), width), dtype=np.uint8)
        assert np.array_equal(profile.weights(block),
                              reference_weights(profile, block))
    assert kinds == {True, False}  # both the fast path and reduceat ran


def test_weight_kernel_fast_path_split():
    assert WeightProfile.singletons(5)._pair_split == 5
    assert WeightProfile.mixed(3, 2)._pair_split == 3
    assert WeightProfile.mixed(0, 4)._pair_split == 0
    assert WeightProfile((0, 2, 3), 4)._pair_split is None  # pair, then singletons
    assert WeightProfile((0, 1, 4), 6)._pair_split is None  # a triple


def test_upper_sweep_matches_reference_on_random_codes():
    rng = random.Random(137)
    seen = set()
    checked = 0
    while checked < 48:
        tw = SWEEP_TOWERS[checked % len(SWEEP_TOWERS)]
        code = random_mixed_code(rng, tw, rng.randrange(1, 4), rng.randrange(1, 4))
        if code.dimension == 0:
            continue
        profile = WeightProfile.mixed(code.alpha, code.beta)
        assert_upper_matches_reference(code.closure, profile, samples=60,
                                       seed=rng.randrange(1000))
        seen.add(tw.q)
        checked += 1
    assert seen == {2, 3, 4, 5, 7, 8}


def test_upper_sweep_matches_reference_on_table1_row7():
    code = build_table1_code(TABLE1[6])
    res = assert_upper_matches_reference(code.closure, WeightProfile.mixed(0, 13))
    assert res.value == TABLE1[6].expected_d


def test_upper_sweep_chunk_boundaries(monkeypatch):
    # a chunk of 13 rows splits the pairs and triples into many blocks
    # whose sizes do not divide the number of combinations
    monkeypatch.setattr(distance, "_SWEEP_CHUNK", 13)
    rng = random.Random(139)
    checked = 0
    while checked < 12:
        tw = SWEEP_TOWERS[checked % len(SWEEP_TOWERS)]
        code = random_mixed_code(rng, tw, rng.randrange(1, 4), rng.randrange(2, 4))
        if code.dimension < 3:
            continue
        profile = WeightProfile.mixed(code.alpha, code.beta)
        assert_upper_matches_reference(code.closure, profile, samples=20,
                                       seed=checked)
        checked += 1


def test_upper_sweep_small_pools():
    # one and two nonzero rows: the pair and triple combinations run empty
    for rows in ([[1, 0, 2, 0]], [[1, 0, 2, 0], [0, 1, 1, 1]]):
        gm = GeneratorMatrixCode(T3, np.array(rows, dtype=np.uint8))
        assert_upper_matches_reference(gm, WeightProfile.singletons(4), samples=5)
    zero = GeneratorMatrixCode(T3, np.zeros((0, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        min_distance_upper(zero, WeightProfile.singletons(4))
    for count, k in ((0, 2), (1, 2), (2, 3)):
        assert distance._index_tuples(count, k).shape == (0, k)


def test_upper_sweep_skips_triples_past_forty_rows():
    rng = np.random.default_rng(149)
    mat = rng.integers(0, 3, size=(45, 12), dtype=np.uint8)
    gm = GeneratorMatrixCode(T3, mat, spanning_rows=mat)
    pool = np.unique(np.vstack([gm.matrix, mat]), axis=0)
    m = int(np.any(pool, axis=1).sum())
    assert len(np.unique(mat, axis=0)) > 40
    res = assert_upper_matches_reference(gm, WeightProfile.singletons(12),
                                         samples=30, seed=3)
    sampled = int(np.any(np.random.default_rng(3).integers(
        0, 3, size=(30, gm.rank), dtype=np.uint8), axis=1).sum())
    assert res.witnesses_examined == m + 2 * (m * (m - 1) // 2) + sampled
