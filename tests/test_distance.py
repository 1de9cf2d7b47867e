"""Distance engines against a naive full-enumeration oracle.

The oracle below builds the whole message space row by row and
computes weights group by group in pure Python; it shares no code with
the vectorized engine it checks.  The upper bound, the
Brouwer-Zimmermann search stopped after layer 2, is checked against a
per-combination loop over the messages of weight 1 and 2 of each
systematic form (`reference_upper`), the exact engine, whole-code
weighing and Brouwer-Zimmermann search alike, against a partition loop
over every prefix/suffix split of the message space
(`reference_exact`).  The references weigh expanded rows by
`bitwise_or.reduceat` over the column groups of (alpha, beta)
(`reference_weights`), so they check the engines' packing of each F_q2
pair into one symbol as well as their search.
"""

import random
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from addcyclic import distance, linalg
from addcyclic.codes import (
    GeneratorMatrixCode,
    MixedCode,
    _pack,
    _shift_columns,
    dual,
    is_cyclic,
    load_definition,
    module_closure,
)
from addcyclic.distance import (
    DistanceBudgetError,
    min_distance,
    min_distance_exact,
    min_distance_upper,
)
from addcyclic.fields import tower
from addcyclic.gray import gray_image
from addcyclic.linalg import _suffix_block
from addcyclic.poly import Poly
from addcyclic.tables import TABLE1, TABLE2

from oracles import MixedWord, projections, reference_hull
from test_codes import random_divisor, random_mixed_code, random_pure_code

T3 = tower(3)
T4 = tower(4)
TOWERS = tuple(tower(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16))


def block_stop(tw):
    """Exclusive upper end of random block lengths over `tw` in the
    upper-bound checks: their references build every pair of every form
    one word at a time, and some check the exact distance too, so codes
    above F_8 are kept short."""
    return 4 if tw.q <= 8 else 3


def naive_min_distance(field, matrix, groups):
    """Independent oracle: full message-space enumeration, plain Python
    over the field's addition and multiplication tables as lists.  The
    span is built one row at a time and held by columns: each column of
    the span so far is extended, for c = 1, ..., q - 1, by itself plus c
    times the new row's entry there, so each word is formed once from a
    word of the span so far and a multiple of the new row.  Every message
    but the zero one is weighed, even one whose word is zero."""
    add = field.add_table.tolist()
    mul = field.mul_table.tolist()
    matrix = [list(int(x) for x in row) for row in matrix]
    if not matrix:
        return None
    columns = [[0] for _ in matrix[0]]
    for row in matrix:
        for col, entry in zip(columns, row):
            old = col[:]
            for c in range(1, field.order):
                col += map(add[mul[c][entry]].__getitem__, old)
    weights = [0] * field.order ** len(matrix)
    for grp in groups:
        # one per word whose symbol on this group is nonzero
        weights = list(map(int.__add__, weights, map(any, zip(*(columns[i] for i in grp)))))
    return min(weights[1:], default=None)


def groups_of(alpha, beta):
    """Column groups of the alphabet (alpha, beta): alpha singletons,
    then beta pairs."""
    return ([(i,) for i in range(alpha)]
            + [(alpha + 2 * j, alpha + 2 * j + 1) for j in range(beta)])


def split_of(code):
    """(alpha, beta) of the alphabet a code's words are weighed in, one
    F_q symbol per column for a plain code (beta = 0)."""
    return code.alpha, code.beta


def unpack(tw, alpha, block):
    """Expanded rows of symbol words (alpha F_q symbols, then F_q2
    symbols), each F_q2 symbol split by `decompose` into its pair."""
    block = np.asarray(block)
    b, c = tw.decompose(block[..., alpha:])
    pairs = np.stack([b, c], axis=-1).reshape(*block.shape[:-1], -1)
    return np.concatenate([block[..., :alpha], pairs], axis=-1).astype(np.uint8)


def reference_weights(alpha, beta, block):
    """Symbol weights through bitwise_or.reduceat over groups_of(alpha, beta)."""
    nz = np.asarray(block) != 0
    starts = [group[0] for group in groups_of(alpha, beta)]
    return np.bitwise_or.reduceat(nz, starts, axis=1).sum(axis=1)


def reference_exact(code, suffix_rows):
    """The whole message space split into prefix and suffix rows: every
    prefix message, its coset built by adding the prefix word to the
    suffix block.  Returns the minimum weight."""
    field = code.field
    q = field.order
    r = code.rank
    split = split_of(code)
    suffix = _suffix_block(field, code.matrix[r - suffix_rows :])
    best = int(reference_weights(*split, suffix)[1:].min())
    for msg in product(range(q), repeat=r - suffix_rows):
        if not any(msg):
            continue
        prefix = np.zeros(code.width, dtype=np.uint8)
        for c, row in zip(msg, code.matrix[: r - suffix_rows]):
            if c:
                prefix = field.add(prefix, field.mul(c, row))
        block = field.add(prefix[None, :], suffix)
        best = min(best, int(reference_weights(*split, block).min()))
        if best == 1:
            break
    return best


def reference_candidates(code):
    """Every word of weight 1 or 2 with leading coefficient 1 in each
    systematic form that `_information_sets` yields, built one
    combination at a time, as rows of one block.  The forms are read
    from an unmarked twin of the code, so they are eliminated, never
    shifted."""
    field = code.field
    twin = GeneratorMatrixCode(code.tower, code.matrix, beta=code.beta)
    words = []
    for form, _, _ in distance._information_sets(twin):
        words += list(form)
        for i, j in combinations(form, 2):
            words += [field.add(i, field.mul(c, j)) for c in range(1, field.order)]
    return np.array(words, dtype=np.uint8).reshape(-1, code.width)


def reference_upper(code, split):
    """(value, words) of the upper bound's reference: the lightest of
    `reference_candidates`, weighed in the alphabet `split`, (alpha,
    beta), and how many they are."""
    words = reference_candidates(code)
    return int(reference_weights(*split, words).min()), len(words)


def assert_upper_matches_reference(code, split=None):
    """min_distance_upper against `reference_upper`: the same value, and
    at most the reference's words, all of them unless the search proved
    the distance first.  Then the exact search, which takes the same
    steps and stops at the same word, gives the same value and count."""
    res = min_distance_upper(code)
    value, words = reference_upper(code, split or split_of(code))
    assert res.value == value and not res.exact
    assert res.witnesses_examined <= words
    if res.witnesses_examined < words:
        assert (res.value, res.witnesses_examined) == distance._brouwer_zimmermann(code)
    return res


def random_beta(rng, width):
    """beta with 0 <= 2 * beta <= width: F_q symbols only, F_q2 symbols
    only (even widths) or both."""
    return rng.randrange(width // 2 + 1)


def split_kind(alpha, beta):
    return "pairs" if not alpha else "singletons" if not beta else "mixed"


def test_gray_image_weight_can_exceed_mixed_weight():
    # the word (0 | w) weighs 1 in F_9 symbols and its image (1, 1) 2 in
    # F_3 symbols: the distances of the one-row codes they span
    from addcyclic.gray import gray_rows
    w = MixedWord(T3, (), (T3.omega,))
    img = gray_rows(T3, 0, w.expand()[None])[0]
    assert list(img) == [1, 1]
    mixed = GeneratorMatrixCode(T3, [w.expand()], beta=1)
    assert min_distance_exact(mixed).value == 1
    assert min_distance_exact(GeneratorMatrixCode(T3, [img])).value == 2


def test_exact_all_ones_span():
    rows = np.ones((1, 9), dtype=np.uint8)
    gm = GeneratorMatrixCode(T3, rows)
    res = min_distance_exact(gm)
    assert res.value == 9 and res.exact


def test_exact_table1_row1():
    code = load_definition(TABLE1[0].doc)
    res = min_distance_exact(code.closure)
    assert res.value == 3


def test_exact_table2_row9_gray():
    code = load_definition(TABLE2[8].doc, strict=False)
    img = gray_image(code)
    res = min_distance_exact(img.base)
    assert res.value == 3


def test_exact_zero_code():
    gm = GeneratorMatrixCode(T3, np.zeros((0, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        min_distance_exact(gm)


def test_budget_refusal_names_requirement():
    code = load_definition(TABLE1[6].doc)  # 4^20 codewords
    with pytest.raises(DistanceBudgetError) as info:
        min_distance_exact(code.closure, budget=1000)
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
        res = min_distance_exact(code.closure)
        oracle = naive_min_distance(tw.base, code.closure.matrix,
                                    groups_of(alpha, beta))
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
        res = min_distance_exact(img.base)
        oracle = naive_min_distance(T3.base, img.matrix, groups_of(img.length, 0))
        assert res.value == oracle
        checked += 1


def test_engines_weigh_in_the_code_alphabet():
    # the alphabet comes from the code: mixed closures (alpha, beta),
    # pure closures (0, n), Gray images and their hulls (plain codes,
    # beta = 0, one F_q symbol per column) and the projections (alpha, 0) and
    # (0, beta); both engines against oracles weighing in that alphabet
    rng = random.Random(211)
    covered = [0] * 6
    for trial in range(30):
        tw = (T3, T4)[trial % 2]
        alpha, beta = rng.randrange(1, 4), rng.randrange(1, 4)
        code = random_mixed_code(rng, tw, alpha, beta)
        pure = random_pure_code(rng, tw, rng.randrange(2, 5))
        image = gray_image(code).base
        c_alpha, c_beta = projections(code)
        cases = ((code.closure, alpha, beta), (pure.closure, 0, pure.beta),
                 (image, image.width, 0), (reference_hull(image), image.width, 0),
                 (c_alpha, alpha, 0), (c_beta, 0, beta))
        for i, (gm, a, b) in enumerate(cases):
            if gm.rank == 0 or gm.size > 3**7:
                continue
            oracle = naive_min_distance(gm.field, gm.matrix, groups_of(a, b))
            assert min_distance_exact(gm).value == oracle
            assert_upper_matches_reference(gm, (a, b))
            covered[i] += 1
    assert min(covered) >= 8  # every kind, nonzero hulls included


def test_partition_split_independence():
    # every prefix/suffix split of the reference gives the engine's value
    rng = random.Random(109)
    for _ in range(25):
        code = random_mixed_code(rng, T3, rng.randrange(1, 4), rng.randrange(1, 4))
        if code.dimension < 2:
            continue
        values = {reference_exact(code.closure, s)
                  for s in range(1, code.dimension + 1)}
        assert values == {min_distance_exact(code.closure).value}


# table-1 rows past the default budget, 4^20 to 8^26 words: the upper
# bound exhibits a word of the claimed weight on each
BOUND_ROWS = (7, 8, 9, 12, 14, 15, 16, 17, 18, 19)


@pytest.mark.parametrize("row", BOUND_ROWS)
def test_upper_bound_finds_table1_bound_row(row):
    entry = TABLE1[row - 1]
    code = load_definition(entry.doc)
    assert code.closure.size > distance.DEFAULT_BUDGET
    res = min_distance_upper(code.closure)
    assert res.value == entry.expected_d
    assert not res.exact
    assert min_distance_upper(code.closure) == res


def test_upper_bound_never_below_exact():
    rng = random.Random(113)
    for _ in range(60):
        code = random_mixed_code(rng, T3, rng.randrange(1, 4), rng.randrange(1, 4))
        if code.dimension == 0:
            continue
        exact = min_distance_exact(code.closure).value
        upper = min_distance_upper(code.closure).value
        assert upper >= exact


def test_min_distance_is_exact_within_the_budget():
    code = load_definition(TABLE1[0].doc)  # 4^6 codewords
    res = min_distance(code.closure, budget=4**6)
    assert res == min_distance_exact(code.closure)
    assert res.exact and res.value == 3


def test_min_distance_past_the_budget_is_the_upper_bound():
    code = load_definition(TABLE1[6].doc)  # 4^20 codewords
    res = min_distance(code.closure, budget=1000)
    assert res == min_distance_upper(code.closure)
    assert not res.exact and res.value == 4


def test_layer_cap_refusal_falls_back_to_the_bound(monkeypatch):
    # table-2 row 6's image: the search weighs layers 1..4 of a form of
    # 15 rows over F_3, so it forms layer 2 (2 * C(15, 2) = 210 words)
    # and layer 3 (4 * C(15, 3) = 1820 words), 29 columns each
    img = gray_image(load_definition(TABLE2[5].doc, strict=False))
    for cap, refused in ((210 * 29 - 1, "layer 2 of 210 words"),
                         (210 * 29, "layer 3 of 1820 words")):
        monkeypatch.setattr(distance, "_MAX_LAYER_CELLS", cap)
        with pytest.raises(DistanceBudgetError, match=refused):
            min_distance_exact(img.base)
        res = min_distance(img.base)
        assert res == min_distance_upper(img.base)
        assert not res.exact
    monkeypatch.setattr(distance, "_MAX_LAYER_CELLS", 1820 * 29)
    assert min_distance(img.base) == min_distance_exact(img.base)
    assert min_distance(img.base).value == 8


def test_singleton_bound_on_computed_distances():
    # d <= n - k + 1 for every enumerated linear code; a violation would
    # mean the engine miscomputed the distance
    rng = random.Random(127)
    for _ in range(200):
        code = random_mixed_code(rng, T3, rng.randrange(1, 4), rng.randrange(1, 4))
        if code.dimension == 0:
            continue
        img = gray_image(code)
        d = min_distance_exact(img.base).value
        assert d <= img.length - img.rank + 1


def test_upper_bound_matches_reference_on_random_codes():
    rng = random.Random(137)
    seen = set()
    checked = 0
    while checked < 48:
        tw = TOWERS[checked % len(TOWERS)]
        code = random_mixed_code(rng, tw, rng.randrange(1, 4),
                                 rng.randrange(1, block_stop(tw)))
        if code.dimension == 0:
            continue
        assert_upper_matches_reference(code.closure)
        seen.add(tw.q)
        checked += 1
    assert seen == {tw.q for tw in TOWERS}


def test_upper_bound_matches_reference_on_table1_row7():
    code = load_definition(TABLE1[6].doc)
    res = assert_upper_matches_reference(code.closure)
    assert res.value == TABLE1[6].expected_d


def test_upper_bound_chunk_boundaries(monkeypatch):
    # a block of 13 words splits each form's pairs into many blocks
    # whose sizes do not divide the number of combinations
    monkeypatch.setattr(distance, "_BLOCK_TARGET", 13)
    rng = random.Random(139)
    checked = 0
    while checked < 12:
        tw = TOWERS[checked % len(TOWERS)]
        code = random_mixed_code(rng, tw, rng.randrange(1, 4),
                                 rng.randrange(2, block_stop(tw)))
        if code.dimension < 3:
            continue
        assert_upper_matches_reference(code.closure)
        checked += 1


def test_upper_bound_small_pools():
    # one and two rows: the pair combinations run empty or hold one pair
    for rows in ([[1, 0, 2, 0]], [[1, 0, 2, 0], [0, 1, 1, 1]]):
        gm = GeneratorMatrixCode(T3, np.array(rows, dtype=np.uint8))
        assert_upper_matches_reference(gm)
    zero = GeneratorMatrixCode(T3, np.zeros((0, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        min_distance_upper(zero)


def random_matrix_code(nprng, tw, rank, width, beta=0):
    return GeneratorMatrixCode(
        tw, nprng.integers(0, tw.q, size=(rank, width), dtype=np.uint8),
        beta=beta)


def test_exact_matches_reference_for_every_split():
    # mixed closures, their Gray images and random matrices with random
    # splits over q in {2,...,16}; the reference splits the messages
    # after every row
    rng = random.Random(151)
    nprng = np.random.default_rng(151)
    kinds = set()
    above_one = 0
    checked = 0
    while checked < 100:
        tw = TOWERS[checked % len(TOWERS)]
        if checked % 2:
            code = random_mixed_code(rng, tw, rng.randrange(1, 4), rng.randrange(1, 4))
            gm = code.closure if rng.randrange(2) else gray_image(code).base
        else:
            width = rng.randrange(4, 11)
            gm = random_matrix_code(nprng, tw, rng.randrange(1, 6), width,
                                    random_beta(rng, width))
        if gm.rank == 0 or gm.size > 2**12:
            continue
        kinds.add(split_kind(*split_of(gm)))
        value = min_distance_exact(gm).value
        for s in range(1, gm.rank + 1):
            assert value == reference_exact(gm, s)
            above_one += s < gm.rank and value > 1
        checked += 1
    assert kinds == {"mixed", "singletons", "pairs"}
    assert above_one >= 30  # many runs searched prefixes without an early exit


def leading_one_messages(q, k, weight):
    """Messages over F_q of exactly `weight` nonzero entries, the first
    of them 1."""
    return [m for m in product(range(q), repeat=k)
            if sum(c != 0 for c in m) == weight
            and m[next(i for i, c in enumerate(m) if c)] == 1]


def test_exact_counts_brouwer_zimmermann_words():
    # table-2 row 6, the [29, 15, 8] image: an information set of 15
    # columns and a disjoint one of 14 (k - r = 1).  After layers 1..4
    # of the first form and 1..3 of the second the bound is
    # (4 + 1) + (3 + 1 - 1) = 8 = d, so the search stops there
    img = gray_image(load_definition(TABLE2[5].doc, strict=False))
    assert split_of(img.base) == (29, 0)
    sets = list(distance._information_sets(img.base))
    assert [len(pivots) for _, pivots, _ in sets] == [15, 14]
    layer = [comb(15, w) * 2 ** (w - 1) for w in range(5)]
    res = min_distance_exact(img.base)
    assert res.value == 8 and res.exact
    assert res.witnesses_examined == sum(layer[1:5]) + sum(layer[1:4]) == 15010
    # at most _WHOLE_CODE words: every nonzero word, table-2 row 9
    small = gray_image(load_definition(TABLE2[8].doc, strict=False))
    assert small.base.size <= distance._WHOLE_CODE
    res = min_distance_exact(small.base)
    assert res.witnesses_examined == small.base.size - 1


@pytest.mark.parametrize("row, d, examined", [(16, 7, 5_579_331), (19, 14, 1_748_262)])
def test_brouwer_zimmermann_proves_table1_duals(row, d, examined):
    # the F_q duals (`linalg.kernel`) of table-1 rows 16 and 19 as pure
    # codes, with the budget lifted: d = K + 1, Singleton, found after
    # millions of words weighed in grouped blocks
    code = load_definition(TABLE1[row - 1].doc).closure
    dual = GeneratorMatrixCode(code.tower, linalg.kernel(code.field, code.matrix),
                               beta=code.beta)
    assert d == code.rank // 2 + 1
    res = min_distance_exact(dual, budget=dual.size)
    assert (res.value, res.exact, res.witnesses_examined) == (d, True, examined)


def layer_order(msg):
    """Sort key of a message in its layer: its last row, then the
    message without that entry, then the entry."""
    support = np.flatnonzero(msg)
    if not support.size:
        return ()
    m = support[-1]
    rest = list(msg)
    rest[m] = 0
    return (m, layer_order(rest), msg[m])


def block_words(field, negated, words, lengths):
    """The words a block of `_Layers.weighings` stands for, row-major and
    in layer order: row g's first lengths[g] prefix words, each minus
    its negated multiples in turn."""
    cells = field.sub(words[:, None, None, :], negated[:, :, :, None])
    return np.concatenate([words.T[:0]] + [
        cells[:, :, g, :length].transpose(2, 1, 0).reshape(-1, len(words))
        for g, length in enumerate(lengths)])


def block_cells(negated, words):
    """Cells a block computes, K * G * P."""
    return negated.shape[1] * negated.shape[2] * words.shape[1]


def test_layer_blocks_are_bounded_and_normalized(monkeypatch):
    # symbol words of a beta = 0 code (seven F_q symbols) and of a mixed
    # one (one F_q symbol and three F_q2 symbols packed), combined over F_q
    monkeypatch.setattr(distance, "_BLOCK_TARGET", 10)
    nprng = np.random.default_rng(157)
    for q, packed in ((2, False), (3, False), (4, False), (5, False),
                      (3, True), (4, True)):
        tw = tower(q)
        field = tw.base
        rows = nprng.integers(0, q, size=(5, 7), dtype=np.uint8)
        k = len(rows)
        code = GeneratorMatrixCode(tw, rows, beta=3 if packed else 0)
        layers = distance._Layers(code, rows)
        if packed:
            expand = lambda block: unpack(tw, 1, block)
        else:
            expand = lambda block: block
        for w in range(1, k + 1):
            blocks = list(layers.weighings(w))
            assert all(block_cells(negated, words) <= max(10, q - 1)
                       for negated, words, _ in blocks)
            weighed = np.vstack([expand(block_words(layers.field, *block))
                                 for block in blocks])
            words, ends = layers.layer(w)
            msgs = sorted(leading_one_messages(q, k, w), key=layer_order)
            msgs = np.array(msgs, dtype=np.uint8)
            expected = np.zeros((len(msgs), rows.shape[1]), dtype=np.uint8)
            for t in range(k):
                expected = field.add(expected, field.mul(msgs[:, t : t + 1],
                                                         rows[t : t + 1]))
            assert words.shape[1] == len(msgs) == comb(k, w) * (q - 1) ** (w - 1)
            # the weighings and the formed layer list the words in
            # message order, sorted by the last row they combine
            assert np.array_equal(weighed, expected)
            assert np.array_equal(expand(words.T), expected)
            last_row = np.array([max(np.flatnonzero(m)) for m in msgs])
            assert np.array_equal(ends, [np.sum(last_row <= m) for m in range(k)])


def reference_lightest(best, negated, words, lengths):
    """`_lightest_nonzero` cell by cell: the symbols in which
    words[:, p] and negated[:, c, g] differ, for p < lengths[g]."""
    counted = 0
    for c, g in product(range(negated.shape[1]), range(negated.shape[2])):
        for p in range(lengths[g]):
            weight = sum(int(a != b) for a, b in zip(words[:, p], negated[:, c, g]))
            counted += 1
            if weight:
                best = min(best, weight)
    return best, counted


# no engine passes a best this large: a block that counts no nonzero
# word must leave it as it is
NO_WORD = 10**6


@pytest.mark.parametrize("symbols", [1, 2, 17, 255, 256, 300])
def test_lightest_nonzero_matches_the_cell_by_cell_reference(symbols):
    # staircase prefix lengths (the short rows OR-masked), all lengths
    # full (no mask), with zero words planted inside and outside the
    # prefixes; past 255 symbols the weights are uint16
    nprng = np.random.default_rng(271 + symbols)
    # a small alphabet, so that light words and zero words occur
    values = 2 if symbols > 8 else 3
    for _ in range(6):
        scalars, rows, prefix = (int(v) for v in nprng.integers(1, 6, size=3))
        negated = nprng.integers(0, values, size=(symbols, scalars, rows), dtype=np.uint8)
        words = nprng.integers(0, values, size=(symbols, prefix), dtype=np.uint8)
        staircase = np.sort(nprng.integers(0, prefix + 1, size=rows))
        for lengths in (staircase, [prefix] * rows, list(staircase[::-1])):
            # a zero word in every row, at a random position
            zeroed = words.copy()
            for g in range(rows):
                zeroed[:, nprng.integers(prefix)] = negated[:, nprng.integers(scalars), g]
            for block in (words, zeroed):
                for best in (NO_WORD, symbols + 1, 2):
                    assert (distance._lightest_nonzero(best, negated, block, lengths)
                            == reference_lightest(best, negated, block, lengths))


@pytest.mark.parametrize("symbols", [5, 17, 300])
def test_lightest_nonzero_never_weighs_past_the_prefix(symbols):
    nprng = np.random.default_rng(277 + symbols)
    v0 = nprng.integers(0, 2, size=symbols, dtype=np.uint8)
    light = v0.copy()
    light[0] ^= 1
    # every multiple of every row is v0, every cell inside the staircase
    # prefixes a zero word, which never counts, and the only nonzero cells
    # (weight 1) lie past every row's prefix: best stays as it is
    negated = np.repeat(v0[:, None, None], 2, axis=1).repeat(3, axis=2)
    words = np.column_stack([v0, v0, v0, light])
    for lengths in ([1, 2, 3], [3, 3, 3]):
        expected = (NO_WORD, 2 * sum(lengths))
        assert reference_lightest(NO_WORD, negated, words, lengths) == expected
        assert distance._lightest_nonzero(NO_WORD, negated, words, lengths) == expected
    # rows 1 and 2 are the complement of row 0: row 0's only light cell,
    # weight 1, lies past its prefix of 2, and the lightest counted word
    # is that cell's column against rows 1 and 2
    negated[:, :, 1:] ^= 1
    words = np.column_stack([v0 ^ 1, v0 ^ 1, v0 ^ 1, light])
    expected = (symbols - 1, 2 * 10)
    assert reference_lightest(NO_WORD, negated, words, [2, 4, 4]) == expected
    assert distance._lightest_nonzero(NO_WORD, negated, words, [2, 4, 4]) == expected
    # the same cell inside its prefix is found
    assert distance._lightest_nonzero(NO_WORD, negated, words, [4, 4, 4]) == (1, 24)


def test_lightest_nonzero_of_an_empty_block():
    # no words, or rows whose prefixes are empty: best is unchanged and
    # no word is counted
    negated = np.zeros((4, 2, 3), dtype=np.uint8)
    empty = np.zeros((4, 0), dtype=np.uint8)
    for words, lengths in ((empty, [0, 0, 0]), (np.ones((4, 5), np.uint8), [0, 0, 0])):
        assert distance._lightest_nonzero(7, negated, words, lengths) == (7, 0)
    assert distance._lightest_nonzero(7, negated[:, :, :0], empty, []) == (7, 0)


def counted_cells(negated, words, lengths):
    """The cells (g, p) that `_lightest_nonzero` counts in a block of
    this shape, probed one at a time: in the probe of (g, p) that cell
    weighs 1 and every other cell 2 or 3."""
    _, scalars, rows = negated.shape
    width = words.shape[1]
    counted = []
    for g, p in product(range(rows), range(width)):
        probe_negated = np.ones((3, scalars, rows), dtype=np.uint8)
        probe_negated[0] = 0
        probe_negated[1, :, g] = 0
        probe_words = np.zeros((3, width), dtype=np.uint8)
        probe_words[0] = 1
        probe_words[0, p] = 0
        if distance._lightest_nonzero(4, probe_negated, probe_words, lengths)[0] == 1:
            counted.append((g, p))
    return counted


@pytest.mark.parametrize("max_words", [1, 5, 64, 2**16])
def test_grouped_blocks_list_exactly_the_layer(monkeypatch, max_words):
    # over the F_q rows of a beta = 0 code and packed F_q2 rows: the
    # cells each block counts are the prefix cells of its rows, together
    # the layer's words in layer order, and no block computes more than
    # max(max_words, q - 1) cells
    monkeypatch.setattr(distance, "_BLOCK_TARGET", max_words)
    nprng = np.random.default_rng(163)
    for q, packed in ((2, False), (3, False), (5, False), (3, True), (4, True)):
        tw = tower(q)
        rows = nprng.integers(0, q, size=(6, 5), dtype=np.uint8)
        layers = distance._Layers(GeneratorMatrixCode(tw, rows, beta=2 if packed else 0), rows)
        for w in range(1, len(rows) + 1):
            weighed = []
            for negated, words, lengths in layers.weighings(w):
                assert block_cells(negated, words) <= max(max_words, q - 1)
                prefixes = [(g, p) for g, length in enumerate(lengths)
                            for p in range(length)]
                assert counted_cells(negated, words, lengths) == prefixes
                counted = distance._lightest_nonzero(6, negated, words, lengths)[1]
                assert counted == negated.shape[1] * len(prefixes)
                weighed.append(block_words(layers.field, negated, words, lengths))
            assert np.array_equal(np.vstack(weighed), layers.layer(w)[0].T)


def bz_case_code(rng, nprng, tw, kind):
    """A random code for the Brouwer-Zimmermann checks: kind 0 a mixed
    closure or its Gray image, 1 a random matrix, 2 a random matrix with
    a unit row or a row of weight two (a distance of 1 or 2); a random
    matrix has a random beta or, one time in three, beta = 0."""
    if kind == 0:
        code = random_mixed_code(rng, tw, rng.randrange(1, 4), rng.randrange(1, 5))
        return code.closure if rng.randrange(2) else gray_image(code).base
    rank = rng.randrange(2, 8)
    width = rng.randrange(rank + 1, 3 * rank + 2)
    mat = nprng.integers(0, tw.q, size=(rank, width), dtype=np.uint8)
    if kind == 2:
        mat[0] = 0
        mat[0, rng.sample(range(width), rng.randrange(1, 3))] = 1
    beta = random_beta(rng, width) if rng.randrange(3) else 0
    return GeneratorMatrixCode(tw, mat, beta=beta)


def test_brouwer_zimmermann_matches_reference():
    # the search called directly, whatever the code's size, on F_q
    # symbols, F_q2 symbols and both over q in {2, ..., 16}
    rng = random.Random(181)
    nprng = np.random.default_rng(181)
    kinds, values, partial, checked = set(), set(), 0, 0
    while checked < 240:
        tw = TOWERS[checked % len(TOWERS)]
        gm = bz_case_code(rng, nprng, tw, checked % 3)
        if gm.rank == 0 or gm.size > 3**8:
            continue
        split = split_of(gm)
        value, examined = distance._brouwer_zimmermann(gm)
        assert value == reference_exact(gm, rng.randrange(1, gm.rank + 1))
        assert 1 <= examined <= (gm.size - 1) // (tw.q - 1) * sum(split)
        sets = list(distance._information_sets(gm))
        partial += len(sets) > 1 and len(sets[-1][1]) < gm.rank
        kinds.add(split_kind(*split))
        values.add(value)
        checked += 1
    assert kinds == {"mixed", "singletons", "pairs"}
    assert {1, 2} <= values and max(values) >= 4
    assert partial >= 40  # later information sets short of rank k


def test_information_sets_are_disjoint_and_systematic():
    rng = random.Random(191)
    nprng = np.random.default_rng(191)
    for trial in range(60):
        tw = TOWERS[trial % len(TOWERS)]
        gm = bz_case_code(rng, nprng, tw, trial % 3)
        if gm.rank == 0:
            continue
        split = split_of(gm)
        groups = groups_of(*split)
        group_of = {col: g for g, cols in enumerate(groups) for col in cols}
        seen = set()
        for form, pivots, need in distance._information_sets(gm):
            # same code, and the set's r pivot columns carry an identity
            assert GeneratorMatrixCode(tw, form).equals(gm)
            r = len(pivots)
            assert np.array_equal(form[:r][:, pivots], np.eye(r, dtype=np.uint8))
            assert not form[r:][:, pivots].any()
            held = {group_of[c] for c in pivots}
            assert not held & seen
            seen |= held
            counts = sorted((sum(group_of[c] == g for c in pivots) for g in held),
                            reverse=True)
            for t in range(r + 1):
                assert need[t] == next(m for m in range(len(counts) + 1)
                                       if sum(counts[:m]) >= t)


def test_exact_above_the_cut_matches_reference(monkeypatch):
    # codes of more than _WHOLE_CODE words go to the search; with a block
    # target of 64 words every layer comes in many weighings, none
    # computing more cells
    monkeypatch.setattr(distance, "_BLOCK_TARGET", 64)
    sizes, cells = [], []
    lightest = distance._lightest_nonzero

    def record(best, negated, words, lengths):
        best, counted = lightest(best, negated, words, lengths)
        sizes.append(counted)
        cells.append(block_cells(negated, words))
        return best, counted

    monkeypatch.setattr(distance, "_lightest_nonzero", record)
    rng = random.Random(193)
    nprng = np.random.default_rng(193)
    shapes = ((2, 13, 30), (2, 14, 28), (3, 8, 20), (3, 9, 18), (4, 7, 16), (8, 5, 12),
              (9, 4, 10), (13, 4, 8))
    kinds, checked = set(), 0
    while checked < 24:
        q, rank, width = shapes[checked % len(shapes)]
        # F_q symbols only, F_q2 symbols only, then both, in turn
        beta = (0, width // 2, rng.randrange(1, width // 2))[checked % 3]
        gm = random_matrix_code(nprng, tower(q), rank, width, beta)
        if gm.size <= distance._WHOLE_CODE:
            continue
        sizes.clear()
        cells.clear()
        res = min_distance_exact(gm)
        assert res.witnesses_examined == sum(sizes) < gm.size - 1
        assert max(cells) <= 64
        assert res.value == reference_exact(gm, rank // 2)
        kinds.add(split_kind(*split_of(gm)))
        checked += 1
    assert kinds == {"mixed", "singletons", "pairs"}


@pytest.mark.parametrize("tw", TOWERS, ids=lambda tw: f"q{tw.q}")
def test_symbol_packing_is_fq_linear(tw):
    # the engines weigh F_q2 pairs (b, c) packed as b + q*c: packing must
    # turn F_q differences and F_q multiples of expanded rows into those
    # of F_q2, and count the differing column groups of expanded rows
    rng = random.Random(227 + tw.q)
    nprng = np.random.default_rng(227 + tw.q)
    base, ext = tw.base, tw.ext
    for _ in range(10):
        alpha, beta = rng.randrange(4), rng.randrange(1, 5)
        x, y = nprng.integers(0, tw.q, size=(2, rng.randrange(1, 20), alpha + 2 * beta),
                              dtype=np.uint8)
        c = nprng.integers(0, tw.q, size=(len(x), 1), dtype=np.uint8)

        def pack(block):
            return _pack(tw, alpha, block)

        assert np.array_equal(pack(base.sub(x, y)), ext.sub(pack(x), pack(y)))
        assert np.array_equal(pack(base.mul(c, x)), ext.mul(c, pack(x)))
        assert np.array_equal(unpack(tw, alpha, pack(x)), x)
        # each row of x weighed against the same row of y, a block of
        # one word; a zero word counts but is not the lightest
        none = alpha + beta + 1
        weighed = [distance._lightest_nonzero(none, b[:, None, None], a[:, None], [1])
                   for a, b in zip(pack(x), pack(y))]
        assert weighed == [(int(d) or none, 1)
                           for d in reference_weights(alpha, beta, base.sub(x, y))]


def test_weights_hold_more_than_255_groups():
    # one all-ones row of 300 F_3 symbols, past a uint8 tally, and the
    # same row as 150 F_9 symbols, a tally of symbols and not columns
    ones = np.ones((1, 300), dtype=np.uint8)
    for beta, d in ((0, 300), (150, 150)):
        gm = GeneratorMatrixCode(T3, ones, beta=beta)
        assert min_distance_exact(gm).value == d
        assert min_distance_upper(gm).value == d


def test_budget_applies_to_all_codewords_not_projective_count():
    code = load_definition(TABLE2[8].doc, strict=False)
    gm = gray_image(code).base
    total = 3**gm.rank
    assert (total - 1) // 2 < total - 1  # the projective count would fit
    with pytest.raises(DistanceBudgetError) as info:
        min_distance_exact(gm, budget=total - 1)
    assert info.value.required == total
    assert min_distance_exact(gm, budget=total).value == 3


def test_layer_cap_counts_expanded_columns_of_a_pure_code(monkeypatch):
    # F_q2 symbols only: the search weighs words of 14 symbols, but the
    # cap counts the 28 expanded columns, so layer 3 (336 words) is
    # refused one cell below 336 * 28 and formed at it
    mat = np.random.default_rng(309).integers(0, 3, size=(9, 28), dtype=np.uint8)
    gm = GeneratorMatrixCode(T3, mat, beta=14)
    assert gm.rank == 9 and gm.size > distance._WHOLE_CODE
    monkeypatch.setattr(distance, "_MAX_LAYER_CELLS", 336 * 28 - 1)
    with pytest.raises(DistanceBudgetError, match="layer 3 of 336 words x 28 columns"):
        min_distance_exact(gm)
    monkeypatch.setattr(distance, "_MAX_LAYER_CELLS", 336 * 28)
    res = min_distance_exact(gm)
    assert (res.value, res.witnesses_examined) == (6, 2259)
    assert res.value == reference_exact(gm, 4)


def record_blocks(monkeypatch):
    """A list that collects every block `_lightest_nonzero` weighs."""
    blocks = []
    lightest = distance._lightest_nonzero

    def record(best, *block):
        blocks.append(block)
        return lightest(best, *block)

    monkeypatch.setattr(distance, "_lightest_nonzero", record)
    return blocks


def weighed_words(code, blocks):
    """The words the blocks stand for, over F_q2, as expanded rows."""
    tw = code.tower
    return np.vstack([unpack(tw, code.alpha, block_words(tw.ext, *block))
                      for block in blocks])


def row_set(block):
    return {row.tobytes() for row in np.ascontiguousarray(block, dtype=np.uint8)}


def sorted_rows(block):
    return block[np.lexsort(block.T[::-1])]


def test_upper_bound_weighs_exactly_the_reference_candidates(monkeypatch):
    # random closures and random F_3 and F_4 matrices of rank 6 to 12 (on
    # which the search often weighs both layers of every form): each block
    # stands for the words it counts, over F_q2; expanded, they are the
    # reference candidates, every one of them once, when the search
    # weighs layers 1 and 2 of every form, and some of them when it
    # proves the distance sooner
    blocks = record_blocks(monkeypatch)
    rng, nprng = random.Random(199), np.random.default_rng(199)
    stops, checked = [], 0
    while checked < 36:
        tw = TOWERS[checked % len(TOWERS)]
        if checked % 2:
            gm = random_mixed_code(rng, tw, rng.randrange(1, 3),
                                   rng.randrange(1, block_stop(tw))).closure
        else:
            width = rng.randrange(16, 33)
            gm = random_matrix_code(nprng, (T3, T4)[checked % 4 // 2], rng.randrange(6, 13),
                                    width, random_beta(rng, width))
        if gm.rank < 2:
            continue
        blocks.clear()
        res = min_distance_upper(gm)
        words, candidates = weighed_words(gm, blocks), reference_candidates(gm)
        assert len(words) == res.witnesses_examined
        if len(words) == len(candidates):
            assert np.array_equal(sorted_rows(words), sorted_rows(candidates))
        else:
            assert row_set(words) <= row_set(candidates)
            assert res.witnesses_examined == distance._brouwer_zimmermann(gm)[1]
        stops.append(len(words) < len(candidates))
        checked += 1
    assert 6 <= sum(stops) <= 30  # searches that proved d early, and ones that did not


# -- information sets shifted by x ---------------------------------------------

SHIFT_TOWERS = tuple(tower(q) for q in (2, 3, 4, 5, 7, 8))


def count_rref(monkeypatch):
    """A list whose length is the number of `linalg.rref` calls made
    from here on."""
    calls, rref = [], linalg.rref

    def counted(*args):
        calls.append(args)
        return rref(*args)

    monkeypatch.setattr(linalg, "rref", counted)
    return calls


def shift_case_closures():
    """The 19 table-1 closures, then 72 seeded random closures, pure and
    mixed, over q in {2, 3, 4, 5, 7, 8}."""
    for entry in TABLE1:
        yield load_definition(entry.doc).closure
    rng = random.Random(383)
    for trial in range(72):
        tw = SHIFT_TOWERS[trial // 2 % len(SHIFT_TOWERS)]
        if trial % 2:
            yield random_mixed_code(rng, tw, rng.randrange(1, 7), rng.randrange(2, 9)).closure
        else:
            # k = g of degree n - deg d: F_q-rank 2 deg d, often at most
            # n, so that there are later sets
            n = rng.randrange(3, 13)
            g = Poly.xn_minus_1(tw.base, n) // random_divisor(rng, tw.base, n)
            h = Poly(tw.base, [rng.randrange(tw.q) for _ in range(n)])
            yield MixedCode(tw, 0, n, None, None, g, h, g).closure


def test_shifted_information_sets_are_the_eliminated_ones(monkeypatch):
    # x^t of the previous form is taken only when it is the rref that
    # elimination returns: forms, pivots and need are byte-identical on a
    # closure and on its unmarked twin, which is never shifted, and each
    # refused shift costs one elimination
    calls, tried = count_rref(monkeypatch), []

    def shift(*args):
        tried.append(args)
        return _shift_columns(*args)

    monkeypatch.setattr(distance, "_shift_columns", shift)
    accepted, refused = [0, 0], [0, 0]  # table 1, random closures
    for index, gm in enumerate(shift_case_closures()):
        if gm.rank == 0:
            continue
        assert gm.spanning_rows is not None
        twin = GeneratorMatrixCode(gm.tower, gm.matrix, beta=gm.beta)
        tried.clear()
        eliminated = list(distance._information_sets(twin))
        assert not tried
        calls.clear()
        shifted = list(distance._information_sets(gm))
        assert len(shifted) == len(eliminated)
        for got, want in zip(shifted, eliminated):
            for a, b in zip(got, want):
                assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
        random_code = index >= len(TABLE1)
        accepted[random_code] += len(tried) - len(calls)
        refused[random_code] += len(calls)
    # every later set of table 1 is a shift; the refusals come from the
    # random mixed closures
    assert accepted[0] == 20 and refused[0] == 0
    assert accepted[1] >= 10 and refused[1] >= 10


def test_bound_rows_build_their_information_sets_by_shifting(monkeypatch):
    # the second form of each bound row is x^K of its stored rref; a
    # silent fall back to elimination would call rref once per row
    closures = [load_definition(TABLE1[row - 1].doc).closure for row in BOUND_ROWS]
    calls = count_rref(monkeypatch)
    for row, gm in zip(BOUND_ROWS, closures):
        assert min_distance_upper(gm).value == TABLE1[row - 1].expected_d
    assert not calls


def test_only_module_closures_are_shifted(monkeypatch):
    # the mark, spanning rows, and so the shift, is on every module
    # closure, which is cyclic, and on no code reached another way
    searched, shifts = [], []
    information_sets = distance._information_sets

    def recorded(code):
        searched.append(code)
        return information_sets(code)

    def shift(*args):
        shifts.append(args)
        return _shift_columns(*args)

    monkeypatch.setattr(distance, "_information_sets", recorded)
    monkeypatch.setattr(distance, "_shift_columns", shift)
    rng, nprng = random.Random(389), np.random.default_rng(389)
    for trial in range(36):
        tw = SHIFT_TOWERS[trial % len(SHIFT_TOWERS)]
        alpha, beta = rng.randrange(4), rng.randrange(4)
        if not alpha + beta:
            continue
        rows = nprng.integers(0, tw.q, size=(rng.randrange(1, 3), alpha + 2 * beta))
        gm = module_closure(tw, alpha, beta, rows)
        assert gm.spanning_rows is not None and is_cyclic(gm)
    closure = load_definition(TABLE1[8].doc).closure  # its dual has rank 8
    changed = closure.matrix.copy()  # one basis entry changed
    changed[0, -1] = (changed[0, -1] + 1) % 4
    changed = GeneratorMatrixCode(closure.tower, changed, beta=closure.beta)
    assert not is_cyclic(changed)
    image = gray_image(load_definition(TABLE2[1].doc, strict=False))  # hull of rank 5
    others = [dual(closure), image.base, reference_hull(image.base), changed,
              GeneratorMatrixCode(closure.tower, closure.matrix, beta=closure.beta)]
    for gm in [closure] + others:
        searched.clear()
        shifts.clear()
        min_distance_upper(gm)
        assert searched == [gm]
        assert bool(shifts) == (gm is closure)
        assert (gm.spanning_rows is not None) == (gm is closure)
