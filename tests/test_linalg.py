"""rref/kernel/intersection against brute-force enumeration oracles."""

import random
from itertools import product

import numpy as np
import pytest

from addcyclic import linalg
from addcyclic.codes import GeneratorMatrixCode, _closure_rows
from addcyclic.fields import Field, tower
from addcyclic.gray import gray_rows

from oracles import dot, field_sum, intersect, rows_fq_independent

T3 = tower(3)
F3 = T3.base
F4 = tower(4).base


def span_set(field, mat):
    """Oracle: the row space as a frozenset of coefficient tuples, by
    enumerating all message vectors directly."""
    mat = linalg.as_matrix(mat)
    out = set()
    for msg in product(range(field.order), repeat=mat.shape[0]):
        acc = np.zeros(mat.shape[1], dtype=np.uint8)
        for c, row in zip(msg, mat):
            acc = field.add(acc, field.mul(c, row))
        out.add(tuple(int(x) for x in acc))
    return out


# -- input coercion -----------------------------------------------------------


@pytest.mark.parametrize("build, rows, entry", [
    ("code", np.array([[256, 1, 0]]), "256"),
    ("code", np.array([[258, 1, 1]]), "258"),
    ("code", np.array([[-1, 1, 0]]), "-1"),
    ("code", [[256, 1, 0]], "256"),
    ("code", [[1.5, 1, 0]], "1.5"),
    ("rank", np.array([[256, 1], [0, 1]]), "256"),
    ("code", [[1.0, 0, 0]], "1.0"),
    ("code", [["1", 0, 0]], "'1'"),
    ("code", [[True, False, False]], "True"),
    ("rank", np.array([[1, 0], [0, 1]], dtype=bool), "True"),
])
def test_as_matrix_refuses_entries_a_byte_cannot_hold(build, rows, entry):
    # a bare cast to uint8 would wrap 256 to 0 and truncate 1.5 to 1; a
    # string would be parsed and a bool read as 0 or 1, so only integer
    # arrays are cast, and 1.0 is refused as 1.5 is
    with pytest.raises(ValueError, match=f"entry {entry} at \\(0, 0\\)"):
        if build == "code":
            GeneratorMatrixCode(T3, rows)
        else:
            linalg.rank(F3, rows)


SPANNED = GeneratorMatrixCode(T3, [[1, 1, 0], [0, 1, 1]])


@pytest.mark.parametrize("call, match", [
    (lambda: SPANNED.contains([256, 1, 1]), "entry 256 at"),
    (lambda: SPANNED.contains([1.5, 1, 0]), "entry 1.5 at"),
    (lambda: SPANNED.contains([3, 1, 0]), "entry 3 lies outside F_3"),
    (lambda: SPANNED.contains_rows([[1, 1, 0], [0, 1, 3]]), "entry 3 lies outside F_3"),
    (lambda: gray_rows(T3, 1, [[258, 1, 1]]), "entry 258 at"),
    (lambda: gray_rows(T3, 1, [[0, 1, 3]]), "entry 3 lies outside F_3"),
    (lambda: rows_fq_independent(T3, [[256, 1]]), "entry 256 at"),
    (lambda: rows_fq_independent(T3, [[9, 1]]), "entry 9 lies outside F_9"),
], ids=["contains-256", "contains-1.5", "contains-3", "contains_rows-3",
        "gray_rows-258", "gray_rows-3", "rows_fq_independent-256",
        "rows_fq_independent-9"])
def test_code_inputs_refuse_entries_outside_their_field(call, match):
    # the constructor's check: a cast would wrap 256 to 0 or 258 to 2,
    # and an entry 3 over F_3 is no codeword of any code
    with pytest.raises(ValueError, match=match):
        call()


# -- row-space oracles, built on rank alone -----------------------------------


def row_basis(field, mat):
    """Canonical basis of the row space: the nonzero rows of the rref."""
    return linalg.rref(field, mat)[0]


def in_rowspace(field, mat, vec):
    """Membership of a vector in the row space of `mat`: appending it
    leaves the rank unchanged."""
    v = np.asarray(vec, dtype=np.uint8).reshape(1, -1)
    M = linalg.as_matrix(mat, width=v.shape[1])
    return linalg.rank(field, np.vstack([M, v])) == linalg.rank(field, M)


def rowspace_equal(field, a, b):
    """True iff the two matrices span the same row space."""
    A = linalg.as_matrix(a)
    B = linalg.as_matrix(b, width=A.shape[1])
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"column counts differ: {A.shape[1]} vs {B.shape[1]}")
    ra = row_basis(field, A)
    rb = row_basis(field, B)
    return ra.shape == rb.shape and bool(np.array_equal(ra, rb))


def solve(field, mat, rhs):
    """One solution x of mat @ x = rhs, or None when inconsistent."""
    M = linalg.as_matrix(mat)
    v = np.asarray(rhs, dtype=np.uint8)
    R, pivots = linalg.rref(field, np.hstack([M, v.reshape(-1, 1)]))
    if M.shape[1] in pivots:
        return None
    x = np.zeros(M.shape[1], dtype=np.uint8)
    for i, pc in enumerate(pivots):
        x[pc] = R[i, -1]
    return x


def test_rref_identity():
    eye = np.eye(4, dtype=np.uint8)
    R, pivots = linalg.rref(F3, eye)
    assert pivots == [0, 1, 2, 3] and np.array_equal(R, eye)


def test_rref_example_duplicate_row():
    rows = [(1, 1, 1, 0), (1, 2, 0, 1), (1, 2, 0, 1)]
    R, pivots = linalg.rref(F3, np.array(rows, dtype=np.uint8))
    assert len(pivots) == 2 and R.shape == (2, 4)


def test_rref_zero():
    R, pivots = linalg.rref(F3, np.zeros((3, 5), dtype=np.uint8))
    assert pivots == [] and R.shape == (0, 5)


def test_kernel_invertible():
    assert linalg.kernel(F3, np.eye(3, dtype=np.uint8)).shape == (0, 3)


def test_kernel_zero_row():
    k = linalg.kernel(F3, np.zeros((1, 4), dtype=np.uint8))
    assert k.shape == (4, 4)


def test_kernel_all_ones_brute_force():
    # oracle first: every v in F_3^3 with v0+v1+v2 = 0
    expected = {
        v for v in product(range(3), repeat=3)
        if sum(v) % 3 == 0
    }
    k = linalg.kernel(F3, np.array([[1, 1, 1]], dtype=np.uint8))
    assert k.shape[0] == 2
    for row in k:
        assert int(field_sum(F3, row)) == 0
    assert span_set(F3, k) == expected


def test_kernel_matches_definition_randomized():
    rng = random.Random(3)
    for field in (F3, F4):
        for _ in range(300):
            m = rng.randrange(1, 4)
            n = rng.randrange(1, 6)
            M = np.array([[rng.randrange(field.order) for _ in range(n)]
                          for _ in range(m)], dtype=np.uint8)
            K = linalg.kernel(field, M)
            r = linalg.rank(field, M)
            assert K.shape[0] == n - r  # rank-nullity
            for v in K:
                prod_ = linalg.matmul(field, M, v.reshape(-1, 1))
                assert not prod_.any()


def test_rowspace_equal():
    A = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    assert rowspace_equal(F3, A, A[::-1])
    scaled = np.array([[2, 0], [0, 1]], dtype=np.uint8)
    assert rowspace_equal(F3, A, scaled)
    assert not rowspace_equal(
        F3, np.array([[1, 0]], dtype=np.uint8), np.array([[0, 1]], dtype=np.uint8))


def test_rowspace_equal_shape_mismatch():
    with pytest.raises(ValueError):
        rowspace_equal(F3, np.ones((1, 2), np.uint8), np.ones((1, 3), np.uint8))


def test_intersect_self_and_complementary():
    A = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.uint8)
    assert rowspace_equal(F3, intersect(F3, A, A), A)
    B = np.array([[0, 0, 1]], dtype=np.uint8)
    assert intersect(F3, A, B).shape[0] == 0


def test_intersect_brute_force_oracle():
    rng = random.Random(17)
    for _ in range(40):
        A = np.array([[rng.randrange(3) for _ in range(6)] for _ in range(3)],
                     dtype=np.uint8)
        B = np.array([[rng.randrange(3) for _ in range(6)] for _ in range(4)],
                     dtype=np.uint8)
        got = intersect(F3, A, B)
        expected = span_set(F3, A) & span_set(F3, B)
        assert span_set(F3, got) == expected


def test_dimension_formula_randomized():
    # dim(U∩W) + dim(U+W) = dim U + dim W
    rng = random.Random(23)
    for field in (F3, F4):
        for _ in range(300):
            n = rng.randrange(2, 7)
            A = np.array([[rng.randrange(field.order) for _ in range(n)]
                          for _ in range(rng.randrange(1, 4))], dtype=np.uint8)
            B = np.array([[rng.randrange(field.order) for _ in range(n)]
                          for _ in range(rng.randrange(1, 4))], dtype=np.uint8)
            du = linalg.rank(field, A)
            dw = linalg.rank(field, B)
            dsum = linalg.rank(field, np.vstack([A, B]))
            dint = intersect(field, A, B).shape[0]
            assert dint + dsum == du + dw


def test_solve():
    A = np.array([[1, 2], [0, 1], [1, 0]], dtype=np.uint8)
    x = np.array([2, 1], dtype=np.uint8)
    b = linalg.matmul(F3, A, x.reshape(-1, 1)).ravel()
    got = solve(F3, A, b)
    assert got is not None
    assert np.array_equal(linalg.matmul(F3, A, got.reshape(-1, 1)).ravel(), b)
    assert solve(F3, np.zeros((2, 2), np.uint8), np.array([1, 0], np.uint8)) is None


# -- the row-by-row elimination, kept as the oracle of the vectorized one --


def reference_rref(field, mat):
    """One scalar inverse per pivot and one row update per row."""
    R = linalg.as_matrix(mat).copy()
    nrows, ncols = R.shape
    pivots = []
    r = 0
    for col in range(ncols):
        hit = None
        for i in range(r, nrows):
            if R[i, col]:
                hit = i
                break
        if hit is None:
            continue
        if hit != r:
            R[[r, hit]] = R[[hit, r]]
        R[r] = field.mul(int(field.inv(R[r, col])), R[r])
        for i in range(nrows):
            if i != r and R[i, col]:
                R[i] = field.sub(R[i], field.mul(int(R[i, col]), R[r]))
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return R, r, pivots


def reference_kernel(field, mat):
    ncols = linalg.as_matrix(mat).shape[1]
    R, r, pivots = reference_rref(field, mat)
    free = [c for c in range(ncols) if c not in pivots]
    out = np.zeros((len(free), ncols), dtype=np.uint8)
    for row, fc in enumerate(free):
        out[row, fc] = 1
        for i, pc in enumerate(pivots):
            out[row, pc] = field.neg(int(R[i, fc]))
    return out


# F_27 is no tower's field, but its lane code is the widest that fits a byte
F27 = Field(3, modulus=(1, 2, 0, 1), subfield=Field(3), symbol="u")

# every tower's base field (q from 2 to 16; tower(3).ext is tower(9).base),
# the extensions of order 16, 25, 49, 64 and 256, and F_27: every field
# with byte-row elimination
ORACLE_TOWERS = [tower(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)]
ORACLE_FIELDS = [tw.base for tw in ORACLE_TOWERS] + [
    tower(q).ext for q in (4, 5, 7, 8, 16)] + [F27]


def field_id(field):
    return f"F{field.order}" + (f"/{field.modulus}" if field.modulus else "")


def tall_matrix(field, rng):
    """528 x 44, the shape of the tallest module closure the algebra
    benchmark eliminates: rank at most 24, with repeated rows."""
    q = field.order
    M = linalg.matmul(field, rng.integers(0, q, size=(500, 24), dtype=np.uint8),
                      rng.integers(0, q, size=(24, 44), dtype=np.uint8))
    return np.vstack([M, M[rng.integers(0, len(M), size=28)]])


def leads(M):
    """The leading column of each row, the width for a zero row."""
    return [int(np.flatnonzero(row)[0]) if row.any() else len(row) for row in M]


def oracle_matrices(field, rng):
    """Seeded matrices of every shape class: zero, zero columns, tall,
    wide, square, rank-deficient, repeated rows, already reduced and
    empty, and one 528 x 44 matrix; and the shapes that stress insertion
    by leading column: module closures of sparse generators, rows in
    descending order of lead, and rows that reach zero only after
    several steps."""
    q = field.order

    def rand(m, n):
        return rng.integers(0, q, size=(m, n), dtype=np.uint8)

    yield np.zeros((3, 5), dtype=np.uint8)
    yield np.zeros((0, 4), dtype=np.uint8)
    yield np.zeros((4, 0), dtype=np.uint8)
    yield np.zeros((0, 0), dtype=np.uint8)
    yield tall_matrix(field, rng)
    for _ in range(12):
        m, n = rng.integers(1, 9, size=2)
        M = rand(m, n)
        M[:, rng.integers(0, n, size=rng.integers(0, n + 1))] = 0  # zero columns
        yield M
        yield M[rng.integers(0, m, size=m + 3)]  # repeated rows
        yield rand(int(m) + 8, n)  # tall
        yield rand(m, int(n) + 8)  # wide
        low = linalg.matmul(field, rand(int(m) + 4, 2), rand(2, n))  # rank <= 2
        yield low
        reduced = reference_rref(field, rand(m, n))[0]
        yield reduced  # already in rref
        # one step away from rref: a pivot scaled, a row added to the one
        # above it, a zero row moved up, two rows swapped
        yield from near_rref(field, reduced, rng)
    # drawn apart, so that the matrices above stay as they were drawn
    shapes = np.random.default_rng(field.order)
    for _ in range(8):
        yield from insertion_shapes(field, shapes)


def insertion_shapes(field, rng):
    """The closure of 2 or 3 sparse generators (low-degree polynomials,
    as the code pipeline's), its rows in descending order of lead, and
    a block whose last rows are combinations of all the rows before it
    with every coefficient nonzero, each reaching zero only after one
    step per pivot."""
    q = field.order
    alpha, beta = int(rng.integers(0, 4)), int(rng.integers(1, 6))
    gens = rng.integers(0, q, size=(int(rng.integers(2, 4)), alpha + 2 * beta),
                        dtype=np.uint8)
    gens[rng.random(gens.shape) < 0.6] = 0
    closure = _closure_rows(alpha, beta, gens)
    yield closure
    yield closure[np.argsort(leads(closure), kind="stable")[::-1]]
    top = reference_rref(field, rng.integers(0, q, size=(4, 7), dtype=np.uint8))[0]
    basis = top[top.any(axis=1)]
    coeffs = rng.integers(1, q, size=(3, len(basis)), dtype=np.uint8)
    yield np.vstack([basis[::-1], linalg.matmul(field, coeffs, basis)])


def near_rref(field, R, rng):
    r = int(np.count_nonzero(R.any(axis=1)))
    if r and field.order > 2:
        S = R.copy()
        S[0] = field.mul(int(rng.integers(2, field.order)), S[0])
        yield S
    if r >= 2:
        S = R.copy()
        S[0] = field.add(S[0], S[1])
        yield S
        yield R[[1, 0] + list(range(2, len(R)))]
    if 0 < r < len(R):
        yield np.vstack([R[r:], R[:r]])


def test_rref_matches_row_by_row_reference():
    rng = np.random.default_rng(5)
    for field in ORACLE_FIELDS:
        for M in oracle_matrices(field, rng):
            R, pivots = linalg.rref(field, M)
            Rx, rx, pivx = reference_rref(field, M)
            assert R.dtype == np.uint8 and np.array_equal(R, Rx[:rx])
            assert pivots == pivx
            assert np.array_equal(linalg.kernel(field, M), reference_kernel(field, M))


@pytest.mark.parametrize("tw", ORACLE_TOWERS, ids=lambda tw: f"q{tw.q}")
def test_rref_returns_exactly_the_nonzero_rows_and_their_pivots(tw):
    # one row per pivot, the nonzero rows of the reference's rref, in a
    # buffer of the result's own; a code stores it read-only
    field, rng = tw.base, np.random.default_rng(tw.q)

    def rand(m, n):
        return rng.integers(0, field.order, size=(m, n), dtype=np.uint8)

    reduced = np.hstack([np.eye(3, dtype=np.uint8), rand(3, 3)])  # an rref of rank 3
    mixing = np.tril(rand(3, 3), -1) + np.eye(3, dtype=np.uint8)  # invertible
    cases = {"zero": np.zeros((3, 6), dtype=np.uint8),
             "rank-deficient": linalg.matmul(field, rand(5, 2), rand(2, 6)),
             "duplicate rows": reduced[[0, 1, 1, 2, 0]],
             "full rank": linalg.matmul(field, mixing, reduced)}
    for name, M in cases.items():
        R, pivots = linalg.rref(field, M)
        Rx, rx, pivx = reference_rref(field, M)
        assert R.shape == (len(pivots), M.shape[1]) and pivots == pivx, name
        assert np.array_equal(R, Rx[:rx]) and R.any(axis=1).all(), name
        assert R.flags.writeable and not np.shares_memory(R, M), name
        code = GeneratorMatrixCode(tw, M)
        assert np.array_equal(code.matrix, R) and not code.matrix.flags.writeable, name
    assert len(linalg.rref(field, cases["full rank"])[1]) == 3
    assert linalg.rref(field, cases["duplicate rows"])[0].tobytes() == reduced.tobytes()
    assert linalg.rref(field, cases["zero"])[0].shape == (0, 6)


def test_kernel_of_rref_matches_kernel_on_reduced_input():
    # a stored basis is the nonzero rref rows with a tuple of pivots, as
    # rref returns them and GeneratorMatrixCode keeps them
    rng = np.random.default_rng(13)
    for field in ORACLE_FIELDS:
        full = [np.eye(n, dtype=np.uint8) for n in (1, 4)]
        for M in [*oracle_matrices(field, rng), *full]:
            R, pivots = linalg.rref(field, M)
            expected = reference_kernel(field, M)
            got = linalg.kernel_of_rref(field, R, tuple(pivots))
            assert got.dtype == np.uint8 and np.array_equal(got, expected)
            assert np.array_equal(linalg.kernel(field, R), expected)


def test_echelon_rank_matches_rref_rank():
    # rank counts the pivots once the rows are inserted, before any
    # back-substitution; they must be the pivots of the rref, across XOR
    # and lane rows
    rng = np.random.default_rng(31)
    for field in ORACLE_FIELDS:
        q = field.order
        mats = list(oracle_matrices(field, rng))
        for _ in range(20):
            m, n = (int(x) for x in rng.integers(1, 7, size=2))
            M = rng.integers(0, q, size=(m, n), dtype=np.uint8)
            if rng.random() < 0.3:
                M[int(rng.integers(m))] = 0
            mats += [M, M[rng.permutation(m)], M[[0] + list(range(m - 1))]]
        for M in mats:
            assert linalg.rank(field, M) == len(linalg.rref(field, M)[1])


def reference_reduce_rows(field, basis, pivots, rows):
    """One a - c*b row update per basis row and row of the block."""
    V = linalg.as_matrix(rows, width=basis.shape[1]).copy()
    for v in V:
        for i, pc in enumerate(pivots):
            v[:] = field.sub(v, field.mul(int(v[pc]), basis[i]))
    return V


def test_contains_rows_agrees_with_in_rowspace():
    rng = np.random.default_rng(11)
    for tw in ORACLE_TOWERS:
        field = tw.base
        for _ in range(10):
            k, n = int(rng.integers(1, 5)), int(rng.integers(1, 9))
            gens = rng.integers(0, field.order, size=(k, n), dtype=np.uint8)
            code = GeneratorMatrixCode(tw, gens)
            members = linalg.matmul(
                field, rng.integers(0, field.order, size=(6, k), dtype=np.uint8), gens)
            others = rng.integers(0, field.order, size=(6, n), dtype=np.uint8)
            assert code.contains_rows(members)
            expected = [in_rowspace(field, gens, row) for row in others]
            for row, member in zip(others, expected):
                assert code.contains_rows([row]) == member
            block = np.vstack([members, others])
            assert code.contains_rows(block) == all(expected)


def test_contains_rows_matches_row_by_row_reference():
    # a block is spanned iff the reference leaves every row a zero residue
    rng = np.random.default_rng(17)
    for tw in ORACLE_TOWERS:
        field = tw.base
        for M in oracle_matrices(field, rng):
            width = M.shape[1]
            blocks = [np.zeros((0, width), dtype=np.uint8), np.zeros((3, width), dtype=np.uint8),
                      M, rng.integers(0, field.order, size=(5, width), dtype=np.uint8)]
            for code in (GeneratorMatrixCode(tw, M),
                         GeneratorMatrixCode(tw, np.zeros((0, width), dtype=np.uint8))):
                for V in blocks:
                    residue = reference_reduce_rows(field, code.matrix, code.pivots, V).any(axis=1)
                    assert code.contains_rows(V) is (not residue.any())
                    for row, left in zip(V, residue):
                        assert code.contains_rows([row]) is (not left)


@pytest.mark.parametrize("basis, rows, member", [
    ([], np.zeros((2, 4), np.uint8), True),  # zero rows, empty basis
    ([], [[0, 0, 0, 2]], False),  # any nonzero row, empty basis
    ([[1, 0, 2, 0], [0, 0, 0, 1]], np.zeros((0, 4), np.uint8), True),
    ([[1, 0, 2, 0], [0, 0, 0, 1]], np.zeros((2, 4), np.uint8), True),
    ([[1, 0, 2, 0], [0, 0, 0, 1]], [[2, 0, 1, 1]], True),
    ([[1, 0, 2, 0], [0, 0, 0, 1]], [[0, 1, 0, 0]], False),  # leads off the pivots
    # leads on a pivot, but leaves a residue right of it
    ([[1, 0, 2, 0], [0, 0, 0, 1]], [[1, 0, 0, 0]], False),
    ([[1, 0, 2, 0], [0, 0, 0, 1]], [[2, 0, 1, 1], [1, 0, 2, 2], [2, 0, 2, 1]], False),
], ids=["zero-empty", "nonzero-empty", "no-rows", "zero-rows", "member", "off-pivot",
        "residue", "residue-in-the-last-row"])
def test_contains_rows_on_small_blocks(basis, rows, member):
    basis = np.asarray(basis, dtype=np.uint8).reshape(-1, 4)
    assert GeneratorMatrixCode(T3, basis).contains_rows(rows) is member
    assert all(in_rowspace(F3, basis, row) for row in rows) is member


# -- byte rows: the row code, its scaling tables and its addition --


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=field_id)
def test_byte_row_code_round_trip_and_scaling(field):
    arith = linalg._byte_rows(field)
    elements = np.arange(field.order, dtype=np.uint8)[None, :]
    rows = arith.encode(elements)
    assert np.array_equal(arith.decode(rows, field.order), elements)
    assert np.array_equal(arith.decode(rows * 2, field.order),
                          np.vstack([elements, elements]))
    for c in range(1, field.order):
        code = arith.encode(np.array([[c]], dtype=np.uint8))[0][0]
        for table, factor in ((arith.by_inverse, field.inv_table[c]),
                              (arith.by_minus, field.neg_table[c])):
            scaled = arith.decode([rows[0].translate(table[code])], field.order)
            assert np.array_equal(scaled, field.mul_table[factor, elements])


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=field_id)
def test_byte_row_addition_on_every_pair_without_carries(field):
    """Rows [1, 0 | x] and [1, 1 | y] eliminate to a second pivot row
    [0, 1 | y - x], one add of the row with y and the -1 multiple of the
    row with x.  Every pair (a, b) of x and y sits between lanes where y
    holds q - 1 and x holds -(q - 1), so both lane operands hold every
    base-p digit p - 1 there, the largest lane sum, and a carry out of
    any lane would change its neighbour.  The row is tiled past several
    machine words."""
    arith = linalg._byte_rows(field)
    q = field.order
    a, b = np.divmod(np.arange(q * q), q)
    top = np.full_like(a, q - 1)
    reps = -(-200 // (2 * q * q))
    x = np.tile(np.stack([a, field.neg(top)], axis=1).ravel(), reps).astype(np.uint8)
    y = np.tile(np.stack([b, top], axis=1).ravel(), reps).astype(np.uint8)
    M = np.vstack([np.r_[1, 0, x], np.r_[1, 1, y]]).astype(np.uint8)
    reduced, pivots = linalg._eliminate(arith, arith.encode(M), M.shape[1], above=False)
    assert pivots == [0, 1]
    got = arith.decode(reduced[1:], M.shape[1])[0]
    assert np.array_equal(got, np.r_[0, 1, field.sub(y, x)])


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=field_id)
def test_byte_row_addition_by_field(field):
    # characteristic 2 adds by XOR, with no lane sum to map back; an odd
    # field adds lane codes while (2p - 1)^digits fits a byte
    assert (linalg._byte_rows(field).normal is None) == (field.p == 2)


@pytest.mark.parametrize("field", [tower(q).ext for q in (9, 11, 13)], ids=field_id)
def test_elimination_refuses_fields_whose_lane_sums_pass_a_byte(field):
    # F_81, F_121 and F_169 are no tower's base field; their products
    # still match the per-row reference (test_matmul_matches_per_row_reference)
    M = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    name = f"F_{field.order}"
    for call in (lambda: linalg.rref(field, M), lambda: linalg.rank(field, M)):
        with pytest.raises(ValueError, match=f"no elimination over {name}:"):
            call()


def test_contains_rows_width_mismatch():
    code = GeneratorMatrixCode(T3, np.eye(2, dtype=np.uint8))
    with pytest.raises(ValueError, match="row width 3 does not match the basis width 2"):
        code.contains_rows(np.zeros((1, 3), dtype=np.uint8))


def reference_intersect(field, a, b):
    """Intersection through orthogonal complements, U ∩ W = (U⊥ + W⊥)⊥:
    three kernels and a row basis, kept as the oracle of the Zassenhaus
    elimination."""
    A = linalg.as_matrix(a)
    B = linalg.as_matrix(b, width=A.shape[1])
    stacked = np.vstack([linalg.kernel(field, A), linalg.kernel(field, B)])
    return row_basis(field, linalg.kernel(field, stacked))


def test_intersect_matches_complement_reference():
    rng = np.random.default_rng(13)
    for field in ORACLE_FIELDS:
        q = field.order
        for _ in range(12):
            n = int(rng.integers(1, 9))
            A = rng.integers(0, q, size=(int(rng.integers(0, 6)), n), dtype=np.uint8)
            full = rng.integers(0, q, size=(n + 2, n), dtype=np.uint8)
            low = linalg.matmul(field, rng.integers(0, q, size=(5, 2), dtype=np.uint8),
                                rng.integers(0, q, size=(2, n), dtype=np.uint8))
            shared = linalg.matmul(field, rng.integers(0, q, size=(3, len(A)),
                                                       dtype=np.uint8), A)
            for B in (np.zeros((2, n), np.uint8), np.zeros((0, n), np.uint8),
                      np.eye(n, dtype=np.uint8), full, low,
                      np.vstack([shared, low])):
                for X, Y in ((A, B), (B, A), (low, B)):
                    got = intersect(field, X, Y)
                    assert got.dtype == np.uint8 and got.shape[1] == n
                    assert np.array_equal(got, reference_intersect(field, X, Y))


def test_matmul_matches_entrywise_dot():
    rng = np.random.default_rng(19)
    for field in ORACLE_FIELDS:
        for _ in range(5):
            m, k, n = (int(x) for x in rng.integers(0, 6, size=3))
            A = rng.integers(0, field.order, size=(m, k), dtype=np.uint8)
            B = rng.integers(0, field.order, size=(k, n), dtype=np.uint8)
            expected = np.zeros((m, n), dtype=np.uint8)
            for i in range(m):
                for j in range(n):
                    expected[i, j] = dot(field, A[i], B[:, j]) if k else 0
            assert np.array_equal(linalg.matmul(field, A, B), expected)


# -- the per-row product, kept as the oracle of the digit product


def reference_matmul(field, A, B):
    """One a + c*b step per row of B, read from add_table and mul_table
    directly, so characteristic-2 XOR addition is checked, not used."""
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.uint8)
    for k in range(A.shape[1]):
        out = field.add_table[out, field.mul_table[A[:, k : k + 1], B[k : k + 1, :]]]
    return out


# base fields of order 2 .. 16, extensions of order 16, 64 and 256, and
# the odd-characteristic extensions F_25, F_27, F_49, F_81, F_121 and
# F_169, whose elements have more than one base-p digit
MATMUL_FIELDS = [tower(q).base for q in (2, 3, 4, 5, 7, 8, 9, 16)] + [
    tower(4).ext, tower(8).ext, tower(16).ext] + [
    tower(5).ext, F27, tower(7).ext, tower(9).ext, tower(11).ext, tower(13).ext]


def tall_rows(q):
    """Row counts of the tall products: 2000, and 16 q^2 where that stays
    at most 2^16."""
    return [2000] + ([16 * q**2] if 16 * q**2 <= 2**16 else [])


@pytest.mark.parametrize("field", MATMUL_FIELDS, ids=lambda f: f"F{f.order}")
def test_matmul_matches_per_row_reference(field):
    rng = np.random.default_rng(field.order)
    q = field.order
    for m in [0, 1, 63, 64, 65, 127, 128] + tall_rows(q):
        for k in (0, 1, 2, 3, 26):
            for n in (0, 7):
                A = rng.integers(0, q, size=(m, k), dtype=np.uint8)
                B = rng.integers(0, q, size=(k, n), dtype=np.uint8)
                got = linalg.matmul(field, A, B)
                assert got.dtype == np.uint8 and got.shape == (m, n)
                assert np.array_equal(got, reference_matmul(field, A, B)), (m, k, n)


@pytest.mark.parametrize("field", MATMUL_FIELDS, ids=lambda f: f"F{f.order}")
def test_tall_matmul_gathers_the_last_table_row(field):
    """A of all q - 1 at the tall shapes: each row of A is the message
    of the last row of the message-order combination table
    (`_suffix_block`), every base-p digit of its entries is p - 1, the
    largest, and the inner dimension is odd."""
    rng = np.random.default_rng(field.order + 2)
    q = field.order
    for m in tall_rows(q):
        A = np.full((m, 7), q - 1, dtype=np.uint8)
        for B in (rng.integers(0, q, size=(7, 7), dtype=np.uint8),
                  np.full((7, 7), q - 1, dtype=np.uint8)):
            assert np.array_equal(linalg.matmul(field, A, B), reference_matmul(field, A, B))


@pytest.mark.parametrize("field", MATMUL_FIELDS, ids=lambda f: f"F{f.order}")
def test_matmul_of_transposed_and_sliced_operands(field):
    """Non-contiguous views, as the Gram products of `lcd` pass them."""
    rng = np.random.default_rng(field.order + 1)
    R = rng.integers(0, field.order, size=(30, 20), dtype=np.uint8)
    tall = rng.integers(0, field.order, size=(2000, 12), dtype=np.uint8)
    for A, B in ((R, R.T), (R[:, 3:11], R[:8, ::2]), (R[::3, 1::2], R.T[:10, 5:]),
                 (tall[:, 2:9], R[:7, ::3]), (tall[::2, ::2], R[:6])):
        assert not (A.flags.c_contiguous and B.flags.c_contiguous)
        assert np.array_equal(linalg.matmul(field, A, B), reference_matmul(field, A, B))


def test_matmul_with_a_long_inner_dimension_over_f13():
    """Sums of 2,500 products of the largest digits, and random ones."""
    field = tower(13).base
    rng = np.random.default_rng(13)
    for A, B in ((np.full((6, 2500), 12, np.uint8), np.full((2500, 5), 12, np.uint8)),
                 (rng.integers(0, 13, size=(40, 2048), dtype=np.uint8),
                  rng.integers(0, 13, size=(2048, 9), dtype=np.uint8))):
        assert np.array_equal(linalg.matmul(field, A, B), reference_matmul(field, A, B))
