"""Exact dense linear algebra over a small finite field.

Matrices are 2-D numpy uint8 arrays of field elements; every function
takes the Field as its first argument.  This is the ground-truth engine
behind dimensions, duals and hulls: everything is reduced row echelon
form, kernels, intersections and row-space tests.  Elimination is
vectorized per pivot: each pivot column costs one normalization of the
pivot row and one `Field.axpy` gather (a + c*b from a single table) over
every other row that is nonzero in that column; a block of candidate
rows is reduced against a stored rref basis, and a matrix product
accumulated, with the same one-gather step.  A kernel is read from an
rref and its pivots, so a stored basis needs no second elimination.  An
intersection of row spaces is one Zassenhaus elimination.

The message-order enumerator of row combinations lives here too, shared
by the codeword lists of `codes` and the distance engines, and a tall
matrix product is built from it by the "Four Russians" table method
(Arlazarov, Dinic, Kronrod and Faradzev, 1970; M4RM in Albrecht, Bard
and Hart, ACM TOMS 2010): each chunk of t consecutive rows of B is
enumerated as its q^t combinations, and every row of A picks its
combination by the base-q value of its t entries, one row gather and one
addition per chunk instead of one a + c*b gather per row of B.  The
chunk width is the largest t with q^t <= rows(A) // 16, so a table
never has more than a sixteenth as many rows as the product; with
t = 1 (under 64 rows at any q) the per-row loop runs.  Measured over
q in {2, 3, 4, 8} with inner dimension 20 and width 30, tables forced
to t = 2 on small products are up to 1.7x slower at 16 rows and break
even at 32 to 64 rows; at 2000 rows the rule's tables are 3x faster
over F_3 and 12 to 28x faster over F_2, F_4 and F_8, where the
additions are XORs.
"""

from __future__ import annotations

import numpy as np


def as_matrix(rows, width=None):
    """Coerce a row list to a uint8 matrix, fixing the width when empty."""
    m = np.asarray(rows, dtype=np.uint8)
    if m.ndim == 2:
        return m
    if m.size == 0:
        return m.reshape(0, width if width is not None else 0)
    raise ValueError("expected a 2-D matrix")


def rref(field, mat):
    """Reduced row echelon form.

    Returns (R, rank, pivots): R is row-equivalent to `mat` with the same
    shape, its first `rank` rows are the nonzero rows, and `pivots` lists
    the pivot column of each of those rows.
    """
    R = as_matrix(mat).copy()
    nrows, ncols = R.shape
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        nonzero = R[:, col].nonzero()[0]
        k = nonzero.searchsorted(r)
        if k == nonzero.size:
            continue
        hit = nonzero[k]
        if hit != r:
            # row r was zero in this column: `others` keeps its indices
            R[[r, hit]] = R[[hit, r]]
        R[r] = field.mul(field.inv(R[r, col]), R[r])
        others = nonzero[nonzero != hit]
        if others.size:
            R[others] = field.axpy(R[others], field.neg(R[others, col, None]), R[r])
        pivots.append(col)
        r += 1
    return R, r, pivots


def rank(field, mat):
    return rref(field, mat)[1]


def kernel(field, mat):
    """Basis of the right null space {v : mat @ v = 0}, one row per vector."""
    R, _, pivots = rref(field, mat)
    return kernel_of_rref(field, R, pivots)


def kernel_of_rref(field, R, pivots):
    """`kernel` of a matrix already in rref, read from its first
    len(pivots) rows and their pivot columns without eliminating again:
    one vector per free column, 1 there and minus that column of R on
    the pivots."""
    pivots = np.asarray(pivots, dtype=np.intp)
    ncols = R.shape[1]
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    out = np.zeros((len(free), ncols), dtype=np.uint8)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = field.neg(R[: len(pivots), free].T)
    return out


def reduce_rows(field, basis, pivots, rows):
    """Residues of a block of rows after elimination against rref basis
    rows, `pivots` giving the pivot column of each basis row.  A row lies
    in the row space of the basis iff its residue is zero."""
    V = as_matrix(rows, width=basis.shape[1]).copy()
    if V.shape[1] != basis.shape[1]:
        raise ValueError(f"row width {V.shape[1]} does not match the basis "
                         f"width {basis.shape[1]}")
    # rref basis rows vanish on each other's pivot columns, so one pass
    # in pivot order clears every pivot column
    for i, pc in enumerate(pivots):
        V = field.axpy(V, field.neg(V[:, pc, None]), basis[i])
    return V


def intersect(field, a, b):
    """Canonical (rref) basis of rowspace(a) ∩ rowspace(b), by one
    Zassenhaus elimination of [A A; B 0].  Its rows are [x + y | x] with
    x in rowspace(a) and y in rowspace(b); those zero on the left have
    x = -y in both spaces.  They are the rref rows whose pivot lies in
    the right half, and their right halves are already in rref."""
    A = as_matrix(a)
    B = as_matrix(b, width=A.shape[1])
    n = A.shape[1]
    if B.shape[1] != n:
        raise ValueError(f"column counts differ: {n} vs {B.shape[1]}")
    stacked = np.vstack([np.hstack([A, A]), np.hstack([B, np.zeros_like(B)])])
    R, r, pivots = rref(field, stacked)
    right = np.asarray(pivots, dtype=np.intp) >= n
    return R[:r][right, n:]


def _scaled(field, rows, scalars):
    """Every scalar multiple of every row: shape (len(scalars), len(rows), width)."""
    scalars = np.asarray(scalars, dtype=np.intp)
    return field.mul(scalars[:, None, None], rows[None, :, :])


def _suffix_block(field, rows):
    """All q^len(rows) combinations of the given rows in message order:
    the combination with coefficients (c_0, ..., c_{k-1}) sits at the
    base-q index c_0 c_1 ... c_{k-1}, the first row most significant."""
    width = rows.shape[1]
    block = np.zeros((1, width), dtype=np.uint8)
    for multiples in _scaled(field, rows, range(field.order)).swapaxes(0, 1):
        block = field.add(block[:, None, :], multiples[None, :, :])
        block = block.reshape(len(block) * field.order, width)
    return block


def _chunk_width(order, nrows):
    """Rows of B per combination table in a product with `nrows` rows of
    A: the largest t >= 1 with order**t <= nrows // 16."""
    t = 1
    while order ** (t + 1) <= nrows // 16:
        t += 1
    return t


def matmul(field, a, b):
    """Matrix product over the field: one a + c*b gather per row of B,
    or, for a tall A, one gather from a combination table per chunk of
    rows of B (module docstring)."""
    A = as_matrix(a)
    B = as_matrix(b)
    if A.shape[1] != B.shape[0]:
        raise ValueError("inner dimensions differ")
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.uint8)
    t = _chunk_width(field.order, A.shape[0])
    if t == 1:
        for k in range(A.shape[1]):
            out = field.axpy(out, A[:, k : k + 1], B[k : k + 1, :])
        return out
    for start in range(0, A.shape[1], t):
        chunk = B[start : start + t]
        # message-order index of each row's digits, the first most significant
        place = field.order ** np.arange(len(chunk) - 1, -1, -1, dtype=np.intp)
        index = A[:, start : start + t] @ place
        out = field.add(out, _suffix_block(field, chunk)[index])
    return out


def determinant(field, mat):
    """Determinant of a square matrix by Gaussian elimination."""
    M = as_matrix(mat).copy()
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("determinant of a non-square matrix")
    det = 1
    for col in range(n):
        below = col + np.flatnonzero(M[col:, col])
        if not below.size:
            return 0
        hit = below[0]
        if hit != col:
            M[[col, hit]] = M[[hit, col]]
            det = int(field.neg(det))
        det = int(field.mul(det, int(M[col, col])))
        rest = below[1:]
        if rest.size:
            factors = field.mul(field.neg(field.inv(M[col, col])), M[rest, col, None])
            M[rest] = field.axpy(M[rest], factors, M[col])
    return det
