"""Exact dense linear algebra over a small finite field.

Matrices are 2-D numpy uint8 arrays of field elements; every function
takes the Field as its first argument.  This is the ground-truth engine
behind dimensions, duals and hulls: everything is reduced row echelon
form, kernels and row-space tests.  A kernel is read from an rref and
its pivots, so a stored basis needs no second elimination.

Elimination (`rref`, `rank`, and `reduce_rows` against a stored rref
basis) works on rows held as `bytes`, one byte per entry, so that,
as in M4RI's packed rows (Albrecht, Bard and Hart, ACM TOMS 2010), a
row operation acts on the whole row at once.  A row is scaled by
`bytes.translate` through a 256-byte multiply-by-c table, and a + c*b
is one big-integer operation on `int.from_bytes(row, "big")`:

- characteristic 2: XOR, as the packed codes add digit by digit mod 2
  (see `fields`);
- odd characteristic: the entry is held in a lane code, its base-p
  digits d_i read as the digits sum d_i (2p-1)^i.  A lane digit of a
  sum of two codes is at most 2p - 2, so lanes never carry, and while
  (2p-1)^digits <= 256 a row adds as one integer and one `translate`
  maps each byte's lane sum back to the code of the field sum.  That
  covers the prime fields up to 13 (whose code is the element), F_9,
  F_25, F_27 and F_49.

Elimination over F_81, F_121 or F_169, whose lane sums would not fit a
byte, raises a ValueError naming the field.  None of them is a tower's
base field, and the codes are F_q-linear, so nothing eliminates over
them; `matmul` still serves them.

The tables are built on a field's first elimination.  Repeated and zero
rows are dropped before eliminating, and rows that reach zero as it
goes; the rref, whose other rows are zero, does not change.  On the
small matrices of the code pipeline this costs a fraction of the numpy
call overhead of one vectorized gather per pivot.

A matrix product is one int64 product over base-p digit planes.  The
F_p coordinates of an element of F_(p^m) are its base-p digits on both
tower levels (see `fields`), and x -> x*b is F_p-linear, so with
digits(A) of shape (n, k*m) and Mult[B] of shape (k*m, w*m), whose
block (i, j) is the m x m matrix of multiplication by B[i, j],

    digits(A B) = digits(A) @ Mult[B]  mod p,

packed back by place value.  Over a prime field this is (A @ B) mod p.
Sums of k*m products below p^2 cannot overflow int64, so int64 needs
no exactness argument; float64 BLAS was no faster.  Over the 450 Gram
products of the first 150 algebra-workload codes the digit product takes
0.025 s, and the loop it replaced, one a + c*b table gather per row of
B, took 0.083 to 0.089 s.

The message-order enumerator of row combinations lives here too, shared
by the codeword lists of `codes` and the exact distance engine.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


_BYTES = np.arange(256)


def as_matrix(rows, width=None, field=None):
    """Coerce a row list to a uint8 matrix, fixing the width when empty.
    A uint8 array is taken as it is; any other input must hold integers
    in 0..255, so that no entry wraps round in the cast.  Given a field,
    an entry past its order is refused too."""
    m = np.asarray(rows)
    if m.dtype != np.uint8:
        outside = ~np.isin(m, _BYTES)
        if outside.any():
            at = tuple(int(i) for i in np.argwhere(outside)[0])
            raise ValueError(f"entry {m[at].item()!r} at {at} is not an "
                             "integer in 0..255")
        m = m.astype(np.uint8)
    if field is not None and (m >= field.order).any():
        raise ValueError(f"entry {m.max()} lies outside F_{field.order}")
    if m.ndim == 2:
        return m
    if m.size == 0:
        return m.reshape(0, width if width is not None else 0)
    raise ValueError("expected a 2-D matrix")


class _ByteRows:
    """Row arithmetic of one field on rows held as bytes (module
    docstring).  A byte is the code of an entry, 0 for zero: the element
    itself, or its lane code.  `encode` and `decode` move between uint8
    matrices and lists of such rows, `by_inverse[c]` and `by_minus[c]`
    are the `translate` tables scaling a row by 1/c and -c (c a code),
    and `add(row, int.from_bytes(other, "big"))` is row + other."""

    def __init__(self, field):
        p, order = field.p, field.order
        digits = round(math.log(order, p))
        lane = 2 * p - 1
        elements, sums = np.arange(order), np.arange(256)
        if p == 2:
            code, element = elements, np.where(sums < order, sums, 0)
            self.add = self._add_xor
        elif lane**digits <= 256:
            place = np.arange(digits)
            code = (elements[:, None] // p**place % p) @ lane**place
            # the element whose code is each lane sum's digits mod p
            element = (sums[:, None] // lane**place % lane % p) @ p**place
            self.add = self._add_lanes
        else:
            raise ValueError(f"no elimination over F_{order}: its lane sums, "
                             f"{digits} digits in base {lane}, do not fit a byte")
        code, element = code.astype(np.uint8), element.astype(np.uint8)
        identity = np.array_equal(code, elements)
        self.encoding = None if identity else code.tobytes().ljust(256, b"\0")
        self.decoding = None if identity else element.tobytes()
        self.normal = code[element].tobytes()  # a lane sum to its code
        scaled = code[field.mul_table[:, element]]  # row c: x to c*x
        self.by_inverse, self.by_minus = [None] * 256, [None] * 256
        for c in range(1, order):
            self.by_inverse[code[c]] = scaled[field.inv_table[c]].tobytes()
            self.by_minus[code[c]] = scaled[field.neg_table[c]].tobytes()

    def encode(self, mat):
        """The rows of a uint8 matrix as byte rows."""
        data = mat.tobytes()
        if self.encoding is not None:
            data = data.translate(self.encoding)
        width = mat.shape[1]
        return [data[i * width : (i + 1) * width] for i in range(mat.shape[0])]

    def decode(self, rows, shape):
        """The uint8 matrix of the given shape whose first rows are the
        byte rows given, and the rest zero."""
        data = b"".join(rows)
        if self.decoding is not None:
            data = data.translate(self.decoding)
        data = bytearray(data.ljust(shape[0] * shape[1], b"\0"))
        return np.frombuffer(data, dtype=np.uint8).reshape(shape)

    @staticmethod
    def _add_xor(row, operand):
        return (int.from_bytes(row, "big") ^ operand).to_bytes(len(row), "big")

    def _add_lanes(self, row, operand):
        lanes = int.from_bytes(row, "big") + operand
        return lanes.to_bytes(len(row), "big").translate(self.normal)


@lru_cache(maxsize=None)
def _byte_rows(field):
    return _ByteRows(field)


def _eliminate(arith, rows, width, above=True):
    """Gauss-Jordan elimination of byte rows of the given width.

    Returns (reduced, pivots): the nonzero rows of the rref and the
    pivot column of each.  Repeated and zero rows are dropped first, and
    rows that reach zero as they go; neither changes the rref, whose
    other rows are zero.  With `above` false each pivot column is
    cleared below the pivot only, which leaves an echelon form, not the
    rref, but the same pivots in about half the row operations.
    """
    zero = bytes(width)
    rows = [row for row in dict.fromkeys(rows) if row != zero]
    n = len(rows)
    add, by_inverse, by_minus = arith.add, arith.by_inverse, arith.by_minus
    pivots = []
    r = 0
    for col in range(width):
        if r == n:
            break
        hit = r
        while hit < n and not rows[hit][col]:
            hit += 1
        if hit == n:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        top = rows[r].translate(by_inverse[rows[r][col]])
        rows[r] = zero  # skipped below, as its entry is 0
        # -c times the pivot row, prepared once per factor c
        multiples = {}
        for i in range(0 if above else r + 1, n):
            row = rows[i]
            c = row[col]
            if c:
                m = multiples.get(c)
                if m is None:
                    m = multiples[c] = int.from_bytes(top.translate(by_minus[c]), "big")
                rows[i] = add(row, m)
        rows[r] = top
        pivots.append(col)
        r += 1
        if zero in rows:
            rows = [row for row in rows if row != zero]
            n = len(rows)
    return rows[:r], pivots


def rref(field, mat):
    """Reduced row echelon form.

    Returns (R, rank, pivots): R is row-equivalent to `mat` with the same
    shape, its first `rank` rows are the nonzero rows, and `pivots` lists
    the pivot column of each of those rows.
    """
    M = as_matrix(mat)
    arith = _byte_rows(field)
    reduced, pivots = _eliminate(arith, arith.encode(M), M.shape[1])
    return arith.decode(reduced, M.shape), len(pivots), pivots


def rank(field, mat):
    """Rank: the pivot count of the elimination below the pivots only,
    with nothing decoded."""
    M = as_matrix(mat)
    arith = _byte_rows(field)
    return len(_eliminate(arith, arith.encode(M), M.shape[1], above=False)[1])


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
    V = as_matrix(rows, width=basis.shape[1])
    if V.shape[1] != basis.shape[1]:
        raise ValueError(f"row width {V.shape[1]} does not match the basis "
                         f"width {basis.shape[1]}")
    arith = _byte_rows(field)
    add, by_minus = arith.add, arith.by_minus
    steps = [(pc, row, {}) for pc, row in zip(pivots, arith.encode(basis))]
    residues = []
    for v in arith.encode(V):
        # rref basis rows vanish on each other's pivot columns, so one
        # pass in pivot order clears every pivot column
        for pc, row, multiples in steps:
            c = v[pc]
            if c:
                m = multiples.get(c)
                if m is None:
                    m = multiples[c] = int.from_bytes(row.translate(by_minus[c]), "big")
                v = add(v, m)
        residues.append(v)
    return arith.decode(residues, V.shape)


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


@lru_cache(maxsize=None)
def _digit_planes(field):
    """(place, digits, mult): the place values of an element's base-p
    digits, which are its F_p coordinates (see `fields`), the digits of
    each element x at digits[x], and at mult[b] the matrix of the
    F_p-linear map x -> x*b, whose row i is the digits of p^i * b."""
    p = field.p
    place = p ** np.arange(round(math.log(field.order, p)))
    digits = np.arange(field.order)[:, None] // place % p
    return place, digits, digits[field.mul_table[place]].swapaxes(0, 1)


def matmul(field, a, b):
    """Matrix product over the field: one int64 product, of the entries
    over a prime field, else of their digit planes (module docstring)."""
    A = as_matrix(a)
    B = as_matrix(b)
    if A.shape[1] != B.shape[0]:
        raise ValueError("inner dimensions differ")
    if field.order == field.p:
        return (A.astype(np.int64) @ B % field.p).astype(np.uint8)
    (n, k), w = A.shape, B.shape[1]
    place, digits, mult = _digit_planes(field)
    d = len(place)
    # block (i, j) of the right factor is the matrix of x -> x*B[i, j]
    right = mult[B].swapaxes(1, 2).reshape(k * d, w * d)
    out = digits[A].reshape(n, k * d) @ right % field.p
    return (out.reshape(n, w, d) @ place).astype(np.uint8)
