"""Exact dense linear algebra over a small finite field.

Matrices are 2-D numpy uint8 arrays of field elements; every function
takes the Field as its first argument.  This is the ground-truth engine
behind dimensions, duals and hull dimensions: everything is reduced row
echelon form and kernels.  A kernel is read from an rref and its
pivots, so a stored basis needs no second elimination.  Membership is
rank: a block lies in a row space when stacking it under the basis
leaves the rank as it was (`codes.GeneratorMatrixCode.contains_rows`).

Elimination (`rref` and `rank`, one `_eliminate`) works on rows held
as `bytes`, one byte per entry, so that, as in M4RI's packed rows
(Albrecht, Bard and Hart, ACM TOMS 2010), a row operation acts on the
whole row at once.  A row is scaled by `bytes.translate` through a
256-byte multiply-by-c table, and a + c*b is one big-integer operation
on `int.from_bytes(row, "big")`:

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

Rows are eliminated by leading column, as Faugere and Lachartre order
sparse F4 matrices (PASCO 2010): a byte is 0 exactly when its entry is,
so a row leads at width - len(row.lstrip(b"\0")), and it is reduced
only there, one row operation per pivot it meets, never read where it
is zero.  The pipeline's matrices, x-shifts of two or three generators,
are sparse and full of dependent rows.

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

packed back by place value.  A prime field is the one-digit case, where
Mult[B] is B and the product is (A @ B) mod p, and `matmul` computes it
so: through the digit planes an 8 x 20 F_3 matrix times its transpose
took 11 us against 4.4 us (one core of a 2-core VM), which added about
1% to the algebra workload's 600 Gram products per 300 codes.
Sums of k*m products below p^2 cannot overflow int64, so int64 needs
no exactness argument; float64 BLAS was no faster.  Over the 450 Gram
products of the first 150 algebra-workload codes the digit product takes
0.025 s, and the loop it replaced, one a + c*b table gather per row of
B, took 0.083 to 0.089 s.

The message-order enumerator of row combinations lives here too: the
exact distance engine weighs a small code's words from it, and the
tests' oracles enumerate codewords with it.
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
    and `normal` maps each byte of a lane sum back to the code of the
    field sum, None in characteristic 2, where rows add by XOR."""

    def __init__(self, field):
        p, order = field.p, field.order
        digits = round(math.log(order, p))
        lane = 2 * p - 1
        elements, sums = np.arange(order), np.arange(256)
        if p == 2:
            code, element = elements, np.where(sums < order, sums, 0)
        elif lane**digits <= 256:
            place = np.arange(digits)
            code = (elements[:, None] // p**place % p) @ lane**place
            # the element whose code is each lane sum's digits mod p
            element = (sums[:, None] // lane**place % lane % p) @ p**place
        else:
            raise ValueError(f"no elimination over F_{order}: its lane sums, "
                             f"{digits} digits in base {lane}, do not fit a byte")
        code, element = code.astype(np.uint8), element.astype(np.uint8)
        identity = np.array_equal(code, elements)
        self.encoding = None if identity else code.tobytes().ljust(256, b"\0")
        self.decoding = None if identity else element.tobytes()
        self.normal = None if p == 2 else code[element].tobytes()  # lane sum to code
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


@lru_cache(maxsize=None)
def _byte_rows(field):
    return _ByteRows(field)


def _eliminate(arith, rows, width, above=True):
    """Elimination of byte rows of the given width by leading column.

    Returns (reduced, pivots): the nonzero rows of the rref and the
    pivot column of each.  Each distinct row is inserted once, reduced
    at its lead by that column's pivot row until it is zero or leads
    where none is yet, whose pivot row it becomes, scaled to lead with
    a 1.  With `above` true the pivot rows are back-substituted into the
    rref; else they are an echelon form with the same pivots.  Rows add
    in place, by XOR or by a lane sum and `normal`: a call per step cost
    more than the walk saved on dense rows.  The one elimination of
    `rref`, `rank` and so of membership.
    """
    normal, by_inverse, by_minus = arith.normal, arith.by_inverse, arith.by_minus
    tops = {}  # pivot column: (its pivot row, the row's -c multiples by c)
    for row in dict.fromkeys(rows):
        rest = row.lstrip(b"\0")
        while rest:
            lead, c = width - len(rest), rest[0]
            if lead not in tops:
                tops[lead] = row.translate(by_inverse[c]), {}
                break
            top, multiples = tops[lead]
            m = multiples.get(c)
            if m is None:
                m = multiples[c] = int.from_bytes(top.translate(by_minus[c]), "big")
            lanes = int.from_bytes(row, "big")
            row = ((lanes ^ m).to_bytes(width, "big") if normal is None
                   else (lanes + m).to_bytes(width, "big").translate(normal))
            rest = row.lstrip(b"\0")
    pivots = sorted(tops)
    reduced = [tops[col][0] for col in pivots]
    for j in range(len(pivots) - 1 if above else 0, 0, -1):
        # fresh -c multiples of the row as it now stands, its later pivots cleared
        col, top, multiples = pivots[j], reduced[j], {}
        for i in range(j):
            row = reduced[i]
            c = row[col]
            if c:
                m = multiples.get(c)
                if m is None:
                    m = multiples[c] = int.from_bytes(top.translate(by_minus[c]), "big")
                lanes = int.from_bytes(row, "big")
                reduced[i] = ((lanes ^ m).to_bytes(width, "big") if normal is None
                              else (lanes + m).to_bytes(width, "big").translate(normal))
    return reduced, pivots


def rref(field, mat):
    """Reduced row echelon form: rows inserted by lead, then back-substituted.

    Returns (R, rank, pivots): R is row-equivalent to `mat` with the same
    shape, its first `rank` rows are the nonzero rows, and `pivots` lists
    the pivot column of each of those rows.
    """
    M = as_matrix(mat)
    arith = _byte_rows(field)
    reduced, pivots = _eliminate(arith, arith.encode(M), M.shape[1])
    return arith.decode(reduced, M.shape), len(pivots), pivots


def rank(field, mat):
    """Rank: the pivot count once the rows are inserted (`_eliminate`),
    with no back-substitution and nothing decoded."""
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


def _suffix_block(field, rows):
    """All q^len(rows) combinations of the given rows in message order:
    the combination with coefficients (c_0, ..., c_{k-1}) sits at the
    base-q index c_0 c_1 ... c_{k-1}, the first row most significant."""
    width = rows.shape[1]
    block = np.zeros((1, width), dtype=np.uint8)
    # the multiples c * row, c = 0, ..., q - 1, of each row in turn
    for multiples in field.mul(rows[:, None, :], np.arange(field.order)[:, None]):
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
    right = np.take(mult, B, axis=0).swapaxes(1, 2).reshape(k * d, w * d)
    out = digits[A].reshape(n, k * d) @ right % field.p
    return (out.reshape(n, w, d) @ place).astype(np.uint8)
