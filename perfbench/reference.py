"""The benchmark's own verdict reference.

The published parameters of every table row the benchmark verifies are
copied here, so that a change to the library's tables cannot move the
reference along with the program.  Table 1 rows are (n, (q^2)^K, d)
codes over F_q2; tables 2 and 3 rows are [n, k, d] ternary Gray images.
`d_mode` is how the default run settles the distance: `exact` by
enumeration within the default budget of 2^24 codewords, `bound` by a
witness codeword of weight d.

The digests were taken from the library as first benchmarked; a
mismatch means a report is no longer byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RowReference:
    table: int
    row: int
    n: int
    k_or_size: int   # |C| for table 1, the F_3-dimension k otherwise
    d: int
    d_mode: str

    @property
    def workload(self):
        return "tables-bound" if self.d_mode == "bound" else "tables-exact"


def _t1(row, q, n, K, d, d_mode="exact"):
    return RowReference(1, row, n, (q * q) ** K, d, d_mode)


def _nkd(table, row, n, k, d):
    return RowReference(table, row, n, k, d, "exact")


_ROWS = (
    _t1(1, 4, 5, 3, 3),
    _t1(2, 4, 6, 2, 5),
    _t1(3, 4, 7, 4, 4),
    _t1(4, 4, 8, 5, 4),
    _t1(5, 4, 9, 5, 5),
    _t1(6, 4, 10, 5, 6),
    _t1(7, 4, 13, 10, 4, "bound"),
    _t1(8, 4, 15, 13, 3, "bound"),
    _t1(9, 4, 17, 13, 5, "bound"),
    _t1(10, 8, 5, 3, 3),
    _t1(11, 8, 6, 3, 4),
    _t1(12, 8, 7, 5, 3, "bound"),
    _t1(13, 8, 8, 4, 5),
    _t1(14, 8, 9, 6, 4, "bound"),
    _t1(15, 8, 10, 5, 6, "bound"),
    _t1(16, 8, 11, 6, 6, "bound"),
    _t1(17, 8, 13, 11, 3, "bound"),
    _t1(18, 8, 15, 13, 3, "bound"),
    _t1(19, 8, 17, 13, 5, "bound"),
    _nkd(2, 1, 7, 3, 4),
    _nkd(2, 2, 11, 6, 5),
    _nkd(2, 3, 15, 8, 5),
    _nkd(2, 4, 19, 9, 7),
    _nkd(2, 5, 19, 10, 6),
    _nkd(2, 6, 29, 15, 8),
    # row 7 ([35, 18, 11], 3^18 words) needs --long and is not benchmarked
    _nkd(2, 8, 9, 2, 6),
    _nkd(2, 9, 9, 6, 3),
    _nkd(2, 10, 11, 7, 3),
    _nkd(2, 11, 11, 10, 2),
    _nkd(2, 12, 17, 8, 6),
    _nkd(2, 13, 12, 8, 3),
    _nkd(2, 14, 12, 11, 2),
    _nkd(3, 1, 8, 2, 5),
    _nkd(3, 2, 8, 3, 4),
    _nkd(3, 3, 10, 2, 7),
    _nkd(3, 4, 10, 3, 6),
    _nkd(3, 5, 12, 2, 8),
    _nkd(3, 6, 12, 3, 7),
    _nkd(3, 7, 14, 2, 10),
    _nkd(3, 8, 16, 2, 11),
    _nkd(3, 9, 16, 3, 10),
    _nkd(3, 10, 20, 2, 14),
)

TABLE_ROWS = {(r.table, r.row): r for r in _ROWS}

# sha256 of VerificationReport(entries).to_json() over all rows of the
# workload; the same for every seed, since each bound row's sweep finds
# the claimed d before any sampling
TABLES_DIGESTS = {
    "tables-exact": "0cb50ba42188d61f8b50bc7b0319427d2ae7c0b210d40acf529979bb963a3025",
    "tables-bound": "aad6ef0d63b11a166eafcab6e6a870579836bf992dbd27d70837d0730b87b714",
}

# sha256 of repr([(rank, dual rank, hull rank), ...]) over the first
# ALGEBRA_DIGEST_CODES algebra codes at seed 0
ALGEBRA_DIGEST_SEED = 0
ALGEBRA_DIGEST_CODES = 100
ALGEBRA_DIGEST = "1615c50978d724c4d00098a25852ef4041646c6faa9ee7c0a6e46d19f92e584f"
