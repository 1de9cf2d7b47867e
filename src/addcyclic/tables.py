"""Built-in reference tables of codes and the verification harness.

Three tables ship with the library.  Each row holds its code as the JSON
document the CLI reads with `--input`, the generator and matrix literals
copied from its source:

  table 1 — definition documents of additive cyclic codes over F_q2
            (q = 4 and 8) claimed to attain the Singleton bound, rows
            (n, (q^2)^K, d);
  table 2 — definition documents of mixed-alphabet additive cyclic codes
            with block lengths [alpha, beta], rows [n, k, d] for their
            Gray images over F_3;
  table 3 — matrix documents of raw mixed generator matrices, with LCD
            claims, rows [n, k, d] for the Gray image.

verify_all builds every row from its document, through
`codes.load_definition` or `codes.load_matrix_document`, and classifies
each claim as exactly verified or bound-verified.  Every row goes
through verify_entry, which builds its report and records its
mismatches; the table's own checks add to them.  Sizes always come from
the module-closure rank.  Every distance, of a table-1 code or of a
table-2 or table-3 Gray image, is settled by one step,
`distance.min_distance`: exact within the q^rank codeword budget and
the exact search's memory cap, else the upper bound, which verifies
the claim when it finds a word of the claimed weight.
"Optimal" and "BKLC" remarks reference external databases and are
stored as metadata only — they are never part of pass/fail.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import ClassVar

from .codes import load_definition, load_matrix_document, singleton_check
from .distance import DEFAULT_BUDGET, min_distance
# unused here: the benchmark's tracer test reads tables.min_distance_exact
# as its example of a name bound in a second module
from .distance import min_distance_exact  # noqa: F401
from .gray import QUASI_CYCLIC_3, gray_image, shift_invariance_check
from .lcd import _rows_certificate, is_lcd

OPTIMALITY_NOTE = (
    "Optimal/BKLC remarks cite external code databases and are recorded as "
    "metadata only; they are excluded from pass/fail."
)


@dataclass(frozen=True)
class TableEntry:
    """One table row: its claims, and its code as the JSON text of a
    definition document (tables 1 and 2) or a matrix document (table 3),
    which `addcyclic params` and `addcyclic lcd` read as it stands."""

    table_id: int
    row: int
    expected_n: int
    expected_k: int          # F_q-dimension (table 1: 2K, the F_q2-expansion)
    expected_d: int
    document: str
    remark: str = ""
    footnotes: tuple = ()

    @property
    def doc(self) -> dict:
        """The document, parsed afresh: editing it leaves the table as it is."""
        return json.loads(self.document)

    @property
    def q(self) -> int:
        return self.doc["q"]


def _t1(row, q, n, g, h, k, K, d):
    doc = {"q": q, "beta": n, "g": g, "h": h, "k": k}
    return TableEntry(1, row, n, 2 * K, d, json.dumps(doc))


TABLE1 = (
    _t1(1, 4, 5, "1", "x^2+ux", "x^4+x^3+x^2+x+1", 3, 3),
    _t1(2, 4, 6, "x^2+u", "x^4+x^3+ux+u^2", "x^6+1", 2, 5),
    _t1(3, 4, 7, "1", "x^3+ux^2+x", "x^6+x^5+x^4+x^3+x^2+x+1", 4, 4),
    _t1(4, 4, 8, "1", "x^3+x^2+ux", "x^6+x^4+x^2+1", 5, 4),
    _t1(5, 4, 9, "1", "x^5+x^4+x^3+ux",
        "x^8+ux^7+u^2x^6+x^5+ux^4+u^2x^3+x^2+ux+u^2", 5, 5),
    _t1(6, 4, 10, "1", "x^7+x^6+x^5+ux^3+x^2+u^2x", "x^10+1", 5, 6),
    _t1(7, 4, 13, "1", "x^5+x^3+ux^2+u^2x", "x^6+ux^5+u^2x^3+ux+1", 10, 4),
    _t1(8, 4, 15, "1", "x^2+x", "x^4+x+u^2", 13, 3),
    _t1(9, 4, 17, "1", "x^7+x^6+ux^3+u^2x",
        "x^8+ux^7+ux^5+ux^4+ux^3+ux+1", 13, 5),
    _t1(10, 8, 5, "1", "x^2+ux", "x^4+x^3+x^2+x+1", 3, 3),
    _t1(11, 8, 6, "1", "x^3+x^2+ux", "x^6+1", 3, 4),
    _t1(12, 8, 7, "1", "x^2+x", "x^4+u^5x^3+u^4x^2+x+u^4", 5, 3),
    _t1(13, 8, 8, "1", "x^4+x^3+ux^2+u^3x", "x^8+1", 4, 5),
    _t1(14, 8, 9, "1", "x^3+x^2+ux",
        "x^6+u^6x^5+ux^4+u^5x^3+ux^2+u^6x+1", 6, 4),
    _t1(15, 8, 10, "1", "x^5+x^4+ux^3+u^6x^2+u^2x", "x^10+1", 5, 6),
    _t1(16, 8, 11, "1", "x^6+x^4+ux^3+u^5x^2+x",
        "x^10+x^9+x^8+x^7+x^6+x^5+x^4+x^3+x^2+x+1", 6, 6),
    _t1(17, 8, 13, "1", "x^2+x", "x^4+u^6x^3+u^3x^2+u^6x+1", 11, 3),
    _t1(18, 8, 15, "1", "x^2+ux", "x^4+x^3+1", 13, 3),
    _t1(19, 8, 17, "1", "x^6+ux^5+u^3x^3+ux^2+u^3x",
        "x^8+x^5+x^4+x^3+1", 13, 5),
)


def _t2(row, s, g, h, k, l, alpha, beta, n, kdim, d, remark, foot):
    doc = {"q": 3, "alpha": alpha, "beta": beta,
           "s": s, "l": l, "g": g, "h": h, "k": k}
    return TableEntry(2, row, n, kdim, d, json.dumps(doc), remark, foot)


def _ones(deg):
    return "+".join(f"x^{d}" if d > 1 else ("x" if d == 1 else "1")
                    for d in range(deg, -1, -1))


TABLE2 = (
    _t2(1, "1", "x+2", "x+2", "x^3+2", "x^2+x+1",
        1, 3, 7, 3, 4, "Optimal", ()),
    _t2(2, "1", "1", "x^2+2x+2", "x^5+2", "x^2+(2w+2)x+w+1",
        1, 5, 11, 6, 5, "Optimal", ()),
    # the source table writes y for x in l(x); the parser accepts the alias
    _t2(3, "1", _ones(6), "x^7+2", "x^7+2",
        "(2w+2)x^4+(w+1)y^3+2wy^2+(w+2)y+w+1",
        1, 7, 15, 8, 5, "Optimal", ("b", "‡")),
    _t2(4, "1", _ones(8), "x^9+2", "x^9+2",
        "x^4+(2w+1)x^3+(2w+1)x^2+(w+2)x+w",
        1, 9, 19, 9, 7, "Optimal", ("b", "‡")),
    _t2(5, "1", _ones(8), "x^9+2", "x^9+2",
        "x^4+(2w+1)x^3+(2w+1)x^2+(w+2)x+2w+2",
        1, 9, 19, 10, 6, "Optimal", ("‡",)),
    _t2(6, "1", _ones(13), "x^14+2", "x^14+2",
        "(w+1)x^4+2wx^2+x+w",
        1, 14, 29, 15, 8, "BKLC", ("‡",)),
    _t2(7, "1", _ones(16), "x^17+2", "x^17+2",
        "wx^8+(2w+2)x^7+wx^6+(w+1)x^5+(w+2)x^3+(w+2)x^2+(w+2)x+2w",
        1, 17, 35, 18, 11, "Optimal", ()),
    _t2(8, "x^2+x+1", "x^3+2", "2x^2+2x+2", "x^3+2",
        "(w+1)x^2+(w+1)x+(w+1)",
        3, 3, 9, 2, 6, "Optimal", ("a", "‡")),
    _t2(9, "1", "1", "x", "x^3+2", "2w+2",
        3, 3, 9, 6, 3, "Optimal", ("a", "b")),
    _t2(10, "x+2", "1", "x", "x^3+2x^2+x+2", "x+2w",
        3, 4, 11, 7, 3, "Optimal", ("‡",)),
    _t2(11, "1", "1", "x^3+x^2+2x", "x^3+2x^2+x+2", "(2w+1)x^3+2x",
        3, 4, 11, 10, 2, "MDS", ("b",)),
    _t2(12, "x^2+x+1", _ones(6), "x^7+2", "x^7+2",
        "(w+2)x^5+x^4+(2w+2)x^3+wx^2+2",
        3, 7, 17, 8, 6, "Optimal", ("b", "‡")),
    _t2(13, "1", "1", "x", "x^4+2", "2w+2",
        4, 4, 12, 8, 3, "Optimal", ("a", "b", "‡")),
    # the source table carries a stray ')' at the end of l(x); dropped
    _t2(14, "1", "1", "x", "x+2", "(2w+2)x^3+wx^2+(2w+1)x",
        4, 4, 12, 11, 2, "MDS", ("a",)),
)


def _t3(row, alpha, beta, rows, n, kdim, d, remark):
    doc = {"q": 3, "alpha": alpha, "beta": beta, "rows": rows}
    return TableEntry(3, row, n, kdim, d, json.dumps(doc), remark)


TABLE3 = (
    _t3(1, 4, 2, [("1", "1", "1", "0", "w", "w"),
                  ("1", "2", "0", "1", "2", "w+1")],
        8, 2, 5, "Optimal"),
    _t3(2, 4, 2, [("1", "1", "1", "0", "w", "w+1"),
                  ("1", "2", "0", "1", "w+2", "2"),
                  ("1", "2", "0", "1", "2", "w")],
        8, 3, 4, "Optimal LCD code"),
    _t3(3, 4, 3, [("1", "1", "1", "0", "w", "w", "1"),
                  ("1", "2", "0", "1", "2", "w+1", "w")],
        10, 2, 7, "Optimal"),
    _t3(4, 4, 3, [("0", "0", "0", "0", "w", "w+1", "w+1"),
                  ("1", "1", "1", "0", "w+2", "2", "w"),
                  ("1", "2", "0", "1", "2", "w+1", "2w")],
        10, 3, 6, "Optimal"),
    _t3(5, 4, 4, [("1", "1", "1", "0", "w", "w", "1", "w"),
                  ("1", "2", "0", "1", "2", "w+1", "w", "1")],
        12, 2, 8, "Optimal LCD code"),
    _t3(6, 4, 4, [("1", "1", "1", "0", "w", "w+1", "w+1", "w"),
                  ("1", "2", "0", "1", "w+2", "2", "w", "1"),
                  ("1", "2", "0", "1", "2", "w", "2", "w")],
        12, 3, 7, "Optimal LCD code"),
    _t3(7, 4, 5, [("1", "1", "1", "0", "w", "w", "1", "w+2", "w"),
                  ("1", "2", "0", "1", "2", "w+1", "w", "1", "2")],
        14, 2, 10, "Optimal"),
    _t3(8, 4, 6, [("1", "1", "1", "0", "w", "w", "1", "w+2", "w", "w"),
                  ("1", "2", "0", "1", "2", "w+1", "w", "1", "2", "w")],
        16, 2, 11, "Optimal LCD code"),
    _t3(9, 4, 6, [("1", "1", "1", "0", "2w", "2w+2", "0", "w+1", "2w+2", "2w+1"),
                  ("1", "1", "1", "0", "2", "w+1", "2w", "0", "2", "w+1"),
                  ("1", "2", "0", "1", "2w+1", "0", "w+1", "2w+2", "1", "w+2")],
        16, 3, 10, "Optimal"),
    _t3(10, 4, 8, [("1", "1", "1", "0", "w", "w", "1", "w+2", "w", "w+1", "2w", "2w+1"),
                   ("1", "2", "0", "1", "2", "w+1", "w", "1", "2", "w", "2", "2")],
        20, 2, 14, "Optimal LCD code"),
)

TABLES = {1: TABLE1, 2: TABLE2, 3: TABLE3}

# the worked LCD example: table 3 row 6, together with the generator
# matrices its source prints for the two Gray images
WORKED_EXAMPLE_ROW = 6
WORKED_EXAMPLE_PHI_BETA = (
    (1, 0, 0, 1, 2, 2, 2, 2),
    (0, 1, 0, 1, 0, 2, 0, 2),
    (0, 0, 1, 2, 1, 2, 1, 2),
)
WORKED_EXAMPLE_PHI_FULL = (
    (1, 0, 2, 2, 0, 0, 2, 1, 2, 1, 2, 1),
    (0, 1, 2, 1, 0, 1, 1, 0, 1, 1, 1, 1),
    (0, 0, 0, 0, 1, 1, 2, 0, 1, 2, 1, 2),
)


# ---------------------------------------------------------------------------
# verification


@dataclass
class EntryReport:
    table: int
    row: int
    expected_n: int
    expected_k: int
    expected_d: int
    expected_k_or_size: str = ""   # dimension (tables 2, 3) or |C| (table 1)
    computed_n: int | None = None
    computed_size: int | None = None
    computed_k: int | None = None
    computed_d: int | None = None
    d_mode: str = "exact"          # exact | bound (min_distance's result)
    singleton: str = "-"
    qc: str = "-"
    lcd: str = "-"
    status: str = "ok"             # ok | mismatch
    details: tuple = ()

    CSV_FIELDS = (
        "table", "row", "expected_n", "expected_k_or_size", "expected_d",
        "computed_n", "computed_size", "computed_d", "d_mode",
        "singleton", "qc", "lcd", "status",
    )

    def csv_row(self):
        values = (getattr(self, name) for name in self.CSV_FIELDS)
        return ["" if value is None else str(value) for value in values]


@dataclass
class VerificationReport:
    entries: list
    note: ClassVar[str] = OPTIMALITY_NOTE

    @property
    def counts(self):
        # "skipped" stays 0; the benchmark's pinned digests hash this summary
        out = {"exact": 0, "bound": 0, "skipped": 0, "mismatch": 0}
        for e in self.entries:
            out[e.d_mode] += 1
            out["mismatch"] += e.status != "ok"
        return out

    @property
    def has_mismatch(self):
        return any(e.status != "ok" for e in self.entries)

    def to_csv(self) -> str:
        rows = [EntryReport.CSV_FIELDS] + [e.csv_row() for e in self.entries]
        return "".join(",".join(row) + "\n" for row in rows)

    def to_json(self) -> str:
        payload = {
            "note": self.note,
            "summary": self.counts,
            "entries": [asdict(e) for e in self.entries],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def verify_entry(entry: TableEntry, budget=DEFAULT_BUDGET, seed=None) -> EntryReport:
    """Build one row from its document and check its claims; the
    table's own checks append to the `mism` and `details` lists.  A
    built-in row that fails to build raises: that is a bug in the
    library, not a result of the row.  `seed` is accepted and ignored:
    every distance is deterministic, and the benchmark's workloads
    still pass it."""
    if entry.table_id not in TABLES:
        raise ValueError(f"unknown table id {entry.table_id}")
    claimed = entry.q**entry.expected_k if entry.table_id == 1 else entry.expected_k
    rep = EntryReport(
        table=entry.table_id, row=entry.row, expected_n=entry.expected_n,
        expected_k=entry.expected_k, expected_d=entry.expected_d,
        expected_k_or_size=str(claimed),
    )
    mism, details = [], []
    if entry.table_id == 1:
        _verify_table1(rep, entry, budget, mism, details)
    elif entry.table_id == 2:
        _verify_table2(rep, entry, budget, mism, details)
    else:
        _verify_table3(rep, entry, budget, mism, details)
    if mism:
        rep.status = "mismatch"
        details += [f"MISMATCH: {m}" for m in mism]
    rep.details = tuple(details)
    return rep


def _verify_table1(rep, entry, budget, mism, details):
    code = load_definition(entry.doc, strict=False)
    size = code.cardinality()
    claimed = code.tower.q**entry.expected_k
    rep.computed_n = code.beta
    rep.computed_size = size.actual
    rep.computed_k = code.dimension
    if not size.agree:
        details.append(
            f"cardinality formula {size.formula} != rank-derived {size.actual}")
    if size.actual != claimed:
        mism.append(f"size {size.actual} != expected {claimed}")
    if size.formula != claimed:
        mism.append(f"formula size {size.formula} != expected {claimed}")
    _verify_distance(rep, entry, code.closure, budget, mism, details)
    # from the computed rank and d, as `params` reads it, not the claims
    sing = singleton_check(code.beta, code.dimension, rep.computed_d)
    rep.singleton = "attains" if sing.attains else f"slack:{sing.slack}"
    if not sing.attains:
        mism.append("Singleton bound not attained")


def _verify_distance(rep, entry, gm, budget, mism, details):
    """The distance of the code `gm` by `min_distance`, against the
    row's claim: an exact value must equal it; an upper bound, past
    the budget or a layer's memory cap, must find a word of exactly
    the claimed weight."""
    res = min_distance(gm, budget)
    rep.computed_d = res.value
    rep.d_mode = "exact" if res.exact else "bound"
    if res.exact:
        if res.value != entry.expected_d:
            mism.append(f"d {res.value} != expected {entry.expected_d}")
    elif res.value < entry.expected_d:
        mism.append(f"found weight {res.value} below claimed d {entry.expected_d}")
    elif res.value > entry.expected_d:
        mism.append(
            f"claimed weight {entry.expected_d} not found by the search "
            f"(best {res.value})")
    else:
        details.append(
            f"d<= {entry.expected_d} confirmed by a witness codeword; "
            "exactness out of desk scale")


def _verify_image(rep, entry, image, budget, mism, details):
    """Length, dimension and distance of the Gray image of a table-2 or
    table-3 row."""
    rep.computed_n = image.length
    rep.computed_k = image.rank
    rep.computed_size = image.base.size
    if image.length != entry.expected_n:
        mism.append(f"length {image.length} != expected {entry.expected_n}")
    if image.rank != entry.expected_k:
        mism.append(f"dimension {image.rank} != expected {entry.expected_k}")
    _verify_distance(rep, entry, image.base, budget, mism, details)


def _verify_table2(rep, entry, budget, mism, details):
    code = load_definition(entry.doc, strict=False)
    if code.condition_failures:
        details.append(
            "generator conditions violated (closure is still the codeword "
            "set): " + "; ".join(code.condition_failures))
    card = code.cardinality()
    if not card.agree:
        # the spanning set spans exactly when the formula meets the closure
        details.append(
            f"cardinality formula {card.formula} != closure {card.actual}; "
            "degree-counted spanning set spans_ok=False")
    image = gray_image(code)
    _verify_image(rep, entry, image, budget, mism, details)
    sigma_ok = shift_invariance_check(image)
    rep.qc = f"{image.classification}:{'ok' if sigma_ok else 'FAIL'}"
    if not sigma_ok:
        mism.append("Gray image not shift-invariant")
    if "a" in entry.footnotes and image.classification != QUASI_CYCLIC_3:
        mism.append("expected quasi-cyclic of index 3")
    if (entry.remark == "MDS" and rep.d_mode == "exact"
            and rep.computed_d != image.length - image.rank + 1):
        mism.append("MDS remark but d != n-k+1")
    if "b" in entry.footnotes:
        lcd_now = is_lcd(image.base)
        rep.lcd = "yes" if lcd_now else "no"
        if not lcd_now:
            mism.append("footnote claims LCD but hull is nontrivial")


def _verify_table3(rep, entry, budget, mism, details):
    image, cert = _rows_certificate(*load_matrix_document(entry.doc))
    _verify_image(rep, entry, image, budget, mism, details)
    lcd_now = cert.hull_dimension_observed == 0
    rep.lcd = "yes" if lcd_now else "no"
    details.append(
        f"certificate: self-orth={cert.c_alpha_self_orthogonal} "
        f"indep={cert.g_beta_rows_independent} "
        f"beta-lcd={cert.phi_c_beta_lcd} -> {cert.conclusion}; "
        f"hull dim {cert.hull_dimension_observed}")
    if entry.remark == "Optimal LCD code" and not lcd_now:
        mism.append("LCD claimed but hull is nontrivial")
    if cert.guaranteed and cert.hull_dimension_observed != 0:
        mism.append("certificate guaranteed LCD but observed hull nonzero")


def verify_all(table_id, budget=DEFAULT_BUDGET):
    """Verify one table (1, 2, 3) or 'all'; deterministic entry order."""
    ids = tuple(TABLES) if table_id == "all" else (int(table_id),)
    if not set(ids) <= TABLES.keys():
        raise ValueError(f"no such table: {table_id}")
    return VerificationReport([verify_entry(entry, budget=budget)
                               for tid in ids for entry in TABLES[tid]])
