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

Each fact the CLI prints is derived once, here, one derivation per
document kind: `params_facts` and `gray_facts` for a definition,
`lcd_facts` for a matrix document, each returning the dict its
subcommand prints; the CLI only renders them.  verify_all builds every
row from its document, through `codes.load_definition` or
`codes.load_matrix_document`, and verify_entry checks the row's claims
against the facts the CLI prints for that document (table 1 `params`,
table 2 `gray`, table 3 `lcd`), classifying each as exactly verified or
bound-verified.  Sizes always come from the module-closure rank.  Every
distance, of a table-1 code or of a table-2 or table-3 Gray image, is
settled by one step, `_distance` over `distance.min_distance`: exact
within the q^rank codeword budget and the exact search's memory cap,
else the upper bound, which verifies the claim when it finds a word of
the claimed weight.
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
from .lcd import LCD_GUARANTEED, _rows_certificate, is_lcd

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


def _distance(gm, budget):
    """{"d", "mode"} of `gm` by `min_distance`, "exact" or "bound"; only
    the zero code, which has no nonzero words, is "undefined"."""
    if gm.rank == 0:
        return {"d": None, "mode": "undefined"}
    res = min_distance(gm, budget)
    return {"d": res.value, "mode": "exact" if res.exact else "bound"}


def params_facts(code, budget) -> dict:
    """What `addcyclic params` prints for a definition: block lengths,
    F_q-rank, cardinality, spanning-set status, generator conditions,
    distance and, for a pure code, its Singleton status.  The headline
    distance of a mixed code is its Gray image's (the parameters these
    codes are tabulated under), its mixed-alphabet distance alongside."""
    gm, card = code.closure, code.cardinality()
    facts = {
        "blocks": {"alpha": code.alpha, "beta": code.beta} if code.alpha else {"n": code.beta},
        "dimension": gm.rank,
        "cardinality": {"formula": card.formula, "actual": card.actual},
        "spans_ok": card.agree,
        "distance": _distance(gray_image(code).base if code.alpha else gm, budget),
        "condition_failures": list(code.condition_failures),
    }
    if code.alpha and gm.rank:
        facts["mixed_distance"] = _distance(gm, budget)
    d = facts["distance"]["d"]
    if d is not None and not code.alpha:
        # single-alphabet Singleton bound; a mixed alphabet has no single Q
        sing = singleton_check(code.beta, gm.rank, d)
        facts["singleton"] = "attains" if sing.attains else f"slack:{sing.slack}"
    return facts


def gray_facts(code, budget) -> dict:
    """What `addcyclic gray` prints for a definition: its Gray image's
    length, dimension, classification, shift invariance, distance and
    rref generator matrix."""
    image = gray_image(code)
    return {
        "length": image.length,
        "dimension": image.rank,
        "classification": image.classification,
        "shift_invariant": shift_invariance_check(image),
        "distance": _distance(image.base, budget),
        "matrix": image.matrix.tolist(),
    }


def lcd_facts(tower, beta, expanded, budget) -> dict:
    """What `addcyclic lcd` prints for a matrix document: the LCD
    certificate of its rows as given, and the parameters and hull of
    the Gray image of the code they generate."""
    image, cert = _rows_certificate(tower, beta, expanded)
    return {
        "c_alpha_self_orthogonal": cert.c_alpha_self_orthogonal,
        "g_beta_rows_independent": cert.g_beta_rows_independent,
        "phi_c_beta_lcd": cert.phi_c_beta_lcd,
        "conclusion": cert.conclusion,
        "hull_dimension_observed": cert.hull_dimension_observed,
        "gray_image": {"length": image.length, "dimension": image.rank,
                       "distance": _distance(image.base, budget)},
        "lcd": cert.hull_dimension_observed == 0,
    }


def verify_entry(entry: TableEntry, budget=DEFAULT_BUDGET, seed=None) -> EntryReport:
    """Check one row's claims against the facts the CLI prints for its
    document: `params_facts` for table 1; `gray_facts` for table 2, with
    the code's cardinality and generator conditions as details and its
    Gray image's hull for footnote b; `lcd_facts` for table 3.  Sizes
    come from the module-closure rank.  A built-in row that fails to
    build raises: that is a bug in the library, not a result of the
    row.  A zero-code row has no distance to check, and is refused
    with a ValueError naming it.  `seed` is accepted and ignored: every
    distance is deterministic, and the benchmark's workloads still pass
    it."""
    table = entry.table_id
    if table not in TABLES:
        raise ValueError(f"unknown table id {table}")
    q = entry.q
    claimed = q**entry.expected_k if table == 1 else entry.expected_k
    rep = EntryReport(
        table=table, row=entry.row, expected_n=entry.expected_n,
        expected_k=entry.expected_k, expected_d=entry.expected_d,
        expected_k_or_size=str(claimed),
    )
    mism, details = [], []
    if table == 3:
        facts = lcd_facts(*load_matrix_document(entry.doc), budget)
        sheet = facts["gray_image"]
    else:
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
        facts = sheet = (params_facts if table == 1 else gray_facts)(code, budget)
    n = facts["blocks"]["n"] if table == 1 else sheet["length"]
    k, d, mode = sheet["dimension"], sheet["distance"]["d"], sheet["distance"]["mode"]
    if mode == "undefined":
        raise ValueError(f"table {table} row {entry.row}: the zero code has no "
                         "distance to check")
    rep.computed_n, rep.computed_k, rep.computed_size = n, k, q**k
    rep.computed_d, rep.d_mode = d, mode
    if n != entry.expected_n:
        mism.append(f"length {n} != expected {entry.expected_n}")
    if table == 1:
        if rep.computed_size != claimed:
            mism.append(f"size {rep.computed_size} != expected {claimed}")
        if facts["cardinality"]["formula"] != claimed:
            mism.append(f"formula size {facts['cardinality']['formula']} != expected {claimed}")
    elif k != entry.expected_k:
        mism.append(f"dimension {k} != expected {entry.expected_k}")
    # an exact distance must equal the claim; an upper bound, past the
    # budget or a layer's memory cap, must find a word of exactly the
    # claimed weight
    if mode == "exact":
        if d != entry.expected_d:
            mism.append(f"d {d} != expected {entry.expected_d}")
    elif d < entry.expected_d:
        mism.append(f"found weight {d} below claimed d {entry.expected_d}")
    elif d > entry.expected_d:
        mism.append(
            f"claimed weight {entry.expected_d} not found by the search "
            f"(best {d})")
    else:
        details.append(
            f"d<= {entry.expected_d} confirmed by a witness codeword; "
            "exactness out of desk scale")
    if table == 1:
        # from the computed rank and d, as `params` prints it, not the claims
        rep.singleton = facts["singleton"]
        if rep.singleton != "attains":
            mism.append("Singleton bound not attained")
    elif table == 2:
        sigma_ok = facts["shift_invariant"]
        rep.qc = f"{facts['classification']}:{'ok' if sigma_ok else 'FAIL'}"
        if not sigma_ok:
            mism.append("Gray image not shift-invariant")
        if "a" in entry.footnotes and facts["classification"] != QUASI_CYCLIC_3:
            mism.append("expected quasi-cyclic of index 3")
        if entry.remark == "MDS" and mode == "exact" and d != n - k + 1:
            mism.append("MDS remark but d != n-k+1")
        if "b" in entry.footnotes:
            lcd_now = is_lcd(gray_image(code).base)
            rep.lcd = "yes" if lcd_now else "no"
            if not lcd_now:
                mism.append("footnote claims LCD but hull is nontrivial")
    else:
        rep.lcd = "yes" if facts["lcd"] else "no"
        details.append(
            f"certificate: self-orth={facts['c_alpha_self_orthogonal']} "
            f"indep={facts['g_beta_rows_independent']} "
            f"beta-lcd={facts['phi_c_beta_lcd']} -> {facts['conclusion']}; "
            f"hull dim {facts['hull_dimension_observed']}")
        if entry.remark == "Optimal LCD code" and not facts["lcd"]:
            mism.append("LCD claimed but hull is nontrivial")
        if facts["conclusion"] == LCD_GUARANTEED and not facts["lcd"]:
            mism.append("certificate guaranteed LCD but observed hull nonzero")
    if mism:
        rep.status = "mismatch"
        details += [f"MISMATCH: {m}" for m in mism]
    rep.details = tuple(details)
    return rep


def verify_all(table_id, budget=DEFAULT_BUDGET):
    """Verify one table (1, 2, 3) or 'all'; deterministic entry order."""
    ids = tuple(TABLES) if table_id == "all" else (int(table_id),)
    if not set(ids) <= TABLES.keys():
        raise ValueError(f"no such table: {table_id}")
    return VerificationReport([verify_entry(entry, budget=budget)
                               for tid in ids for entry in TABLES[tid]])
