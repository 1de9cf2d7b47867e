"""Data integrity of the built-in tables and harness behaviour."""

import json
from dataclasses import replace

import pytest

from addcyclic import distance
from addcyclic.codes import load_definition, load_matrix_document
from addcyclic.fields import tower
from addcyclic.poly import divides, parse_poly, Poly
from addcyclic.tables import (
    OPTIMALITY_NOTE,
    TABLE1,
    TABLE2,
    TABLE3,
    verify_all,
    verify_entry,
)


def test_row_counts():
    assert len(TABLE1) == 19
    assert len(TABLE2) == 14
    assert len(TABLE3) == 10


def test_table1_literals_parse_and_divide():
    for e in TABLE1:
        doc, tw = e.doc, tower(e.q)
        g = parse_poly(doc["g"], tw.base, tw)
        k = parse_poly(doc["k"], tw.base, tw)
        xn1 = Poly.xn_minus_1(tw.base, doc["beta"])
        assert divides(g, xn1), f"row {e.row}: g does not divide"
        assert divides(k, xn1), f"row {e.row}: k does not divide"
        parse_poly(doc["h"], tw.base, tw)


def test_table1_sizes_consistent():
    # the expected exponent matches the degrees of the stored generators
    for e in TABLE1:
        doc, tw = e.doc, tower(e.q)
        n = doc["beta"]
        g = parse_poly(doc["g"], tw.base, tw)
        k = parse_poly(doc["k"], tw.base, tw)
        assert n == e.expected_n, e.row
        assert (n - g.degree()) + (n - k.degree()) == e.expected_k, e.row


def test_table2_literals_build():
    for e in TABLE2:
        code = load_definition(e.doc, strict=False)
        assert code.dimension == e.expected_k, f"row {e.row}"
        assert e.expected_n == code.alpha + 2 * code.beta


def test_table2_condition_status():
    violating = {3, 4, 5, 6, 7, 11, 12}
    for e in TABLE2:
        code = load_definition(e.doc, strict=False)
        assert bool(code.condition_failures) == (e.row in violating), e.row


def test_table3_matrices_parse():
    for e in TABLE3:
        doc = e.doc
        tw, beta, expanded = load_matrix_document(doc)
        assert beta == doc["beta"]
        assert expanded.shape == (len(doc["rows"]), doc["alpha"] + 2 * beta)
        assert len(expanded) >= e.expected_k


def test_entries_are_their_documents_and_stay_frozen():
    for e in TABLE1 + TABLE2 + TABLE3:
        assert json.loads(e.document) == e.doc
        assert e.q == e.doc["q"]
    doc = TABLE3[0].doc
    doc["rows"][0][0] = "2"
    doc["q"] = 4
    assert TABLE3[0].doc["rows"][0][0] == "1"
    assert TABLE3[0].q == 3
    with pytest.raises(AttributeError):
        TABLE3[0].document = "{}"


def test_verify_single_entry_table1():
    rep = verify_entry(TABLE1[0])
    assert rep.status == "ok"
    assert rep.d_mode == "exact"
    assert rep.singleton == "attains"


@pytest.mark.parametrize("claims, mismatch", [
    ({"expected_d": 4}, "MISMATCH: d 3 != expected 4"),
    ({"expected_k": 8}, "MISMATCH: size 4096 != expected 65536"),
])
def test_table1_singleton_column_reads_the_computed_code(claims, mismatch):
    # claims past the Singleton bound are a mismatch, not a raise: the
    # column weighs the computed rank 6 and d 3, which attain it
    rep = verify_entry(replace(TABLE1[0], **claims))
    assert rep.status == "mismatch" and mismatch in rep.details
    assert (rep.computed_k, rep.computed_d, rep.singleton) == (6, 3, "attains")


def test_verify_table3_all_exact_ok():
    rep = verify_all(3)
    assert not rep.has_mismatch
    assert all(e.d_mode == "exact" for e in rep.entries)
    assert all(e.lcd == "yes" for e in rep.entries)


def witnessed(d):
    """The detail of a row whose claimed d the upper bound found."""
    return (f"d<= {d} confirmed by a witness codeword; "
            "exactness out of desk scale")


def test_verify_table2_small_budget_gives_bounds():
    rep = verify_all(2, budget=3**9)
    assert not rep.has_mismatch
    modes = {e.row: e.d_mode for e in rep.entries}
    assert modes[4] == "exact"    # 3^9 is exactly the budget
    assert modes[9] == "exact"
    assert modes[5] == "bound"    # 3^10
    assert modes[7] == "bound"    # 3^18
    for e in rep.entries:
        # a row past the budget is bound, with the claimed d witnessed
        assert e.d_mode == ("exact" if e.expected_k <= 9 else "bound")
        assert e.computed_d == e.expected_d
        assert e.computed_k == e.expected_k
        assert (witnessed(e.expected_d) in e.details) == (e.d_mode == "bound")


def test_verify_table3_small_budget_gives_bounds():
    rep = verify_all(3, budget=9)
    assert not rep.has_mismatch
    for e in rep.entries:
        # 3^2 is exactly the budget, 3^3 is over it
        assert e.d_mode == ("exact" if e.expected_k == 2 else "bound")
        assert e.computed_d == e.expected_d
        assert e.computed_k == e.expected_k
        assert e.lcd == "yes"  # the LCD column does not depend on d
        assert (witnessed(e.expected_d) in e.details) == (e.d_mode == "bound")
    assert {e.expected_k for e in rep.entries} == {2, 3}
    assert verify_all(3, budget=27) == verify_all(3)


def test_refused_image_distance_is_bounded(monkeypatch):
    # a layer past the exact search's memory cap, like a code past the
    # budget, sends the distance to the upper bound, which finds the
    # claimed d; the row is ok, and exact once the cap is lifted
    monkeypatch.setattr(distance, "_MAX_LAYER_CELLS", 1000)
    rep = verify_entry(TABLE2[5])  # [29, 15, 8], within the budget
    assert rep.status == "ok" and rep.d_mode == "bound"
    assert rep.computed_d == 8 and rep.computed_k == 15
    assert witnessed(8) in rep.details
    monkeypatch.undo()
    rep = verify_entry(TABLE2[5])
    assert rep.status == "ok" and (rep.d_mode, rep.computed_d) == ("exact", 8)


def test_row8_discrepancy_flagged_not_failed():
    rep = verify_entry(TABLE2[7])
    assert rep.status == "ok"
    assert any("formula" in d for d in rep.details)


def test_reports_are_deterministic():
    # table 1 holds the rows past the budget, settled by the upper bound
    a = verify_all(1)
    b = verify_all(1)
    assert a.counts["bound"] == 10
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def test_report_json_roundtrip_and_note():
    rep = verify_all(3)
    payload = json.loads(rep.to_json())
    assert payload["note"] == OPTIMALITY_NOTE
    assert len(payload["entries"]) == 10
    assert payload["summary"]["mismatch"] == 0
    # runtime never leaks into serialized reports
    assert all("runtime" not in e for e in payload["entries"])


def test_report_csv_shape():
    rep = verify_all(3)
    lines = rep.to_csv().strip().split("\n")
    header = lines[0].split(",")
    assert header == list(rep.entries[0].CSV_FIELDS)
    assert len(lines) == 11
    assert all(len(line.split(",")) == len(header) for line in lines[1:])


def test_unknown_table_id():
    with pytest.raises(ValueError):
        verify_all(9)
