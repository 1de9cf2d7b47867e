"""CLI behaviour: outputs, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import addcyclic
from addcyclic.cli import main
from addcyclic.codes import GeneratorMatrixCode
from addcyclic.fields import tower
from addcyclic.tables import TABLE1, TABLE2, TABLE3, _distance, verify_entry

# table-2 row 9, table-1 row 1 and table-3 rows 1 and 6, as the tables
# hold them, and a code that violates the membership condition
ROW9 = TABLE2[8].document
TABLE1_ROW1 = TABLE1[0].document
TABLE3_ROW1 = TABLE3[0].document
TABLE3_ROW6 = TABLE3[5].document
VIOLATING = json.dumps({"q": 3, "alpha": 2, "beta": 3, "s": "1", "l": "w",
                        "g": "x+2", "h": "0", "k": "x^3+2"})
# a self-orthogonal matrix: its Gray image is its own hull, of dimension 3
SELF_ORTHOGONAL = json.dumps({
    "q": 3, "alpha": 4, "beta": 2,
    "rows": [["1", "1", "1", "0", "0", "0"],
             ["0", "1", "2", "1", "0", "0"],
             ["0", "0", "0", "0", "1", "w"]],
})


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_params_row9(capsys):
    code, out, _ = run(capsys, ["params", "--input", ROW9])
    assert code == 0
    assert "dimension (F_q rank): 6" in out
    assert "formula 729, actual 729" in out
    assert "distance: 3 (exact)" in out


# each argv with the sha256 of its JSON and of its text output
PINNED = [
    ("params-row9", ["params", "--input", ROW9],
     "3c6e352f1331635b1cf017bb879b5dc4ca5f243f1087018a1e27cd7c4fd98ff1",
     "8e0104d5c8d562b7182b3f5647787ce3e4c4589be9292d9deba0237307438d5c"),
    ("dual-row9", ["dual", "--lenient", "--input", ROW9],
     "42ed6ddd104ff812bd8a372aec2f53f40c2825e4e8127b650725d50baac335f3",
     "f85ccdb091766527205fd7eb06ce3a918e576815b8af976aff447c3fe7cef681"),
    ("gray-row9", ["gray", "--input", ROW9],
     "46b9496b9a71cb1da7b156fad995be2d98a669ab6387d54c03c1745ce8dff142",
     "27f13006720306b507ebbad97adce16230644f4311da5523fde4c248bf7aadd9"),
    ("params-table1-row1", ["params", "--input", TABLE1_ROW1],
     "c95d01f1df53aae6c31734a88df471071fa9127f09d15ed3cd3d3a2b956fe25c",
     "7f5598ddb3a02c2fc4976480ad0aa1dd5fb4355a5cd1bcfc064982b8909d1dde"),
    ("dual-table1-row1", ["dual", "--input", TABLE1_ROW1],
     "6b985ef7dfe7dfaf57ae51bc7cc9f95e83d49897b349dcbbd9b9257ef55dc48c",
     "1d8acc3621c7b5aa643e3eca5d1ec08671379e91db4080b6c8d08a7a701c29d0"),
    ("gray-table1-row1", ["gray", "--input", TABLE1_ROW1],
     "be176c55f5be3e8783bbc6df85e73051e73d0791e93a1d127032ea2e55f85c86",
     "0be50d6afc5c59b6fae7fa294c66081941515f381a41a7040991afafe583ed25"),
    ("params-violating", ["params", "--lenient", "--input", VIOLATING],
     "89b92675bee8867e15252eb4825a5e8115fbe7585be598bbfa1787a81c9c8395",
     "a23140eac893f5d4f5538cb1b1ef202972532b5f3c2ab5a9f09624849f5652bf"),
    ("dual-violating", ["dual", "--lenient", "--input", VIOLATING],
     "243c1328f4498c40a5a9d040b6e584b9de1c8d296196bdc3746cb02e64016525",
     "ceceb57e5e6f5fc5c8e6e6bf3db016c92f04a6fd83dcaaaf24eb73d0a210d5ad"),
    ("lcd-table3-row6", ["lcd", "--input", TABLE3_ROW6],
     "579bc6a057d357d01ecd46c041496bb30b9729f4e6ad2bd93f6f7aaa04975e1b",
     "e5aacd93eb629139a9d27b7294ec00bb842a9b4dde9337737df8b7df33dec527"),
    ("lcd-self-orthogonal", ["lcd", "--input", SELF_ORTHOGONAL],
     "e14ab0d318cd0bdd08cad2ecb1e2cceb879b9037f6a5cab4634a2a911dc7c519",
     "d7ca24194fcaab2c17932dda6993eb50cb43b2d5ab94abe4f4906115a436af34"),
]


def assert_output_digest(capsys, argv, fmt, digest):
    code, out, _ = run(capsys, argv + ["--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [(argv, digest) for _, argv, digest, _ in PINNED],
                         ids=[name for name, *_ in PINNED])
def test_json_output_bytes_are_pinned(capsys, argv, digest):
    assert_output_digest(capsys, argv, "json", digest)


@pytest.mark.parametrize("argv, digest", [(argv, digest) for _, argv, _, digest in PINNED],
                         ids=[name for name, *_ in PINNED])
def test_text_output_bytes_are_pinned(capsys, argv, digest):
    assert_output_digest(capsys, argv, "text", digest)


# lane codes over F_9, F_11, F_13 and F_16, and a closure of coprime block
# lengths: x has order lcm(11, 16) = 176 on its module, and its minimal
# polynomial degree 11 + 16 - 1 = 26
F9_LANES = json.dumps({"q": 9, "alpha": 2, "beta": 4, "s": "x+1", "l": "0",
                       "g": "x^2+1", "h": "0", "k": "x^2+1"})
F11_LANES = json.dumps({"q": 11, "alpha": 4, "beta": 4, "s": "x+1", "l": "0",
                        "g": "x^2+1", "h": "0", "k": "x^2+1"})
F13_LANES = json.dumps({"q": 13, "alpha": 4, "beta": 4, "s": "x+1", "l": "0",
                        "g": "x^2+1", "h": "0", "k": "x^2+1"})
F16_LANES = json.dumps({"q": 16, "alpha": 2, "beta": 5, "s": "x+1", "l": "0",
                        "g": "x+1", "h": "0", "k": "x^5+1"})
COPRIME = json.dumps({"q": 2, "alpha": 11, "beta": 16, "s": "x+1", "l": "w",
                      "g": "x+1", "h": "0", "k": "x^2+1"})
CLOSED = {"generators.closure_ok": True}


def bound(d):
    return {"distance": {"d": d, "mode": "bound"}}


# each argv, run with --format json, with the fields its output holds: a
# dotted key reads a nested field
FIELDS = [
    # pure codes of more than 2^12 words: the exact search weighs their
    # symbols as F_q2 elements, through the F_81, F_169 and F_121 tables
    ("params-f81-pure", ["params", "--input", json.dumps(
        {"q": 9, "beta": 4, "g": "1", "h": "(u+1)x^3+(u+1)x^2+2u+1", "k": "x^4+2"})],
     {"distance": {"d": 3, "mode": "exact"}}),
    ("params-f169-pure", ["params", "--input", json.dumps(
        {"q": 13, "beta": 4, "g": "1", "h": "10x^2+3x+12", "k": "x^4+12"})],
     {"distance": {"d": 3, "mode": "exact"}}),
    ("params-f121-pure", ["params", "--input", json.dumps(
        {"q": 11, "beta": 5, "g": "x^2+4x+1", "h": "8x^4+2x^3+6x^2+8x+8",
         "k": "x^2+8x+1"})],
     {"distance": {"d": 3, "mode": "exact"}}),
    # the closure builds, eliminates and keeps 26 shifts of each
    # generator; with a budget of one word both distances are upper
    # bounds, from the search stopped after layer 2
    ("params-coprime", ["params", "--lenient", "--input", COPRIME], {"dimension": 41}),
    ("params-coprime-budget-1", ["params", "--lenient", "--budget", "1", "--input", COPRIME],
     {**bound(2), "mixed_distance.d": 1}),
    ("dual-coprime", ["dual", "--lenient", "--input", COPRIME], CLOSED),
    # eliminations in the F_9 lane code and over the primes above 7,
    # whose extensions F_121 and F_169 have no elimination
    ("params-f9-lanes", ["params", "--input", F9_LANES], {"spans_ok": True}),
    ("dual-f9-lanes", ["dual", "--lenient", "--input", F9_LANES], CLOSED),
    ("params-f11-lanes", ["params", "--input", F11_LANES], {"spans_ok": True}),
    ("dual-f11-lanes", ["dual", "--lenient", "--input", F11_LANES], CLOSED),
    ("params-f13-lanes", ["params", "--input", F13_LANES], {"spans_ok": True}),
    ("dual-f13-lanes", ["dual", "--lenient", "--input", F13_LANES], CLOSED),
    # f1 given: F_9 and F_16 search their f2
    ("params-f9-f1", ["params", "--input", json.dumps(
        {"q": 9, "beta": 4, "g": "x+1", "h": "0", "k": "1", "f1": "x^2+x+2"})],
     {"spans_ok": True}),
    ("params-f16-f1", ["params", "--input", json.dumps(
        {"q": 16, "beta": 3, "g": "x+1", "h": "0", "k": "1", "f1": "x^4+x^3+1"})],
     {"spans_ok": True}),
    ("dual-f9-lanes-f1", ["dual", "--lenient", "--input", json.dumps(
        {**json.loads(F9_LANES), "f1": "x^2+x+2"})], CLOSED),
    # the dual's forms lie in F_256; the Gram products run over F_9
    ("dual-f16-lanes", ["dual", "--lenient", "--input", F16_LANES], CLOSED),
    ("lcd-f9", ["lcd", "--input", json.dumps(
        {"q": 9, "alpha": 2, "beta": 3,
         "rows": [["1", "u", "w", "1", "u+w"], ["u", "0", "1", "w", "2"]]})],
     {"conclusion": "inapplicable"}),
    # a budget of one word sends every distance to the upper bound: the
    # q = 3 pure code of F_3-rank 12 must find a word of weight 5 among
    # the single rows and pairs of its systematic forms, and the q = 9
    # and q = 16 images weigh pairs with 8 and 15 multiples of each row
    ("params-q3-budget-1", ["params", "--budget", "1", "--input", json.dumps(
        {"q": 3, "beta": 11, "g": "x^5+x^4+2x^3+x^2+2", "h": "x+1",
         "k": "x^5+2x^3+x^2+2x+2"})], bound(5)),
    ("gray-f9-lanes-budget-1", ["gray", "--budget", "1", "--input", F9_LANES],
     {"distance.mode": "bound"}),
    ("gray-f16-lanes-budget-1", ["gray", "--budget", "1", "--input", F16_LANES],
     {"distance.mode": "bound"}),
] + [
    # the table-1 bound rows: the upper bound finds a word of the claimed
    # d among the single rows and pairs of the forms (row 19, q = 8, its
    # witness of weight 5)
    (f"params-table1-row{row}-budget-1",
     ["params", "--budget", "1", "--input", TABLE1[row - 1].document], bound(d))
    for row, d in ((7, 4), (8, 3), (9, 5), (17, 3), (18, 3), (19, 5))
]


@pytest.mark.parametrize("argv, fields", [(argv, fields) for _, argv, fields in FIELDS],
                         ids=[name for name, *_ in FIELDS])
def test_json_output_holds_its_fields(capsys, argv, fields):
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    for key, want in fields.items():
        value = payload
        for part in key.split("."):
            value = value[part]
        assert value == want, key


@pytest.mark.parametrize("doc, reduced", [
    # x^1000 + x^999 folds mod x^4 - 1 to 1 + x^3: the parser reads each
    # power of x as its monomial
    ({"q": 3, "beta": 4, "g": "x+2", "h": "x^1000+x^999", "k": "x^4+2"}, {"h": "x^3+1"}),
    # any other base is raised by square and multiply: over F_4,
    # (x+1)^1024 = x^1024 + 1 (Frobenius), which folds mod x^3 - 1 to x + 1
    ({"q": 4, "beta": 3, "g": "x+1", "h": "(x+1)^1024", "k": "x^3+1"}, {"h": "x+1"}),
], ids=["folded", "frobenius"])
def test_powers_give_the_gray_image_of_their_reduced_literal(capsys, doc, reduced):
    # k = x^n - 1 is zero in the ring, so the code is <g + wh>: its Gray
    # image's matrix reads h, where with k = 1 every h gives one code
    given, short = (run(capsys, ["gray", "--format", "json", "--input", json.dumps(d)])
                    for d in (doc, doc | reduced))
    assert given[0] == 0 and given == short


@pytest.mark.parametrize("entry, budget", [
    pytest.param(e, b, id=f"table{e.table_id}-row{e.row}" + ("" if b is None else f"-budget-{b}"))
    for b in (None, 9) for e in TABLE1 + TABLE2 + TABLE3])
def test_every_table_row_document_reproduces_its_report(capsys, entry, budget):
    # a row's document, given to `params` (tables 1 and 2, lenient as the
    # harness is) or `lcd` (table 3), gives the report's dimension, its
    # distance, its Singleton status and its LCD column and certificate
    # under the same budget, exact or bound alike; `gray --lenient` on a
    # table-2 row weighs the same Gray image and gives its qc column
    rep = verify_entry(entry) if budget is None else verify_entry(entry, budget=budget)
    opts = ["--format", "json", "--input", entry.document]
    if budget is not None:
        opts += ["--budget", str(budget)]

    def payload(argv):
        code, out, _ = run(capsys, argv + opts)
        assert code == 0
        return json.loads(out)

    distance = {"d": rep.computed_d, "mode": rep.d_mode}
    if entry.table_id == 3:
        cert = payload(["lcd"])
        assert rep.lcd == ("yes" if cert["lcd"] else "no")
        assert (f"certificate: self-orth={cert['c_alpha_self_orthogonal']} "
                f"indep={cert['g_beta_rows_independent']} "
                f"beta-lcd={cert['phi_c_beta_lcd']} -> {cert['conclusion']}; "
                f"hull dim {cert['hull_dimension_observed']}") in rep.details
        sheet = cert["gray_image"]
    else:
        sheet = payload(["params", "--lenient"])
        if entry.table_id == 1:
            assert sheet["singleton"] == rep.singleton
    assert sheet["dimension"] == rep.computed_k
    assert sheet["distance"] == distance
    if entry.table_id == 2:
        image = payload(["gray", "--lenient"])
        assert (image["length"], image["dimension"], image["distance"]) == (
            rep.computed_n, rep.computed_k, distance)
        sigma = "ok" if image["shift_invariant"] else "FAIL"
        assert rep.qc == f"{image['classification']}:{sigma}"


def test_params_json_roundtrip(capsys):
    code, out, _ = run(capsys, ["params", "--input", ROW9, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 6
    assert payload["cardinality"] == {"formula": 729, "actual": 729}
    assert payload["distance"]["d"] == 3


def test_params_zero_code(capsys):
    doc = json.dumps({"q": 3, "alpha": 2, "beta": 2, "s": "0", "l": "0",
                      "g": "0", "h": "0", "k": "0"})
    code, out, _ = run(capsys, ["params", "--input", doc])
    assert code == 0
    assert "dimension (F_q rank): 0" in out
    assert "distance: None (undefined)" in out


@pytest.mark.parametrize("q, n, rank", [(3, 4, 7), (9, 4, 7), (16, 3, 5)])
def test_params_odd_rank_pure_code_reports_half_slack(capsys, q, n, rank):
    # |C| = q^rank is no power of q^2: the slack (n-d+1) - rank/2 with
    # d = 1 is a half-integer, reported without a traceback
    doc = json.dumps({"q": q, "beta": n, "g": "x+1", "h": "0", "k": "1"})
    code, out, err = run(capsys, ["params", "--input", doc])
    assert code == 0 and "Traceback" not in err
    assert f"dimension (F_q rank): {rank}" in out
    assert "distance: 1 (exact)" in out
    assert "singleton: slack:1/2" in out.splitlines()
    code, out, _ = run(capsys, ["params", "--input", doc, "--format", "json"])
    assert code == 0
    p = json.loads(out)
    assert (p["blocks"], p["dimension"], p["singleton"], p["condition_failures"]) == (
        {"n": n}, rank, "slack:1/2", [])


def test_distance_undefined_only_for_zero_code():
    tw = tower(3)
    zero = GeneratorMatrixCode(tw, np.zeros((0, 4), dtype=np.uint8))
    # the one distance step behind the CLI's facts and the table reports
    assert _distance(zero, 1000) == {"d": None, "mode": "undefined"}
    code = GeneratorMatrixCode(tw, np.array([[1, 2, 0, 1]], dtype=np.uint8))
    assert _distance(code, 1000) == {"d": 3, "mode": "exact"}
    assert _distance(code, 1) == {"d": 3, "mode": "bound"}


def test_params_malformed_polynomial(capsys):
    doc = json.dumps({"q": 3, "alpha": 3, "beta": 3, "s": "1", "l": "2w+2",
                      "g": "x^^2", "h": "x", "k": "x^3+2"})
    code, _, err = run(capsys, ["params", "--input", doc])
    assert code == 2
    assert "position" in err


def test_params_violating_row_needs_lenient(capsys):
    bad = json.dumps({"q": 3, "alpha": 1, "beta": 3, "s": "x+2", "l": "1",
                      "g": "x^3+2", "h": "0", "k": "x^3+2"})
    code, _, err = run(capsys, ["params", "--input", bad])
    assert code == 2
    code, out, _ = run(capsys, ["params", "--input", bad, "--lenient"])
    assert code == 0
    assert "conditions violated" in out


def test_dual_row9(capsys):
    code, out, _ = run(capsys, ["dual", "--input", ROW9, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 0
    assert payload["cyclic"] is True


def test_gray_row9(capsys):
    code, out, _ = run(capsys, ["gray", "--input", ROW9, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 9
    assert payload["dimension"] == 6
    assert payload["classification"] == "quasi-cyclic index 3"
    assert payload["shift_invariant"] is True
    assert payload["distance"]["d"] == 3


def test_gray_classification_labels(capsys):
    doc = json.dumps({"q": 3, "alpha": 3, "beta": 4, "s": "x+2", "l": "x+2w",
                      "g": "1", "h": "x", "k": "x^3+2x^2+x+2"})
    code, out, _ = run(capsys, ["gray", "--input", doc, "--format", "json"])
    assert code == 0
    assert json.loads(out)["classification"] == "equivalent to cyclic"


def test_lcd_table3_row1(capsys):
    code, out, _ = run(capsys, ["lcd", "--input", TABLE3_ROW1,
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["conclusion"] == "LCD-guaranteed"
    assert payload["hull_dimension_observed"] == 0
    assert payload["gray_image"]["length"] == 8
    assert payload["gray_image"]["dimension"] == 2
    assert payload["gray_image"]["distance"]["d"] == 5


def test_lcd_without_extension_block(capsys):
    # beta = 0: the Gray image is the alpha block itself, and the one row
    # of G_beta, of length 0, is not F_q-independent
    doc = json.dumps({"q": 3, "alpha": 2, "beta": 0, "rows": [["1", "2"]]})
    code, out, _ = run(capsys, ["lcd", "--input", doc, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["g_beta_rows_independent"] is False
    assert payload["c_alpha_self_orthogonal"] is False  # 1 + 4 = 2 in F_3
    assert payload["conclusion"] == "inapplicable"
    assert payload["hull_dimension_observed"] == 0 and payload["lcd"] is True
    assert payload["gray_image"] == {"length": 2, "dimension": 1,
                                     "distance": {"d": 2, "mode": "exact"}}
    code, out, _ = run(capsys, ["lcd", "--input", doc])
    assert code == 0 and "conclusion: inapplicable" in out


def test_tables_id3_exit_zero(capsys):
    code, out, _ = run(capsys, ["tables", "--id", "3", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 11


def test_tables_id3_under_a_small_budget_exits_zero(capsys):
    # the k = 3 rows need 27 codewords: upper bounds, not a budget traceback
    code, out, _ = run(capsys, ["tables", "--id", "3", "--budget", "9",
                                "--format", "json"])
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["skipped"] == 0 and summary["bound"] > 0
    assert summary["mismatch"] == 0


def test_tables_text_is_csv_plus_summary(capsys):
    _, csv_out, _ = run(capsys, ["tables", "--id", "3", "--format", "csv"])
    code, text_out, _ = run(capsys, ["tables", "--id", "3"])
    assert code == 0
    assert text_out.startswith(csv_out)
    summary = text_out[len(csv_out):]
    assert summary.startswith("# exact 10, bound 0, skipped 0, mismatches 0\n# ")
    assert summary.endswith("excluded from pass/fail.\n")
    assert summary.count("\n") == 2


def test_tables_long_is_gone(capsys):
    # the budget alone gates the Gray-image distances
    code, out, err = run(capsys, ["tables", "--id", "2", "--long"])
    assert code == 2
    assert out == "" and "usage:" in err


def test_tables_budget_settles_the_3_18_word_row(capsys):
    code, out, _ = run(capsys, ["tables", "--id", "2", "--budget", str(3**18),
                                "--format", "json"])
    assert code == 0
    row7 = json.loads(out)["entries"][6]
    assert (row7["row"], row7["d_mode"], row7["computed_d"]) == (7, "exact", 11)


def test_tables_bad_id(capsys):
    code, _, err = run(capsys, ["tables", "--id", "9"])
    assert code == 2


def test_tables_identical_bytes(capsys):
    code1, out1, _ = run(capsys, ["tables", "--id", "3", "--format", "json"])
    code2, out2, _ = run(capsys, ["tables", "--id", "3", "--format", "json"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_tables_output_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, _, _ = run(capsys, ["tables", "--id", "3", "--format", "csv",
                              "--output", str(target)])
    assert code == 0
    assert target.read_text().startswith("table,row,")


def test_tables_output_io_error(capsys):
    code, _, err = run(capsys, ["tables", "--id", "3",
                                "--output", "/nonexistent/dir/report.csv"])
    assert code == 3


def test_missing_input_file(capsys):
    code, _, err = run(capsys, ["params", "--input", "/no/such/file.json"])
    assert code == 3


def test_usage_error_no_command(capsys):
    code, _, _ = run(capsys, [])
    assert code == 2


def test_bad_budget(capsys):
    code, _, _ = run(capsys, ["params", "--input", ROW9, "--budget", "0"])
    assert code == 2


@pytest.mark.parametrize("command,doc,message", [
    # an empty matrix, and no coordinates at all
    ("lcd", {"q": 3, "alpha": 1, "beta": 1, "rows": []}, "nonempty list"),
    ("lcd", {"q": 3, "alpha": 0, "beta": 0, "rows": [[]]}, "must be positive"),
    ("lcd", {"q": 3, "alpha": 1, "beta": -1, "rows": [["1"]]},
     "beta must be a nonnegative integer"),
    ("lcd", {"q": 3, "alpha": 1, "beta": 1, "rows": ["1w"]}, "nonempty list"),
    ("lcd", {"q": None, "alpha": 1, "beta": 1, "rows": [["1", "1"]]},
     "q must be a nonnegative integer"),
    ("lcd", {"q": 10**30, "alpha": 1, "beta": 1, "rows": [["1", "1"]]},
     "2 <= q <= 16"),
    ("params", {"q": 3, "alpha": 1, "beta": 1, "s": 1, "l": "1",
                "g": "1", "h": "0", "k": "1"}, "s must be a polynomial string"),
    ("params", {"q": None, "alpha": 1, "beta": 1, "s": "1", "l": "1",
                "g": "1", "h": "0", "k": "1"}, "q must be a nonnegative integer"),
    ("params", {"q": True, "beta": 1, "g": "1", "h": "0", "k": "1"},
     "q must be a nonnegative integer"),
    ("params", {"q": 3, "beta": -2, "g": "1", "h": "0", "k": "1"},
     "beta must be a nonnegative integer"),
    ("params", {"q": 3, "beta": 2, "g": "x^5000", "h": "0", "k": "1"},
     "exponent above 1024"),
    ("gray", {"q": 3, "alpha": 1, "beta": 1, "s": "1", "l": "1",
              "g": "1", "h": "0", "k": "1", "f2": ["x^2+1"]},
     "f2 must be a polynomial string"),
    # a misspelt alpha would otherwise make table-2 row 9 a pure code
    ("params", {"q": 3, "alhpa": 3, "beta": 3, "s": "1", "l": "2w+2",
                "g": "1", "h": "x", "k": "x^3+2"}, "unknown key 'alhpa'"),
    ("lcd", {"q": 3, "alpha": 1, "beta": 1, "rows": [["1", "w"]], "f3": "x"},
     "unknown key 'f3'"),
    # a pure code takes no s or l, which would otherwise go unread
    ("params", {"q": 3, "beta": 4, "g": "x+1", "h": "0", "k": "1",
                "s": "((garbage", "l": 42}, "s is read only when alpha > 0"),
    # a matrix literal is a string: null, 1 and true are refused by
    # position, not read as 'None', '1' and 'True'
    ("lcd", {"q": 3, "alpha": 1, "beta": 1, "rows": [["1", None]]},
     "rows[0][1] must be a literal string, got None"),
    ("lcd", {"q": 3, "alpha": 1, "beta": 1, "rows": [["1", "w"], [1, "w"]]},
     "rows[1][0] must be a literal string, got 1"),
    ("lcd", {"q": 3, "alpha": 1, "beta": 1, "rows": [[True, "w"]]},
     "rows[0][0] must be a literal string, got True"),
    # a missing key is named, not shown as the repr of a KeyError
    ("params", {"q": 3, "beta": 2, "g": "1", "h": "0"},
     "invalid code definition: missing key 'k'"),
    ("params", {"q": 3, "alpha": 1, "beta": 2, "l": "1", "g": "1", "h": "0", "k": "1"},
     "invalid code definition: missing key 's'"),
    ("gray", {"alpha": 1, "beta": 2, "s": "1", "l": "1", "g": "1", "h": "0", "k": "1"},
     "invalid code definition: missing key 'q'"),
    ("lcd", {"q": 3, "alpha": 1, "beta": 1}, "invalid matrix document: missing key 'rows'"),
    ("lcd", {"q": 3, "alpha": 1, "rows": [["1", "w"]]},
     "invalid matrix document: missing key 'beta'"),
    # a reducible f1 is refused when its field finds a zero divisor, and
    # an f2 that is not quadratic by the shape check both moduli share
    ("params", {"q": 4, "beta": 3, "g": "1", "h": "0", "k": "1", "f1": "x^2+1"},
     "f1 (1, 0, 1) is reducible over F_2"),
    ("params", {"q": 3, "beta": 4, "g": "x+1", "h": "0", "k": "1", "f2": "x^3+1"},
     "f2 must be monic of degree 2"),
])
def test_malformed_documents_exit_2(capsys, command, doc, message):
    code, _, err = run(capsys, [command, "--input", json.dumps(doc)])
    assert code == 2
    assert err.startswith("invalid ") and message in err


def test_non_object_document_exits_2(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text("[1, 2]")
    for command in ("params", "lcd"):
        code, _, err = run(capsys, [command, "--input", str(path)])
        assert code == 2
        assert "JSON object" in err


def test_non_utf8_document_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"q":3}')
    for command in ("params", "lcd"):
        code, _, err = run(capsys, [command, "--input", str(path)])
        assert code == 2
        assert "is not UTF-8 text" in err and err.count("\n") == 1


def test_deeply_nested_document_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"a":' * 100000 + "1" + "}" * 100000)
    for command in ("params", "lcd"):
        code, _, err = run(capsys, [command, "--input", str(path)])
        assert code == 2
        assert err.startswith("invalid JSON document") and err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    {"q": 3, "beta": 200000, "g": "1", "h": "0", "k": "1"},
    # lcm(997, 1009) shifts of each generator
    {"q": 3, "alpha": 997, "beta": 1009, "s": "1", "l": "0",
     "g": "1", "h": "0", "k": "1"},
])
def test_absurd_block_lengths_exit_2(capsys, doc):
    for command in ("params", "dual", "gray"):
        code, _, err = run(capsys, [command, "--input", json.dumps(doc)])
        assert code == 2
        assert err.startswith("invalid code definition") and "x-orbit of" in err


@pytest.mark.parametrize("argv", [
    ["dual", "--budget", "5"],
    ["dual", "--seed", "1"],
    ["params", "--seed", "1"],
    ["gray", "--seed", "1"],
    ["lcd", "--seed", "1"],
    ["tables", "--seed", "1"],
    ["lcd", "--lenient"],
    ["params", "--format", "csv"],
    ["dual", "--format", "csv"],
    ["gray", "--format", "csv"],
    ["lcd", "--format", "csv"],
], ids=" ".join)
def test_options_a_subcommand_does_not_read_exit_2(capsys, argv):
    # every distance is deterministic: no subcommand takes a seed
    doc = TABLE3_ROW1 if argv[0] == "lcd" else ROW9
    code, out, err = run(capsys, argv + ([] if argv[0] == "tables" else ["--input", doc]))
    assert code == 2
    assert out == "" and "usage:" in err


def test_early_closed_stdout_exits_3_without_traceback():
    # the JSON matrix is larger than a pipe buffer, so the writer meets
    # the closed pipe whenever it starts writing
    doc = json.dumps({"q": 3, "alpha": 1, "beta": 60, "s": "1", "l": "0",
                      "g": "1", "h": "0", "k": "1"})
    env = dict(os.environ, PYTHONPATH=str(Path(addcyclic.__file__).parents[1]))
    with subprocess.Popen(
            [sys.executable, "-m", "addcyclic", "gray", "--format", "json",
             "--budget", "1", "--input", doc],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 3
    assert b"Traceback" not in err


def test_exact_search_under_a_memory_cap_falls_back_to_the_bound():
    # table-1 row 9 as a pure code, rank 26 over F_4, with a budget past
    # 4^26: the search would form layers of gigabytes, so it refuses
    # and the upper bound reports d = 5 under a 2 GB address space
    resource = pytest.importorskip("resource")
    doc = json.dumps({"q": 4, "alpha": 0, "beta": 17, "g": "1",
                      "h": "x^7+x^6+ux^3+u^2x",
                      "k": "x^8+ux^7+ux^5+ux^4+ux^3+ux+1"})
    env = dict(os.environ, PYTHONPATH=str(Path(addcyclic.__file__).parents[1]))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))

    proc = subprocess.run(
        [sys.executable, "-m", "addcyclic", "params", "--format", "json",
         "--budget", str(10**20), "--input", doc],
        capture_output=True, env=env, preexec_fn=cap, timeout=300)
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["distance"] == {"d": 5, "mode": "bound"}
