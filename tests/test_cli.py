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
from addcyclic.cli import _distance_report, main
from addcyclic.codes import GeneratorMatrixCode
from addcyclic.fields import tower
from addcyclic.tables import TABLE1, TABLE2, TABLE3, verify_entry

ROW9 = json.dumps({"q": 3, "alpha": 3, "beta": 3, "s": "1", "l": "2w+2",
                   "g": "1", "h": "x", "k": "x^3+2"})
TABLE3_ROW1 = json.dumps({
    "q": 3, "alpha": 4, "beta": 2,
    "rows": [["1", "1", "1", "0", "w", "w"],
             ["1", "2", "0", "1", "2", "w+1"]],
})


# table-1 row 1, and a code that violates the membership condition
TABLE1_ROW1 = json.dumps({"q": 4, "beta": 5, "g": "1", "h": "x^2+ux",
                          "k": "x^4+x^3+x^2+x+1"})
VIOLATING = json.dumps({"q": 3, "alpha": 2, "beta": 3, "s": "1", "l": "w",
                        "g": "x+2", "h": "0", "k": "x^3+2"})
# a self-orthogonal matrix: its Gray image is its own hull, of dimension 3
SELF_ORTHOGONAL = json.dumps({
    "q": 3, "alpha": 4, "beta": 2,
    "rows": [["1", "1", "1", "0", "0", "0"],
             ["0", "1", "2", "1", "0", "0"],
             ["0", "0", "0", "0", "1", "w"]],
})
TABLE3_ROW6 = TABLE3[5].document


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


@pytest.mark.parametrize("argv, digest", [
    (["params", "--input", ROW9],
     "3c6e352f1331635b1cf017bb879b5dc4ca5f243f1087018a1e27cd7c4fd98ff1"),
    (["dual", "--lenient", "--input", ROW9],
     "42ed6ddd104ff812bd8a372aec2f53f40c2825e4e8127b650725d50baac335f3"),
    (["gray", "--input", ROW9],
     "46b9496b9a71cb1da7b156fad995be2d98a669ab6387d54c03c1745ce8dff142"),
    (["params", "--input", TABLE1_ROW1],
     "c95d01f1df53aae6c31734a88df471071fa9127f09d15ed3cd3d3a2b956fe25c"),
    (["dual", "--input", TABLE1_ROW1],
     "6b985ef7dfe7dfaf57ae51bc7cc9f95e83d49897b349dcbbd9b9257ef55dc48c"),
    (["gray", "--input", TABLE1_ROW1],
     "be176c55f5be3e8783bbc6df85e73051e73d0791e93a1d127032ea2e55f85c86"),
    (["params", "--lenient", "--input", VIOLATING],
     "89b92675bee8867e15252eb4825a5e8115fbe7585be598bbfa1787a81c9c8395"),
    (["dual", "--lenient", "--input", VIOLATING],
     "243c1328f4498c40a5a9d040b6e584b9de1c8d296196bdc3746cb02e64016525"),
    (["lcd", "--input", TABLE3_ROW6],
     "579bc6a057d357d01ecd46c041496bb30b9729f4e6ad2bd93f6f7aaa04975e1b"),
    (["lcd", "--input", SELF_ORTHOGONAL],
     "e14ab0d318cd0bdd08cad2ecb1e2cceb879b9037f6a5cab4634a2a911dc7c519"),
], ids=["params-row9", "dual-row9", "gray-row9", "params-table1-row1",
        "dual-table1-row1", "gray-table1-row1", "params-violating",
        "dual-violating", "lcd-table3-row6", "lcd-self-orthogonal"])
def test_json_output_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("entry, budget", [
    pytest.param(e, b, id=f"table{e.table_id}-row{e.row}" + ("" if b is None else f"-budget-{b}"))
    for b in (None, 9) for e in TABLE1 + TABLE2 + TABLE3])
def test_every_table_row_document_reproduces_its_report(capsys, entry, budget):
    # a row's document, given to `params` (tables 1 and 2, lenient as the
    # harness is) or `lcd` (table 3), gives the report's dimension, its
    # distance and its LCD column under the same budget, exact or bound
    # alike; `gray --lenient` on a table-2 row weighs the same Gray image
    rep = verify_entry(entry) if budget is None else verify_entry(entry, budget=budget)
    opts = ["--format", "json", "--input", entry.document]
    if budget is not None:
        opts += ["--budget", str(budget)]
    argv = ["lcd"] if entry.table_id == 3 else ["params", "--lenient"]
    code, out, _ = run(capsys, argv + opts)
    assert code == 0
    payload = json.loads(out)
    if entry.table_id == 3:
        assert rep.lcd == ("yes" if payload["lcd"] else "no")
        payload = payload["gray_image"]
    assert payload["dimension"] == rep.computed_k
    assert payload["distance"] == {"d": rep.computed_d, "mode": rep.d_mode}
    if entry.table_id == 2:
        code, out, _ = run(capsys, ["gray", "--lenient"] + opts)
        assert code == 0
        assert json.loads(out)["distance"] == {"d": rep.computed_d, "mode": rep.d_mode}


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
    assert code == 0 and json.loads(out)["singleton"] == "slack:1/2"


def test_distance_report_undefined_only_for_zero_code():
    tw = tower(3)
    zero = GeneratorMatrixCode(tw, np.zeros((0, 4), dtype=np.uint8))
    assert _distance_report(zero, 1000) == {"d": None, "mode": "undefined"}
    code = GeneratorMatrixCode(tw, np.array([[1, 2, 0, 1]], dtype=np.uint8))
    assert _distance_report(code, 1000) == {"d": 3, "mode": "exact"}
    assert _distance_report(code, 1) == {"d": 3, "mode": "bound"}


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
    proc = subprocess.Popen(
        [sys.executable, "-m", "addcyclic", "gray", "--format", "json",
         "--budget", "1", "--input", doc],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
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
    assert proc.returncode in (0, 2)
    assert b"Traceback" not in proc.stderr
    if proc.returncode == 0:
        assert json.loads(proc.stdout)["distance"] == {"d": 5, "mode": "bound"}
