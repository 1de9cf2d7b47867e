"""Tests of the benchmark itself, on tiny runs of each workload.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import reference
import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LIMIT = 3


def _cli(*args, cwd=run.ROOT, script=run.HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _check_printed(done, declared):
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        # every metric is also printed by name with its unit
        assert any(line.split()[1:2] == [m["name"]] and line.split()[3] == m["unit"]
                   for line in lines[:-1])
    assert any(line.split()[1] == "fail_rate" for line in lines[:-1])
    assert any(line.startswith("env python=") and "nproc=" in line and "seed=" in line
               for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    done = _cli("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "0", "--limit", str(LIMIT))
    assert done.returncode == 0, done.stderr
    _check_printed(done, BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics_printed_with_units(workload):
    done = _cli("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "1", "--limit", str(LIMIT))
    assert done.returncode == 0, done.stderr
    _check_printed(done, BENCHMARK["per_layer"])
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["trace.covered_share"]["value"] >= run.MIN_COVERED_SHARE


def test_fails_without_library_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _cli("--workload", "algebra", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode not in (0, None)
    assert "{" not in done.stdout


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def _tiny_outcome(lib, workload, seed=0):
    _, count = workloads.plan(workload, 1, LIMIT)
    items = workloads.make_inputs(lib, workload, seed, count)
    outcome = run.Outcome()
    _, verdicts = run.run_pass(lib, workload, items, seed)
    outcome.add_pass(lib, workload, seed, verdicts)
    return outcome


@pytest.mark.parametrize("workload", ["tables-exact", "tables-bound"])
def test_wrong_table_reference_raises_fail_rate(lib, monkeypatch, workload):
    assert _tiny_outcome(lib, workload).failed == 0
    key = workloads.table_rows(lib, workload, 1)[0]
    key = (key.table_id, key.row)
    wrong = dict(reference.TABLE_ROWS)
    ref = wrong[key]
    wrong[key] = reference.RowReference(ref.table, ref.row, ref.n, ref.k_or_size,
                                        ref.d + 1, ref.d_mode)
    monkeypatch.setattr(reference, "TABLE_ROWS", wrong)
    outcome = _tiny_outcome(lib, workload)
    assert outcome.failed / outcome.attempted > 0
    assert not outcome.correct


def test_wrong_algebra_digest_raises_fail_rate(lib, monkeypatch):
    monkeypatch.setattr(reference, "ALGEBRA_DIGEST_CODES", LIMIT)
    monkeypatch.setattr(reference, "ALGEBRA_DIGEST", "0" * 64)
    outcome = _tiny_outcome(lib, "algebra")
    assert outcome.failed / outcome.attempted > 0


def test_errored_item_is_a_failure(lib, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("deliberate")
    monkeypatch.setattr(lib["codes"], "dual", boom)
    outcome = _tiny_outcome(lib, "algebra")
    assert outcome.failed == outcome.attempted == LIMIT


def test_inputs_follow_the_seed(lib):
    a = workloads.algebra_inputs(lib, 5, 12)
    assert a == workloads.algebra_inputs(lib, 5, 12)
    assert a != workloads.algebra_inputs(lib, 6, 12)
    # the first codes do not depend on how many are made
    assert workloads.algebra_inputs(lib, 5, 30)[:12] == a
    assert [(i.q, i.alpha, i.beta) for i in a] == [s[:3] for s in workloads.algebra_shapes(12)]


def test_reference_covers_both_tables_workloads(lib):
    exact = workloads.table_rows(lib, "tables-exact")
    bound = workloads.table_rows(lib, "tables-bound")
    assert len(bound) == 10 and len(exact) == 9 + 13 + 10
    assert {e.row for e in bound} == {7, 8, 9, 12, 14, 15, 16, 17, 18, 19}


def test_tail_keeps_ten_items_beyond():
    values = list(range(100))
    assert run.tail(values) == (89, 90.0)
    assert run.tail([5, 1, 3]) == (5, 100.0)


def test_tracer_wraps_names_bound_elsewhere_and_restores(lib):
    tables, distance = lib["tables"], lib["distance"]
    original = distance.min_distance_exact
    assert tables.min_distance_exact is original
    tracer = tracing.Tracer().install(lib)
    try:
        assert tables.min_distance_exact is distance.min_distance_exact
        assert tables.min_distance_exact is not original
        assert lib["addcyclic"].min_distance_exact is distance.min_distance_exact
        report = tables.verify_entry(tables.TABLE1[0])
    finally:
        tracer.uninstall()
    assert distance.min_distance_exact is original
    assert tables.min_distance_exact is original
    assert report.status == "ok"
    assert tracer.counters["distance.exact_done"] == 1
    assert tracer.calls_of("tables:tables.verify_entry") == 1
    # installing again reuses the wrappers and keeps counting
    names = list(tracer.names)
    tracer.install(lib)
    try:
        assert tables.min_distance_exact is distance.min_distance_exact is not original
        tables.verify_entry(tables.TABLE1[0])
    finally:
        tracer.uninstall()
    assert tracer.names == names and distance.min_distance_exact is original
    assert tracer.calls_of("tables:tables.verify_entry") == 2
    # every kept span has an enclosing span that was also kept, or none
    ids = {s[0] for s in tracer.spans}
    assert all(parent == 0 or parent in ids for _, parent, *_ in tracer.spans)
