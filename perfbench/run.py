#!/usr/bin/env python3
"""Benchmark of the addcyclic verification engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables-exact --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Workloads (see workloads.py): `tables-exact` verifies the table rows
whose distance is settled by exact enumeration, `tables-bound` the ten
table-1 rows settled by a witness codeword, and `algebra` runs the
distance-free pipeline on seeded random mixed codes.  Each is a closed
loop with one client: the next item starts when the previous verdict
returns.  Every verdict is checked against the benchmark's own reference
(reference.py), and each finished pass against a stored report digest.

With `--trace 0` the run measures the end-to-end metrics with tracing
off.  With `--trace 1` it runs each item untraced and then traced, and
reports the per-layer metrics (tracing.py); the summed difference of
the paired runs is the tracing overhead.  `--workload all` runs the
three workloads in one process; there, `peak_rss_mb` of the second and
third workload is the peak of the whole process so far.

End-to-end times are reported twice: rescaled to a reference speed of
the host (the `_ref` metrics and `setup_s`, see speed.py), which
BENCHMARK.json bounds, and raw.  The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`, which holds the metrics BENCHMARK.json declares; the lines
before it name every metric with its unit, the failure rate and the
environment.
A result file, and with tracing the kept spans, are written under
perfbench/out/.  The exit code is 0 when every verdict and check
holds, 1 when one fails, and 2 when the library's source is missing.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is timed in this many fresh interpreters, spread over the run,
# each paired with a bare interpreter start.  The host's speed swings by
# up to 1.7x for minutes, which moved the median raw set-up time by up
# to a third between two sets of runs of the same code; the median ratio
# of the pairs moved by under 1%.
SETUP_PROBES = 15
TRACE_ALGEBRA_CODES = 150  # an untraced and a traced run of each take about 20 s
MIN_COVERED_SHARE = 0.95

import reference  # noqa: E402  (the benchmark's own modules, next to this file)
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="items per pass, for quick checks of the benchmark "
                         "(skips the report digests)")
    # internal: time set-up in a fresh interpreter started at this instant
    ap.add_argument("--probe-start", type=float, default=None,
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_library():
    """Import addcyclic from this checkout's src/, never from elsewhere."""
    if not (SRC / "addcyclic" / "__init__.py").is_file():
        raise FileNotFoundError(f"no library source at {SRC / 'addcyclic'}")
    sys.path.insert(0, str(SRC))
    lib = workloads.import_library()
    found = Path(lib["addcyclic"].__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise ImportError(f"addcyclic was imported from {found}, not {SRC}")
    return lib


def environment(seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measuring


def probe_setup(args, workload, count):
    """`count` pairs of a set-up time, interpreter start to the first
    timed call, measured in a fresh interpreter, and the bare
    interpreter start (speed.py) timed just before it."""
    times = []
    for _ in range(count):
        start = speed.interpreter_start(ROOT)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--probe-start", repr(time.monotonic())]
        if args.limit is not None:
            cmd += ["--limit", str(args.limit)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append((json.loads(done.stdout.strip().splitlines()[-1])["setup_s"], start))
    return times


def _verdict(lib, workload, item, seed):
    try:
        return workloads.run_item(lib, workload, item, seed, reference.TABLE_ROWS)
    except Exception:  # an errored item is a failed verdict; keep going
        return workloads.Verdict(False, (traceback.format_exc(),))


def run_pass(lib, workload, items, seed, probes=None, before=None):
    """Verify every item in order.  Returns (per-item seconds, verdicts).
    With a `probes` list, a speed probe runs before each item and after
    the last, outside the item times; `before(index)`, if given, is
    called before each item, outside the item times too."""
    clock = time.perf_counter
    item_s, verdicts = [], []
    for index, item in enumerate(items):
        if before is not None:
            before(index)
        if probes is not None:
            probes.append(speed.probe())
        t0 = clock()
        verdicts.append(_verdict(lib, workload, item, seed))
        item_s.append(clock() - t0)
    if probes is not None:
        probes.append(speed.probe())
    return item_s, verdicts


def tail(values):
    """(value, percentile rank) of the highest per-item percentile with at
    least 10 items beyond it; the maximum when there are too few items."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - 11 if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n


class Outcome:
    """Counts of one workload's run: items, failures and their reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.checks_ok = True

    def add_pass(self, lib, workload, seed, verdicts):
        self.attempted += len(verdicts)
        for i, v in enumerate(verdicts):
            if not v.ok:
                self.failed += 1
                self.messages.append(f"item {i}: " + "; ".join(v.problems))
        digest, expected = workloads.pass_digest(lib, workload, seed, verdicts)
        if expected is not None and digest != expected:
            self.failed += 1
            self.messages.append(f"report digest {digest} != {expected}")
        return digest

    def fail_check(self, message):
        self.checks_ok = False
        self.messages.append(message)

    @property
    def correct(self):
        return self.failed == 0 and self.checks_ok


def measure_end_to_end(lib, args, workload, outcome):
    """The end-to-end metrics, at the reference speed (speed.py), and
    the raw times they were rescaled from."""
    passes, count = workloads.plan(workload, args.seconds, args.limit)
    items = workloads.make_inputs(lib, workload, args.seed, count)
    raw, scaled, probe_s, setup = [], [], [], []
    # set-up probes are spread evenly over the items of all passes, so
    # that they sample the same stretch of the host's speed as the items
    total = passes * len(items)
    due = collections.Counter(k * total // SETUP_PROBES for k in range(SETUP_PROBES))
    digest = None
    for i in range(passes):
        def before(index, offset=i * len(items)):
            setup.extend(probe_setup(args, workload, due[offset + index]))
        probes = []
        item_s, verdicts = run_pass(lib, workload, items, args.seed, probes, before)
        raw.append(item_s)
        scaled.append(speed.rescale(item_s, probes))
        probe_s.extend(probes)
        digest = outcome.add_pass(lib, workload, args.seed, verdicts)
    metrics, notes = {}, {}
    each = f", each the median of {passes} passes" if passes > 1 else ""
    for suffix, passes_s in (("_ref", scaled), ("", raw)):
        # a table row's time is the median of its repeats, so that one
        # slow stretch of the host does not move the percentiles
        per_item = [statistics.median(t) for t in zip(*passes_s)]
        tail_s, tail_rank = tail(per_item)
        metrics[f"wall{suffix}_s"] = (statistics.median(sum(p) for p in passes_s), "s")
        metrics[f"item_p50{suffix}_ms"] = (statistics.median(per_item) * 1e3, "ms")
        metrics[f"item_tail{suffix}_ms"] = (tail_s * 1e3, "ms")
        notes[f"wall{suffix}_s"] = f"median of {passes} passes of {len(items)} items"
        notes[f"item_p50{suffix}_ms"] = f"{len(items)} items{each}"
        notes[f"item_tail{suffix}_ms"] = f"p{tail_rank:.1f} of {len(items)} items{each}"
    metrics["setup_s"] = (speed.REFERENCE_START_S
                          * statistics.median(t / start for t, start in setup), "s")
    metrics["setup_raw_s"] = (statistics.median(t for t, _ in setup), "s")
    metrics["interpreter_start_s"] = (statistics.median(start for _, start in setup), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes["setup_s"] = (f"median of {len(setup)} fresh interpreters, each over a bare "
                        f"start, times {speed.REFERENCE_START_S:g} s")
    notes["setup_raw_s"] = f"median of the same {len(setup)}, raw"
    notes["interpreter_start_s"] = f"median of {len(setup)} bare starts with numpy"
    notes["peak_rss_mb"] = "peak of this process"
    metrics["speed_probe_ms"] = (statistics.median(probe_s) * 1e3, "ms")
    notes["speed_probe_ms"] = (f"median of {len(probe_s)} probes; "
                               f"{speed.REFERENCE_PROBE_S * 1e3:g} ms is the reference")
    return metrics, notes, {"digest": digest, "item_s": raw, "probe_s": probe_s,
                            "setup_s": setup}


def paired_pass(lib, workload, items, seed, tracer):
    """Run each item untraced, then traced, back to back, so that both
    runs of an item share the same stretch of host speed.  Returns the
    untraced and traced item seconds and the traced verdicts."""
    clock = time.perf_counter
    plain_s, traced_s, plain_v, traced_v = [], [], [], []
    for index, item in enumerate(items):
        t0 = clock()
        plain_v.append(_verdict(lib, workload, item, seed))
        plain_s.append(clock() - t0)
        tracer.item = index
        tracer.install(lib)
        try:
            t0 = clock()
            traced_v.append(_verdict(lib, workload, item, seed))
            traced_s.append(clock() - t0)
        finally:
            tracer.uninstall()
    tracer.item = None
    return plain_s, traced_s, plain_v, traced_v


def measure_per_layer(lib, args, workload, outcome):
    _, count = workloads.plan(workload, args.seconds, args.limit)
    if workload == "algebra" and args.limit is None:
        count = TRACE_ALGEBRA_CODES
    items = workloads.make_inputs(lib, workload, args.seed, count)
    tracer = tracing.Tracer()
    plain_s, traced_s, plain_v, verdicts = paired_pass(
        lib, workload, items, args.seed, tracer)
    digest = outcome.add_pass(lib, workload, args.seed, plain_v)
    outcome.add_pass(lib, workload, args.seed, verdicts)
    wall = sum(traced_s)
    metrics, notes = layer_metrics(tracer, wall, wall - sum(plain_s), verdicts)
    exact, upper = metrics["distance.exact_calls"][0], metrics["distance.upper_calls"][0]
    covered = metrics["trace.covered_share"][0]
    if covered < MIN_COVERED_SHARE:
        outcome.fail_check(f"trace covers {covered:.3f} of the traced wall time, "
                           f"below {MIN_COVERED_SHARE}")
    if workload != "tables-exact" and exact:
        outcome.fail_check(f"{exact} exact enumerations on {workload}")
    if workload != "tables-bound" and upper:
        outcome.fail_check(f"{upper} upper-bound sweeps on {workload}")
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{workload}-seed{args.seed}.json",
                {"workload": workload, "env": environment(args.seed),
                 "traced_wall_s": wall})
    return metrics, notes, {"digest": digest, "traced_wall_s": wall,
                            "untraced_wall_s": sum(plain_s),
                            "spans_kept": len(tracer.spans)}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, wall, overhead, verdicts):
    """Per-layer metrics of one traced pass, with a note on each ratio's
    base.  `wall` is the traced item time, `overhead` the traced minus
    the untraced item time, paired item by item."""
    c = tracer.counters
    self_s = tracer.by_layer(tracer.self_s)
    calls = tracer.by_layer(tracer.calls)
    rref_calls = tracer.calls_of("linalg:linalg.rref")
    closure_rows = c["codes.closure_rows"]
    bound_rows = [v.fingerprint for v in verdicts
                  if getattr(v.fingerprint, "d_mode", None) == "bound"]
    hits = sum(1 for r in bound_rows
               if r.computed_d == reference.TABLE_ROWS[(r.table, r.row)].d)
    exact_inclusive = c["distance.exact_inclusive_s"]
    m = {
        "fields.calls": (calls["fields"], "count"),
        "fields.scalar_calls": (c["fields.scalar_calls"], "count"),
        "fields.vector_elements": (c["fields.vector_elements"], "count"),
        "fields.self_s": (self_s["fields"], "s"),
        "poly.calls": (calls["poly"], "count"),
        "poly.self_s": (self_s["poly"], "s"),
        "linalg.rref_calls": (rref_calls, "count"),
        "linalg.rref_cells": (c["linalg.rref_cells"], "count"),
        "linalg.rref_noop_ratio": (_ratio(c["linalg.rref_noop"], rref_calls), "ratio"),
        "linalg.rref_self_s": (tracer.self_of("linalg:linalg.rref"), "s"),
        "linalg.kernel_calls": (tracer.calls_of("linalg:linalg.kernel"), "count"),
        "linalg.self_s": (self_s["linalg"], "s"),
        "codes.closure_calls": (tracer.calls_of("codes:codes.module_closure"), "count"),
        "codes.closure_rows": (closure_rows, "count"),
        "codes.closure_yield": (_ratio(c["codes.closure_rank"], closure_rows), "ratio"),
        "codes.contains_calls": (tracer.calls_of("GeneratorMatrixCode.contains"), "count"),
        "codes.self_s": (self_s["codes"], "s"),
        "gray.image_calls": (tracer.calls_of("gray:gray.gray_image"), "count"),
        "gray.shift_check_calls": (tracer.calls_of("gray:gray.shift_invariance_check"), "count"),
        "gray.self_s": (self_s["gray"], "s"),
        "lcd.hull_calls": (tracer.calls_of("lcd:lcd.hull"), "count"),
        "lcd.pipeline_calls": (tracer.calls_of("lcd:lcd.lcd_pipeline"), "count"),
        "lcd.self_s": (self_s["lcd"], "s"),
        "distance.exact_calls": (c["distance.exact_done"], "count"),
        "distance.exact_refused": (c["distance.exact_refused"], "count"),
        "distance.exact_codewords": (c["distance.exact_codewords"], "count"),
        "distance.exact_self_s": (tracer.self_of("distance:distance.min_distance_exact"), "s"),
        "distance.codewords_per_s": (_ratio(c["distance.exact_codewords"], exact_inclusive), "1/s"),
        "distance.weights_rows": (c["distance.weights_rows"], "count"),
        "distance.weights_self_s": (tracer.self_of("WeightProfile.weights"), "s"),
        "distance.upper_calls": (tracer.calls_of("distance:distance.min_distance_upper"), "count"),
        "distance.upper_candidates": (c["distance.upper_candidates"], "count"),
        "distance.upper_self_s": (tracer.self_of("distance:distance.min_distance_upper"), "s"),
        "distance.upper_hit_ratio": (_ratio(hits, len(bound_rows)), "ratio"),
        "tables.entries": (tracer.calls_of("tables:tables.verify_entry"), "count"),
        "tables.self_s": (self_s["tables"], "s"),
        "trace.covered_share": (_ratio(sum(self_s.values()), wall), "ratio"),
        "trace.overhead_s": (overhead, "s"),
    }
    notes = {
        "linalg.rref_noop_ratio": f"of {rref_calls} rref calls",
        "codes.closure_yield": f"rank over {int(closure_rows)} shift rows",
        "distance.codewords_per_s": f"over {exact_inclusive:.3f} s inside the exact engine",
        "distance.upper_hit_ratio": f"of {len(bound_rows)} bound rows",
        "distance.exact_calls": "enumerations run; refusals over budget are exact_refused",
        "trace.covered_share": f"layer self time over {wall:.3f} s of traced items",
        "trace.overhead_s": "sum over items of traced minus untraced time, "
                            "each item run untraced then traced",
    }
    return m, notes


# ---------------------------------------------------------------------------
# reporting


def print_metrics(workload, metrics, notes):
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{workload:<13} {name:<26} {value:>16.6g} {unit:<6} {note}")


def run_workload(lib, args, workload, after_others=False):
    """Measure one workload and print its metrics.  `after_others` says
    that workloads ran before it in this process."""
    outcome = Outcome()
    measure = measure_per_layer if args.trace else measure_end_to_end
    metrics, notes, extra = measure(lib, args, workload, outcome)
    if after_others and "peak_rss_mb" in metrics:
        # ru_maxrss never goes down, so it is no longer this workload's own
        notes["peak_rss_mb"] = "process-wide peak, over the workloads run before this one too"
    env = environment(args.seed)
    print("env " + " ".join(f"{k}={v!r}" if k == "cpu" else f"{k}={v}"
                            for k, v in env.items()) + f" workload={workload}")
    print_metrics(workload, metrics, notes)
    print(f"{workload:<13} {'fail_rate':<26} {_ratio(outcome.failed, outcome.attempted):>16.6g} "
          f"ratio  {outcome.failed} of {outcome.attempted} items")
    if extra["digest"] is not None:
        print(f"{workload:<13} {'report_digest':<26} {extra['digest']}")
    for message in outcome.messages[:10]:
        print(f"{workload:<13} FAILED {message}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    result = {
        "workload": workload, "env": env, "trace": args.trace,
        "seconds": args.seconds, "limit": args.limit,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "correct": outcome.correct, "messages": outcome.messages,
        "metrics": {k: {"value": v, "unit": u, "note": notes.get(k, "")}
                    for k, (v, u) in metrics.items()},
        "detail": extra,
    }
    name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    return outcome, metrics


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        lib = import_library()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.probe_start is not None:
        _, count = workloads.plan(args.workload, args.seconds, args.limit)
        workloads.make_inputs(lib, args.workload, args.seed, count)
        print(json.dumps({"setup_s": time.monotonic() - args.probe_start}))
        return 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    correct = True
    out_metrics = {}
    for index, workload in enumerate(names):
        outcome, metrics = run_workload(lib, args, workload, after_others=index > 0)
        attempted += outcome.attempted
        failed += outcome.failed
        correct = correct and outcome.correct
        prefix = "" if len(names) == 1 else f"{workload}/"
        for name in reported:
            value, unit = metrics[name]
            out_metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
