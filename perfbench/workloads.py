"""The benchmark's three workloads: inputs, items and verdicts.

Every workload is a list of items verified one after another by a single
client (a closed loop).  An item is one table row (`tables-exact`,
`tables-bound`) or one seeded random mixed code (`algebra`).  Inputs are
made once, before timing, from the workload seed; the library receives
only those inputs.

The library is reached only through module attributes looked up at call
time (`codes.dual(...)`, never a name imported into this file), so that
the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import reference

WORKLOADS = ("tables-exact", "tables-bound", "algebra")

# algebra: field orders and block-length limits of the random codes
ALGEBRA_QS = (2, 3, 4, 5, 7, 8)
ALGEBRA_MAX_ALPHA = 12
ALGEBRA_MAX_BETA = 16
SHAPE_SEED = 2511  # fixes the shape order, never the workload seed

# How much work a run of a given length does.  Measured once on the
# first benchmarked commit (2-core Intel Xeon, Python 3.11, numpy 2.4)
# and then fixed, so that every commit measures the same work.
TABLE_PASS_SECONDS = {"tables-exact": 10.5, "tables-bound": 9.0}
ALGEBRA_CODES_PER_SECOND = 15
# enough codes per run that the tail percentile, with 10 items beyond
# it, sits at p90 or above
ALGEBRA_MIN_CODES = 100
# a table row's time is its median over the passes, so each row runs at
# least this often
TABLE_MIN_PASSES = 3


@dataclass
class Verdict:
    """Outcome of one item: `ok` is False for a wrong or missing verdict;
    `problems` names what disagreed; `fingerprint` feeds the report digest."""

    ok: bool
    problems: tuple = ()
    fingerprint: object = None


def import_library():
    """Import the library modules the benchmark drives (set-up work)."""
    import addcyclic
    from addcyclic import codes, distance, fields, gray, lcd, linalg, poly, tables

    return {
        "addcyclic": addcyclic, "codes": codes, "distance": distance,
        "fields": fields, "gray": gray, "lcd": lcd, "linalg": linalg,
        "poly": poly, "tables": tables,
    }


# ---------------------------------------------------------------------------
# tables workloads


def table_rows(lib, workload, limit=None):
    """The library's TableEntry objects of a tables workload, in table order.

    Which rows belong to which workload comes from the benchmark's own
    reference, not from the library."""
    wanted = [key for key, ref in reference.TABLE_ROWS.items()
              if ref.workload == workload]
    by_key = {(e.table_id, e.row): e
              for t in lib["tables"].TABLES.values() for e in t}
    rows = [by_key[key] for key in wanted]
    return rows if limit is None else rows[:limit]


def check_entry(report, ref) -> Verdict:
    """Compare one EntryReport against the benchmark's reference row."""
    problems = []
    if report.status != "ok":
        problems.append(f"status {report.status}")
    if report.computed_n != ref.n:
        problems.append(f"n {report.computed_n} != {ref.n}")
    got_k = report.computed_size if ref.table == 1 else report.computed_k
    if got_k != ref.k_or_size:
        problems.append(f"k/|C| {got_k} != {ref.k_or_size}")
    if report.computed_d != ref.d:
        problems.append(f"d {report.computed_d} != {ref.d}")
    if report.d_mode != ref.d_mode:
        problems.append(f"d_mode {report.d_mode} != {ref.d_mode}")
    return Verdict(not problems, tuple(problems), report)


def run_table_item(lib, entry, seed, refs):
    report = lib["tables"].verify_entry(entry, seed=seed)
    return check_entry(report, refs[(entry.table_id, entry.row)])


def tables_digest(lib, reports):
    text = lib["tables"].VerificationReport(list(reports)).to_json()
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# algebra workload


@dataclass(frozen=True)
class AlgebraInput:
    """Tower and generator polynomials of one random mixed code."""

    q: int
    tower: object
    alpha: int
    beta: int
    s: object
    l: object
    g: object
    h: object
    k: object


def _random_poly(rng, field, degree_below):
    return [rng.randrange(field.order) for _ in range(degree_below)]


def _random_divisor(rng, poly, field, n, cofactor):
    """A divisor of x^n - 1: its gcd with a random polynomial, or the
    cofactor of that gcd."""
    P = poly.Poly
    xn1 = P.xn_minus_1(field, n)
    r = P(field, _random_poly(rng, field, rng.randrange(1, n + 1)))
    d = xn1 if r.is_zero() else poly.poly_gcd(xn1, r)
    return (xn1 // d).monic() if cofactor else d


def algebra_shapes(count):
    """(q, alpha, beta, cofactors) of the first `count` algebra items.

    Field orders cycle through ALGEBRA_QS; each field walks a fixed
    shuffle of the (alpha, beta) grid; `cofactors` says which of s, g, k
    is drawn as a cofactor, the large-degree side.  The shapes are the
    same for every workload seed, so the seed moves which codes are
    built but not how large they are."""
    rng = random.Random(SHAPE_SEED)
    pairs = [(a, b) for a in range(1, ALGEBRA_MAX_ALPHA + 1)
             for b in range(1, ALGEBRA_MAX_BETA + 1)]
    orders = [rng.sample(pairs, len(pairs)) for _ in ALGEBRA_QS]
    nq = len(ALGEBRA_QS)
    shapes = []
    for i in range(count):
        alpha, beta = orders[i % nq][(i // nq) % len(pairs)]
        cofactors = tuple(rng.random() < 0.5 for _ in range(3))
        shapes.append((ALGEBRA_QS[i % nq], alpha, beta, cofactors))
    return shapes


def algebra_inputs(lib, seed, count):
    """`count` random mixed codes on the shapes of algebra_shapes: the
    seed draws the divisors s | x^alpha-1 and g, k | x^beta-1 and the
    polynomials h and l.  The first codes do not depend on `count`."""
    rng = random.Random(seed)
    poly = lib["poly"]
    out = []
    for q, alpha, beta, (co_s, co_g, co_k) in algebra_shapes(count):
        tw = lib["fields"].tower(q)
        out.append(AlgebraInput(
            q, tw, alpha, beta,
            s=_random_divisor(rng, poly, tw.base, alpha, co_s),
            l=poly.Poly(tw.ext, _random_poly(rng, tw.ext, beta)),
            g=_random_divisor(rng, poly, tw.base, beta, co_g),
            h=poly.Poly(tw.base, _random_poly(rng, tw.base, beta)),
            k=_random_divisor(rng, poly, tw.base, beta, co_k),
        ))
    return out


def run_algebra_item(lib, item) -> Verdict:
    """The distance-free pipeline on one code, checked by invariants that
    need no reference from the program."""
    codes, gray, lcd = lib["codes"], lib["gray"], lib["lcd"]
    code = codes.MixedCode(item.tower, item.alpha, item.beta, item.s, item.l,
                           item.g, item.h, item.k, strict=False)
    closure = code.closure
    problems = []
    if code.cardinality().agree != code.spanning_set().spans_ok:
        problems.append("cardinality agreement != spanning set spans_ok")
    dual = codes.dual(code)
    if not codes.is_cyclic(closure):
        problems.append("C not cyclic")
    if not codes.is_cyclic(dual):
        problems.append("dual not cyclic")
    if not codes.dual(dual).contains_code(closure):
        problems.append("C not inside its double dual")
    image = gray.gray_image(code)
    if image.rank != closure.rank:
        problems.append("Gray image rank != closure rank")
    if not gray.shift_invariance_check(image):
        problems.append("Gray image not sigma-invariant")
    image_lcd = lcd.is_lcd(image.base)
    cert = lcd.lcd_pipeline_code(code)
    if image_lcd != (cert.hull_dimension_observed == 0):
        problems.append("is_lcd disagrees with the pipeline's hull")
    if not codes.extract_mixed_generators(closure).closure_ok:
        problems.append("extracted generators do not reproduce the code")
    fingerprint = (closure.rank, dual.rank, cert.hull_dimension_observed)
    return Verdict(not problems, tuple(problems), fingerprint)


def algebra_digest(fingerprints):
    text = repr(list(fingerprints))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# one interface over the three workloads


def plan(workload, seconds, limit=None):
    """(passes, items per pass) of a run measuring about `seconds`.

    A tables pass verifies every row of its workload, so a run repeats
    the pass.  An algebra run is one pass over distinct codes, because
    more codes, not more repeats, is what steadies a seeded sample.
    `limit` caps the items per pass for quick checks of the benchmark."""
    if workload == "algebra":
        codes = max(ALGEBRA_MIN_CODES, round(seconds * ALGEBRA_CODES_PER_SECOND))
        return 1, codes if limit is None else limit
    if workload not in TABLE_PASS_SECONDS:
        raise ValueError(f"unknown workload {workload!r}")
    if limit is not None:
        return 1, limit
    return max(round(seconds / TABLE_PASS_SECONDS[workload]), TABLE_MIN_PASSES), None


def make_inputs(lib, workload, seed, count):
    """The items of one pass; the towers they need are built here."""
    if workload == "algebra":
        return algebra_inputs(lib, seed, count)
    rows = table_rows(lib, workload, count)
    for entry in rows:
        lib["fields"].tower(entry.q)
    return rows


def run_item(lib, workload, item, seed, refs) -> Verdict:
    if workload == "algebra":
        return run_algebra_item(lib, item)
    return run_table_item(lib, item, seed, refs)


def pass_digest(lib, workload, seed, verdicts):
    """(digest, expected) of a finished pass; expected is None where no
    digest was recorded for this workload, seed and size."""
    if workload == "algebra":
        n = reference.ALGEBRA_DIGEST_CODES
        if seed != reference.ALGEBRA_DIGEST_SEED or len(verdicts) < n:
            return None, None
        return (algebra_digest(v.fingerprint for v in verdicts[:n]),
                reference.ALGEBRA_DIGEST)
    if len(verdicts) != len(table_rows(lib, workload)):
        return None, None
    return (tables_digest(lib, (v.fingerprint for v in verdicts)),
            reference.TABLES_DIGESTS[workload])
