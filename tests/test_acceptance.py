"""Acceptance criteria, one test per criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import hashlib
import random
import time

import numpy as np
import pytest

from addcyclic.codes import MixedCode, dual, is_cyclic, module_closure
from addcyclic.distance import min_distance_exact
from addcyclic.fields import tower
from addcyclic.gray import gray_image, gray_rows
from addcyclic.lcd import LCD_GUARANTEED, hull
from addcyclic.poly import Poly, divides, poly_gcd
from addcyclic.tables import (
    OPTIMALITY_NOTE,
    TABLE2,
    TABLE3,
    VerificationReport,
    WORKED_EXAMPLE_PHI_BETA,
    WORKED_EXAMPLE_PHI_FULL,
    verify_all,
    verify_entry,
)

from oracles import MixedWord, beta_generator_words, canonicalize_pure, codewords
from oracles import expand_words, gray_block, gray_word_inverse
from test_codes import random_mixed_code
from test_distance import groups_of, naive_min_distance
from test_lcd import example_words, words_certificate
from test_linalg import rowspace_equal

T3 = tower(3)
T4 = tower(4)
T8 = tower(8)


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] acceptance criterion {num}: {desc}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


@pytest.fixture(scope="module")
def table1_report():
    start = time.perf_counter()
    rep = verify_all(1)
    rep.elapsed = time.perf_counter() - start
    return rep


def test_criterion_1_table1_exact_subset(table1_report):
    # q=4 rows n = 5, 6, 7, 8 and q=8 rows n = 5, 6: size and d exact,
    # every row attains the Singleton bound
    subset = {(4, 5), (4, 6), (4, 7), (4, 8), (8, 5), (8, 6)}
    by_key = {}
    from addcyclic.tables import TABLE1
    for entry, rep in zip(TABLE1, table1_report.entries):
        by_key[(entry.q, entry.expected_n)] = (entry, rep)
    ok = True
    problems = []
    for key in sorted(subset):
        entry, rep = by_key[key]
        good = (
            rep.status == "ok"
            and rep.d_mode == "exact"
            and rep.computed_d == entry.expected_d
            and rep.computed_size == entry.q**entry.expected_k
            and rep.singleton == "attains"
        )
        if not good:
            ok = False
            problems.append(f"{key}: {rep}")
    in_time = table1_report.elapsed < 300
    report(1, "table 1 exact subset reproduces (n, size, d) with Singleton "
              "attained, under 5 minutes", ok and in_time,
           f"elapsed {table1_report.elapsed:.1f}s" + "; ".join(problems))


def test_criterion_2_table1_bound_subset(table1_report):
    # every remaining row: size exact via rank; d confirmed by finding a
    # codeword of the claimed weight (bound mode, never claimed exact
    # when out of budget)
    subset = {(4, 5), (4, 6), (4, 7), (4, 8), (8, 5), (8, 6)}
    from addcyclic.tables import TABLE1
    ok = True
    problems = []
    bound_rows = 0
    for entry, rep in zip(TABLE1, table1_report.entries):
        if (entry.q, entry.expected_n) in subset:
            continue
        good = (
            rep.status == "ok"
            and rep.computed_size == entry.q**entry.expected_k
            and rep.computed_d == entry.expected_d
            and rep.d_mode in ("exact", "bound")
        )
        bound_rows += rep.d_mode == "bound"
        if not good:
            ok = False
            problems.append(f"({entry.q},{entry.expected_n}): {rep}")
    report(2, "table 1 remaining rows: sizes exact, claimed d confirmed "
              "by witness codewords (bound mode where out of scale)",
           ok and bound_rows >= 8, "; ".join(problems))


@pytest.fixture(scope="module")
def table2_report():
    start = time.perf_counter()
    rep = verify_all(2)
    rep.elapsed = time.perf_counter() - start
    return rep


def test_criterion_3_table2(table2_report):
    ok = True
    problems = []
    for entry, rep in zip(TABLE2, table2_report.entries):
        checks = [
            rep.status == "ok",
            rep.computed_n == entry.expected_n,
            rep.computed_k == entry.expected_k,
        ]
        checks.append(rep.d_mode == ("exact" if entry.expected_k <= 15 else "bound"))
        checks.append(rep.computed_d == entry.expected_d)
        if "a" in entry.footnotes:
            checks.append(rep.qc.startswith("quasi-cyclic index 3"))
            checks.append(rep.qc.endswith(":ok"))
        if entry.remark == "MDS":
            checks.append(entry.expected_d
                          == entry.expected_n - entry.expected_k + 1)
        if entry.row == 8:
            checks.append(rep.computed_k == 2)
            checks.append(any("formula" in d for d in rep.details))
        if not all(checks):
            ok = False
            problems.append(f"row {entry.row}: {rep}")
    in_time = table2_report.elapsed < 600
    report(3, "table 2 Gray images match [n, k] everywhere, d exactly for "
              "k <= 15 and by a witnessed upper bound above, within 10 "
              "minutes; QC/MDS/row-8 clauses hold",
           ok and in_time,
           f"elapsed {table2_report.elapsed:.1f}s" + "; ".join(problems))


def test_report_bytes_are_pinned(table1_report, table2_report):
    # sha256 of the default, small-budget and 3^18-budget reports, the
    # first as JSON and CSV: a report's bytes change only on purpose
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    everything = VerificationReport(
        table1_report.entries + table2_report.entries + verify_all(3).entries)
    assert digest(everything.to_json()) == (
        "03bd02803d71133f09926001364d13a4e28b27ba269c99bf64c2451e57f64168")
    assert digest(everything.to_csv()) == (
        "47630e0480ed7a24a961af0d66839bb57cd8568ee9e2d58828b251e506d1b35c")
    assert digest(verify_all("all", budget=9).to_json()) == (
        "1a894f03243cec44ec44d244a90f1b43c3a15f7c014347b27e13a11b96ab749d")
    assert digest(verify_all(2, budget=3**18).to_json()) == (
        "fae50ebd1b1837755a71e916d3d586564d6c349cc366547d9a741abc4d6724fb")
    assert digest(verify_all("all", budget=3**18).to_json()) == (
        "ee7dbe6b5650e03f70145124cdcb7443717c0dc6c68b5fab147211974ea030f6")


def test_criterion_3_long_row():
    entry = TABLE2[6]  # [35, 18, 11]
    rep = verify_entry(entry, budget=3**18)
    report(3, "table 2 dimension-18 row verifies exactly at a 3^18 budget",
           rep.status == "ok" and rep.d_mode == "exact"
           and rep.computed_d == entry.expected_d,
           f"computed {rep.computed_d}")


def test_criterion_4_table3_and_worked_example():
    start = time.perf_counter()
    rep = verify_all(3)
    ok = not rep.has_mismatch and all(
        e.d_mode == "exact" and e.computed_d == entry.expected_d
        and e.computed_k == entry.expected_k
        for entry, e in zip(TABLE3, rep.entries)
    )
    # the worked example: both printed generator matrices, both hulls zero,
    # certificate with all three hypotheses
    tw, alpha, beta, words = example_words()
    from addcyclic.codes import GeneratorMatrixCode
    code = GeneratorMatrixCode(tw, [w.expand() for w in words], beta=beta)
    img = gray_image(code)
    phib = GeneratorMatrixCode(tw, [gray_block(tw, w.uprime) for w in words])
    d_full = min_distance_exact(img.base).value
    d_beta = min_distance_exact(phib).value
    cert = words_certificate(tw, alpha, beta, words)
    example_ok = (
        (img.length, img.rank, d_full) == (12, 3, 7)
        and hull(img.base).rank == 0
        and (phib.width, phib.rank, d_beta) == (8, 3, 4)
        and hull(phib).rank == 0
        and rowspace_equal(tw.base, img.matrix,
                                  np.array(WORKED_EXAMPLE_PHI_FULL, np.uint8))
        and rowspace_equal(tw.base, phib.matrix,
                                  np.array(WORKED_EXAMPLE_PHI_BETA, np.uint8))
        and cert.conclusion == LCD_GUARANTEED
        and cert.c_alpha_self_orthogonal
        and cert.g_beta_rows_independent
        and cert.phi_c_beta_lcd
        and cert.hull_dimension_observed == 0
    )
    elapsed = time.perf_counter() - start
    report(4, "table 3 rows all exact and the worked example reproduces "
              "(matrices, hulls, certificate)", ok and example_ok,
           f"elapsed {elapsed:.1f}s")


def test_criterion_5_property_suites():
    failures = []

    def suite(name, fn):
        try:
            fn()
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")

    def field_axioms():
        rng = np.random.default_rng(1)
        for tw in (T3, T4, T8):
            for f in (tw.base, tw.ext):
                a = rng.integers(0, f.order, 10_000)
                b = rng.integers(0, f.order, 10_000)
                c = rng.integers(0, f.order, 10_000)
                assert np.array_equal(f.add(f.add(a, b), c), f.add(a, f.add(b, c)))
                assert np.array_equal(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)))
                assert np.array_equal(f.mul(a, f.add(b, c)),
                                      f.add(f.mul(a, b), f.mul(a, c)))
                assert np.array_equal(f.mul(a, b), f.mul(b, a))

    def divmod_gcd():
        rng = random.Random(2)
        for _ in range(1000):
            tw = rng.choice((T3, T4, T8))
            f = tw.base
            a = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(9))])
            b = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(1, 6))])
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert b * q + r == a and (r.is_zero() or r.degree() < b.degree())
            if not a.is_zero():
                g = poly_gcd(a, b)
                assert divides(g, a) and divides(g, b)
                assert g.coeffs[-1] == 1

    def cyclicity_and_duality():
        rng = random.Random(3)
        for _ in range(1000):
            tw = rng.choice((T3, T4))
            code = random_mixed_code(rng, tw, rng.randrange(1, 4),
                                     rng.randrange(1, 4))
            dm = dual(code.closure)
            assert is_cyclic(code.closure)
            assert is_cyclic(dm)
            assert dual(dm).contains_code(code.closure)  # C in (C^perp)^perp

    def orthogonality_enumeration():
        from test_codes import orthogonality_matrix
        rng = random.Random(4)
        checked = 0
        attempts = 0
        while checked < 1000 and attempts < 5000:
            attempts += 1
            alpha, beta = rng.randrange(1, 4), rng.randrange(1, 4)
            code = random_mixed_code(rng, T3, alpha, beta)
            dm = dual(code.closure)
            if code.closure.size * dm.size > 2**20:
                continue
            pairs = orthogonality_matrix(T3, alpha, beta,
                                         codewords(code.closure), codewords(dm))
            assert not pairs.any()
            checked += 1
        assert checked >= 1000

    def gray_bijection():
        rng = random.Random(5)
        for _ in range(10_000):
            tw = rng.choice((T3, T4))
            alpha, beta = rng.randrange(1, 5), rng.randrange(1, 5)
            w = MixedWord(tw, tuple(rng.randrange(tw.q) for _ in range(alpha)),
                          tuple(rng.randrange(tw.q**2) for _ in range(beta)))
            image = gray_rows(tw, alpha, w.expand()[None])[0]
            assert gray_word_inverse(tw, alpha, beta, image) == w

    def gray_distance_lemma():
        rng = random.Random(6)
        checked = 0
        while checked < 1000:
            alpha, beta = rng.randrange(1, 4), rng.randrange(1, 4)
            code = random_mixed_code(rng, T3, alpha, beta)
            if code.dimension == 0 or code.closure.size > 3**6:
                continue
            d_mixed = min_distance_exact(code.closure).value
            img = gray_image(code)
            d_gray = min_distance_exact(img.base).value
            assert d_gray >= d_mixed
            checked += 1

    def spanning_counts():
        rng = random.Random(7)
        for _ in range(1000):
            tw = rng.choice((T3, T4))
            code = random_mixed_code(rng, tw, rng.randrange(1, 4),
                                     rng.randrange(1, 4))
            span = code.spanning_set()
            card = code.cardinality()
            assert span.spans_ok == card.agree
            if span.spans_ok:
                assert len(span.rows) == code.dimension

    def canonicalization():
        rng = random.Random(8)
        for _ in range(1000):
            tw = rng.choice((T3, T4))
            n = rng.randrange(2, 6)
            f = tw.base
            g = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(n + 2))])
            h = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(n + 2))])
            k = Poly(f, [rng.randrange(f.order) for _ in range(rng.randrange(n + 2))])
            gs, hs, ks = canonicalize_pure(tw, n, g, h, k)
            assert canonicalize_pure(tw, n, gs, hs, ks) == (gs, hs, ks)
            original = module_closure(tw, 0, n, expand_words(
                beta_generator_words(tw, 0, n, g, h, k), 2 * n))
            assert MixedCode(tw, 0, n, None, None, gs, hs, ks).closure.equals(original)

    def distance_oracle():
        rng = random.Random(9)
        checked = 0
        while checked < 1000:
            tw = rng.choice((T3, T4))
            alpha, beta = rng.randrange(1, 4), rng.randrange(1, 4)
            code = random_mixed_code(rng, tw, alpha, beta)
            if code.dimension == 0 or code.closure.size > 3**8:
                continue
            fast = min_distance_exact(code.closure).value
            slow = naive_min_distance(tw.base, code.closure.matrix,
                                      groups_of(alpha, beta))
            assert fast == slow
            checked += 1

    def lcd_soundness():
        rng = random.Random(10)
        alpha_pool = {
            3: [(0, 0, 0), (1, 1, 1), (2, 2, 2)],
            4: [(0, 0, 0, 0), (1, 1, 1, 0), (1, 2, 0, 1), (2, 2, 2, 0)],
        }
        held = 0
        for _ in range(2000):
            alpha = rng.choice((3, 4))
            beta = rng.randrange(1, 5)
            k = rng.randrange(1, min(3, 2 * beta) + 1)
            words = [MixedWord(T3, rng.choice(alpha_pool[alpha]),
                               tuple(rng.randrange(9) for _ in range(beta)))
                     for _ in range(k)]
            cert = words_certificate(T3, alpha, beta, words)
            if cert.conclusion == LCD_GUARANTEED:
                held += 1
                assert cert.hull_dimension_observed == 0
        assert held >= 500  # the hypotheses held often enough to matter

    suite("field axioms (1e4/tower)", field_axioms)
    suite("divmod and gcd identities (1e3)", divmod_gcd)
    suite("cyclicity of codes and duals, double-dual containment (1e3)",
          cyclicity_and_duality)
    suite("full-enumeration orthogonality below 2^20 pairs (1e3)",
          orthogonality_enumeration)
    suite("Gray bijection round-trip (1e4)", gray_bijection)
    suite("Gray distance inequality (1e3)", gray_distance_lemma)
    suite("spanning-set counts vs cardinality formula (1e3)", spanning_counts)
    suite("canonicalization idempotent and closure-preserving (1e3)",
          canonicalization)
    suite("exact distance equals naive oracle (1e3)", distance_oracle)
    suite("LCD sufficiency soundness, zero counterexamples", lcd_soundness)
    report(5, "randomized property suites", not failures, "; ".join(failures))


def test_criterion_6_optimality_remarks_excluded():
    rep = verify_all(3)
    payload_note = rep.note
    # remarks are carried as metadata and never drive pass/fail: rows
    # marked plain "Optimal" verify ok without any optimality check
    plain_optimal = [e for entry, e in zip(TABLE3, rep.entries)
                     if entry.remark == "Optimal"]
    ok = (
        payload_note == OPTIMALITY_NOTE
        and all(e.status == "ok" for e in plain_optimal)
        and "excluded from pass/fail" in rep.to_json()
    )
    report(6, "optimality remarks stored as metadata only and stated as "
              "not re-verified", ok)
