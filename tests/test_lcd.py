"""Hull dimensions, LCD checks, and the sufficiency pipeline."""

import importlib
import json
import random
from types import SimpleNamespace

import numpy as np
import pytest

from addcyclic import linalg
from addcyclic import lcd
from addcyclic.cli import main
from addcyclic.codes import (
    GeneratorMatrixCode,
    InvariantViolation,
    load_definition,
    load_matrix_document,
)
from addcyclic.fields import format_element, tower
from addcyclic.gray import gray_image, gray_rows
from addcyclic.lcd import (
    INAPPLICABLE,
    LCD_GUARANTEED,
    _rows_certificate,
    hull_dimension,
    is_lcd,
    is_self_orthogonal,
    lcd_certificate,
    lcd_pipeline_code,
)
from addcyclic.tables import (
    TABLE1,
    TABLE2,
    TABLE3,
    WORKED_EXAMPLE_PHI_BETA,
    WORKED_EXAMPLE_PHI_FULL,
    WORKED_EXAMPLE_ROW,
    verify_entry,
)

from oracles import MixedWord, codewords, document_words, expand_words, gray_block
from oracles import inner_product, reference_hull, rows_fq_independent
from test_codes import random_mixed_code
from test_linalg import ORACLE_FIELDS, ORACLE_TOWERS, field_id, in_rowspace, rowspace_equal

T3 = tower(3)
T4 = tower(4)


def example_words():
    """(tower, alpha, beta, words) of the worked example's matrix."""
    return document_words(TABLE3[WORKED_EXAMPLE_ROW - 1].doc)


def words_certificate(tw, alpha, beta, words):
    """The certificate of a matrix given as words, rows as given."""
    return _rows_certificate(tw, beta, expand_words(words, alpha + 2 * beta))[1]


def plain_code(field_tower, rows):
    return GeneratorMatrixCode(field_tower, linalg.as_matrix(rows))


def test_hull_of_full_space():
    code = plain_code(T3, np.eye(5, dtype=np.uint8))
    assert hull_dimension(code) == 0


def test_hull_of_self_orthogonal_projection():
    tw, alpha, beta, words = example_words()
    g_alpha = linalg.as_matrix([w.u for w in words], width=alpha)
    c_alpha = plain_code(tw, g_alpha)
    assert c_alpha.rank == 2
    assert rowspace_equal(
        tw.base, c_alpha.matrix,
        np.array([[1, 1, 1, 0], [1, 2, 0, 1]], np.uint8))
    assert is_self_orthogonal(c_alpha.matrix, tw)
    # the hull of a self-orthogonal code is the code: h = k
    assert hull_dimension(c_alpha) == c_alpha.rank


def test_worked_example_dual_orthogonality_by_enumeration():
    # |C| = 27: check every pair against the mixed inner product directly
    from addcyclic.codes import dual
    tw, alpha, beta, words = example_words()
    code = GeneratorMatrixCode(tw, [w.expand() for w in words],
                               beta=beta)
    dm = dual(code)
    assert code.size == 27
    for c in MixedWord.from_rows(tw, alpha, beta, codewords(code)):
        for d in MixedWord.from_rows(tw, alpha, beta, codewords(dm)):
            assert inner_product(c, d) == 0


def test_hull_of_example_image_is_zero():
    tw, alpha, beta, words = example_words()
    code = GeneratorMatrixCode(tw, [w.expand() for w in words],
                               beta=beta)
    img = gray_image(code)
    assert hull_dimension(img.base) == 0


def test_is_lcd_example_phi_beta():
    tw, alpha, beta, words = example_words()
    rows = [gray_block(tw, w.uprime) for w in words]
    phib = plain_code(tw, rows)
    assert (phib.width, phib.rank) == (8, 3)
    assert is_lcd(phib)
    assert rowspace_equal(tw.base, phib.matrix,
                                 np.array(WORKED_EXAMPLE_PHI_BETA, np.uint8))


def test_worked_example_full_image_matches_printed_matrix():
    tw, alpha, beta, words = example_words()
    code = GeneratorMatrixCode(tw, [w.expand() for w in words],
                               beta=beta)
    img = gray_image(code)
    assert rowspace_equal(tw.base, img.matrix,
                                 np.array(WORKED_EXAMPLE_PHI_FULL, np.uint8))


def test_self_orthogonal_not_lcd():
    tw, alpha, beta, words = example_words()
    g_alpha = linalg.as_matrix([w.u for w in words], width=alpha)
    c_alpha = plain_code(tw, g_alpha)
    assert not is_lcd(c_alpha)


def test_zero_code_is_lcd():
    assert is_lcd(plain_code(T3, np.zeros((0, 4), dtype=np.uint8)))


def test_is_lcd_disagreement_raises(monkeypatch):
    tw, alpha, beta, words = example_words()
    phi = plain_code(tw, [gray_block(tw, w.uprime) for w in words])
    assert is_lcd(phi)
    monkeypatch.setattr(lcd.linalg, "rank", lambda field, mat: 0)
    with pytest.raises(InvariantViolation):
        is_lcd(phi)


def test_is_lcd_checks_the_whole_hull_identity(monkeypatch):
    # self-orthogonal rows: the hull is the whole code, of dimension 2,
    # so the Gram rank is 0; a Gram rank of 1 breaks
    # dim(C ∩ C⊥) = k - rank(G Gᵀ) although both tests still say "not LCD"
    code = plain_code(T3, [[1, 1, 1, 0], [0, 1, 2, 1]])
    assert hull_dimension(code) == 2 and not is_lcd(code)
    monkeypatch.setattr(lcd.linalg, "rank", lambda field, mat: 1)
    with pytest.raises(InvariantViolation):
        is_lcd(code)


@pytest.mark.parametrize("off_by", [-1, 1])
def test_is_lcd_raises_on_a_gram_rank_off_by_one(monkeypatch, off_by):
    # the memoized hull dimension is read first, so only the Gram rank
    # is off; every kind of hull, trivial, partial and whole, is caught
    rank = linalg.rank
    codes = [GeneratorMatrixCode(T3, rows)
             for rows in hull_cases(T3.base, np.random.default_rng(7), 6, 6)]
    kinds = set()
    for code in codes:
        kinds.add(hull_kind(hull_dimension(code), code))
    assert kinds == {"trivial", "partial", "whole"}
    shapes = []

    def off(field, mat):
        shapes.append(np.shape(mat))
        return rank(field, mat) + off_by

    monkeypatch.setattr(lcd.linalg, "rank", off)
    sides = set()
    for code in codes:
        k, n = code.rank, code.width
        shapes.clear()
        with pytest.raises(InvariantViolation):
            is_lcd(code)
        # one Gram rank, on the smaller side: G Gᵀ, or I + AᵀA on the dual
        assert shapes == [(min(k, n - k),) * 2]
        sides.add("code" if k <= n - k else "dual")
    assert sides == {"code", "dual"}


def test_is_self_orthogonal_examples():
    assert is_self_orthogonal(np.array([[1, 1, 1, 0], [1, 2, 0, 1]], np.uint8),
                              tower=T3)
    assert not is_self_orthogonal(np.eye(3, dtype=np.uint8), tower=T3)
    assert is_self_orthogonal(np.zeros((0, 3), np.uint8), tower=T3)


@pytest.mark.parametrize("rows", [[[3, 0]], np.array([[1, 1], [0, 5]], np.uint8)])
def test_is_self_orthogonal_refuses_raw_entries_outside_fq(rows):
    # 3 and 5 are no elements of F_3: the Gram product would look them up
    # in F_3's tables
    with pytest.raises(ValueError, match="lies outside F_3"):
        is_self_orthogonal(rows, tower=T3)


@pytest.mark.parametrize("width", [4, 7, 0])
def test_certificate_refuses_a_matrix_of_the_wrong_width(width):
    # the image is of a (1, 2) split, 5 expanded columns wide
    expanded = np.array([[1, 1, 0, 0, 1], [0, 0, 1, 2, 0]], dtype=np.uint8)
    image = gray_image(GeneratorMatrixCode(T3, expanded, beta=2))
    assert lcd_certificate(expanded, image).hull_dimension_observed >= 0
    with pytest.raises(ValueError, match=f"width {width} is not alpha"):
        lcd_certificate(np.ones((2, width), dtype=np.uint8), image)


def test_rows_fq_independent():
    tw, alpha, beta, words = example_words()
    g_beta = np.array([w.uprime for w in words], dtype=np.uint8)
    assert rows_fq_independent(tw, g_beta)
    assert not rows_fq_independent(tw, np.vstack([g_beta[0], g_beta[0]]))
    assert rows_fq_independent(tw, g_beta[:1])


def test_certificate_independence_matches_rows_fq_independent():
    # the certificate reads independence from the rank of the Gray block
    # of G_beta; the oracle ranks its [b | c] expansion.  They agree on
    # independent and dependent G_beta, beta = 0 (rows of length 0) included
    rng = random.Random(239)
    nprng = np.random.default_rng(239)
    seen = set()
    for trial in range(160):
        tw = tower((2, 3, 4, 8)[trial % 4])
        alpha, beta = rng.randrange(0, 4), rng.randrange(0, 5)
        if alpha + beta == 0:
            continue
        m = rng.randrange(1, 6)
        expanded = nprng.integers(0, tw.q, size=(m, alpha + 2 * beta), dtype=np.uint8)
        if m > 1 and rng.randrange(2):
            # the last row a combination of the others
            coeffs = nprng.integers(0, tw.q, size=(1, m - 1), dtype=np.uint8)
            expanded[-1] = linalg.matmul(tw.base, coeffs, expanded[:-1])[0]
        image = gray_image(GeneratorMatrixCode(tw, expanded, beta=beta))
        cert = lcd_certificate(expanded, image)
        g_beta = tw.compose(expanded[:, alpha::2], expanded[:, alpha + 1 :: 2])
        assert cert.g_beta_rows_independent == rows_fq_independent(tw, g_beta)
        seen.add((beta == 0, cert.g_beta_rows_independent))
    assert seen == {(False, True), (False, False), (True, False)}


def test_pipeline_worked_example():
    tw, alpha, beta, words = example_words()
    cert = words_certificate(tw, alpha, beta, words)
    assert cert.c_alpha_self_orthogonal
    assert cert.g_beta_rows_independent
    assert cert.phi_c_beta_lcd
    assert cert.conclusion == LCD_GUARANTEED
    assert cert.hull_dimension_observed == 0


def test_pipeline_duplicate_beta_rows_inapplicable():
    tw, alpha, beta, words = example_words()
    dup = words + [words[0]]
    cert = words_certificate(tw, alpha, beta, dup)
    assert not cert.g_beta_rows_independent
    assert cert.conclusion == INAPPLICABLE
    assert cert.hull_dimension_observed >= 0  # still reported


def test_pipeline_identity_alpha_inapplicable():
    tw, alpha, beta, words = example_words()
    replaced = []
    for i, w in enumerate(words):
        u = [0] * alpha
        u[i] = 1
        replaced.append(MixedWord(tw, tuple(u), w.uprime))
    cert = words_certificate(tw, alpha, beta, replaced)
    assert not cert.c_alpha_self_orthogonal
    assert cert.conclusion == INAPPLICABLE


def test_hull_contained_in_code_and_dual():
    # the Zassenhaus hull lies in the code and in its dual, and its rank
    # is the hull dimension
    rng = random.Random(89)
    for _ in range(300):
        tw = rng.choice((T3, T4))
        n = rng.randrange(2, 8)
        rows = np.array([[rng.randrange(tw.q) for _ in range(n)]
                         for _ in range(rng.randrange(1, 4))], dtype=np.uint8)
        code = plain_code(tw, rows)
        h = reference_hull(code)
        assert hull_dimension(code) == h.rank
        dual_basis = linalg.kernel(tw.base, code.matrix)
        for row in h.matrix:
            assert code.contains(row)
            assert in_rowspace(tw.base, dual_basis, row)


# -- the hull against the Zassenhaus oracle and brute force -------------------


def oracle_tower(field):
    """The tower over `field`, or, for the fields of ORACLE_FIELDS that
    are no tower's base (the extensions and F_27), a stand-in holding the
    two attributes a GeneratorMatrixCode and its hull dimension read."""
    if field.order <= 16 and tower(field.order).base is field:
        return tower(field.order)
    return SimpleNamespace(base=field, q=field.order)


def self_dual_rows(field):
    """A self-dual [4, 2] code: rows (1, 0, a, b) and (0, 1, -b, a) with
    a^2 + b^2 = -1, which every finite field solves."""
    minus_one = int(field.neg(1))
    a, b = next((a, b) for a in range(field.order) for b in range(field.order)
                if int(field.add(field.mul(a, a), field.mul(b, b))) == minus_one)
    return np.array([[1, 0, a, b], [0, 1, int(field.neg(b)), a]], dtype=np.uint8)


def hull_kind(dimension, code):
    return "trivial" if dimension == 0 else "whole" if dimension == code.rank else "partial"


def hull_cases(field, rng, count, max_length):
    """Seeded generator matrices over `field`: the zero code, the full
    space, a self-dual code, and random codes, each also with random
    combinations of its dual's rows appended and as a direct sum with
    the self-dual code, so that hulls are trivial, partial and whole."""
    q = field.order
    sd = self_dual_rows(field)
    yield np.zeros((0, 5), dtype=np.uint8)
    yield np.eye(5, dtype=np.uint8)
    yield sd
    for _ in range(count):
        n = int(rng.integers(1, max_length + 1))
        M = rng.integers(0, q, size=(int(rng.integers(0, n + 1)), n), dtype=np.uint8)
        yield M
        dual = linalg.kernel(field, M)
        if len(dual):
            mix = rng.integers(0, q, size=(int(rng.integers(1, 3)), len(dual)), dtype=np.uint8)
            yield np.vstack([M, linalg.matmul(field, mix, dual)])
        yield np.block([[sd, np.zeros((2, n), np.uint8)],
                        [np.zeros((len(M), 4), np.uint8), M]])


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=field_id)
def test_hull_matches_zassenhaus_oracle(field):
    rng = np.random.default_rng(field.order)
    tw = oracle_tower(field)
    kinds = set()
    for rows in hull_cases(field, rng, 12, 8):
        code = GeneratorMatrixCode(tw, rows)
        h = hull_dimension(code)
        assert h == reference_hull(code).rank
        kinds.add(hull_kind(h, code))
    assert kinds == {"trivial", "partial", "whole"}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_hull_matches_brute_force(q):
    # the hull is the words of C orthogonal to every basis row, q^h of them
    tw = tower(q)
    rng = np.random.default_rng(31 + q)
    for rows in hull_cases(tw.base, rng, 6, 4):
        code = GeneratorMatrixCode(tw, rows)
        words = codewords(code)
        orthogonal = words[~linalg.matmul(tw.base, words, code.matrix.T).any(axis=1)]
        assert q**hull_dimension(code) == len(orthogonal)


def assert_hull_dimension(code):
    """`hull_dimension`, read first on a fresh code, against the
    Zassenhaus oracle; returns the dimension."""
    dimension = hull_dimension(code)
    assert type(dimension) is int
    assert dimension == reference_hull(code).rank
    return dimension


@pytest.mark.parametrize("tw", ORACLE_TOWERS, ids=lambda tw: f"q{tw.q}")
def test_hull_dimension_matches_hull_and_oracle(tw):
    # seeded closures and their Gray images, and beta = 0 matrices whose
    # hulls are trivial, partial and whole
    rng = random.Random(251 + tw.q)
    for _ in range(4):
        code = random_mixed_code(rng, tw, rng.randrange(1, 4), rng.randrange(1, 4))
        assert_hull_dimension(GeneratorMatrixCode(tw, code.closure.matrix,
                                                  beta=code.beta))
        assert_hull_dimension(gray_image(code).base)
    kinds = set()
    for rows in hull_cases(tw.base, np.random.default_rng(tw.q), 6, 6):
        code = GeneratorMatrixCode(tw, rows)
        h = assert_hull_dimension(code)
        kinds.add(hull_kind(h, code))
    assert kinds == {"trivial", "partial", "whole"}


@pytest.mark.parametrize("tw", ORACLE_TOWERS, ids=lambda tw: f"q{tw.q}")
def test_gram_ranks_on_both_sides_give_the_hull(tw):
    # Massey's identity on C, k - rank(G Gᵀ), and on C⊥ from the rref
    # G = [I | A], (n - k) - rank(I + AᵀA), against the memoized dimension
    # and the Zassenhaus oracle, with k below, at and above n - k
    f = tw.base
    rng = random.Random(263 + tw.q)
    codes = [gray_image(random_mixed_code(rng, tw, rng.randrange(1, 4),
                                          rng.randrange(1, 4))).base for _ in range(3)]
    codes += [GeneratorMatrixCode(tw, rows)
              for rows in hull_cases(f, np.random.default_rng(269 + tw.q), 8, 8)]
    seen = set()
    for code in codes:
        G, k, n = code.matrix, code.rank, code.width
        A = np.delete(G, code.pivots, axis=1)
        dual_gram = f.add(linalg.matmul(f, A.T, A), np.eye(n - k, dtype=np.uint8))
        h = hull_dimension(code)
        assert (k - linalg.rank(f, linalg.matmul(f, G, G.T))
                == n - k - linalg.rank(f, dual_gram) == h == reference_hull(code).rank)
        assert is_lcd(code) == (h == 0)
        seen.add((int(np.sign(k - (n - k))), h > 0))
    assert seen >= {(-1, True), (0, True), (1, True), (1, False)}


# the table images whose hull is not trivial: (table, row) -> dimension
TABLE_IMAGE_HULLS = {
    (1, 2): 2, (1, 4): 2, (1, 5): 1, (1, 7): 6, (1, 8): 4, (1, 12): 2,
    (1, 14): 2, (1, 18): 4,
    (2, 1): 1, (2, 2): 5, (2, 5): 1, (2, 6): 1, (2, 7): 17,
    (2, 8): 2, (2, 10): 3, (2, 14): 1,
}


def table_document_code(entry):
    """The code a table row's document defines: the closure of a
    definition (tables 1 and 2) or the span of a matrix (table 3)."""
    if entry.table_id == 3:
        tw, beta, expanded = load_matrix_document(entry.doc)
        return GeneratorMatrixCode(tw, expanded, beta=beta)
    return load_definition(entry.doc, strict=False)


def test_hull_dimension_of_every_table_image():
    for entry in TABLE1 + TABLE2 + TABLE3:
        image = gray_image(table_document_code(entry)).base
        expected = TABLE_IMAGE_HULLS.get((entry.table_id, entry.row), 0)
        assert assert_hull_dimension(image) == expected, (entry.table_id, entry.row)
    # row 2.8's image is self-orthogonal: its hull is the whole code
    assert gray_image(table_document_code(TABLE2[7])).rank == TABLE_IMAGE_HULLS[2, 8]


def test_lcd_criteria_agree_randomized():
    # is_lcd itself checks dim(C ∩ C⊥) + rank(G Gᵀ) = k on every code
    rng = random.Random(97)
    for _ in range(1000):
        tw = rng.choice((T3, T4, tower(8)))
        n = rng.randrange(1, 7)
        rows = np.array([[rng.randrange(tw.q) for _ in range(n)]
                         for _ in range(rng.randrange(1, 4))], dtype=np.uint8)
        is_lcd(plain_code(tw, rows))


def test_sufficiency_theorem_soundness_randomized():
    # wherever all three hypotheses hold, the observed hull must be zero;
    # a counterexample would be a build-stopping failure
    rng = random.Random(101)
    # self-orthogonal alpha blocks over F_3 to draw from, so that the
    # hypotheses actually hold a decent fraction of the time
    alpha_pool = {
        3: [(0, 0, 0), (1, 1, 1), (2, 2, 2)],
        4: [(0, 0, 0, 0), (1, 1, 1, 0), (1, 2, 0, 1), (2, 2, 2, 0)],
    }
    guaranteed = multi = 0
    for trial in range(1200):
        tw = T3
        if trial % 2:
            alpha = rng.choice((3, 4))
            beta = rng.randrange(1, 5)
            k = rng.randrange(1, min(3, 2 * beta) + 1)
            words = [
                MixedWord(tw, rng.choice(alpha_pool[alpha]),
                          tuple(rng.randrange(9) for _ in range(beta)))
                for _ in range(k)
            ]
        else:
            alpha, beta = rng.randrange(1, 5), rng.randrange(1, 5)
            k = rng.randrange(1, min(alpha, 2 * beta) + 1)
            words = [
                MixedWord(tw, tuple(rng.randrange(3) for _ in range(alpha)),
                          tuple(rng.randrange(9) for _ in range(beta)))
                for _ in range(k)
            ]
        cert = words_certificate(tw, alpha, beta, words)
        if cert.conclusion == LCD_GUARANTEED:
            guaranteed += 1
            multi += len(words) > 1
            assert cert.hull_dimension_observed == 0
    assert guaranteed >= 100 and multi >= 20  # the implication was exercised


def test_load_matrix_document_errors():
    with pytest.raises(ValueError):
        load_matrix_document({"q": 3, "alpha": 2, "beta": 1,
                              "rows": [["1", "2"]]})  # wrong width


@pytest.mark.parametrize("key", ["row", "Rows", "s", "f3"])
def test_load_matrix_document_refuses_keys_outside_its_set(key):
    doc = {"q": 3, "alpha": 1, "beta": 1, "rows": [["1", "w"]], key: "1"}
    with pytest.raises(ValueError, match=f"unknown key '{key}'"):
        load_matrix_document(doc)


def test_pipeline_on_cyclic_code():
    from addcyclic.lcd import lcd_pipeline_code
    from addcyclic.poly import parse_poly
    code_words = {
        "s": parse_poly("1", T3.base, T3),
        "l": parse_poly("2w+2", T3.ext, T3),
        "g": parse_poly("1", T3.base, T3),
        "h": parse_poly("x", T3.base, T3),
        "k": parse_poly("x^3+2", T3.base, T3),
    }
    from addcyclic.codes import MixedCode
    code = MixedCode(T3, 3, 3, code_words["s"], code_words["l"],
                     code_words["g"], code_words["h"], code_words["k"])
    cert = lcd_pipeline_code(code)
    # with s = 1 the alpha projection is everything, so the
    # self-orthogonality hypothesis fails; the hull is still observed
    assert not cert.c_alpha_self_orthogonal
    assert cert.conclusion == INAPPLICABLE
    assert cert.hull_dimension_observed >= 0


def test_load_matrix_document_honours_tower_overrides():
    doc = {"q": 3, "alpha": 1, "beta": 1, "rows": [["1", "w"]],
           "f2": "x^2+x+2"}
    tw, beta, expanded = load_matrix_document(doc)
    assert tw is tower(3, f2=[2, 1, 1]) and tw is not T3
    assert expanded.dtype == np.uint8 and expanded.tolist() == [[1, 0, 1]]  # 1 | 0 + 1*w
    # w^2 = -w - 2 = 2w + 1 under the override, w^2 = -1 = 2 by default
    assert tw.ext.mul(tw.omega, tw.omega) == tw.compose(1, 2)
    assert T3.ext.mul(T3.omega, T3.omega) == 2
    assert load_matrix_document(dict(doc, f2="x^2+1"))[0].f2 == T3.f2 == (1, 0, 1)
    f1_doc = {"q": 4, "alpha": 0, "beta": 1, "rows": [["u"]], "f1": "x^2+x+1"}
    assert load_matrix_document(f1_doc)[0] is tower(4, f1=(1, 1, 1))


def test_load_matrix_document_matches_the_oracle_words():
    # each literal split into its (b, c) columns: the expansion of the
    # words parsed from the same literals, on every table-3 row and on
    # seeded random documents with F_q2 entries of both components
    docs = [entry.doc for entry in TABLE3]
    rng = random.Random(241)
    for q in (2, 3, 4, 8, 9):
        tw = tower(q)
        for _ in range(10):
            alpha, beta = rng.randrange(0, 4), rng.randrange(1, 5)
            docs.append({"q": q, "alpha": alpha, "beta": beta, "rows": [
                [format_element(tw.base, rng.randrange(q)) for _ in range(alpha)]
                + [format_element(tw.ext, rng.randrange(q * q)) for _ in range(beta)]
                for _ in range(rng.randrange(1, 4))]})
    for doc in docs:
        tw, beta, expanded = load_matrix_document(doc)
        words = document_words(doc)[3]
        assert expanded.dtype == np.uint8
        assert np.array_equal(expanded, expand_words(words, doc["alpha"] + 2 * beta))


def test_load_matrix_document_and_definition_share_tower_parsing():
    from addcyclic.codes import load_definition
    definition = {"q": 3, "beta": 1, "g": "1", "h": "0", "k": "1",
                  "f2": "x^2+x+2"}
    matrix = {"q": 3, "alpha": 0, "beta": 1, "rows": [["1"]], "f2": "x^2+x+2"}
    assert load_definition(definition).tower is load_matrix_document(matrix)[0]


# -- the matrix-read certificate and the memoized image and hull dimension ----

QS = (2, 3, 4, 5, 7, 8)


def reference_lcd_pipeline(tower, alpha, beta, rows):
    """The words-based pipeline the matrix-read certificate replaced: the
    hypotheses from the MixedWords' parts, the observed hull dimension
    from a Gray image and a Zassenhaus hull built afresh."""
    words = list(rows)
    g_alpha = linalg.as_matrix([w.u for w in words], width=alpha)
    g_beta = np.asarray([w.uprime for w in words], dtype=np.uint8).reshape(
        len(words), beta)
    self_orth = is_self_orthogonal(g_alpha, tower=tower)
    independent = rows_fq_independent(tower, g_beta)
    phi_c_beta = GeneratorMatrixCode(tower, gray_block(tower, g_beta))
    beta_lcd = reference_hull(phi_c_beta).rank == 0
    expanded = linalg.as_matrix([w.expand() for w in words], width=alpha + 2 * beta)
    code = GeneratorMatrixCode(tower, expanded, beta=beta)
    image = GeneratorMatrixCode(tower, gray_rows(tower, alpha, code.matrix))
    ok = self_orth and independent and beta_lcd
    return lcd.LcdCertificate(
        c_alpha_self_orthogonal=self_orth,
        g_beta_rows_independent=independent,
        phi_c_beta_lcd=beta_lcd,
        conclusion=LCD_GUARANTEED if ok else INAPPLICABLE,
        hull_dimension_observed=reference_hull(image).rank,
    )


def random_lcd_cases(seed, count):
    """(tower, code) pairs: seeded random mixed codes over every q."""
    rng = random.Random(seed)
    for trial in range(count):
        tw = tower(QS[trial % len(QS)])
        yield tw, random_mixed_code(rng, tw, rng.randrange(1, 5), rng.randrange(1, 6))


def closure_words(code):
    gm = code.closure
    return MixedWord.from_rows(gm.tower, gm.alpha, gm.beta, gm.matrix)


def test_memoized_image_and_hull_equal_fresh_results():
    for tw, code in random_lcd_cases(229, 60):
        gm = code.closure
        image = gray_image(code)
        assert gray_image(gm) is image and gray_image(code) is image
        h = hull_dimension(image.base)
        # a fresh copy of the same matrix, nothing memoized on it
        fresh = GeneratorMatrixCode(tw, np.array(gm.matrix), beta=gm.beta)
        fresh_image = GeneratorMatrixCode(tw, gray_rows(tw, gm.alpha, fresh.matrix))
        assert np.array_equal(image.matrix, fresh_image.matrix)
        assert h == reference_hull(fresh_image).rank
        assert hull_dimension(gm) == reference_hull(fresh).rank
        assert is_lcd(image.base) == (reference_hull(fresh_image).rank == 0)


def test_stored_matrices_are_read_only():
    tw, code = next(random_lcd_cases(233, 1))
    image = gray_image(code)
    for gm in (code.closure, image.base):
        with pytest.raises(ValueError):
            gm.matrix[..., :1] = 1


def test_certificate_matches_words_pipeline_randomized():
    for tw, code in random_lcd_cases(239, 60):
        words = closure_words(code)
        expected = reference_lcd_pipeline(tw, code.alpha, code.beta, words)
        assert lcd_pipeline_code(code) == expected
        assert words_certificate(tw, code.alpha, code.beta, words) == expected
        # the given rows, dependent ones included, not their span's basis
        doubled = words + words[:1]
        assert (words_certificate(tw, code.alpha, code.beta, doubled)
                == reference_lcd_pipeline(tw, code.alpha, code.beta, doubled))


def test_certificate_matches_words_pipeline_on_documents():
    tw, alpha, beta, words = example_words()
    replaced = []
    for i, w in enumerate(words):
        u = [0] * alpha
        u[i] = 1
        replaced.append(MixedWord(tw, tuple(u), w.uprime))
    for rows in (words, words + [words[0]], replaced):
        assert (words_certificate(tw, alpha, beta, rows)
                == reference_lcd_pipeline(tw, alpha, beta, rows))
    for entry in TABLE3:
        tw, beta, expanded = load_matrix_document(entry.doc)
        words = document_words(entry.doc)[3]
        assert (_rows_certificate(tw, beta, expanded)[1]
                == reference_lcd_pipeline(tw, entry.doc["alpha"], beta, words))


def count_calls(monkeypatch, module_names, name, read=lambda args: args[0]):
    """Wrap the function `name` wherever the named modules hold it and
    return the list of what `read` takes from the arguments of each
    call, by default the first."""
    seen = []
    modules = [importlib.import_module(f"addcyclic.{m}") for m in module_names]
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        seen.append(read(args))
        return original(*args, **kwargs)

    for mod in modules:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return seen


def image_hulls(hull_args, image_width):
    """Calls on the Gray image of the whole code (not on the image of
    its beta part, which is narrower)."""
    return [c for c in hull_args if c.width == image_width]


def count_hull_work(monkeypatch):
    """(dimensions, kernels): the codes `hull_dimension` is asked for,
    and the widths of the bases whose dual `linalg.kernel_of_rref` reads,
    once per dimension computed."""
    return (count_calls(monkeypatch, ("lcd",), "hull_dimension"),
            count_calls(monkeypatch, ("linalg",), "kernel_of_rref",
                        read=lambda args: args[1].shape[1]))


def test_one_image_and_one_hull_per_table3_row(monkeypatch):
    images = count_calls(monkeypatch, ("gray", "lcd", "tables", "cli"), "gray_image")
    built = count_calls(monkeypatch, ("gray",), "_build_gray_image")
    dimensions, kernels = count_hull_work(monkeypatch)
    for entry in TABLE3:
        del images[:], built[:], dimensions[:], kernels[:]
        rep = verify_entry(entry)
        assert rep.status == "ok" and rep.lcd == "yes"
        assert len(images) == 1 and len(built) == 1
        assert len(image_hulls(dimensions, entry.expected_n)) == 1
        assert kernels.count(entry.expected_n) == 1


def test_one_image_and_one_hull_per_lcd_command(monkeypatch, capsys):
    images = count_calls(monkeypatch, ("gray", "lcd", "tables", "cli"), "gray_image")
    built = count_calls(monkeypatch, ("gray",), "_build_gray_image")
    dimensions, kernels = count_hull_work(monkeypatch)
    doc = json.dumps({"q": 3, "alpha": 4, "beta": 2,
                      "rows": [["1", "1", "1", "0", "w", "w"],
                               ["1", "2", "0", "1", "2", "w+1"]]})
    assert main(["lcd", "--input", doc, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lcd"] is True and out["hull_dimension_observed"] == 0
    assert len(images) == 1 and len(built) == 1
    assert len(image_hulls(dimensions, 8)) == 1
    assert kernels.count(8) == 1


def test_workload_pipeline_shares_the_image_and_hull(monkeypatch):
    # the benchmark's algebra sequence: is_lcd on the image, then the
    # certificate of the same cyclic code; both read the image's hull
    # dimension, which is computed once
    built = count_calls(monkeypatch, ("gray",), "_build_gray_image")
    dimensions, kernels = count_hull_work(monkeypatch)
    for tw, code in random_lcd_cases(241, 12):
        del built[:], dimensions[:], kernels[:]
        image = gray_image(code)
        verdict = is_lcd(image.base)
        cert = lcd_pipeline_code(code)
        assert verdict == (cert.hull_dimension_observed == 0)
        assert len(built) == 1
        assert image_hulls(dimensions, image.length) == [image.base] * 2
        assert kernels.count(image.length) == 1
