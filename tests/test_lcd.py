"""Hulls, LCD checks, and the sufficiency pipeline."""

import random

import numpy as np
import pytest

from addcyclic import linalg
from addcyclic import lcd
from addcyclic.codes import GeneratorMatrixCode, InvariantViolation, MixedWord
from addcyclic.fields import tower
from addcyclic.gray import gray_block, gray_image
from addcyclic.lcd import (
    INAPPLICABLE,
    LCD_GUARANTEED,
    hull,
    is_lcd,
    is_self_orthogonal,
    lcd_pipeline,
    load_matrix_document,
    rows_fq_independent,
)
from addcyclic.tables import (
    TABLE3,
    WORKED_EXAMPLE_PHI_BETA,
    WORKED_EXAMPLE_PHI_FULL,
    WORKED_EXAMPLE_ROW,
    build_table3_words,
)

from test_codes import random_mixed_code

T3 = tower(3)
T4 = tower(4)


def example_words():
    return build_table3_words(TABLE3[WORKED_EXAMPLE_ROW - 1])


def plain_code(field_tower, rows):
    return GeneratorMatrixCode(field_tower, linalg.as_matrix(rows))


def test_hull_of_full_space():
    code = plain_code(T3, np.eye(5, dtype=np.uint8))
    assert hull(code).rank == 0


def test_hull_of_self_orthogonal_projection():
    tw, alpha, beta, words = example_words()
    g_alpha = linalg.as_matrix([w.u for w in words], width=alpha)
    c_alpha = plain_code(tw, g_alpha)
    assert c_alpha.rank == 2
    assert linalg.rowspace_equal(
        tw.base, c_alpha.matrix,
        np.array([[1, 1, 1, 0], [1, 2, 0, 1]], np.uint8))
    assert is_self_orthogonal(c_alpha)
    h = hull(c_alpha)
    assert h.rank == 2
    assert linalg.rowspace_equal(tw.base, h.matrix, c_alpha.matrix)


def test_worked_example_dual_orthogonality_by_enumeration():
    # |C| = 27: check every pair against the mixed inner product directly
    from addcyclic.codes import dual, inner_product
    tw, alpha, beta, words = example_words()
    code = GeneratorMatrixCode(tw, [w.expand() for w in words],
                               alpha=alpha, beta=beta)
    dm = dual(code)
    assert code.size == 27
    for cvec in code.words():
        c = MixedWord.from_expanded(tw, alpha, beta, cvec)
        for dvec in dm.words():
            d = MixedWord.from_expanded(tw, alpha, beta, dvec)
            assert inner_product(c, d) == 0


def test_hull_of_example_image_is_zero():
    tw, alpha, beta, words = example_words()
    code = GeneratorMatrixCode(tw, [w.expand() for w in words],
                               alpha=alpha, beta=beta)
    img = gray_image(code)
    assert hull(img.base).rank == 0


def test_is_lcd_example_phi_beta():
    tw, alpha, beta, words = example_words()
    rows = [gray_block(tw, w.uprime) for w in words]
    phib = plain_code(tw, rows)
    assert (phib.width, phib.rank) == (8, 3)
    assert is_lcd(phib)
    assert linalg.rowspace_equal(tw.base, phib.matrix,
                                 np.array(WORKED_EXAMPLE_PHI_BETA, np.uint8))


def test_worked_example_full_image_matches_printed_matrix():
    tw, alpha, beta, words = example_words()
    code = GeneratorMatrixCode(tw, [w.expand() for w in words],
                               alpha=alpha, beta=beta)
    img = gray_image(code)
    assert linalg.rowspace_equal(tw.base, img.matrix,
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
    monkeypatch.setattr(lcd.linalg, "determinant", lambda field, mat: 0)
    with pytest.raises(InvariantViolation):
        is_lcd(phi)


def test_is_self_orthogonal_examples():
    assert is_self_orthogonal(np.array([[1, 1, 1, 0], [1, 2, 0, 1]], np.uint8),
                              tower=T3)
    assert not is_self_orthogonal(np.eye(3, dtype=np.uint8), tower=T3)
    assert is_self_orthogonal(np.zeros((0, 3), np.uint8), tower=T3)


def test_rows_fq_independent():
    tw, alpha, beta, words = example_words()
    g_beta = np.array([w.uprime for w in words], dtype=np.uint8)
    assert rows_fq_independent(tw, g_beta)
    assert not rows_fq_independent(tw, np.vstack([g_beta[0], g_beta[0]]))
    assert rows_fq_independent(tw, g_beta[:1])


def test_pipeline_worked_example():
    tw, alpha, beta, words = example_words()
    cert = lcd_pipeline(tw, alpha, beta, words)
    assert cert.c_alpha_self_orthogonal
    assert cert.g_beta_rows_independent
    assert cert.phi_c_beta_lcd
    assert cert.conclusion == LCD_GUARANTEED
    assert cert.hull_dimension_observed == 0


def test_pipeline_duplicate_beta_rows_inapplicable():
    tw, alpha, beta, words = example_words()
    dup = words + [words[0]]
    cert = lcd_pipeline(tw, alpha, beta, dup)
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
    cert = lcd_pipeline(tw, alpha, beta, replaced)
    assert not cert.c_alpha_self_orthogonal
    assert cert.conclusion == INAPPLICABLE


def test_hull_contained_in_code_and_dual():
    rng = random.Random(89)
    for _ in range(300):
        tw = rng.choice((T3, T4))
        n = rng.randrange(2, 8)
        rows = np.array([[rng.randrange(tw.q) for _ in range(n)]
                         for _ in range(rng.randrange(1, 4))], dtype=np.uint8)
        code = plain_code(tw, rows)
        h = hull(code)
        dual_basis = linalg.kernel(tw.base, code.matrix)
        for row in h.matrix:
            assert code.contains(row)
            assert linalg.in_rowspace(tw.base, dual_basis, row)


def test_lcd_criteria_agree_randomized():
    # is_lcd itself asserts hull-rank and Gram-determinant agreement
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
        cert = lcd_pipeline(tw, alpha, beta, words)
        if cert.conclusion == LCD_GUARANTEED:
            guaranteed += 1
            multi += len(words) > 1
            assert cert.hull_dimension_observed == 0
    assert guaranteed >= 100 and multi >= 20  # the implication was exercised


def test_load_matrix_document_errors():
    with pytest.raises(ValueError):
        load_matrix_document({"q": 3, "alpha": 2, "beta": 1,
                              "rows": [["1", "2"]]})  # wrong width


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
    tw, alpha, beta, words = load_matrix_document(doc)
    assert tw is tower(3, f2=[2, 1, 1]) and tw is not T3
    assert words[0].tower is tw and words[0].uprime == (tw.omega,)
    # w^2 = -w - 2 = 2w + 1 under the override, w^2 = -1 = 2 by default
    assert tw.ext.mul(tw.omega, tw.omega) == tw.compose(1, 2)
    assert T3.ext.mul(T3.omega, T3.omega) == 2
    assert load_matrix_document(dict(doc, f2="x^2+1"))[0].f2 == T3.f2 == (1, 0, 1)
    f1_doc = {"q": 4, "alpha": 0, "beta": 1, "rows": [["u"]], "f1": "x^2+x+1"}
    assert load_matrix_document(f1_doc)[0] is tower(4, f1=(1, 1, 1))


def test_load_matrix_document_and_definition_share_tower_parsing():
    from addcyclic.codes import load_definition
    definition = {"q": 3, "beta": 1, "g": "1", "h": "0", "k": "1",
                  "f2": "x^2+x+2"}
    matrix = {"q": 3, "alpha": 0, "beta": 1, "rows": [["1"]], "f2": "x^2+x+2"}
    assert load_definition(definition).tower is load_matrix_document(matrix)[0]
