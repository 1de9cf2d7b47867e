"""The names `addcyclic` exports, and every library attribute the
benchmark's workloads reach: the benchmark is a caller that this suite
does not run, so a function only it calls is guarded here."""

import ast
import types
from pathlib import Path

import addcyclic

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
LAYERS = ("codes", "distance", "fields", "gray", "lcd", "linalg", "poly", "tables")
EXPORTS = set("""
    Cardinality CodeConstructionError ExtractedGenerators GeneratorMatrixCode
    InvariantViolation MixedCode SingletonResult SpanningSet
    dual extract_mixed_generators invariant_under is_cyclic load_definition
    module_closure singleton_check DEFAULT_BUDGET DistanceBudgetError
    DistanceResult min_distance min_distance_exact min_distance_upper Field
    FieldMismatchError FieldTower tower CYCLIC_EQUIVALENT GENERALIZED_QC
    QUASI_CYCLIC_3 GrayImageCode classify_gray_image gray_image
    shift_invariance_check INAPPLICABLE LCD_GUARANTEED LcdCertificate hull is_lcd
    is_self_orthogonal lcd_certificate lcd_pipeline_code load_matrix_document
    Poly PolyParseError divides format_poly parse_poly parse_scalar poly_gcd
    TABLE1 TABLE2 TABLE3 TableEntry verify_all verify_entry""".split())
# methods the workloads call on what the library returns, which a reading
# of workloads.py cannot resolve to a module attribute
METHODS = ["poly.Poly.xn_minus_1", "poly.Poly.is_zero", "poly.Poly.monic",
           "poly.Poly.__floordiv__", "codes.MixedCode.closure",
           "codes.MixedCode.cardinality", "codes.MixedCode.spanning_set",
           "codes.Cardinality.agree", "codes.GeneratorMatrixCode.rank",
           "codes.GeneratorMatrixCode.contains_code", "gray.GrayImageCode.rank",
           "tables.VerificationReport.to_json"]


def test_exports_are_pinned():
    assert {name for name, value in vars(addcyclic).items() if not name.startswith("_")
            and not isinstance(value, types.ModuleType)} == EXPORTS


def test_every_attribute_the_workloads_reach_exists():
    reached = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Subscript) and getattr(owner.value, "id", None) == "lib":
            reached.add(f"{owner.slice.value}.{node.attr}")  # lib["codes"].dual
        elif isinstance(owner, ast.Name) and owner.id in LAYERS:
            reached.add(f"{owner.id}.{node.attr}")  # codes.dual
    assert {"poly.poly_gcd", "lcd.lcd_pipeline_code", "codes.dual"} <= reached
    missing = []
    for path in sorted(reached) + METHODS:
        obj = addcyclic
        for name in path.split("."):
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(path)
    assert not missing


def test_every_table_entry_has_what_the_workloads_read():
    # the workloads key each row by (table_id, row) and build the tower of q
    keys = set()
    for table_id, entries in addcyclic.tables.TABLES.items():
        for entry in entries:
            assert entry.table_id == table_id
            assert isinstance(entry.row, int) and isinstance(entry.q, int)
            addcyclic.tower(entry.q)
            keys.add((entry.table_id, entry.row))
    assert len(keys) == sum(map(len, addcyclic.tables.TABLES.values()))


def test_verify_entry_ignores_the_seed_the_workloads_pass():
    # the workloads call verify_entry(entry, seed=seed); every distance is
    # deterministic, so a bound row's report is the same with or without it
    tables = addcyclic.tables
    entry = addcyclic.TABLE1[6]  # 4^20 words, past the default budget
    report = tables.verify_entry(entry, seed=3)
    assert report.d_mode == "bound" and report.computed_d == entry.expected_d
    seeded, plain = (tables.VerificationReport([rep]).to_json()
                     for rep in (report, tables.verify_entry(entry)))
    assert seeded == plain
