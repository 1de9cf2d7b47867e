"""Additive cyclic codes over the mixed alphabet F_q x F_q2.

Construction from generator polynomials, ground-truth generator matrices
via module closure, duals under the mixed inner product, Gray images and
their quasi-cyclic classification, LCD certificates, exact minimum
distances and upper bounds, and a verification harness for the built-in
tables.
"""

from .codes import (
    Cardinality,
    CodeConstructionError,
    ExtractedGenerators,
    GeneratorMatrixCode,
    InvariantViolation,
    MixedCode,
    SingletonResult,
    SpanningSet,
    dual,
    extract_mixed_generators,
    invariant_under,
    is_cyclic,
    load_definition,
    load_matrix_document,
    module_closure,
    singleton_check,
)
from .distance import (
    DEFAULT_BUDGET,
    DistanceBudgetError,
    DistanceResult,
    min_distance,
    min_distance_exact,
    min_distance_upper,
)
from .fields import Field, FieldMismatchError, FieldTower, tower
from .gray import (
    CYCLIC_EQUIVALENT,
    GENERALIZED_QC,
    QUASI_CYCLIC_3,
    GrayImageCode,
    classify_gray_image,
    gray_image,
    shift_invariance_check,
)
from .lcd import (
    INAPPLICABLE,
    LCD_GUARANTEED,
    LcdCertificate,
    hull_dimension,
    is_lcd,
    is_self_orthogonal,
    lcd_certificate,
    lcd_pipeline_code,
)
from .poly import (
    Poly,
    PolyParseError,
    divides,
    format_poly,
    parse_poly,
    parse_scalar,
    poly_gcd,
)
from .tables import TABLE1, TABLE2, TABLE3, TableEntry, verify_all, verify_entry

__version__ = "0.1.0"
