"""Additive cyclic codes over the mixed alphabet F_q x F_q2.

Construction from generator polynomials, ground-truth generator matrices
via module closure, duals under the mixed inner product, Gray images and
their quasi-cyclic classification, LCD certificates, exact and sampled
minimum distances, and a verification harness for the built-in tables.
"""

from .codes import (
    CanonicalFormError,
    Cardinality,
    CodeConstructionError,
    ExtractedGenerators,
    GeneratorMatrixCode,
    InvariantViolation,
    MixedCode,
    MixedWord,
    PureCode,
    SingletonResult,
    SpanningSet,
    canonicalize_pure,
    dual,
    extract_mixed_generators,
    inner_product,
    invariant_under,
    is_cyclic,
    load_definition,
    module_closure,
    projections,
    singleton_check,
    star,
)
from .distance import (
    DEFAULT_BUDGET,
    DistanceBudgetError,
    DistanceResult,
    WeightProfile,
    min_distance,
    min_distance_exact,
    min_distance_upper,
    weight,
)
from .fields import Field, FieldMismatchError, FieldTower, tower
from .gray import (
    CYCLIC_EQUIVALENT,
    GENERALIZED_QC,
    QUASI_CYCLIC_3,
    GrayImageCode,
    classify_gray_image,
    gray_block,
    gray_image,
    gray_word,
    gray_word_inverse,
    shift_invariance_check,
)
from .lcd import (
    INAPPLICABLE,
    LCD_GUARANTEED,
    LcdCertificate,
    hull,
    is_lcd,
    is_self_orthogonal,
    lcd_certificate,
    lcd_pipeline,
    lcd_pipeline_code,
    load_matrix_document,
    rows_fq_independent,
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
