"""Property-based fuzzing of the document parsers.

Every input to `parse_poly`, `load_definition` and `load_matrix_document`
either parses or raises one of `cli.DOCUMENT_ERRORS`, the exceptions the
command line reports with exit code 2.  Runs are derandomized and bounded,
so the suite stays deterministic.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from addcyclic.cli import DOCUMENT_ERRORS
from addcyclic.codes import load_definition, load_matrix_document
from addcyclic.fields import tower
from addcyclic.poly import Poly, format_poly, parse_poly

FUZZ = settings(derandomize=True, max_examples=250, deadline=None,
                database=None, suppress_health_check=[HealthCheck.too_slow])

TOWERS = tuple(tower(q) for q in (2, 3, 4, 8, 9))

# the notation's own characters, plus some it rejects
NOTATION = "0123456789uwxy+*^() -.,"
def expressions(atoms):
    """Expressions built from the grammar, exponents up to past the degree cap."""
    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map("+".join),
            st.tuples(inner, inner).map("*".join),
            st.tuples(inner, inner).map("".join),
            st.tuples(inner, st.integers(0, 1100)).map(lambda t: f"{t[0]}^{t[1]}"),
            inner.map(lambda e: f"({e})"),
        ),
        max_leaves=8,
    )


EXPRESSIONS = expressions(["x", "y", "u", "w", "0", "1", "2", "7", "12"])
BASE_EXPRESSIONS = expressions(["x", "x", "u", "0", "1", "2"])
POLY_TEXT = st.one_of(EXPRESSIONS, st.text(NOTATION, max_size=30), st.text(max_size=12))

# JSON values: small integers, so valid documents stay quick to build
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 18),
                         st.floats(allow_nan=False, allow_infinity=False),
                         POLY_TEXT)
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=4),
                           max_leaves=6)
_DROP = object()


def documents(plausible, keys):
    """Documents drawn from `plausible`, then up to two of the given keys
    replaced by an arbitrary JSON value or dropped."""
    def corrupt(drawn):
        doc, edits = drawn
        for key, value in edits:
            if value is _DROP:
                doc.pop(key, None)
            else:
                doc[key] = value
        return json.loads(json.dumps(doc))

    edits = st.lists(st.tuples(st.sampled_from(keys),
                               st.one_of(st.just(_DROP), JSON_VALUES)), max_size=2)
    return st.tuples(plausible, edits).map(corrupt)


Q = st.sampled_from([2, 3, 4, 5, 8, 9, 16])
BLOCK = st.integers(0, 5)
F1 = st.sampled_from(["x^2+x+1", "x^3+x+1", "x^2+1", "x"])
F2 = st.sampled_from(["x^2+1", "x^2+x+2", "x^2+x+u", "x^2+ux+1", "x^3"])
LITERAL = st.one_of(st.sampled_from(["0", "1", "2", "u", "w", "2w+1", "uw"]),
                    st.integers(0, 9))


def _pure_without_s_and_l(doc):
    """A pure document (alpha 0) takes no s or l: drop them, so that pure
    codes are built and not only refused."""
    return doc if doc["alpha"] else {key: value for key, value in doc.items()
                                     if key not in ("s", "l")}


DEFINITIONS = documents(
    st.fixed_dictionaries(
        dict(q=Q, alpha=BLOCK, beta=BLOCK, s=BASE_EXPRESSIONS, l=EXPRESSIONS,
             g=BASE_EXPRESSIONS, h=BASE_EXPRESSIONS, k=BASE_EXPRESSIONS),
        optional=dict(f1=F1, f2=F2)).map(_pure_without_s_and_l),
    ["q", "alpha", "beta", "s", "l", "g", "h", "k", "f1", "f2"])
MATRICES = documents(
    st.tuples(BLOCK, BLOCK).flatmap(lambda ab: st.fixed_dictionaries(
        dict(q=Q, alpha=st.just(ab[0]), beta=st.just(ab[1]),
             rows=st.lists(st.lists(LITERAL, min_size=sum(ab), max_size=sum(ab)),
                           max_size=3)),
        optional=dict(f2=F2))),
    ["q", "alpha", "beta", "rows", "f2"])


def _parses_or_raises_document_error(load, doc):
    try:
        load(doc)
    except DOCUMENT_ERRORS:
        pass


@FUZZ
@given(text=POLY_TEXT, which=st.integers(0, len(TOWERS) - 1), top=st.booleans())
def test_parse_poly_parses_or_raises_document_error(text, which, top):
    tw = TOWERS[which]
    field = tw.ext if top else tw.base
    try:
        p = parse_poly(text, field, tw)
    except DOCUMENT_ERRORS:
        return
    assert isinstance(p, Poly) and p.field is field
    assert parse_poly(format_poly(p), field, tw) == p


@FUZZ
@given(doc=DEFINITIONS, strict=st.booleans())
def test_load_definition_parses_or_raises_document_error(doc, strict):
    _parses_or_raises_document_error(
        lambda d: load_definition(d, strict=strict), doc)


@FUZZ
@given(doc=MATRICES)
def test_load_matrix_document_parses_or_raises_document_error(doc):
    _parses_or_raises_document_error(load_matrix_document, doc)


@FUZZ
@given(doc=JSON_VALUES)
def test_loaders_reject_documents_that_are_not_objects(doc):
    for load in (load_definition, load_matrix_document):
        _parses_or_raises_document_error(load, doc)
