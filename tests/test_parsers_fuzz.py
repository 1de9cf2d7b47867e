"""Property-based fuzzing of the document parsers.

Every input to `parse_poly`, `load_definition` and `load_matrix_document`
either parses or raises one of `cli.DOCUMENT_ERRORS`, the exceptions the
command line reports with exit code 2, and `parse_poly` agrees with the
Poly-valued reference parser of `oracles` on every input.  Runs are
derandomized and bounded, so the suite stays deterministic.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from addcyclic.cli import DOCUMENT_ERRORS
from addcyclic.codes import load_definition, load_matrix_document, load_tower
from addcyclic.fields import tower
from addcyclic.poly import Poly, format_poly, parse_poly
from addcyclic.tables import TABLES

from oracles import reference_parse_poly

FUZZ = settings(derandomize=True, max_examples=250, deadline=None,
                database=None, suppress_health_check=[HealthCheck.too_slow])

TOWERS = tuple(tower(q) for q in (2, 3, 4, 8, 9))

# the notation's own characters, plus some it rejects
NOTATION = "0123456789uwxy+*^() -.,"
# whitespace beyond ASCII (no-break, em and ideographic spaces, a file
# separator), and digits beyond ASCII (superscript two, Arabic-Indic three)
UNICODE = "\u00a0\u2003\u3000\x1c\u00b2\u0663"
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
UNICODE_TEXT = st.one_of(
    st.text(NOTATION + UNICODE, max_size=30),
    st.tuples(EXPRESSIONS, st.sampled_from(UNICODE), st.integers(0, 30)).map(
        lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:]))

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


def _outcome(parse, text, field, tw):
    """A parser's verdict on one literal: the Poly, with its field's
    identity and its coefficients' types, or the exception's type,
    message and position."""
    try:
        p = parse(text, field, tw)
    except ValueError as exc:  # PolyParseError, or int() past its digit limit
        return type(exc), str(exc), getattr(exc, "pos", None)
    return p, p.field is field, [type(c) for c in p.coeffs]


def _agrees_with_the_reference(text, field, tw):
    got = _outcome(parse_poly, text, field, tw)
    assert got == _outcome(reference_parse_poly, text, field, tw)
    if type(got[0]) is Poly:
        assert got[1] and set(got[2]) <= {int}
    return got


@FUZZ
@given(text=st.one_of(POLY_TEXT, UNICODE_TEXT),
       which=st.integers(0, len(TOWERS) - 1), top=st.booleans())
def test_parse_poly_equals_the_reference_parser(text, which, top):
    tw = TOWERS[which]
    _agrees_with_the_reference(text, tw.ext if top else tw.base, tw)


def _table_literals():
    """(text, field, tower) of every literal of every table document."""
    for entries in TABLES.values():
        for entry in entries:
            doc = entry.doc
            tw = load_tower(doc, tuple(doc))
            if "rows" in doc:
                for row in doc["rows"]:
                    for j, text in enumerate(row):
                        yield text, tw.base if j < doc["alpha"] else tw.ext, tw
            else:
                for key in ("s", "l", "g", "h", "k"):
                    if key in doc:
                        yield doc[key], tw.ext if key == "l" else tw.base, tw


def test_every_table_literal_parses_as_the_reference_does():
    literals = list(_table_literals())
    assert len(literals) == 324
    for text, field, tw in literals:
        assert type(_agrees_with_the_reference(text, field, tw)[0]) is Poly


T3, T4 = tower(3), tower(4)


@pytest.mark.parametrize("text", [
    # whitespace is str.isspace, Unicode included, between any tokens
    "x\u00a0+\u20031", "\u2003x^2\u3000", "x^\u00a02", "2\x1cx", "x^1\u00a00",
    # digits are ASCII only
    "x²+1", "x^٣+1", "٣x+1", "x^2+\u00a0٣", "x^1٣+1", "2٣x",
    # the error positions test_poly pins
    "x^^2", "x^1025", "x^600x^600", "(x^2+1)^600", "2^99999999999",
    "(" * 65 + "x" + ")" * 65, "(" * 64 + "x" + ")" * 64,
    # every other refusal, and powers at the edges of the bounds
    "x^2-1", "x^2+1)", "((x)", "x+", "+x", "x^2^3", "x*", "x^", "", " ", "ux", "x+w",
    "x^0", "0^0", "(x+2x)^2000", "0x^1024x", "x^512*x^512", "(x+1)^1024",
    # a digit run past int()'s limit: after a syntax error, before one,
    # and after a minus
    "x^^" + "9" * 5000, "9" * 5000 + "^^", "x-" + "9" * 5000,
], ids=lambda text: (f"{text[:4]}...{len(text)}-chars" if len(text) > 40
                    else text if text.strip() else f"{len(text)}-blank"))
def test_parse_poly_edge_cases_equal_the_reference(text):
    for tw in (T3, T4):
        for field in (tw.base, tw.ext):
            _agrees_with_the_reference(text, field, tw)
