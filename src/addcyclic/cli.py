"""Command-line front end.

Subcommands:
  params  — block lengths, dimension, cardinality (formula and actual),
            spanning-set status, distance, Singleton status
  dual    — parameters of the dual code and a best-effort generator quintuple;
            the dual is taken under the paper's F_q2-valued mixed form,
            two F_q constraints per basis row, so dual(dual(C)) contains C,
            strictly on 32 of the 33 table-1 and table-2 closures
  gray    — Gray image generator matrix, parameters, classification,
            shift invariance
  lcd     — LCD certificate for a raw generator-matrix document
  tables  — run the verification harness over the built-in tables

The CLI derives no fact itself: `params`, `gray` and `lcd` render the
dicts of `tables.params_facts`, `tables.gray_facts` and
`tables.lcd_facts`, the facts the table reports check, as JSON or as
text lines.

Exit codes: 0 success, 1 verification mismatch, 2 usage/parse error,
3 I/O error, a reader that closes standard output early included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .codes import (
    CodeConstructionError,
    dual,
    extract_mixed_generators,
    is_cyclic,
    load_definition,
    load_matrix_document,
)
from .distance import DEFAULT_BUDGET
from .poly import PolyParseError, format_poly
from .tables import gray_facts, lcd_facts, params_facts, verify_all

USAGE_ERROR = 2
IO_ERROR = 3
# what a malformed document raises: reported with exit code USAGE_ERROR
DOCUMENT_ERRORS = (PolyParseError, CodeConstructionError, ValueError)


def _read_document(value):
    """--input accepts a file path or an inline JSON object."""
    text = value
    if not value.lstrip().startswith("{"):
        try:
            with open(value, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"cannot read {value}: {exc}", file=sys.stderr)
            raise SystemExit(IO_ERROR)
        except UnicodeDecodeError as exc:
            print(f"{value} is not UTF-8 text: {exc}", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        print(f"invalid JSON document: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _load(args, loader, kind):
    """`loader` applied to the --input document; a malformed document
    exits USAGE_ERROR with a message naming its `kind`."""
    doc = _read_document(args.input)
    try:
        return loader(doc)
    except DOCUMENT_ERRORS as exc:
        print(f"invalid {kind}: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _load_code(args):
    return _load(args, lambda doc: load_definition(doc, strict=not args.lenient),
                 "code definition")


def _emit(payload, fmt, lines):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _matrix_lines(rows):
    return ["  " + " ".join(str(x) for x in row) for row in rows]


def _parameters(sheet):
    """[n, k, d] (mode) of a Gray image's facts."""
    dist = sheet["distance"]
    return f"[{sheet['length']}, {sheet['dimension']}, {dist['d']}] ({dist['mode']})"


def cmd_params(args):
    """block lengths, dimension, cardinality, spanning-set status, distance, Singleton status"""
    facts = params_facts(_load_code(args), args.budget)
    card, dist = facts["cardinality"], facts["distance"]
    lines = [f"block lengths: {facts['blocks']}",
             f"dimension (F_q rank): {facts['dimension']}",
             f"cardinality: formula {card['formula']}, actual {card['actual']}",
             f"spanning set spans: {facts['spans_ok']}"]
    if facts["condition_failures"]:
        lines.append("generator conditions violated: "
                     + "; ".join(facts["condition_failures"]))
    lines.append(f"distance: {dist['d']} ({dist['mode']})")
    if "mixed_distance" in facts:
        mixed = facts["mixed_distance"]
        lines.append(f"mixed-alphabet distance: {mixed['d']} ({mixed['mode']})")
    if "singleton" in facts:
        lines.append(f"singleton: {facts['singleton']}")
    _emit(facts, args.format, lines)
    return 0


def cmd_dual(args):
    """parameters of the dual under the F_q2-valued mixed form, and a best-effort
    generator quintuple; dual(dual(C)) contains C, strictly on 32 of the 33
    table-1 and table-2 closures"""
    code = _load_code(args)
    dm = dual(code.closure)
    payload = {
        "dimension": dm.rank,
        "cyclic": is_cyclic(dm),
        "matrix": dm.matrix.tolist(),
    }
    lines = [f"dual dimension: {dm.rank}", f"dual is cyclic: {payload['cyclic']}"]
    if code.alpha:
        ext = extract_mixed_generators(dm)
        payload["generators"] = {
            "s": format_poly(ext.s), "l": format_poly(ext.l),
            "g": format_poly(ext.g), "h": format_poly(ext.h),
            "k": format_poly(ext.k), "closure_ok": ext.closure_ok,
        }
        lines.append(
            "extracted generators (best effort, closure_ok="
            f"{ext.closure_ok}): s={ext.s}, l={ext.l}, g={ext.g}, "
            f"h={ext.h}, k={ext.k}")
    _emit(payload, args.format, lines + _matrix_lines(payload["matrix"]))
    return 0


def cmd_gray(args):
    """Gray image generator matrix, parameters, classification, shift invariance"""
    facts = gray_facts(_load_code(args), args.budget)
    lines = [f"gray image parameters: {_parameters(facts)}",
             f"classification: {facts['classification']}",
             f"shift invariance: {facts['shift_invariant']}",
             "generator matrix (rref):"]
    _emit(facts, args.format, lines + _matrix_lines(facts["matrix"]))
    return 0


def cmd_lcd(args):
    """LCD certificate for a generator-matrix document"""
    facts = lcd_facts(*_load(args, load_matrix_document, "matrix document"), args.budget)
    lines = [f"C_alpha self-orthogonal: {facts['c_alpha_self_orthogonal']}",
             f"G_beta rows F_q-independent: {facts['g_beta_rows_independent']}",
             f"gray image of C_beta LCD: {facts['phi_c_beta_lcd']}",
             f"conclusion: {facts['conclusion']}",
             f"observed hull dimension: {facts['hull_dimension_observed']}",
             f"gray image: {_parameters(facts['gray_image'])}, LCD: {facts['lcd']}"]
    _emit(facts, args.format, lines)
    return 0


def cmd_tables(args):
    """run the verification harness over the built-in tables"""
    report = verify_all(args.id, budget=args.budget)
    if args.format == "json":
        out = report.to_json()
    elif args.format == "csv":
        out = report.to_csv()
    else:
        counts = report.counts
        out = report.to_csv() + (
            f"# exact {counts['exact']}, bound {counts['bound']}, "
            f"skipped {counts['skipped']}, mismatches {counts['mismatch']}\n"
            f"# {report.note}\n")
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            print(f"cannot write {args.output}: {exc}", file=sys.stderr)
            raise SystemExit(IO_ERROR)
    else:
        sys.stdout.write(out)
    return 1 if report.has_mismatch else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="addcyclic",
        description="additive cyclic codes over F_q x F_q2: parameters, "
                    "duals, Gray images, LCD certificates, table verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--budget": dict(type=int, default=DEFAULT_BUDGET,
                         help="max codewords for exact distance enumeration"),
        "--lenient": dict(action="store_true",
                          help="accept generator quintuples that violate the "
                               "canonical-form conditions"),
    }
    # each subcommand takes only the options it reads; its help is its docstring
    for name, fn, names, document in (
            ("params", cmd_params, ("--budget", "--lenient"), "definition"),
            ("dual", cmd_dual, ("--lenient",), "definition"),
            ("gray", cmd_gray, ("--budget", "--lenient"), "definition"),
            ("lcd", cmd_lcd, ("--budget",), "matrix")):
        p = sub.add_parser(name, help=fn.__doc__, description=fn.__doc__)
        p.add_argument("--input", required=True,
                       help=f"{document} document: path or inline JSON")
        p.add_argument("--format", choices=("text", "json"), default="text")
        for option in names:
            p.add_argument(option, **options[option])
        p.set_defaults(func=fn)

    p = sub.add_parser("tables", help=cmd_tables.__doc__, description=cmd_tables.__doc__)
    p.add_argument("--id", default="all", choices=("1", "2", "3", "all"))
    p.add_argument("--budget", **options["--budget"])
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output", help="write the report to a file")
    p.set_defaults(func=cmd_tables)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)  # argparse exits 2 on usage errors
    if getattr(args, "budget", 1) < 1:
        print("budget must be >= 1", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output early: point it at devnull so
        # that the flush at exit stays quiet, as the Python docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(IO_ERROR)
    return status


if __name__ == "__main__":
    sys.exit(main())
