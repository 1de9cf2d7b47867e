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
    singleton_check,
)
from .distance import DEFAULT_BUDGET, min_distance
from .gray import gray_image, shift_invariance_check
from .lcd import _rows_certificate
from .poly import PolyParseError, format_poly
from .tables import verify_all

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


def _distance_report(gm, budget):
    """The distance `distance.min_distance` settles; only the zero code,
    which has no nonzero words, is "undefined"."""
    if gm.rank == 0:
        return {"d": None, "mode": "undefined"}
    res = min_distance(gm, budget)
    if res.exact:
        return {"d": res.value, "mode": "exact"}
    return {"d": res.value, "mode": "bound"}


def _emit(payload, fmt, lines):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_params(args):
    """block lengths, dimension, cardinality, spanning-set status, distance, Singleton status"""
    code = _load_code(args)
    gm = code.closure
    card = code.cardinality()
    failures = list(code.condition_failures)
    mixed_dist = None
    if code.alpha:
        blocks = {"alpha": code.alpha, "beta": code.beta}
        # the headline distance is the Gray-image one (the parameters
        # these codes are tabulated under); the mixed-alphabet distance
        # of a nonzero code is reported alongside
        image = gray_image(code)
        dist = _distance_report(image.base, args.budget)
        if gm.rank:
            mixed_dist = _distance_report(gm, args.budget)
    else:
        blocks = {"n": code.beta}
        dist = _distance_report(gm, args.budget)
    payload = {
        "blocks": blocks,
        "dimension": gm.rank,
        "cardinality": {"formula": card.formula, "actual": card.actual},
        "spans_ok": card.agree,
        "distance": dist,
        "condition_failures": failures,
    }
    if mixed_dist is not None:
        payload["mixed_distance"] = mixed_dist
    if dist["d"] is not None and not code.alpha:
        # single-alphabet Singleton bound; a mixed alphabet has no single Q
        sing = singleton_check(code.beta, gm.rank, dist["d"])
        payload["singleton"] = "attains" if sing.attains else f"slack:{sing.slack}"
    lines = [f"block lengths: {blocks}",
             f"dimension (F_q rank): {gm.rank}",
             f"cardinality: formula {card.formula}, actual {card.actual}",
             f"spanning set spans: {card.agree}"]
    if failures:
        lines.append("generator conditions violated: " + "; ".join(failures))
    lines.append(f"distance: {dist['d']} ({dist['mode']})")
    if mixed_dist is not None:
        lines.append(
            f"mixed-alphabet distance: {mixed_dist['d']} ({mixed_dist['mode']})")
    if "singleton" in payload:
        lines.append(f"singleton: {payload['singleton']}")
    _emit(payload, args.format, lines)
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
    for row in dm.matrix.tolist():
        lines.append("  " + " ".join(str(x) for x in row))
    _emit(payload, args.format, lines)
    return 0


def cmd_gray(args):
    """Gray image generator matrix, parameters, classification, shift invariance"""
    code = _load_code(args)
    image = gray_image(code)
    sigma = shift_invariance_check(image)
    dist = _distance_report(image.base, args.budget)
    payload = {
        "length": image.length,
        "dimension": image.rank,
        "classification": image.classification,
        "shift_invariant": sigma,
        "distance": dist,
        "matrix": image.matrix.tolist(),
    }
    lines = [
        f"gray image parameters: [{image.length}, {image.rank}, "
        f"{dist['d']}] ({dist['mode']})",
        f"classification: {image.classification}",
        f"shift invariance: {sigma}",
        "generator matrix (rref):",
    ]
    for row in image.matrix.tolist():
        lines.append("  " + " ".join(str(x) for x in row))
    _emit(payload, args.format, lines)
    return 0


def cmd_lcd(args):
    """LCD certificate for a generator-matrix document"""
    tw, beta, expanded = _load(args, load_matrix_document, "matrix document")
    image, cert = _rows_certificate(tw, beta, expanded)
    dist = _distance_report(image.base, args.budget)
    payload = {
        "c_alpha_self_orthogonal": cert.c_alpha_self_orthogonal,
        "g_beta_rows_independent": cert.g_beta_rows_independent,
        "phi_c_beta_lcd": cert.phi_c_beta_lcd,
        "conclusion": cert.conclusion,
        "hull_dimension_observed": cert.hull_dimension_observed,
        "gray_image": {"length": image.length, "dimension": image.rank,
                       "distance": dist},
        "lcd": cert.hull_dimension_observed == 0,
    }
    lines = [
        f"C_alpha self-orthogonal: {cert.c_alpha_self_orthogonal}",
        f"G_beta rows F_q-independent: {cert.g_beta_rows_independent}",
        f"gray image of C_beta LCD: {cert.phi_c_beta_lcd}",
        f"conclusion: {cert.conclusion}",
        f"observed hull dimension: {cert.hull_dimension_observed}",
        f"gray image: [{image.length}, {image.rank}, {dist['d']}] "
        f"({dist['mode']}), LCD: {payload['lcd']}",
    ]
    _emit(payload, args.format, lines)
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
