"""Command-line front end: enumeration, generating functions, partition
functions, special-point determinants, closed-form counts and the identity
verification suites.

Outputs are deterministic: identical invocations with identical seeds are
byte-identical.  Timings are therefore kept out of the reports unless
--timings is passed.  Exit codes: 0 success, 1 verification failure,
2 usage error (bad arguments or values, poles, unreadable files).
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from . import determinant, formulas, icemodel, verify
from .enum_asm import gen_asms, inversion_genfunc
from .exactnum import Cyclo
from .icemodel import census

if TYPE_CHECKING:
    import argparse

SCHEMA_VERSION = verify.SCHEMA_VERSION


class UsageError(ValueError):
    pass


def parse_value(text: str) -> Cyclo:
    """Parse a rational or zeta-expression: 2, -1/3, zeta, 2*zeta, 1/2+3*zeta."""
    s = text.replace(" ", "")
    if not s:
        raise UsageError("empty value")
    total = Cyclo(0)
    i = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    term = ""
    for ch in s[i:] + "\0":
        if ch in "+-\0":
            total = total + sign * _parse_term(term)
            sign = -1 if ch == "-" else 1
            term = ""
        else:
            term += ch
    return total


# A number in exponent notation, as Fraction would read it: 1e3, -2.5E-1.
_EXPONENT = re.compile(r"\s*[-+]?(\d[\d_]*\.?[\d_]*|\.\d[\d_]*)e[-+]?\d[\d_]*\s*", re.I)


def _parse_term(term: str) -> Cyclo:
    if not term:
        raise UsageError("dangling sign in value")
    if term == "zeta":
        return Cyclo(0, 1)
    if term.endswith("*zeta"):
        return Cyclo(0, _fraction(term[:-5]))
    if term.endswith("zeta"):
        raise UsageError(f"write {term[:-4]}*zeta instead of {term}")
    return Cyclo(_fraction(term))


def _fraction(text: str) -> Fraction:
    # Fraction reads "1e999999999" as an integer it would take very long to build.
    if _EXPONENT.fullmatch(text):
        raise UsageError(f"exponent notation is not accepted: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse value {text!r}") from exc


def _parse_assignments(pairs: Sequence[str], known: Sequence[str]) -> dict[str, Cyclo]:
    """var=value pairs, each var one of `known` and given once."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--assign expects var=value, got {pair!r}")
        var, _, val = pair.partition("=")
        var = var.strip()
        if var not in known:
            raise UsageError(f"unknown variable {var!r}; this model takes {', '.join(known)}")
        if var in out:
            raise UsageError(f"variable {var!r} is assigned twice")
        out[var] = parse_value(val)
    return out


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonline(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _matrix_jsonline(entries, row_text: dict) -> str:
    """The _jsonline of a matrix's rows; row_text keeps the JSON of each
    distinct row, so a stream serializes every row only once."""
    parts = []
    for row in entries:
        text = row_text.get(row)
        if text is None:
            text = row_text[row] = json.dumps(row, separators=(",", ":"))
        parts.append(text)
    return "[" + ",".join(parts) + "]\n"


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    n = args.order
    if n is None:
        raise UsageError("enumerate requires --order")
    if args.format == "csv" and not args.census:
        raise UsageError("--format csv requires --census")
    # Every mode runs the order's compiled transfer plan, so every mode
    # passes the state guard first.
    counts = icemodel.state_counts(icemodel.class_model(n, args.klass))
    if args.census:
        table = census(n, args.klass)
        if args.format == "csv":
            _emit(table.to_csv(), args.out)
        elif args.format == "json":
            _emit(_jsonline({"schemaVersion": SCHEMA_VERSION} | table.to_json_obj()),
                  args.out)
        else:
            lines = [f"order {n} class {args.klass}: {table.total_count()} matrices"]
            for (r, central), poly in table.ordered_rows():
                tag = f"r={r}" + (f" central={central:+d}" if central is not None else "")
                lines.append(f"  {tag}: {poly}")
            _emit("\n".join(lines) + "\n", args.out)
        return 0
    if args.count:
        count = sum(counts.values())
        _emit(_jsonline({"schemaVersion": SCHEMA_VERSION, "order": n, "class": args.klass,
                         "count": count}) if args.format == "json" else f"{count}\n", args.out)
        return 0
    chunks = []
    row_text: dict = {}
    for m in gen_asms(n, args.klass):
        if args.format == "json":
            chunks.append(_matrix_jsonline(m.entries, row_text))
        else:
            chunks.append(m.to_text() + "\n\n")
    _emit("".join(chunks), args.out)
    return 0


def _cmd_genfunc(args) -> int:
    if args.order is None:
        raise UsageError("genfunc requires --order")
    poly = inversion_genfunc(args.order, args.klass, args.mode)
    if args.format == "json":
        _emit(_jsonline({"schemaVersion": SCHEMA_VERSION, "order": args.order,
                         "class": args.klass, "mode": args.mode,
                         "poly": poly.to_json_obj()}), args.out)
    else:
        _emit(str(poly) + "\n", args.out)
    return 0


def _model_spec(args) -> icemodel.ModelSpec:
    if args.model == "dwbc":
        if args.order is None:
            raise UsageError("model dwbc requires --order")
        return icemodel.ModelSpec("dwbc", args.order)
    if args.m is None:
        raise UsageError(f"model {args.model} requires --m")
    return icemodel.ModelSpec(args.model, args.m)


def _cmd_partition(args) -> int:
    spec = _model_spec(args)
    if args.max_states is not None and args.max_states < 1:
        raise UsageError(f"--max-states must be >= 1, got {args.max_states}")
    if args.assign and args.modified:
        raise UsageError("--modified is symbolic only")
    if args.assign:
        xs, ys = spec.spectral_vars()
        known = ("a", *xs, *ys)
        assignment = _parse_assignments(args.assign, known)
        result = icemodel.partition_function(spec, assignment, args.max_states)
    elif args.modified:
        result = icemodel.modified_partition(spec, args.max_states)
    else:
        result = icemodel.partition_function(spec, None, args.max_states)
    if args.format == "json":
        _emit(_jsonline({"schemaVersion": SCHEMA_VERSION} | result.to_json_obj()),
              args.out)
    else:
        _emit(f"{result.value}\n", args.out)
    return 0


def _cmd_det(args) -> int:
    if not args.u:
        raise UsageError("det requires --u with comma-separated rationals")
    u = tuple(Cyclo(_fraction(tok)) for tok in args.u.split(","))
    size = args.order if args.model == "dwbc" else args.m
    if size is None:
        raise UsageError("det requires --order (dwbc) or --m (ht2, ht-odd)")
    value = determinant.special_z(args.model, size, u)
    if args.format == "json":
        _emit(_jsonline({"schemaVersion": SCHEMA_VERSION, "model": args.model,
                         "size": size, "u": args.u.split(","), "value": str(value)}),
              args.out)
    else:
        _emit(f"{value}\n", args.out)
    return 0


def _cmd_formulas(args) -> int:
    if args.order is None:
        raise UsageError("formulas requires --order")
    family, order = args.family, args.order
    value = formulas.count_closed(family, order)  # refuses an order outside the family
    if args.refined:
        least = {"asm": 1, "ht-even": 2}.get(family, 3)
        if order < least:
            raise UsageError(f"order {order} has no refined {family} form; "
                             f"it starts at order {least}")
        if family == "asm":
            value = formulas.refined_asm_closed(order)
        elif family == "ht-even":  # A(m; t) times the cofactor, whose digit check is first
            m = order // 2
            value = formulas.refined_ht2_closed(m) * formulas.refined_asm_closed(m)
        elif family in ("ht-odd", "ht-odd-plus", "ht-odd-minus", "robbins"):
            m = (order - 1) // 2
            plus, minus, robbins = formulas.refined_ht_odd(m)
            value = {"ht-odd": plus + minus, "ht-odd-plus": plus,
                     "ht-odd-minus": minus, "robbins": robbins}[family]
        else:
            raise UsageError(f"no refined form for family {family}")
    # Exact counts pass Python's cap on int-to-string digits (4,300 from
    # 3.11; A(200) has 4,545), so it is lifted only while they are written.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "text":
            text = f"{value}\n"
        elif args.refined:
            text = _jsonline({"schemaVersion": SCHEMA_VERSION, "family": family,
                              "order": order, "refined": True, "poly": value.to_json_obj()})
        else:
            text = _jsonline({"schemaVersion": SCHEMA_VERSION, "family": family,
                              "order": order, "value": str(value)})
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    _emit(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.all and args.suite:
        raise UsageError("--suite and --all exclude each other")
    if not args.all and not args.suite:
        raise UsageError("verify requires --suite ID or --all")
    if args.suite and len(args.suite) > 1:
        raise UsageError("--suite may be given only once; use --all for the whole catalog")
    suite = None if args.all else args.suite[0]
    if suite is not None and suite not in verify.SUITES:
        raise UsageError(f"unknown suite {suite!r}; known: " + ", ".join(verify.SUITES))
    overrides = {}
    if args.points is not None:
        if args.points < 1:
            raise UsageError(f"--points must be >= 1, got {args.points}")
        if suite is not None and "points" not in verify.SUITES[suite][1]:
            raise UsageError(f"suite {suite} takes no --points")
        for sid, (_, defaults) in verify.SUITES.items():
            if "points" in defaults:
                overrides[sid] = {"points": args.points}
    if args.all:
        reports = verify.run_all(args.seed, overrides)
    else:
        reports = [verify.run_suite(suite, overrides.get(suite), args.seed)]
    if args.format == "text":
        lines = []
        for r in reports:
            mark = "PASS" if r.passed else "FAIL"
            extra = f"  {r.elapsed:.2f}s" if args.timings else ""
            lines.append(f"{mark}  {r.suite_id:22s} checks={r.checks_run}{extra}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit("".join(r.to_json(include_elapsed=args.timings) + "\n" for r in reports),
              args.out)
    return 0 if all(r.passed for r in reports) else 1


def _report_line(path: str, lineno: int, line: str) -> dict:
    where = f"{path}, line {lineno}"
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise UsageError(f"{where}: not JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"{where}: expected a JSON object")
    for key in ("suiteId", "status"):
        if not isinstance(obj.get(key, ""), str):
            raise UsageError(f"{where}: {key} must be a string")
    return obj


def _cmd_report(args) -> int:
    suites = []
    for path in args.files:
        with open(path) as fh:
            found = [_report_line(path, lineno, line)
                     for lineno, line in enumerate(fh, 1) if line.strip()]
        if not found:
            raise UsageError(f"{path}: no report lines")
        suites.extend(found)
    passed = sum(1 for s in suites if s.get("status") == "pass")
    if args.format == "text":
        lines = [f"{s.get('status', '?').upper():4s}  {s.get('suiteId', '?')}"
                 for s in sorted(suites, key=lambda s: s.get("suiteId", ""))]
        lines.append(f"{passed}/{len(suites)} suites passed")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        merged = {
            "schemaVersion": SCHEMA_VERSION,
            "total": len(suites),
            "passed": passed,
            "failed": len(suites) - passed,
            "suites": sorted(suites, key=lambda s: s.get("suiteId", "")),
        }
        _emit(_jsonline(merged), args.out)
    return 0 if passed == len(suites) else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    import argparse  # deferred: library callers of cli never parse arguments

    parser = argparse.ArgumentParser(
        prog="halfturn-ice",
        description="Exact ASM enumeration, square-ice partition functions "
                    "and identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "text")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", metavar="PATH", default=None)

    p = sub.add_parser("enumerate", help="stream or count ASMs, emit censuses")
    p.add_argument("--order", "-n", type=int)
    p.add_argument("--class", dest="klass", choices=("all", "ht"), default="all")
    what = p.add_mutually_exclusive_group()
    what.add_argument("--census", action="store_true")
    what.add_argument("--count", action="store_true")
    common(p, ("json", "csv", "text"))
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("genfunc", help="inversion generating functions")
    p.add_argument("--order", "-n", type=int)
    p.add_argument("--class", dest="klass", choices=("all", "ht"), default="all")
    p.add_argument("--mode", choices=("brute", "closed"), default="closed")
    common(p)
    p.set_defaults(fn=_cmd_genfunc)

    p = sub.add_parser("partition", help="exact partition functions")
    p.add_argument("--model", choices=icemodel.KINDS, default="dwbc")
    p.add_argument("--order", "-n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--modified", action="store_true",
                   help="multiply by the monomial clearing negative exponents")
    p.add_argument("--assign", action="append", metavar="VAR=VALUE",
                   help="evaluate at values (rationals or zeta-expressions)")
    p.add_argument("--max-states", type=int, default=None)
    common(p)
    p.set_defaults(fn=_cmd_partition)

    p = sub.add_parser("det", help="special-point determinant evaluators")
    p.add_argument("--model", choices=("dwbc", "ht2", "ht-odd"), default="dwbc")
    p.add_argument("--order", "-n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--u", metavar="Q1,Q2,...", default=None,
                   help="comma-separated distinct rationals")
    common(p)
    p.set_defaults(fn=_cmd_det)

    p = sub.add_parser("formulas", help="closed-form counts and refined polynomials")
    p.add_argument("--family", choices=formulas.FAMILIES, required=True)
    p.add_argument("--order", "-n", type=int)
    p.add_argument("--refined", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_formulas)

    p = sub.add_parser("verify", help="run identity-verification suites")
    p.add_argument("--suite", metavar="ID", action="append")
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--points", type=int, default=None,
                   help="override the point count of random-point suites")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed seconds (not byte-reproducible)")
    common(p)
    p.set_defaults(fn=_cmd_verify, format="json")  # one JSON line per suite

    p = sub.add_parser("report", help="merge verification reports")
    p.add_argument("files", nargs="+", metavar="REPORT.jsonl")
    common(p)
    p.set_defaults(fn=_cmd_report, format="json")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        for dest, value in vars(args).items():
            # argparse reads an attached "--" (--opt=--) as an empty list.
            if value == [] or (isinstance(value, list) and [] in value):
                flag = "class" if dest == "klass" else dest.replace("_", "-")
                raise UsageError(f"--{flag} needs a value")
        return args.fn(args)
    except (ValueError, OSError, OverflowError) as exc:  # typed input errors, oversized orders
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
