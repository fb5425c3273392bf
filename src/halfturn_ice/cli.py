"""Command-line front end: enumeration, generating functions, partition
functions, special-point determinants, closed-form counts and the identity
verification suites.

Outputs are deterministic: identical invocations with identical seeds are
byte-identical.  Timings are therefore kept out of the reports unless
--timings is passed.  Exit codes: 0 success, 1 verification failure,
2 usage error (bad arguments or values, poles, unreadable files).

`main` reuses one parser per process, built on its first call
(`build_parser`), so repeated calls in one process skip the rebuild.  Only
the top level is built then: each subcommand's parser is built, and its
arguments added, when a call first selects it, so a call builds at most the
one subcommand parser it parses with.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from . import determinant, formulas, icemodel, verify
from .enum_asm import _prefixes, gen_asms, inversion_genfunc
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


def _emit(text: str | Iterable[str], out: Optional[str]):
    """Write text, a string or an iterable of chunks, to the file out or to
    stdout.  Chunks are written as they come, gathered into writes of about
    1 MB, so a stream is never held whole.  A reader that closes stdout
    early ends the output quietly, with the command's own exit code."""
    if out:
        with open(out, "w") as fh:
            _write(fh, text)
        return
    try:
        _write(sys.stdout, text)
        sys.stdout.flush()
    except BrokenPipeError:  # the interpreter's final flush then goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write(fh, text: str | Iterable[str]):
    batch, size = [], 0
    for chunk in (text,) if isinstance(text, str) else text:
        batch.append(chunk)
        size += len(chunk)
        if size >= 1 << 20:
            fh.write("".join(batch))
            batch, size = [], 0
    if batch:
        fh.write("".join(batch))


def _jsonline(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


class _RowTexts(dict):
    """The text of each row of one stream, built on first lookup."""

    def __init__(self, row_text):
        self.row_text = row_text

    def __missing__(self, row) -> str:
        text = self[row] = self.row_text(row)
        return text


def _stream_text(blocks, fmt: str) -> Iterator[str]:
    """The output of a stream of blocks (head rows, tails), one string per
    block holding one record per matrix head + tail: each distinct row's
    text is built once, each tails tuple's once, and each block's is one
    join of the tails' texts on its head's."""
    start, sep, end, row_text = {  # matrix open, row separator, matrix close
        "json": ("[", ",", "]\n", lambda row: json.dumps(row, separators=(",", ":"))),
        "text": ("", "\n", "\n\n", lambda row: " ".join(map(str, row)))}[fmt]
    text = _RowTexts(row_text).__getitem__
    known: dict = {}  # id of a tails tuple -> (the tuple, kept so its id stays its own; texts)
    for head, tails in blocks:
        got = known.get(id(tails))
        if got is None:
            got = known[id(tails)] = tails, ["".join(sep + text(row) for row in tail) + end
                                             for tail in tails]
        h = start + sep.join(map(text, head))
        yield h + h.join(got[1])


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    n = args.order
    if n is None:
        raise UsageError("enumerate requires --order")
    if args.format == "csv" and not args.census:
        raise UsageError("--format csv requires --census")
    # Every mode runs the order's compiled transfer plan, whose compile
    # refuses orders past the plan bound.
    if args.census:
        table = census(n, args.klass)
        if args.format == "csv":
            _emit(table.to_csv(), args.out)
        elif args.format == "json":
            _emit(_jsonline({"schemaVersion": SCHEMA_VERSION} | table.to_json_obj()),
                  args.out)
        else:
            lines = [f"order {n} class {args.klass}: {table.count} matrices"]
            for (r, central), poly in table.ordered_rows():
                tag = f"r={r}" + (f" central={central:+d}" if central is not None else "")
                lines.append(f"  {tag}: {poly}")
            _emit("\n".join(lines) + "\n", args.out)
        return 0
    # A stream lists every matrix, so it is held to the state guard as well.
    limit = None if args.count else icemodel.DEFAULT_MAX_STATES
    count = sum(icemodel.state_counts(icemodel.class_model(n, args.klass), limit).values())
    if args.count:
        _emit(_jsonline({"schemaVersion": SCHEMA_VERSION, "order": n, "class": args.klass,
                         "count": count}) if args.format == "json" else f"{count}\n", args.out)
        return 0
    if args.klass == "all":
        blocks = _prefixes(n, "all")
    else:  # the half-turn stream re-checks every completion, matrix by matrix
        blocks = ((m.entries, ((),)) for m in gen_asms(n, "ht"))
    _emit(_stream_text(blocks, args.format), args.out)
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
    u = tuple(_fraction(tok) for tok in args.u.split(","))
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


def _common(p, formats=("json", "text")):
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", metavar="PATH", default=None)


def _enumerate_args(p):
    p.add_argument("--order", "-n", type=int)
    p.add_argument("--class", dest="klass", choices=("all", "ht"), default="all")
    what = p.add_mutually_exclusive_group()
    what.add_argument("--census", action="store_true")
    what.add_argument("--count", action="store_true")
    _common(p, ("json", "csv", "text"))
    p.set_defaults(fn=_cmd_enumerate)


def _genfunc_args(p):
    p.add_argument("--order", "-n", type=int)
    p.add_argument("--class", dest="klass", choices=("all", "ht"), default="all")
    p.add_argument("--mode", choices=("brute", "closed"), default="closed")
    _common(p)
    p.set_defaults(fn=_cmd_genfunc)


def _partition_args(p):
    p.add_argument("--model", choices=icemodel.KINDS, default="dwbc")
    p.add_argument("--order", "-n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--modified", action="store_true",
                   help="multiply by the monomial clearing negative exponents")
    p.add_argument("--assign", action="append", metavar="VAR=VALUE",
                   help="evaluate at values (rationals or zeta-expressions)")
    p.add_argument("--max-states", type=int, default=None)
    _common(p)
    p.set_defaults(fn=_cmd_partition)


def _det_args(p):
    p.add_argument("--model", choices=("dwbc", "ht2", "ht-odd"), default="dwbc")
    p.add_argument("--order", "-n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--u", metavar="Q1,Q2,...", default=None,
                   help="comma-separated distinct rationals")
    _common(p)
    p.set_defaults(fn=_cmd_det)


def _formulas_args(p):
    p.add_argument("--family", choices=formulas.FAMILIES, required=True)
    p.add_argument("--order", "-n", type=int)
    p.add_argument("--refined", action="store_true")
    _common(p)
    p.set_defaults(fn=_cmd_formulas)


def _verify_args(p):
    p.add_argument("--suite", metavar="ID", action="append")
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--points", type=int, default=None,
                   help="override the point count of random-point suites")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed seconds (not byte-reproducible)")
    _common(p)
    p.set_defaults(fn=_cmd_verify, format="json")  # one JSON line per suite


def _report_args(p):
    p.add_argument("files", nargs="+", metavar="REPORT.jsonl")
    _common(p)
    p.set_defaults(fn=_cmd_report, format="json")


# (name, help, configure): the subcommands in the order help lists them;
# configure adds a subcommand's arguments to its parser.
_COMMANDS = (
    ("enumerate", "stream or count ASMs, emit censuses", _enumerate_args),
    ("genfunc", "inversion generating functions", _genfunc_args),
    ("partition", "exact partition functions", _partition_args),
    ("det", "special-point determinant evaluators", _det_args),
    ("formulas", "closed-form counts and refined polynomials", _formulas_args),
    ("verify", "run identity-verification suites", _verify_args),
    ("report", "merge verification reports", _report_args),
)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use and reused by
    every `main` call after the first.  Do not change it.

    Only the top level is built here.  A subcommand's parser is built, and
    its arguments added, by the first parse that selects it.  The bytes are
    those of a parser built whole: in CPython 3.10-3.13 the top-level help,
    usage and errors read only the names and help strings given to
    `add_parser`, and argparse calls nothing on a subparser but
    `parse_known_args`."""
    import argparse  # deferred: library callers of cli never parse arguments
    from _thread import allocate_lock  # threading.Lock, without importing threading

    building = allocate_lock()

    class Subcommand(argparse.ArgumentParser):
        def __init__(self, configure, **kwargs):
            self.pending = configure, kwargs

        def parse_known_args(self, args=None, namespace=None):
            if self.pending:
                with building:  # threads that select it together build it once
                    if self.pending:
                        configure, kwargs = self.pending
                        super().__init__(**kwargs)
                        configure(self)
                        self.pending = None
            return super().parse_known_args(args, namespace)

    prog = "halfturn-ice"
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Exact ASM enumeration, square-ice partition functions "
                    "and identity verification.")
    # Given the prefix of its parsers' prog, add_subparsers formats no usage
    # line to find it.
    sub = parser.add_subparsers(dest="command", required=True, prog=prog,
                                parser_class=Subcommand)
    for name, summary, configure in _COMMANDS:
        sub.add_parser(name, help=summary, configure=configure)
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
