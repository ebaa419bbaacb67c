"""Command-line front end.

Subcommands: ``analyze`` (full report for one datum), ``verify`` (property
sweep over an exhaustive corpus), ``enumerate`` (stream the corpus).

Exit codes: 0 success, 1 input error or closed stdout, 2 property
violation found, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path

from ._version import __version__
from .datum import (
    CorpusBounds,
    datum_to_json,
    enumerate_corpus,
    expand_spec,
    parse_datum,
    serialize_datum,
)
from .errors import CurveSpecError, InternalInconsistencyError
from .report import build_analysis, report_to_json
from .sweep import run_sweep


class _Parser(argparse.ArgumentParser):
    # bad flags are an input error (exit 1), never the violation code 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # one parser per process: it holds no per-call state, and argparse looks
    # up sys.stdout and sys.stderr only when it prints
    parser = _Parser(prog="milnor-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    analyze = sub.add_parser("analyze", help="analyze one curve-spec")
    analyze.add_argument("spec", nargs="?",
                         help="curve-spec path, inline JSON, or '-' for stdin")
    analyze.add_argument("--family", choices=["monomial", "power", "quasihomogeneous"])
    analyze.add_argument("--p", type=_integer, help="monomial exponent p")
    analyze.add_argument("--q", type=_integer, help="monomial exponent q")
    analyze.add_argument("--base", help="power family: base curve-spec (path or inline)")
    analyze.add_argument("--exponent", type=_integer, help="power family: exponent")
    analyze.add_argument("--qh-branch", type=_qh_branch, action="append", metavar="A:B:M",
                         help="quasihomogeneous branch, repeatable")
    analyze.add_argument("--out", help="write the report here instead of stdout")
    analyze.add_argument("--dump-snf", action="store_true",
                         help="print Smith normal form diagonals to stderr")
    analyze.set_defaults(func=cmd_analyze)

    verify = sub.add_parser("verify", help="run the property suite over a corpus")
    _add_bounds(verify)
    verify.add_argument("--properties",
                        help="comma-separated property names (default: full suite)")
    verify.add_argument("--jobs", type=_integer, default=None,
                        help="worker processes (default: MILNOR_LAB_JOBS or 1)")
    verify.set_defaults(func=cmd_verify)

    enum = sub.add_parser("enumerate", help="stream the corpus, one curve-spec per line")
    _add_bounds(enum)
    enum.set_defaults(func=cmd_enumerate)
    return parser


def _add_bounds(parser):
    parser.add_argument("--max-branches", type=_integer, required=True)
    parser.add_argument("--max-mult", type=_integer, required=True)
    parser.add_argument("--max-delta", type=_integer, required=True)
    parser.add_argument("--max-int", type=_integer, required=True)


# the analyze flags that fill a family curve-spec, under their argparse dests
_SPEC_FLAGS = ("p", "q", "base", "exponent", "qh_branch")


def _load_datum(args):
    given = {f: getattr(args, f) for f in _SPEC_FLAGS if getattr(args, f) is not None}
    if args.family is None:
        if given:
            raise CurveSpecError(f"--{next(iter(given)).replace('_', '-')} needs --family")
        if args.spec is None:
            raise CurveSpecError("no curve-spec given (pass a path, inline JSON, or --family)")
        return _read_spec(args.spec)
    if args.spec is not None:
        raise CurveSpecError("give either a spec or --family, not both")
    if "base" in given:
        given["base"] = serialize_datum(_read_spec(given["base"]))
    if "qh_branch" in given:
        given["branches"] = given.pop("qh_branch")
    return expand_spec({"family": args.family, **given})


def _integer(text: str) -> int:
    """ASCII digits with an optional minus sign: the `_`, spaces and non-ASCII
    digits that int() accepts are refused, as the JSON route refuses them."""
    if re.fullmatch(r"-?\d+", text, re.ASCII) is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"integer longer than {sys.get_int_max_str_digits()} digits"
        ) from None


def _qh_branch(item: str) -> dict:
    parts = item.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"bad --qh-branch {item!r}, expected A:B:M")
    try:
        a, b, m = map(_integer, parts)
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"bad --qh-branch: {exc}") from None
    return {"a": a, "b": b, "multiplicity": m}


def _read_spec(source: str):
    if source.lstrip().startswith("{"):
        return parse_datum(source)
    if source == "-" and sys.stdin is None:
        raise CurveSpecError("stdin is closed")
    try:
        text = (sys.stdin.buffer.read().decode("utf-8") if source == "-"
                else Path(source).read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        name = "stdin" if source == "-" else source
        raise CurveSpecError(f"{name} is not UTF-8 text") from None
    except OSError as exc:
        raise CurveSpecError(f"cannot read {source}: {exc.strerror}") from None
    return parse_datum(text)


def cmd_analyze(args) -> int:
    datum = _load_datum(args)
    report = build_analysis(datum)
    text = report_to_json(report)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CurveSpecError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError:
            raise CurveSpecError(f"the report does not encode as {sys.stdout.encoding}; "
                                 "write it with --out") from None
    if args.dump_snf:
        # the cokernel of the m x m matrix A - I is free (the report checks it),
        # so its Smith diagonal is units, then one zero per free rank
        for e in report["vertical"]:
            m = report["datum"]["branches"][e["branch"] - 1]["multiplicity"]
            diag = [1] * (m - e["coker_free_rank"]) + [0] * e["coker_free_rank"]
            print(f"branch {e['branch']}: snf diag(A - I) = {diag}", file=sys.stderr)
    return 0


def _bounds_from_args(args) -> CorpusBounds:
    return CorpusBounds(args.max_branches, args.max_mult, args.max_delta, args.max_int)


def cmd_verify(args) -> int:
    bounds = _bounds_from_args(args)
    properties = None
    if args.properties is not None:
        properties = [p.strip() for p in args.properties.split(",") if p.strip()]
    jobs = args.jobs
    if jobs is None:
        raw = os.environ.get("MILNOR_LAB_JOBS", "1")
        try:
            jobs = _integer(raw)
        except argparse.ArgumentTypeError:
            raise CurveSpecError(f"MILNOR_LAB_JOBS must be an integer, got {raw!r}") from None
        if jobs < 1:
            raise CurveSpecError(f"MILNOR_LAB_JOBS must be >= 1, got {raw!r}")
    elif jobs < 1:
        raise CurveSpecError("--jobs must be >= 1")
    result = run_sweep(bounds, properties, jobs)
    payload = {
        "bounds": asdict(bounds),
        "properties": list(result.properties),
        "checked": result.checked,
        "violations": [
            {
                "datum": serialize_datum(v.datum),
                "property": v.prop,
                "expected": v.expected,
                "got": v.got,
                "documented": v.documented,
            }
            for v in result.violations
        ],
    }
    # elapsed goes to stderr only: stdout must be byte-identical across runs
    sys.stdout.write(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
    print(
        f"checked {result.checked} datums in {result.elapsed:.2f}s "
        f"({jobs} job{'s' if jobs != 1 else ''}); "
        f"{len(result.violations)} violation{'s' if len(result.violations) != 1 else ''}",
        file=sys.stderr,
    )
    return 2 if result.violations else 0


def cmd_enumerate(args) -> int:
    bounds = _bounds_from_args(args)
    for datum in enumerate_corpus(bounds):
        sys.stdout.write(datum_to_json(datum) + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): devnull takes what is still buffered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CurveSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
