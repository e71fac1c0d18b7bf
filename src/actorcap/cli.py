"""Command line interface.

Exit codes: 0 ok (also budget/depth-bounded with no findings), 1 type
error, 2 stuck execution, 3 monitor violation, 4 parse, usage or file
error, 5 a resource budget refused the input: the inclusion engine's state
budget (`lang.STATE_BUDGET`) on any subcommand, which also bounds the word
set of `alg enumerate`, explore's cap on the configurations it expands
(`runtime.STATE_CAP`), or input nested deeper than the Python stack.
For the algebra subcommands `includes` and `equiv`, exit 0 means the
relation holds and 1 that it does not, so they compose in shell scripts.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import lang as lng
from .checker import TypeCheckError, check_program
from .lang import LangParseError, lang_to_text, parse_lang
from .runtime import (
    DEFAULT_EXPLORE_DEPTH,
    DEFAULT_MAX_DELIVERIES,
    DynamicTypeError,
    RootEvaluationDiverged,
    Trace,
    explore,
    init_config,
    run,
)
from .syntax import ParseError, parse_program

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_STUCK = 2
EXIT_VIOLATION = 3
EXIT_PARSE_ERROR = 4
EXIT_BUDGET = 5


def _write(text: str, out_path: str | None) -> bool:
    """Write to `out_path`, or to stdout; False, after an error line, if the
    file cannot be written."""
    if not out_path:
        sys.stdout.write(text)
        return True
    try:
        with open(out_path, "w") as f:
            f.write(text)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return False
    return True


def _load_program(path: str, fmt: str):
    try:
        with open(path, encoding="utf-8") as f:
            source = f.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return None
    except UnicodeDecodeError as e:
        print(f"error: {path} is not UTF-8: {e}", file=sys.stderr)
        return None
    try:
        return parse_program(source)
    except ParseError as e:
        if fmt == "json":
            obj = {
                "code": "ParseError",
                "span": {"line": e.loc.line, "col": e.loc.col},
                "detail": e.message,
                "expected": sorted(e.expected),
            }
            print(json.dumps([obj], separators=(",", ":")))
        else:
            print(str(e), file=sys.stderr)
        return None


def _check(program, fmt: str, warn_dropped: bool = False):
    try:
        typed = check_program(program, warn_dropped=warn_dropped)
    except TypeCheckError as e:
        if fmt == "json":
            print(json.dumps([e.to_json_obj()], separators=(",", ":")))
        else:
            print(e.render(), file=sys.stderr)
        return None
    return typed


def cmd_check(args) -> int:
    program = _load_program(args.file, args.format)
    if program is None:
        return EXIT_PARSE_ERROR
    typed = _check(program, args.format, warn_dropped=args.warn_dropped)
    if typed is None:
        return EXIT_TYPE_ERROR
    if args.format == "json":
        print(json.dumps([], separators=(",", ":")))
    else:
        print(f"ok: {args.file} is well typed ({lang_to_text(typed.root_type.lang)})")
        for w in typed.warnings:
            print(f"warning @ {w.loc}: dropped {w.name}: {w.type_text}")
    return EXIT_OK


def _prepare(args):
    """Parse, optionally check, and build the initial configuration."""
    program = _load_program(args.file, args.format)
    if program is None:
        return None, None, EXIT_PARSE_ERROR
    typed = None
    if not args.unchecked:
        typed = _check(program, args.format)
        if typed is None:
            return None, None, EXIT_TYPE_ERROR
    return program, typed, EXIT_OK


def cmd_run(args) -> int:
    program, typed, status = _prepare(args)
    if program is None:
        return status
    monitor = not args.no_monitor
    trace = Trace(seed=args.seed)
    try:
        config = init_config(program, typed=typed, monitor=monitor, trace=trace)
    except (RootEvaluationDiverged, DynamicTypeError) as e:
        print(f"runtime error during setup: {e}", file=sys.stderr)
        return EXIT_STUCK
    trace, outcome = run(
        config,
        typed=typed,
        seed=args.seed,
        max_deliveries=args.max_deliveries,
        monitor=monitor,
        strict=args.monitor_strict,
        trace=trace,
    )
    text = trace.to_jsonl() if args.format == "json" else trace.to_text()
    if not _write(text, args.out):
        return EXIT_PARSE_ERROR
    if monitor and trace.violations():
        return EXIT_VIOLATION
    if outcome.startswith("stuck:"):
        return EXIT_STUCK
    return EXIT_OK


def cmd_explore(args) -> int:
    program, typed, status = _prepare(args)
    if program is None:
        return status
    monitor = not args.no_monitor
    base = Trace()
    try:
        config = init_config(program, typed=typed, monitor=monitor, trace=base)
    except (RootEvaluationDiverged, DynamicTypeError) as e:
        print(f"runtime error during setup: {e}", file=sys.stderr)
        return EXIT_STUCK
    report = explore(
        config,
        typed=typed,
        max_depth=args.depth,
        monitor=monitor,
        base_trace=base,
    )
    if args.format == "json":
        objs = [{"schedules": report.schedules}]
        objs += [{"outcome": label, "count": report.outcomes[label]}
                 for label in sorted(report.outcomes)]
        objs.append({"violations": sorted(report.violation_kinds)})
        lines = [json.dumps(obj, separators=(",", ":")) for obj in objs]
    else:
        lines = [f"schedules explored: {report.schedules}"]
        for label in sorted(report.outcomes):
            lines.append(f"  {label}: {report.outcomes[label]}")
        if report.violation_kinds:
            lines.append("violations: " + ", ".join(sorted(report.violation_kinds)))
            assert report.violation_witness is not None
            lines.append("witness:")
            for ev in report.violation_witness.events:
                lines.append("  " + ev.to_text())
    if not _write("\n".join(lines) + "\n", args.out):
        return EXIT_PARSE_ERROR
    if monitor and report.any_violation:
        return EXIT_VIOLATION
    if report.any_stuck:
        return EXIT_STUCK
    return EXIT_OK


def _alg_alphabet(raw: str | None):
    if raw is None:
        return None
    return {name.strip() for name in raw.split(",") if name.strip()}


def cmd_alg(args) -> int:
    alphabet = _alg_alphabet(args.alphabet)

    def parse(text: str):
        return parse_lang(text, alphabet)

    if len(args.args) != 2:
        print(f"error: alg {args.op} takes 2 arguments, got {len(args.args)}",
              file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        if args.op == "derivative":
            symbol, expr = args.args
            # The name rule of `<name>` in the language syntax.
            if not re.fullmatch(r"\w+", symbol):
                raise LangParseError(f"expected a symbol name, got {symbol!r}", 0)
            if alphabet is not None and symbol not in alphabet:
                raise LangParseError(f"undeclared symbol {symbol}", 0)
            result = lng.derivative(symbol, parse(expr))
            out = lang_to_text(result)
        elif args.op == "shuffle":
            e1, e2 = args.args
            out = lang_to_text(lng.shuffle(parse(e1), parse(e2)))
        elif args.op in ("includes", "equiv"):
            e1, e2 = args.args
            op = lng.includes if args.op == "includes" else lng.equiv
            verdict = op(parse(e1), parse(e2))
            out = "true" if verdict else "false"
        elif args.op == "enumerate":
            expr, max_len = args.args
            words = lng.enumerate_words(parse(expr), int(max_len))
            ordered = sorted(words, key=lambda w: (len(w), w))
            out = " ".join("".join(w) or "eps" for w in ordered)
        else:
            print(f"unknown algebra operation {args.op!r}", file=sys.stderr)
            return EXIT_PARSE_ERROR
    except LangParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    if args.format == "json":
        print(json.dumps({"result": out}, separators=(",", ":")))
    else:
        print(out)
    if args.op in ("includes", "equiv") and out == "false":
        return 1
    return EXIT_OK


def _budget(text: str) -> int:
    """A budget read from the command line: an int of 0 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actorcap",
        description="Check, run and explore actor programs with "
        "protocol-carrying actor references.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_check = sub.add_parser("check", help="type-check a program")
    p_check.add_argument("file")
    p_check.add_argument("--warn-dropped", action="store_true",
                         help="report capability bindings dropped at scope exit")
    common(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_run = sub.add_parser("run", help="run a program with a seeded scheduler")
    p_run.add_argument("file")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--max-deliveries", type=_budget, default=DEFAULT_MAX_DELIVERIES)
    p_run.add_argument("--no-monitor", action="store_true")
    p_run.add_argument("--monitor-strict", action="store_true",
                       help="halt on the first monitor violation")
    p_run.add_argument("--unchecked", action="store_true",
                       help="run without type checking first")
    p_run.add_argument("--out", default=None)
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_explore = sub.add_parser(
        "explore", help="exhaustively explore delivery orders"
    )
    p_explore.add_argument("file")
    p_explore.add_argument("--depth", type=_budget, default=DEFAULT_EXPLORE_DEPTH)
    p_explore.add_argument("--no-monitor", action="store_true")
    p_explore.add_argument("--unchecked", action="store_true")
    p_explore.add_argument("--out", default=None)
    common(p_explore)
    p_explore.set_defaults(fn=cmd_explore)

    p_alg = sub.add_parser("alg", help="language algebra calculator")
    p_alg.add_argument(
        "op", choices=("derivative", "shuffle", "includes", "equiv", "enumerate")
    )
    p_alg.add_argument("args", nargs="+")
    p_alg.add_argument("--alphabet", default=None,
                       help="comma-separated list of allowed symbols")
    common(p_alg)
    p_alg.set_defaults(fn=cmd_alg)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 after --help and 2, the stuck code, on bad usage.
        return EXIT_PARSE_ERROR if e.code else EXIT_OK
    try:
        return args.fn(args)
    except lng.StateBudgetExceeded as e:
        # A search (inclusion, explore or enumeration) refused the input, so
        # no verdict applies.
        print(f"error: state budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError as e:
        print(f"error: stack budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
