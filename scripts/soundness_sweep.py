#!/usr/bin/env python3
"""Corpus sweep: check every program, then explore every delivery order.

Positive programs must be accepted and run clean on all schedules; negative
programs must be rejected with their annotated error code, and when run
anyway (checking bypassed) either trip the monitor or get stuck.
"""

import argparse
import pathlib
import re
import sys

from actorcap.checker import TypeCheckError, check_program
from actorcap.runtime import DynamicTypeError, RootEvaluationDiverged, Trace, explore, init_config
from actorcap.syntax import parse_program

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def sweep_positive(depth: int) -> bool:
    ok = True
    print(f"-- positive corpus (exhaustive to depth {depth}, monitor on)")
    for path in sorted((CORPUS / "positive").glob("*.acap")):
        prog = parse_program(path.read_text())
        typed = check_program(prog)
        base = Trace()
        config = init_config(prog, typed=typed, trace=base)
        report = explore(config, typed=typed, max_depth=depth, base_trace=base)
        clean = not report.any_stuck and not report.any_violation
        ok &= clean
        outcomes = ", ".join(f"{k}={v}" for k, v in sorted(report.outcomes.items()))
        status = "clean" if clean else "PROBLEM"
        print(f"  {path.name:24} {report.schedules:4} schedules {report.states:3} states"
              f"  {outcomes:24} {status}")
    return ok


def sweep_negative(depth: int) -> bool:
    ok = True
    print("-- negative corpus (expected rejection, then unchecked execution)")
    for path in sorted((CORPUS / "negative").glob("*.acap")):
        src = path.read_text()
        expected = re.search(r"-- expect: (\w+)", src).group(1)
        prog = parse_program(src)
        try:
            check_program(prog)
            print(f"  {path.name:24} ACCEPTED but expected {expected}")
            ok = False
            continue
        except TypeCheckError as e:
            code = e.code.value
        rejected = code == expected
        try:
            base = Trace()
            config = init_config(prog, trace=base)
            report = explore(config, max_depth=depth, base_trace=base)
            flagged = (
                "SendNotPermitted" in report.violation_kinds
                or "GlobalInvariantBroken" in report.violation_kinds
                or "stuck:UnhandledMessage" in report.outcomes
            )
            dynamic = f"flagged={flagged} outcomes={sorted(report.outcomes)}"
        except (RootEvaluationDiverged, DynamicTypeError):
            flagged = True
            dynamic = "not executable unchecked"
        ok &= rejected and flagged
        status = "ok" if rejected and flagged else "PROBLEM"
        print(f"  {path.name:24} {code:24} {dynamic}  {status}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=8)
    args = parser.parse_args()
    good = sweep_positive(args.depth)
    good &= sweep_negative(args.depth)
    print("sweep:", "all good" if good else "FAILURES")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
