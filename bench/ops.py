"""Perform one operation through the library calls the CLI makes.

Every call goes through a module attribute (`syntax.parse_program`, not a
name imported from it), so the traced run's wrappers see it.
"""

from __future__ import annotations

import signal
import time

from actorcap import checker, lang, runtime, syntax

from gen import ACCEPTED, Op


class OpTimeout(Exception):
    """The operation ran past the workload's per-operation time limit."""


def _alarm(signum, frame):
    raise OpTimeout("per-operation time limit reached")


def _checked(source: str):
    program = syntax.parse_program(source)
    return program, checker.check_program(program)


def _answer(op: Op) -> tuple[bool, str]:
    """(matches the known answer, short description of what came out)."""
    if op.kind == "check":
        program = syntax.parse_program(op.source)
        try:
            checker.check_program(program)
            got = ACCEPTED
        except checker.TypeCheckError as e:
            got = e.code.value
        return got == op.expect, got
    if op.kind == "alg":
        left, right = (lang.parse_lang(text) for text in op.query)
        got = lang.includes(left, right)
        return got == op.expect, str(got).lower()
    program, typed = _checked(op.source)
    if op.kind == "run":
        trace = runtime.Trace(seed=op.sched_seed)
        config = runtime.init_config(program, typed=typed, monitor=op.monitor,
                                     trace=trace)
        trace, outcome = runtime.run(config, typed=typed, seed=op.sched_seed,
                                     monitor=op.monitor, trace=trace)
        kinds = sorted({e.violation for e in trace.violations()})
        desc = outcome + "".join(f" {k}" for k in kinds)
        return outcome == op.expect and not kinds, desc
    base = runtime.Trace()
    config = runtime.init_config(program, typed=typed, monitor=op.monitor,
                                 trace=base)
    report = runtime.explore(config, typed=typed, max_depth=op.depth,
                             monitor=op.monitor, base_trace=base)
    kinds = sorted(report.violation_kinds)
    desc = " ".join(sorted(report.outcomes) + kinds)
    return set(report.outcomes) <= op.expect and not kinds, desc


def perform(op: Op, limit_s: float) -> dict:
    """Run one operation under a time limit; never raises.

    Returns its measured time, whether it failed and why.  Any exception,
    including RecursionError, a state budget or the time limit, is a
    failure, and so is any answer other than the known one.
    """
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    t0 = time.perf_counter()
    try:
        try:
            ok, got = _answer(op)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    except Exception as e:  # RecursionError and budget refusals included
        ok, got = False, f"{type(e).__name__}: {str(e)[:120]}"
    elapsed = time.perf_counter() - t0
    return {"name": op.name, "failed": not ok, "got": got, "s": elapsed}
