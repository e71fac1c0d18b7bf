"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import itertools
import pathlib
import random
import re
import time

import pytest

from actorcap import lang as lng
from actorcap import monitor as mon
from actorcap.checker import TypeCheckError, check_program
from actorcap.cli import main as cli_main
from actorcap.lang import MsgType, cat, derivative, star, sym
from actorcap.runtime import (
    DynamicTypeError,
    RootEvaluationDiverged,
    Trace,
    explore,
    init_config,
)
from actorcap.syntax import parse_program

from langgen import ALPHABET, random_expr, random_word

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"
POSITIVE = sorted((CORPUS / "positive").glob("*.acap"))
NEGATIVE = sorted((CORPUS / "negative").glob("*.acap"))

N_RANDOM_EXPRS = 200
WORD_BOUND = 6


def verdict(number: int, name: str, ok: bool, detail: str = ""):
    import conftest

    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"acceptance criterion {number} [{name}]: {status}{suffix}"
    print(line)
    conftest.verdict_lines.append(line)
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def seeded_population():
    rng = random.Random(20240901)
    return [random_expr(rng, depth=4) for _ in range(N_RANDOM_EXPRS)]


def test_criterion_1_algebra_oracle_suite():
    started = time.monotonic()
    population = seeded_population()
    all_words = [
        w
        for n in range(WORD_BOUND + 1)
        for w in itertools.product(ALPHABET, repeat=n)
    ]
    disagreements = 0
    for e in population:
        oracle = lng.enumerate_words(e, WORD_BOUND)
        for w in all_words:
            if lng.member(w, e) != (w in oracle):
                disagreements += 1
    elapsed = time.monotonic() - started
    verdict(
        1,
        "algebra oracle suite",
        disagreements == 0 and elapsed < 60,
        f"{len(population)} exprs, {len(all_words)} words each, "
        f"{disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_2_law_suite():
    population = seeded_population()
    rng = random.Random(77)
    failures = 0
    for i, e in enumerate(population):
        f = population[(i + 1) % len(population)]
        g = population[(i + 2) % len(population)]
        if not lng.equiv(lng.shuffle(e, f), lng.shuffle(f, e)):
            failures += 1
        if not lng.equiv(
            lng.shuffle(lng.shuffle(e, f), g), lng.shuffle(e, lng.shuffle(f, g))
        ):
            failures += 1
        if not lng.equiv(lng.shuffle(e, lng.EPS), e):
            failures += 1
        if not lng.equiv(
            lng.shuffle(e, lng.alt(f, g)),
            lng.alt(lng.shuffle(e, f), lng.shuffle(e, g)),
        ):
            failures += 1
        if not lng.equiv(
            lng.shuffle(lng.alt(e, f), g),
            lng.alt(lng.shuffle(e, g), lng.shuffle(f, g)),
        ):
            failures += 1
        w1, w2 = random_word(rng, 3), random_word(rng, 3)
        if not lng.equiv(
            lng.word_derivative(w1 + w2, e),
            lng.word_derivative(w2, lng.word_derivative(w1, e)),
        ):
            failures += 1
    verdict(2, "law suite", failures == 0, f"{failures} failures")


def test_criterion_3_paper_worked_example():
    nop, act = sym("nop"), sym("act")
    protocol = cat(cat(star(nop), act), star(nop))
    ok = (
        lng.includes(lng.shuffle(act, star(nop)), protocol) is True
        and lng.equiv(derivative(MsgType("act"), protocol), star(nop)) is True
        and lng.is_empty(
            derivative(MsgType("act"), derivative(MsgType("act"), protocol))
        )
        is True
    )
    verdict(3, "worked protocol example", ok)


def test_criterion_4_checker_corpus():
    required_positive = {
        "counter.acap",
        "ping_pong.acap",
        "split_delegate.acap",
        "spawn_restricted.acap",
    }
    required_codes = {
        "EmptyResidual",
        "SplitNotJustified",
        "BehaviourConformance",
        "SpawnCapabilityTooLarge",
        "DuplicateCaseLabel",
        "NonSplittableCapture",
        "RootMissingUnitCase",
    }
    accepted = []
    for path in POSITIVE:
        check_program(parse_program(path.read_text()))
        accepted.append(path.name)
    rejected_codes = set()
    mismatches = []
    for path in NEGATIVE:
        src = path.read_text()
        expected = re.search(r"-- expect: (\w+)", src).group(1)
        try:
            check_program(parse_program(src))
            mismatches.append(f"{path.name} accepted")
        except TypeCheckError as e:
            if e.code.value != expected:
                mismatches.append(
                    f"{path.name} got {e.code.value}, wanted {expected}"
                )
            rejected_codes.add(e.code.value)
    ok = (
        len(accepted) >= 10
        and required_positive <= set(accepted)
        and len(NEGATIVE) >= 10
        and not mismatches
        and required_codes <= rejected_codes
    )
    verdict(
        4,
        "checker corpus",
        ok,
        f"{len(accepted)} positives, {len(NEGATIVE)} negatives, "
        f"codes={sorted(rejected_codes)}, mismatches={mismatches}",
    )


def test_criterion_5_empirical_soundness():
    started = time.monotonic()
    problems = []
    total_schedules = 0
    for path in POSITIVE:
        prog = parse_program(path.read_text())
        typed = check_program(prog)
        base = Trace()
        config = init_config(prog, typed=typed, monitor=True, trace=base)
        report = explore(
            config, typed=typed, max_depth=8, monitor=True, base_trace=base
        )
        total_schedules += report.schedules
        if report.any_stuck:
            problems.append(f"{path.name}: stuck {report.outcomes}")
        if report.any_violation:
            problems.append(f"{path.name}: violations {report.violation_kinds}")
    elapsed = time.monotonic() - started
    verdict(
        5,
        "empirical soundness",
        not problems and elapsed < 300,
        f"{len(POSITIVE)} programs, {total_schedules} schedules, "
        f"{elapsed:.1f}s, problems={problems}",
    )


def test_criterion_6_monitor_sensitivity():
    problems = []
    for path in NEGATIVE:
        prog = parse_program(path.read_text())
        try:
            base = Trace()
            config = init_config(prog, typed=None, monitor=True, trace=base)
            report = explore(
                config, typed=None, max_depth=8, monitor=True, base_trace=base
            )
        except (RootEvaluationDiverged, DynamicTypeError):
            continue  # not executable without checking
        flagged = (
            "SendNotPermitted" in report.violation_kinds
            or "GlobalInvariantBroken" in report.violation_kinds
            or "stuck:UnhandledMessage" in report.outcomes
        )
        executable = not all(
            k == "stuck:DynamicTypeError" for k in report.outcomes
        )
        if executable and not flagged:
            problems.append(path.name)
    verdict(6, "monitor sensitivity", not problems, f"unflagged={problems}")


def test_criterion_7_determinism(capsys):
    outputs = []
    for _ in range(2):
        code = cli_main(
            ["run", str(CORPUS / "positive/fanin.acap"), "--seed", "42",
             "--max-deliveries", "100", "--format", "json"]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out.encode())
    same = outputs[0] == outputs[1]
    verdict(7, "determinism", same, f"{len(outputs[0])} bytes")


def test_criterion_8_trace_conservation(monkeypatch):
    # Every turn is checked, or is quiet: its payload and the receiver's old
    # and new behaviours reach no reference and it sends, spawns and
    # creates none, so conservation has no target and `deliver` skips it.
    from actorcap import runtime

    calls = {"n": 0, "violations": [], "quiet": 0, "unchecked": []}
    original = mon.conservation
    original_deliver = runtime.deliver

    def spying_conservation(*args, **kwargs):
        calls["n"] += 1
        out = original(*args, **kwargs)
        calls["violations"].extend(out)
        return out

    def spying_deliver(config, choice, **kwargs):
        before, held = calls["n"], config.queues[choice][0][0].refs
        held += config.store[choice[1]].refs
        trace = kwargs["trace"]
        start = len(trace.events)
        res = original_deliver(config, choice, **kwargs)
        if calls["n"] == before and not isinstance(res, runtime.Stuck):
            kinds = {e.kind for e in trace.events[start:]} - {"violation"}
            if held or config.store[choice[1]].refs or kinds != {"deliver"}:
                calls["unchecked"].append(choice)
            else:
                calls["quiet"] += 1
        return res

    monkeypatch.setattr(mon, "conservation", spying_conservation)
    monkeypatch.setattr(runtime, "deliver", spying_deliver)
    from actorcap.runtime import run

    deliveries = 0
    for path in POSITIVE:
        prog = parse_program(path.read_text())
        typed = check_program(prog)
        tr = Trace(seed=8)
        config = init_config(prog, typed=typed, monitor=True, trace=tr)
        trace, outcome = run(config, typed=typed, seed=8, monitor=True, trace=tr)
        assert not outcome.startswith("stuck"), path.name
        deliveries += sum(1 for e in trace.events if e.kind == "deliver")
    checked_turns, quiet_turns = calls["n"], calls["quiet"]
    positive_violations = list(calls["violations"])

    # Sensitivity: a handler that conjures and drops a capability is caught,
    # so the per-turn identity is demonstrably being evaluated.
    bad = parse_program((CORPUS / "negative/effect_escape.acap").read_text())
    tr = Trace(seed=0)
    config = init_config(bad, typed=None, monitor=True, trace=tr)
    run(config, typed=None, seed=0, monitor=True, trace=tr)
    caught_bad_turn = any(
        v.kind == "GlobalInvariantBroken" for v in calls["violations"]
    )

    ok = (
        deliveries > 0
        and checked_turns + quiet_turns >= deliveries
        and not calls["unchecked"]
        and not positive_violations
        and caught_bad_turn
    )
    verdict(
        8,
        "trace conservation",
        ok,
        f"{checked_turns} turns checked and {quiet_turns} quiet over "
        f"{deliveries} deliveries, {len(positive_violations)} violations on "
        f"positives",
    )
