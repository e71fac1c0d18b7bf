#!/usr/bin/env python3
"""actorcap benchmark: check, alg, run and explore traffic, timed end to end.

    python3 bench/run.py --workload check-scale --seed 1 --seconds 40 --trace 0

Runs passes of the workload until --seconds have gone (at least
MIN_PASSES).  Each pass is a fresh interpreter (bench/worker.py) with
PYTHONHASHSEED pinned from the workload seed, which imports `actorcap`
from ../src, builds every input from the seed and performs the workload's
fixed list of operations through the library calls the CLI makes.  Every
answer is checked against one known by construction.

With --trace 0 the result holds the end-to-end metrics: each operation
timed at its median over the passes, each pass scaled to a fixed machine
speed (speed.py), and set-up timed at the fastest of SETUP_STARTS
set-up-only starts.  With --trace 1 traced and untraced passes
alternate: layer metrics come from the traced passes, scaling exponents
and the monitor's overhead ratio from the untraced ones, and
trace.overhead_s is the difference between the two.  The last line of
output is one JSON object; the lines before it name every metric with
its unit and operation count, every failed operation, and each family's
time per input size.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import pathlib
import statistics
import subprocess
import sys
import time
import zlib

import speed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("check-scale", "run-seeded", "explore-fanin")
MIN_PASSES = 3
DEADLINE_S = 150.0
# Set-up-only interpreter starts per run, made in batches after the first
# untraced passes.  setup_s is their minimum: one start varies by half
# with the machine's load, the fastest of many much less.
SETUP_STARTS = 16
SETUP_BATCH = 8

# Family -> per-layer growth metric: log-log slope of the family's time
# against input size, from the untraced passes.
GROWTH = {
    "chain": "syntax.parse_growth",
    "spawn": "checker.spawn_growth",
    "includes_true": "lang.includes_growth",
    "self_split": "lang.self_split_growth",
    "chain/mon": "monitor.chain_growth",
    "chain/nomon": "runtime.chain_growth",
}


# Operations that fail at the time the benchmark was defined, with the
# failure each gives.  They count in `failed` and in ok_frac like any other
# failure and are named in the output; that failure does not make
# `correct` false.  A failure matching none of these (a wrong verdict, a
# stuck run, an unexpected exception) does.  A timeout is a failure but
# not a wrong answer.  wall_s leaves these operations out by name, whether
# they fail or not, so fixing one never reads as a slowdown.
KNOWN_DEFECTS = [
    # The parser recurses once per nested let.
    (r"check/chain-800", r"RecursionError"),
    # The monitor enumerates FIFO merges under a 20k cap.
    (r"run/fanin-4x3/s[01]/mon", r"StateBudgetExceeded: too many queue interleavings"),
    # Conservation demands equivalence though dropping a capability is allowed.
    (r"run/star-forwarder-\d+x\d+/s\d+/mon", r"quiescent GlobalInvariantBroken$"),
]


def known(op: dict) -> bool:
    """An operation named in KNOWN_DEFECTS, whether it failed or not."""
    return any(re.fullmatch(n, op["name"]) for n, _ in KNOWN_DEFECTS)


def unexpected(op: dict) -> bool:
    """A failure that is neither a known defect nor a timeout."""
    if not op["failed"] or op["got"].startswith("OpTimeout"):
        return False
    return not any(re.fullmatch(n, op["name"]) and re.match(g, op["got"])
                   for n, g in KNOWN_DEFECTS)


def hash_seed(workload: str, seed: int) -> str:
    return str(zlib.crc32(f"{workload}:{seed}".encode()))


def run_pass(args, traced: bool, index: int, budget_s: float,
             setup_only: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed(args.workload, args.seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("ACTORCAP_STATE_BUDGET", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced))]
    if traced:
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-s{args.seed}-p{index}.json.gz"
        cmd += ["--spans-out", str(spans)]
    if setup_only:
        cmd += ["--setup-only", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=budget_s)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"pass {index} of {args.workload} ran past {budget_s:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"pass {index} of {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(passes: list[dict]) -> tuple[int, int]:
    """(operations attempted, operations failed) over the passes."""
    ops = [op for p in passes for op in p["ops"]]
    return len(ops), sum(op["failed"] for op in ops)


def speed_factor(p: dict, sensitivity: float = speed.SENSITIVITY_SUM) -> float:
    """The pass's multiplier to the reference speed (speed.py)."""
    return speed.factor(statistics.median(p["ref_s"]), sensitivity)


def pass_times(p: dict, sensitivity: float) -> list[float]:
    """The pass's operation times, scaled by its speed factor.

    A failed operation counts at the time limit, or its own time if longer.
    """
    k = speed_factor(p, sensitivity)
    return [max(k * op["s"], p["limit_s"]) if op["failed"] else k * op["s"]
            for op in p["ops"]]


def geomean_ms(timed: list[tuple[dict, float, bool]]) -> float:
    """Geometric mean of the operation times, each weighted by its `weight`."""
    logs = [(op["weight"], math.log(max(t, 1e-9))) for op, t, _ in timed]
    return 1000 * math.exp(sum(w * x for w, x in logs) / sum(w for w, _ in logs))


def op_times(passes: list[dict], sensitivity: float = speed.SENSITIVITY_SUM
             ) -> list[tuple[dict, float, bool]]:
    """(operation, time, failed in any pass) for each operation of the pass.

    The time is the median over the passes of the operation's scaled time
    (pass_times).  Scaling takes out much of the machine's drift from pass
    to pass, and the median much of what is left.  An operation that
    failed in any pass takes its slowest counted time instead, at least
    the limit, so a faster pass never hides a failure.  Sums of these
    times weigh each by the operation's `weight`.
    """
    out = []
    for ops, ts in zip(zip(*(p["ops"] for p in passes)),
                       zip(*(pass_times(p, sensitivity) for p in passes))):
        bad = any(op["failed"] for op in ops)
        out.append((ops[0], max(ts) if bad else statistics.median(ts), bad))
    return out


def total_s(timed: list[tuple[dict, float, bool]], with_known: bool) -> float:
    """Weighted sum of operation times, with or without KNOWN_DEFECTS."""
    return sum(op["weight"] * t for op, t, _ in timed if with_known or not known(op))


def rows(passes: list[dict]) -> dict[tuple[str, int], tuple[float, bool]]:
    """(family, size) -> (summed operation time, any failure)."""
    out: dict[tuple[str, int], tuple[float, bool]] = {}
    for op, t, bad in op_times(passes):
        key = (op["family"], op["size"])
        total, any_bad = out.get(key, (0.0, False))
        out[key] = (total + op["weight"] * t, any_bad or bad)
    return out


def growth(table, family: str) -> float:
    """Least-squares slope of log(time) on log(size) over sizes that passed."""
    pts = [(math.log(size), math.log(t)) for (fam, size), (t, bad) in table.items()
           if fam == family and not bad and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0


def overhead_x(p: dict) -> float:
    """Monitored over unmonitored time on twin items where both succeeded."""
    by_name = {op["name"]: op for op in p["ops"]}
    mon = nomon = 0.0
    for op in p["ops"]:
        twin = by_name.get(op["pair"]) if op["pair"] else None
        if twin and not op["failed"] and not twin["failed"]:
            mon += twin["s"]
            nomon += op["s"]
    return mon / nomon if nomon else 0.0


def end_to_end(plain: list[dict], setups: list[float]) -> dict:
    attempted, failed = tally(plain)
    short = speed.SENSITIVITY_SHORT
    k_setup = statistics.median(speed_factor(p, short) for p in plain)
    return {
        "setup_s": (k_setup * min(setups), "s"),
        "wall_s": (total_s(op_times(plain), with_known=False), "s"),
        "op_geomean_ms": (geomean_ms(op_times(plain, short)), "ms"),
        "ok_frac": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain), "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    def med(key):
        return statistics.median(p["layers"][key] for p in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    table = rows(plain)
    traced_wall = statistics.median(sum(op["s"] for op in p["ops"]) for p in traced)
    plain_wall = statistics.median(sum(op["s"] for op in p["ops"]) for p in plain)
    parse_s, deliveries = med("parse_s"), med("deliveries")
    m = {
        "syntax.parse_s": (parse_s, "s"),
        "syntax.tokens_per_s": (ratio(med("tokens"), parse_s), "1/s"),
        "syntax.ast_nodes_per_s": (ratio(med("ast_nodes"), parse_s), "1/s"),
        "checker.self_s": (med("check_self_s"), "s"),
        "checker.lang_share": (ratio(med("lang_under_checker_s"), med("check_s")),
                               "ratio"),
        "lang.includes.calls": (med("includes_calls"), "count"),
        "lang.includes.s": (med("includes_s"), "s"),
        "lang.includes.max_ms": (1000 * med("includes_max_s"), "ms"),
        "lang.is_empty.calls": (med("is_empty_calls"), "count"),
        "lang.is_empty.s": (med("is_empty_s"), "s"),
        "lang.derivative.calls": (med("derivative_calls"), "count"),
        "lang.derivative.s": (med("derivative_s"), "s"),
        "lang.pd_calls": (med("pd_calls"), "count"),
        "runtime.deliveries": (deliveries, "count"),
        "runtime.deliver.self_s": (med("deliver_self_s"), "s"),
        "runtime.deliver.mean_us": (1e6 * ratio(med("deliver_s"), deliveries), "us"),
        "runtime.trace_events": (med("trace_events"), "count"),
        "runtime.copies": (med("copies"), "count"),
        "runtime.copy_s": (med("copy_s"), "s"),
        "runtime.schedules": (med("schedules"), "count"),
        "runtime.distinct_states": (med("distinct_states"), "count"),
        "runtime.state_yield": (ratio(med("distinct_states"), deliveries), "ratio"),
        "monitor.global_invariant.calls": (med("global_invariant_calls"), "count"),
        "monitor.global_invariant.s": (med("global_invariant_s"), "s"),
        "monitor.conservation.calls": (med("conservation_calls"), "count"),
        "monitor.conservation.s": (med("conservation_s"), "s"),
        "monitor.summarize.s": (med("summarize_s"), "s"),
        "monitor.fifo_merges.words": (med("fifo_words"), "count"),
        "monitor.share": (ratio(med("monitor_s"), traced_wall), "ratio"),
        "monitor.overhead_x": (statistics.median(overhead_x(p) for p in plain), "x"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
    }
    hits = [p["layers"]["cache_hit_ratio"] for p in traced]
    if all(h is not None for h in hits):
        m["lang.cache_hit_ratio"] = (statistics.median(hits), "ratio")
    for family, name in GROWTH.items():
        m[name] = (growth(table, family), "exponent")
    return m


def report(args, plain, traced, setups, metrics) -> None:
    n_ops = len(plain[0]["ops"])
    print(f"workload {args.workload}  seed {args.seed}  hash seed "
          f"{hash_seed(args.workload, args.seed)}  {n_ops} operations per pass, "
          f"{len(plain)} untraced and {len(traced)} traced passes, per-operation "
          f"limit {plain[0]['limit_s']:g} s")
    if not args.trace:
        attempted, failed = tally(plain)
        timed = op_times(plain)
        n_known = sum(known(op) for op in plain[0]["ops"])
        notes = {
            "setup_s": f"fastest of {len(setups)} set-up-only interpreter starts, "
                       f"scaled by the passes' median short speed factor; unscaled "
                       f"{min(setups):.4g} s, median {statistics.median(setups):.4g} s",
            "wall_s": f"weighted sum over {n_ops - n_known} ops, all but the {n_known} "
                      f"in KNOWN_DEFECTS, of each op's median of {len(plain)} passes, "
                      f"each pass scaled by its sum speed factor",
            "op_geomean_ms": f"geomean over all {n_ops} ops, timed as wall_s but with "
                             f"short speed factors, failures at the limit",
            "ok_frac": f"{attempted - failed} of {attempted} ops",
            "peak_rss_mb": f"median of {len(plain)} passes",
        }
        for name, (value, unit) in metrics.items():
            print(f"  {name:16} {value:12.6g} {unit:6} ({notes[name]})")
        for label, sens in (("sum", speed.SENSITIVITY_SUM),
                            ("short", speed.SENSITIVITY_SHORT)):
            print(f"  {label} speed factors of the untraced passes (speed.py): "
                  + " ".join(f"{speed_factor(p, sens):.3f}" for p in plain))
        # Printed but not in BENCHMARK.json.  wall_all_s: the known
        # failures' limit charges would swamp the real work.  failed_frac:
        # it is 0 on explore-fanin.
        print(f"  {'wall_all_s':16} {total_s(timed, with_known=True):12.6g} {'s':6} "
              f"(as wall_s over all {n_ops} ops, failures at the limit)")
        print(f"  {'failed_frac':16} {failed / attempted:12.6g} {'ratio':6} "
              f"({failed} of {attempted} ops)")
    failures = {}
    for p in plain + traced:
        for op in p["ops"]:
            if op["failed"]:
                failures.setdefault(op["name"], op["got"])
    print(f"failed operations: {len(failures)} distinct")
    for name, got in sorted(failures.items()):
        print(f"  FAILED {name}: {got}")
    print("scaling rows (family, size, seconds summed over items, timed as wall_s):")
    for (family, size), (t, bad) in sorted(rows(plain).items()):
        print(f"  {family:20} {size:6} {t:10.4f}{'  (has failures)' if bad else ''}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:34} {value:14.6g} {unit}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for needed in (ROOT / "src" / "actorcap", ROOT / "corpus"):
        if not needed.is_dir():
            print(f"error: {needed} not found; run from a checkout of the repository",
                  file=sys.stderr)
            return 1

    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    durations: list[float] = []
    while True:
        elapsed = time.monotonic() - start
        enough = (len(traced) >= 1 and len(plain) >= 1) if args.trace \
            else len(plain) >= MIN_PASSES
        expected = statistics.median(durations) if durations else 0.0
        if enough and elapsed + expected > args.seconds:
            break
        if durations and elapsed + max(durations) > DEADLINE_S:
            break
        want_traced = bool(args.trace) and len(traced) < len(plain)
        t0 = time.monotonic()
        p = run_pass(args, want_traced, len(plain) + len(traced),
                     budget_s=DEADLINE_S + 20 - elapsed)
        durations.append(time.monotonic() - t0)
        (traced if want_traced else plain).append(p)
        while not args.trace and len(setups) < min(SETUP_STARTS, SETUP_BATCH * len(plain)):
            setups.append(run_pass(args, False, len(setups), budget_s=60,
                                   setup_only=True)["setup_s"])

    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, setups)
    report(args, plain, traced, setups, metrics)
    attempted, failed = tally(plain + traced)
    print(json.dumps({
        "correct": not any(unexpected(op) for p in plain + traced for op in p["ops"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
