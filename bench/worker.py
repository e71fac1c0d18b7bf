"""One pass of a workload in a fresh interpreter.

Started by run.py with PYTHONHASHSEED pinned.  Imports `actorcap`, builds
the workload's operations from the seed, performs each one under the
workload's per-operation time limit, and prints one JSON object:
per-operation results, the times of the reference workload (speed.py)
taken between them, peak RSS and, when traced, the raw layer counters.
With --setup-only STARTED it stops after building the inputs and prints the set-up
time instead: from before the process was started to the inputs built.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import sys
import time

import gen
import speed
from ops import perform

# Per-operation time limit of each workload, at least 2.5x its slowest
# successful operation on a 2-core machine.  A failed operation counts at
# this limit (or its own time if longer), so fixing a failure never reads
# as a slowdown.
LIMIT_S = {"check-scale": 5.0, "run-seeded": 10.0, "explore-fanin": 10.0}
# Between operations the reference workload is timed whenever this long has
# passed since its last sample, and once more after the last operation.
REF_GAP_S = 0.25


def layer_counters(tracer) -> dict:
    st = tracer.stats

    def get(name, attr="outer_s"):
        return getattr(st[name], attr)

    return {
        "parse_s": get("parse_program"),
        "check_s": get("check_program"),
        "check_self_s": get("check_program", "self_s"),
        "lang_under_checker_s": tracer.nested_time("lang", "checker"),
        "monitor_s": tracer.layer_time("monitor"),
        "includes_calls": get("includes", "calls"),
        "includes_s": get("includes"),
        "includes_max_s": get("includes", "max_s"),
        "is_empty_calls": get("is_empty", "calls"),
        "is_empty_s": get("is_empty"),
        "derivative_calls": get("derivative", "calls"),
        "derivative_s": get("derivative"),
        "cache_hit_ratio": tracer.cache_hit_ratio(),
        "deliveries": get("deliver", "calls"),
        "deliver_s": get("deliver"),
        "deliver_self_s": get("deliver", "self_s"),
        "copies": get("copy", "calls"),
        "copy_s": get("copy"),
        "global_invariant_calls": get("global_invariant", "calls"),
        "global_invariant_s": get("global_invariant"),
        "conservation_calls": get("conservation", "calls"),
        "conservation_s": get("conservation"),
        "summarize_s": get("summarize"),
        **tracer.counts,
    }


def execute(workload: str, ops: list, trace: bool, spans_out=None) -> dict:
    """Perform the operations in order; with `trace`, under the tracer."""
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    limit = LIMIT_S[workload]
    results = []
    samples: list[float] = []
    last = 0.0
    try:
        for op in ops:
            # Hide what earlier operations left from the cyclic collector,
            # so each operation's collections cover only its own objects, as
            # in a CLI user's fresh process.  Otherwise full passes over the
            # caches earlier operations filled land inside whichever short
            # operations the allocation counts happen to pick.
            gc.freeze()
            if not samples or time.perf_counter() - last >= REF_GAP_S:
                samples.append(speed.reference())
                last = time.perf_counter()
            if tracer:
                tracer.next_op()
            r = perform(op, limit)
            r.update(family=op.family, size=op.size, pair=op.pair, weight=op.weight)
            results.append(r)
    finally:
        if tracer:
            tracer.next_op()
            tracer.uninstall()
    samples.append(speed.reference())
    out = {
        "limit_s": limit,
        "ops": results,
        "ref_s": samples,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        out["layers"] = layer_counters(tracer)
        if spans_out:
            path = pathlib.Path(spans_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(path)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--setup-only", type=float, default=None, metavar="STARTED",
                    help="stop after building the inputs and print only setup_s, "
                         "timed from STARTED, a CLOCK_MONOTONIC reading taken "
                         "before this process was started")
    args = ap.parse_args()

    ops = gen.build(args.workload, args.seed)
    if args.setup_only is not None:
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.setup_only
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(json.dumps(execute(args.workload, ops, bool(args.trace), args.spans_out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
