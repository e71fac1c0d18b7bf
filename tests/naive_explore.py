"""The plain depth-first explorer, kept as an oracle for `runtime.explore`.

It re-runs every delivery order from scratch, with no memo and no cap, so
it is slow but obviously right; `runtime.explore` must give the same
report.  Its cost is the number of schedules, so give it small inputs.
"""

from __future__ import annotations

from actorcap.runtime import (
    DEFAULT_EXPLORE_DEPTH,
    Config,
    ExplorationReport,
    Stuck,
    Trace,
    TraceEvent,
    deliver,
    enabled_deliveries,
)


def naive_explore(
    config: Config,
    *,
    typed=None,
    max_depth: int = DEFAULT_EXPLORE_DEPTH,
    monitor: bool = True,
    base_trace: Trace | None = None,
) -> ExplorationReport:
    """Depth-first enumeration of every delivery order up to `max_depth`."""
    report = ExplorationReport()
    base_events = list(base_trace.events) if base_trace is not None else []

    def record(label: str, events: list[TraceEvent]):
        report.schedules += 1
        report.outcomes[label] = report.outcomes.get(label, 0) + 1
        witness = Trace(events=events, outcome=label)
        if label not in report.witnesses:
            report.witnesses[label] = witness
        viol_kinds = {e.violation for e in events if e.kind == "violation"}
        if viol_kinds:
            report.violation_kinds.update(viol_kinds)
            if report.violation_witness is None:
                report.violation_witness = witness

    def go(cfg: Config, events: list[TraceEvent], depth: int):
        enabled = enabled_deliveries(cfg)
        if not enabled:
            record("quiescent", events)
            return
        if depth >= max_depth:
            record("depth", events)
            return
        for src, dst, _ in enabled:
            branch = cfg.copy()
            tr = Trace(events=list(events))
            res = deliver(
                branch, (src, dst), typed=typed, monitor=monitor, trace=tr,
            )
            if isinstance(res, Stuck):
                record(f"stuck:{res.kind}", tr.events)
            else:
                go(branch, tr.events, depth + 1)

    go(config, base_events, 0)
    return report
