"""Layer tracing from outside the program.

`Tracer.install` replaces public entry points of each layer with wrappers
on their module attributes; the program's own modules look these names up
through the module at call time (`lng.includes`, `mon.global_invariant`,
`deliver` inside `runtime`), so nested calls are seen too.

Each wrapped call pushes a frame.  A call whose caller is in another layer
(or in the harness) is an outermost call into its layer and records a span
(id, parent id, name, start, end).  Every call also feeds per-function
counters: calls, time of the function's outermost invocation, and self time
(that time minus the time spent in nested spans of other layers).  Spans
stay in memory and are written once, when the pass ends.
"""

from __future__ import annotations

import gzip
import json
import time
from dataclasses import fields

from actorcap import checker, lang, monitor, runtime, syntax, values

LAYER_OF = {syntax: "syntax", checker: "checker", lang: "lang",
            runtime: "runtime", monitor: "monitor"}

# (owner, attribute) pairs wrapped; owners are modules or runtime.Config.
ENTRY_POINTS = [
    (syntax, "parse_program"), (syntax, "tokenize"),
    (checker, "check_program"),
    (lang, "includes"), (lang, "equiv"), (lang, "is_empty"),
    (lang, "derivative"), (lang, "partial_derivatives"),
    (runtime, "init_config"), (runtime, "run"), (runtime, "explore"),
    (runtime, "deliver"), (runtime.Config, "copy"),
    (monitor, "summarize"), (monitor, "check_send_tag"), (monitor, "split_tag"),
    (monitor, "effect_conformance"), (monitor, "global_invariant"),
    (monitor, "conservation"), (monitor, "fifo_merges"),
]


class FnStats:
    __slots__ = ("calls", "outer_s", "self_s", "max_s")

    def __init__(self):
        self.calls = 0
        self.outer_s = 0.0
        self.self_s = 0.0
        self.max_s = 0.0


class _Frame:
    __slots__ = ("layer", "t0", "foreign")

    def __init__(self, layer: str, t0: float):
        self.layer = layer
        self.t0 = t0
        self.foreign = 0.0


def count_nodes(root) -> int:
    """AST nodes reachable from a parsed program (iterative: chains are deep)."""
    count, stack = 0, [root]
    while stack:
        v = stack.pop()
        if isinstance(v, (tuple, list)):
            stack.extend(v)
        elif isinstance(v, (syntax.Expr, syntax.Program, syntax.Case)):
            count += not isinstance(v, syntax.Program)
            stack.extend(getattr(v, f.name) for f in fields(v))
    return count


def _value_key(v):
    match v:
        case values.RefValue(target, tag):
            return ("r", target, tag)
        case values.PairV(a, b):
            return ("p", _value_key(a), _value_key(b))
        case values.Closure(fun, env):
            return ("c", id(fun), _env_key(env))
        case values.BehValue(annot, cases, env, _):
            return ("b", annot, id(cases), _env_key(env))
    return v


def _env_key(env):
    return tuple(sorted((k, _value_key(x)) for k, x in env.items()))


def config_key(cfg) -> tuple:
    """A hashable fingerprint of a configuration (AST nodes by identity)."""
    store = tuple(sorted((a, _value_key(b)) for a, b in cfg.store.items()))
    queues = tuple(sorted(
        (k, tuple((_value_key(v), m) for v, m in q))
        for k, q in cfg.queues.items() if q
    ))
    return store, queues, cfg.next_id


class Tracer:
    def __init__(self):
        self.frames: list[_Frame] = []
        self.span_stack: list[int] = []
        self.spans: list[tuple] = []
        self.stats: dict[str, FnStats] = {}
        self.active: dict[str, int] = {}
        self.counts = {"tokens": 0, "ast_nodes": 0, "pd_calls": 0,
                       "fifo_words": 0, "schedules": 0, "trace_events": 0,
                       "distinct_states": 0}
        self._states: set = set()
        self._installed: list[tuple] = []
        self._caches: list = []

    # -- per-operation state

    def next_op(self):
        """Close the previous operation's state set and reset the stacks."""
        self.counts["distinct_states"] += len(self._states)
        self._states = set()
        self.frames.clear()
        self.span_stack.clear()
        for name in self.active:
            self.active[name] = 0

    # -- hooks run after a wrapped call returns; their time is excluded
    #    from every layer's self time and shows only as trace overhead

    def _after(self, name: str, result):
        c = self.counts
        if name == "tokenize":
            c["tokens"] += len(result)
        elif name == "parse_program":
            c["ast_nodes"] += count_nodes(result)
        elif name == "fifo_merges":
            c["fifo_words"] += len(result)
        elif name == "explore":
            c["schedules"] += result.schedules
        elif name == "deliver" and isinstance(result, runtime.Config):
            self._states.add(config_key(result))

    # -- installation

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        stats = self.stats.setdefault(name, FnStats())
        self.active[name] = 0
        hooked = name in ("tokenize", "parse_program", "fifo_merges",
                          "explore", "deliver")
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frames = tracer.frames
            parent = frames[-1] if frames else None
            stats.calls += 1
            if name == "partial_derivatives" and (
                tracer.active["includes"] or tracer.active["is_empty"]
            ):
                tracer.counts["pd_calls"] += 1
            outermost = tracer.active[name] == 0
            opens_span = parent is None or parent.layer != layer
            tracer.active[name] += 1
            if opens_span:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
                tracer.span_stack.append(span_id)
            frame = _Frame(layer, clock())
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if frames and frames[-1] is frame:
                    frames.pop()
                tracer.active[name] -= 1
                dur = end - frame.t0
                if outermost:
                    stats.outer_s += dur
                    stats.self_s += dur - frame.foreign
                    if dur > stats.max_s:
                        stats.max_s = dur
                if opens_span:
                    tracer.span_stack.pop()
                    parent_id = tracer.span_stack[-1] if tracer.span_stack else None
                    tracer.spans[span_id] = (span_id, parent_id, layer, name,
                                             frame.t0, end)
                if parent is not None:
                    parent.foreign += dur if opens_span else frame.foreign
            if hooked:
                h0 = clock()
                tracer._after(name, result)
                if parent is not None:
                    parent.foreign += clock() - h0
            return result

        return wrapper

    def install(self):
        for owner, attr in ENTRY_POINTS:
            fn = getattr(owner, attr)
            layer = LAYER_OF.get(owner, "runtime")
            name = attr if owner is not runtime.Config else "copy"
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(layer, name, fn))
            if hasattr(fn, "cache_info"):
                self._caches.append(fn)
        emit = runtime.Trace.emit
        counts = self.counts

        def counted_emit(trace_self, kind, **kw):
            counts["trace_events"] += 1
            return emit(trace_self, kind, **kw)

        self._installed.append((runtime.Trace, "emit", emit))
        runtime.Trace.emit = counted_emit

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def cache_hit_ratio(self) -> float | None:
        """Hits over lookups of the wrapped functions that expose cache_info."""
        if not self._caches:
            return None
        infos = [fn.cache_info() for fn in self._caches]
        hits = sum(i.hits for i in infos)
        lookups = hits + sum(i.misses for i in infos)
        return hits / lookups if lookups else 0.0

    def layer_time(self, layer: str) -> float:
        return sum(s[5] - s[4] for s in self.spans if s and s[2] == layer)

    def nested_time(self, layer: str, under: str) -> float:
        """Time in spans of `layer` whose parent span is in layer `under`."""
        layer_of = {s[0]: s[2] for s in self.spans if s}
        return sum(
            s[5] - s[4] for s in self.spans
            if s and s[2] == layer and layer_of.get(s[1]) == under
        )

    def write_spans(self, path):
        with gzip.open(path, "wt") as f:
            json.dump({"fields": ["id", "parent", "layer", "name", "start", "end"],
                       "spans": [s for s in self.spans if s]}, f)
