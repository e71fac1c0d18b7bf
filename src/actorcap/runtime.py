"""Deterministic actor runtime.

Actors execute one message at a time.  Local evaluation of a handler is
big-step, call-by-value, left-to-right and bounded by a step budget, so a
diverging handler is observable rather than a hang.  Delivery pops the head
of one per-sender-per-receiver queue; outgoing messages are appended to the
global queues per destination in send order, so message order between any
pair of actors is preserved while deliveries from different senders may
interleave arbitrarily.

A run with a fixed seed is a pure function of the initial configuration:
the scheduler draws uniformly among enabled deliveries from a seeded PRNG,
and traces replay byte for byte.  `explore` counts every delivery order up
to a depth bound instead, classifying each schedule's outcome, but walks
the configurations level by level, one delivery deeper each time, and
expands each distinct one of a level once (`Config.fingerprint`):
schedules that meet in one configuration share what follows it, and so
does the monitor's global check, which a search runs once per distinct
configuration, not once per delivery.  A fingerprint is built from value
shapes, computed once per value while the search holds it, so values that
configurations share are not walked again.  Its witnesses are the first
schedules in depth-first order, and its cap counts the configurations it
expands, not the schedules.  The depth bound and the cap bound the search;
it takes no Python stack per delivery.

Stuckness is a first-class outcome: a delivery whose head message has no
matching case in the target's installed behaviour reports
Stuck(UnhandledMessage), the defect the checker rules out statically.
"""

from __future__ import annotations

import itertools
import json
import random
import weakref
from dataclasses import dataclass, field
from operator import itemgetter

from . import monitor as mon
from . import lang as lng
from .lang import EPS, LangExpr, MsgType, UNIT_MSG, lang_to_text
from .syntax import (
    ActorRefT,
    App,
    Beh,
    BinOp,
    BoolLit,
    Expr,
    Fun,
    If,
    Let,
    NatLit,
    Not,
    Pair,
    Path,
    ProdT,
    Program,
    SelfCap,
    Send,
    Spawn,
    Split,
    UnitLit,
    Var,
)
from .values import (
    BehValue,
    BoolV,
    Closure,
    Num,
    PairV,
    RefValue,
    UNIT_V,
    Value,
)

LOCAL_STEPS = 100_000  # evaluation steps one handler (or the root) may take
STATE_CAP = 100_000  # configurations one explore may expand
DEFAULT_MAX_DELIVERIES = 1_000
DEFAULT_EXPLORE_DEPTH = 8


class BudgetExhausted(Exception):
    """A handler ran past its local step budget (models divergence)."""


class DynamicTypeError(Exception):
    """A runtime shape error; only reachable when checking was bypassed."""


class RootEvaluationDiverged(Exception):
    """The root expression did not settle into a behaviour within budget."""


# ---------------------------------------------------------------------------
# Traces


@dataclass(slots=True)
class TraceEvent:
    step: int
    kind: str  # deliver | send | spawn | selfcap | violation
    src: int | None = None
    dst: int | None = None
    msg: str | None = None
    lang: str | None = None
    violation: str | None = None
    detail: str | None = None

    def to_json_obj(self) -> dict:
        obj = {
            "step": self.step,
            "kind": self.kind,
            "src": self.src,
            "dst": self.dst,
            "msg": self.msg,
            "lang": self.lang,
        }
        if self.kind == "violation":
            obj["violation"] = self.violation
            obj["detail"] = self.detail
        return obj

    def to_text(self) -> str:
        parts = [f"[{self.step}] {self.kind}"]
        if self.src is not None or self.dst is not None:
            parts.append(f"{self.src}->{self.dst}")
        if self.msg is not None:
            parts.append(f"<{self.msg}>")
        if self.lang is not None:
            parts.append(f"lang={self.lang}")
        if self.violation is not None:
            parts.append(f"{self.violation}: {self.detail}")
        return " ".join(parts)


@dataclass
class Trace:
    seed: int | None = None
    events: list[TraceEvent] = field(default_factory=list)
    outcome: str | None = None

    def emit(self, kind: str, **kw) -> TraceEvent:
        ev = TraceEvent(step=len(self.events), kind=kind, **kw)
        self.events.append(ev)
        return ev

    def violation(self, v: mon.Violation, src: int | None, dst: int | None):
        self.emit("violation", src=src, dst=dst, violation=v.kind, detail=v.detail)

    def violations(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == "violation"]

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(e.to_json_obj(), separators=(",", ":")) for e in self.events
        ]
        lines.append(json.dumps({"outcome": self.outcome}, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [e.to_text() for e in self.events]
        lines.append(f"outcome: {self.outcome}")
        return "\n".join(lines) + "\n"


@dataclass(slots=True, unsafe_hash=True)
class Stuck:
    kind: str  # UnhandledMessage | HandlerDiverged | NonBehaviourResult | DynamicTypeError
    detail: str = ""


# ---------------------------------------------------------------------------
# Configurations


@dataclass
class Config:
    """Installed behaviours, in-flight messages and remaining tags.

    Values are immutable and may be shared between configurations.  `tags`
    maps a reference, by identity, to what monitored sends have left of its
    tag; a reference not in it holds its birth tag (`RefValue.tag`).  So a
    reference reachable from several places, say under two names or inside
    a closure, is one capability with one remaining tag.  The monitor's
    global check drops the entries of references nothing reaches any more.
    Three tables are derived state that save the global check work, so
    `copy` carries them, while `fingerprint` and `==` ignore them.
    `residuals` is the monitor's table of per-actor residuals after their
    single inbound queue (`monitor.Residual`); an actor with none or
    several has no entry, since one inclusion checks it from its protocol.
    `inflight` maps each reference to the number of queued messages whose
    payload reaches it (`Value.refs`, set when the payload is built), so
    the references in flight are its keys.  Queues
    change only through `append` and `pop_head`, which keep `inflight`
    counted on every delivery, monitored or not; a configuration built with
    queues but without the table counts it from them.  `check_memo` is the
    combined live tags toward each actor that the last global check
    summarized, which the check after a quiet turn reuses.  Every
    `deliver` takes it out first.  A completed global check puts a new one
    back, and a quiet turn whose check is left to `explore` puts the old
    one back, since it changed no tag and no live reference.  So after an
    unmonitored or stuck delivery, and in a configuration built by hand,
    there is none and the next check is a full one.  `copy` shares it: it
    is replaced, never updated in place.
    """

    store: dict[int, BehValue] = field(default_factory=dict)
    queues: dict[tuple[int, int], list[tuple[Value, MsgType]]] = field(
        default_factory=dict
    )
    next_id: int = 0
    tags: dict[RefValue, LangExpr] = field(default_factory=dict)
    residuals: dict[int, mon.Residual] = field(default_factory=dict, compare=False)
    inflight: dict[RefValue, int] = field(default=None, compare=False)
    check_memo: dict[int, LangExpr] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.inflight is None:
            self.inflight = {}
            for q in self.queues.values():
                for value, _ in q:
                    self._count(value, 1)

    def _count(self, value: Value, delta: int):
        inflight = self.inflight
        for ref in value.refs:
            n = inflight.get(ref, 0) + delta
            if n:
                inflight[ref] = n
            else:
                del inflight[ref]

    def append(self, key: tuple[int, int], value: Value, msg: MsgType):
        """Enqueue `msg` with its payload at the tail of queue `key`."""
        self.queues.setdefault(key, []).append((value, msg))
        self._count(value, 1)

    def pop_head(self, key: tuple[int, int]) -> tuple[Value, MsgType]:
        """Dequeue the head of the nonempty queue `key`; an emptied queue
        is removed."""
        q = self.queues[key]
        value, msg = q.pop(0)
        if not q:
            del self.queues[key]
        self._count(value, -1)
        return value, msg

    def copy(self) -> "Config":
        """An independent branch: fresh containers, shared values."""
        queues = {k: list(q) for k, q in self.queues.items()}
        return Config(dict(self.store), queues, self.next_id, dict(self.tags),
                      dict(self.residuals), dict(self.inflight), self.check_memo)

    def fingerprint(self, shapes: "_Shapes | None" = None) -> tuple:
        """A canonical, hashable key: configurations with equal keys have
        the same future under every delivery order.

        The key lists the store by actor id, each actor followed by its
        behaviour's shape (`_Shapes`), then each nonempty queue by key: its
        key and length, then each message's name followed by its payload's
        shape.  A shape writes a reference as its index in the value's own
        `refs`, so one numbering of all these roots' `refs`, in that order,
        ends the key: a reference met before is its number, a new one the
        pair of its target and remaining tag (a queue's key and length pair
        two ints, so the two cannot be confused).  So aliasing counts, and
        dead `tags` entries and allocation order do not.  Sharing a value
        that reaches no reference cannot be observed and does not count
        either: one such pair held under two names has the key of two equal
        pairs.  AST nodes count by identity.  `explore` passes its
        `shapes`, which keep each value's shape while the search holds the
        value; without them the shapes are computed afresh, and the key is
        the same.
        """
        shapes = _Shapes() if shapes is None else shapes
        known, of = shapes.current, shapes.of
        store, queues, tags = self.store, self.queues, self.tags
        key: list = [self.next_id, len(store)]
        append = key.append
        roots: list[Value] = []
        for actor in sorted(store):
            v = store[actor]
            append(actor)
            append(known.get(id(v)) or of(v))
            roots.append(v)
        for k in sorted(k for k, q in queues.items() if q):
            q = queues[k]
            append((k, len(q)))
            for value, msg in q:
                append(msg)
                append(known.get(id(value)) or of(value))
                roots.append(value)
        numbers: dict[RefValue, int] = {}
        for root in roots:
            for ref in root.refs:
                n = numbers.get(ref)
                if n is None:
                    numbers[ref] = len(numbers)
                    append((ref.target, tags.get(ref, ref.tag)))
                else:
                    append(n)
        return tuple(key)


def _atom(v: Value):
    """The shape part of a number, a boolean or unit."""
    t = type(v)
    if t is Num:
        return ("nat", v.value)
    if t is BoolV:
        return ("bool", v.value)
    return "unit"


class _Shape:
    """One value shape, interned: equal shapes are one object, so a shape
    hashes and compares by identity.

    `parts` is the value's structure with each reference written as its
    index in the value's own `refs`, the only `int` part: a reference is
    `(0,)`; a number, boolean or unit its `_atom`; a pair "pair" and its
    two parts; a closure or behaviour a header (its node, a behaviour's
    cases and annotation, and its environment's names, sorted) and one
    part per name.  A part that is a pair, closure or behaviour is its
    shape, paired with the indices of its own references in the outer
    `refs` unless they are the same.  So a value shared within a value is
    one object however often it is met, and a shape costs its value's
    parts, not its size.  The table (`_SHAPES`) holds a shape while
    something else does, and no value.
    """

    __slots__ = ("parts", "__weakref__")

    def __init__(self, parts: tuple):
        self.parts = parts

    def __repr__(self) -> str:
        return f"_Shape{self.parts!r}"


_SHAPES: weakref.WeakValueDictionary[tuple, _Shape] = weakref.WeakValueDictionary()


def _interned(parts: tuple) -> _Shape:
    shape = _SHAPES.get(parts)
    if shape is None:
        shape = _SHAPES[parts] = _Shape(parts)
    return shape


class _Shapes:
    """Value shapes (`_Shape`), each computed once while a search holds
    its value.

    `current` maps a value's identity to its shape, and `held` keeps the
    value alive so that its identity is not reused.  They are two
    generations: `next_level` makes them `previous` and `held_before`,
    dropping the older ones, so a search that calls it once per level holds
    the values of its two live levels only.  Values are immutable, so a
    shape never goes stale.  A shape is built in a loop, so a deep value
    takes no Python stack.
    """

    __slots__ = ("current", "held", "previous", "held_before")

    def __init__(self):
        self.current: dict[int, _Shape] = {}
        self.held: list[Value] = []
        self.previous: dict[int, _Shape] = {}
        self.held_before: list[Value] = []

    def next_level(self):
        self.previous, self.current = self.current, {}
        self.held_before, self.held = self.held, []

    def of(self, root: Value) -> _Shape:
        current, previous, held = self.current, self.previous, self.held
        shape = previous.get(id(root))
        if shape is not None:  # kept from the level before
            current[id(root)] = shape
            held.append(root)
            return shape
        stack = [root]
        while stack:
            v = stack[-1]
            if id(v) in current:
                stack.pop()
                continue
            shape = previous.get(id(v))
            if shape is None:
                t = type(v)
                if t is PairV:
                    head, parts = "pair", (v.first, v.second)
                elif t is Closure or t is BehValue:
                    names = tuple(sorted(v.env))
                    parts = [v.env[name] for name in names]
                    if t is Closure:
                        head = ("fun", id(v.fun), names)
                    else:
                        head = ("beh", id(v.node), id(v.cases), v.annot, names)
                else:
                    head, parts = 0 if t is RefValue else _atom(v), ()
                pending = [p for p in parts
                           if type(p) in _COMPOUND and id(p) not in current]
                if pending:
                    stack += pending
                    continue
                shape = _interned(self._parts(v, head, parts))
            current[id(v)] = shape
            held.append(v)
            stack.pop()
        return current[id(root)]

    def _parts(self, v: Value, head, parts) -> tuple:
        """The parts of `v`'s shape, its own parts' shapes being known."""
        refs = v.refs
        index = {ref: i for i, ref in enumerate(refs)} if refs else None
        out = [head]
        for p in parts:
            tp = type(p)
            if tp is RefValue:
                out.append(index[p])
            elif tp not in _COMPOUND:
                out.append(_atom(p))
            elif not p.refs or p.refs is refs:
                out.append(self.current[id(p)])
            else:
                out.append((self.current[id(p)], tuple([index[r] for r in p.refs])))
        return tuple(out)


_COMPOUND = (PairV, Closure, BehValue)


# ---------------------------------------------------------------------------
# Local evaluation


class _Eval:
    """One actor's turn: big-step evaluation with instrumentation."""

    def __init__(self, config: Config, self_id: int, trace: Trace, monitor: bool):
        self.config = config
        self.self_id = self_id
        self.trace = trace
        self.monitor = monitor
        self.steps = 0
        self.outq: list[tuple[Value, MsgType, int]] = []
        self.spawned: dict[int, BehValue] = {}
        self.observed: LangExpr = EPS

    def _capture(self, env: dict[str, Value], names) -> dict[str, Value]:
        return {k: env[k] for k in sorted(names) if k in env}

    def _path_value(self, env: dict[str, Value], path: Path) -> Value:
        try:
            v = env[path.base]
        except KeyError:
            raise DynamicTypeError(f"unbound variable {path.base!r}") from None
        for sel in path.sels:
            if not isinstance(v, PairV):
                raise DynamicTypeError(f"path {path} selects into a non-pair")
            v = v.first if sel == 1 else v.second
        return v

    def _split_value(self, v: Value, t1, t2) -> tuple[Value, Value]:
        if isinstance(v, RefValue):
            tag = self.config.tags.get(v, v.tag)
            l1 = t1.lang if isinstance(t1, ActorRefT) else tag
            l2 = t2.lang if isinstance(t2, ActorRefT) else tag
            if self.monitor:
                res = mon.split_tag(tag, l1, l2)
                if isinstance(res, mon.Violation):
                    self.trace.violation(res, self.self_id, v.target)
            return RefValue(v.target, l1), RefValue(v.target, l2)
        if isinstance(v, PairV) and isinstance(t1, ProdT) and isinstance(t2, ProdT):
            a1, a2 = self._split_value(v.first, t1.first, t2.first)
            b1, b2 = self._split_value(v.second, t1.second, t2.second)
            return PairV(a1, b1), PairV(a2, b2)
        return v, v

    def eval(self, env: dict[str, Value], e: Expr) -> Value:
        # Dispatch by exact class, the forms most evaluated first.  Every
        # form is handled in this frame, so a nested evaluation costs one
        # Python frame, which sets how deep a handler may recurse before
        # the stack ends it as diverged.
        self.steps += 1
        if self.steps > LOCAL_STEPS:
            raise BudgetExhausted(f"step budget of {LOCAL_STEPS} exhausted")
        t = type(e)
        if t is Var:
            return self._path_value(env, e.path)
        if t is Send:
            target = e.target
            tv = self._path_value(env, target)
            if not isinstance(tv, RefValue):
                raise DynamicTypeError(f"send target {target} is not a reference")
            pv = self.eval(env, e.payload)
            msg = e.msg
            if self.monitor:
                tag = self.config.tags.get(tv, tv.tag)
                res = mon.check_send_tag(tag, msg)
                if isinstance(res, mon.Violation):
                    self.trace.violation(res, self.self_id, tv.target)
                # The tag always tracks the derivative, so after k sends
                # it equals the word derivative of the birth tag.
                self.config.tags[tv] = lng.derivative(msg, tag)
            self.outq.append((pv, msg, tv.target))
            self.trace.emit("send", src=self.self_id, dst=tv.target, msg=msg)
            return UNIT_V
        if t is App:
            fv = self.eval(env, e.fn)
            if not isinstance(fv, Closure):
                raise DynamicTypeError("application of a non-function")
            av = self.eval(env, e.arg)
            call_env = dict(fv.env)
            call_env[fv.fun.self_name] = fv
            call_env[fv.fun.param] = av
            return self.eval(call_env, fv.fun.body)
        if t is Beh:
            return BehValue(e.annot, e.cases, self._capture(env, e.free), e)
        if t is Let or t is Split:
            # A chain of lets and splits is walked along its right spine
            # in a loop, so its length is not bounded by the Python stack.
            # No one keeps the environment of an evaluation, so one copy
            # serves the whole chain.
            inner_env = dict(env)
            while True:
                if t is Let:
                    inner_env[e.name] = self.eval(inner_env, e.value)
                else:
                    v = self._path_value(inner_env, e.path)
                    v1, v2 = self._split_value(v, e.type1, e.type2)
                    inner_env[e.name1] = v1
                    inner_env[e.name2] = v2
                e = e.body
                t = type(e)
                if t is not Let and t is not Split:
                    return self.eval(inner_env, e)
                self.steps += 1  # the step a nested call would count
                if self.steps > LOCAL_STEPS:
                    raise BudgetExhausted(f"step budget of {LOCAL_STEPS} exhausted")
        if t is UnitLit:
            return UNIT_V
        if t is NatLit:
            return Num(e.value)
        if t is BoolLit:
            return BoolV(e.value)
        if t is Pair:
            return PairV(self.eval(env, e.first), self.eval(env, e.second))
        if t is Not:
            v = self.eval(env, e.expr)
            if not isinstance(v, BoolV):
                raise DynamicTypeError("! applied to a non-boolean")
            return BoolV(not v.value)
        if t is BinOp:
            return self._binop(e.op, self.eval(env, e.left), self.eval(env, e.right))
        if t is If:
            cv = self.eval(env, e.cond)
            if not isinstance(cv, BoolV):
                raise DynamicTypeError("if condition is not a boolean")
            return self.eval(env, e.then_branch if cv.value else e.else_branch)
        if t is Fun:
            return Closure(e, self._capture(env, e.free))
        if t is SelfCap:
            l = e.lang
            self.observed = lng.shuffle(self.observed, l)
            self.trace.emit(
                "selfcap", src=self.self_id, dst=self.self_id,
                lang=lang_to_text(l),
            )
            return RefValue(self.self_id, l)
        if t is Spawn:
            bv = self.eval(env, e.expr)
            if not isinstance(bv, BehValue):
                raise DynamicTypeError("spawn of a non-behaviour")
            child = self.config.next_id
            self.config.next_id += 1
            self.spawned[child] = bv
            tag = e.init_cap if e.init_cap is not None else bv.annot
            self.trace.emit(
                "spawn", src=self.self_id, dst=child, lang=lang_to_text(tag)
            )
            return RefValue(child, tag)
        raise DynamicTypeError(f"unhandled expression form {type(e).__name__}")

    def _binop(self, op: str, a: Value, b: Value) -> Value:
        if op in ("&&", "||"):
            if not (isinstance(a, BoolV) and isinstance(b, BoolV)):
                raise DynamicTypeError(f"{op} applied to non-booleans")
            if op == "&&":
                return BoolV(a.value and b.value)
            return BoolV(a.value or b.value)
        if not (isinstance(a, Num) and isinstance(b, Num)):
            raise DynamicTypeError(f"{op} applied to non-numbers")
        x, y = a.value, b.value
        if op == "+":
            return Num(x + y)
        if op == "-":
            return Num(max(0, x - y))  # naturals: truncated subtraction
        if op == "*":
            return Num(x * y)
        if op == "/":
            return Num(x // y if y else 0)  # total: n/0 = 0
        raise DynamicTypeError(f"unknown operator {op}")


# ---------------------------------------------------------------------------
# Global stepping


def init_config(
    program: Program,
    *,
    typed=None,
    monitor: bool = True,
    trace: Trace | None = None,
) -> Config:
    """Evaluate the root expression as actor 0 and seed the unit message."""
    trace = trace if trace is not None else Trace()
    config = Config(next_id=1)
    trace.emit("send", src=0, dst=0, msg=UNIT_MSG)
    config.append((0, 0), UNIT_V, UNIT_MSG)
    ev = _Eval(config, 0, trace, monitor)
    try:
        root_val = ev.eval({}, program.root)
    except BudgetExhausted as ex:
        raise RootEvaluationDiverged(str(ex)) from None
    except RecursionError:
        raise RootEvaluationDiverged(
            "root expression exceeded the maximum evaluation depth"
        ) from None
    if not isinstance(root_val, BehValue):
        raise DynamicTypeError("root expression did not evaluate to a behaviour")
    config.store[0] = root_val
    config.store.update(ev.spawned)
    for value, m, target in ev.outq:
        config.append((0, target), value, m)
    if monitor:
        if typed is not None:
            viol = mon.effect_conformance(typed.root_effect, ev.observed)
            if viol is not None:
                trace.violation(viol, 0, 0)
        for viol in mon.global_invariant(config):
            trace.violation(viol, None, viol.actor)
    return config


def enabled_deliveries(config: Config) -> list[tuple[int, int, MsgType]]:
    """Nonempty queues with their head message, in (receiver, sender) order.

    Heads without a matching case are included, so stuckness is observable.
    """
    out = [
        (src, dst, q[0][1])
        for (src, dst), q in config.queues.items()
        if q
    ]
    out.sort(key=itemgetter(1, 0))
    return out


def deliver(
    config: Config,
    choice: tuple[int, int],
    *,
    typed=None,
    monitor: bool = True,
    trace: Trace | None = None,
    global_check: bool = True,
) -> Config | Stuck:
    """Deliver the head message of the chosen queue, in place.

    Runs the matching handler to a new behaviour, installs it, merges
    spawned actors and appends the turn's outgoing messages per destination.
    Returns the (mutated) config, or a Stuck outcome that leaves the config
    unchanged beyond the popped message.

    Monitored, the turn's own checks always run: send permission, effect
    conformance and conservation, which a quiet turn gives no target.  The
    global check of the configuration the turn leaves runs too, unless
    `global_check` is false: `explore` runs it once per distinct
    configuration instead.  A quiet turn then leaves the last check's
    summary in `Config.check_memo` for it.
    """
    trace = trace if trace is not None else Trace()
    src, dst = choice
    if not config.queues.get((src, dst)):
        raise ValueError(f"no pending message on queue {choice}")
    payload, msg = config.pop_head((src, dst))
    memo, config.check_memo = config.check_memo, None
    if monitor:
        mon.delivered(config, (src, dst), msg)
    behv = config.store[dst]
    trace.emit("deliver", src=src, dst=dst, msg=msg)
    case = behv.case_for(msg)
    if case is None:
        return Stuck(
            "UnhandledMessage",
            f"actor {dst} has no case for <{msg}>",
        )
    if monitor:
        # Values that reach no reference hold no capability.
        reached = behv.refs or payload.refs
        pre = mon.summarize([behv, payload], config.tags) if reached else {}

    env = dict(behv.env)
    env[case.binder] = payload
    ev = _Eval(config, dst, trace, monitor)
    try:
        result = ev.eval(env, case.body)
    except BudgetExhausted:
        return Stuck("HandlerDiverged", f"actor {dst} exceeded {LOCAL_STEPS} steps")
    except RecursionError:
        # Nested calls can outrun Python's stack before the step budget.
        return Stuck(
            "HandlerDiverged", f"actor {dst} exceeded the maximum evaluation depth"
        )
    except DynamicTypeError as ex:
        return Stuck("DynamicTypeError", str(ex))
    if not isinstance(result, BehValue):
        return Stuck("NonBehaviourResult", f"actor {dst} returned a non-behaviour")

    config.store[dst] = result
    config.store.update(ev.spawned)
    for value, m, target in ev.outq:
        config.append((dst, target), value, m)

    if monitor:
        if typed is not None and behv.node is not None:
            static_eff = typed.static_case_effect(behv.node, msg)
            if static_eff is not None:
                viol = mon.effect_conformance(static_eff, ev.observed)
                if viol is not None:
                    trace.violation(viol, dst, dst)
        # A quiet turn started from values that reach no reference, sent,
        # spawned and created none, and installed a behaviour that reaches
        # none: it changed no tag and no live reference, so it holds and
        # transfers nothing, conservation has no target, and the global
        # check reuses the last summary.
        quiet = not (reached or ev.outq or ev.spawned or ev.observed is not EPS
                     or result.refs)
        if not quiet:
            post = mon.summarize([result, *ev.spawned.values()], config.tags)
            transferred = mon.summarize([value for value, _, _ in ev.outq], config.tags)
            sent: dict[int, list[MsgType]] = {}
            for _, m, target in ev.outq:
                sent.setdefault(target, []).append(m)
            pre_existing = config.store.keys() - ev.spawned.keys()
            for viol in mon.conservation(
                dst, pre, sent, ev.observed, post, transferred, pre_existing
            ):
                trace.violation(viol, dst, viol.actor)
        if global_check:
            for viol in mon.global_invariant(config, memo if quiet else None):
                trace.violation(viol, None, viol.actor)
        elif quiet:
            config.check_memo = memo
    return config


def run(
    config: Config,
    *,
    typed=None,
    seed: int = 0,
    max_deliveries: int = DEFAULT_MAX_DELIVERIES,
    monitor: bool = True,
    strict: bool = False,
    trace: Trace | None = None,
) -> tuple[Trace, str]:
    """Drive deliveries with a seeded scheduler until rest, stuckness or budget.

    Identical (config, seed, max_deliveries) inputs produce identical
    traces.  The config is consumed (mutated).  With `strict`, the first
    violation halts the run.
    """
    trace = trace if trace is not None else Trace(seed=seed)
    rng = random.Random(seed)
    scanned = 0  # trace events already searched for a violation

    def new_violation() -> TraceEvent | None:
        nonlocal scanned
        fresh, scanned = trace.events[scanned:], len(trace.events)
        return next((e for e in fresh if e.kind == "violation"), None)

    for n in itertools.count():  # n deliveries made; a negative budget allows none
        if strict and (hit := new_violation()):
            outcome = f"violation:{hit.violation}"
            break
        enabled = enabled_deliveries(config)
        if not enabled:
            outcome = "quiescent"
            break
        if n >= max_deliveries:
            outcome = "budget"
            break
        src, dst, _ = enabled[rng.randrange(len(enabled))]
        res = deliver(config, (src, dst), typed=typed, monitor=monitor, trace=trace)
        if isinstance(res, Stuck):
            outcome = f"stuck:{res.kind}"
            break
    trace.outcome = outcome
    return trace, outcome


@dataclass
class ExplorationReport:
    outcomes: dict[str, int] = field(default_factory=dict)
    witnesses: dict[str, Trace] = field(default_factory=dict)
    schedules: int = 0
    violation_kinds: set[str] = field(default_factory=set)
    violation_witness: Trace | None = None
    states: int = 0  # distinct configurations expanded

    @property
    def any_stuck(self) -> bool:
        return any(k.startswith("stuck:") for k in self.outcomes)

    @property
    def any_violation(self) -> bool:
        return bool(self.violation_kinds)


def explore(
    config: Config,
    *,
    typed=None,
    max_depth: int = DEFAULT_EXPLORE_DEPTH,
    monitor: bool = True,
    base_trace: Trace | None = None,
) -> ExplorationReport:
    """Every delivery order up to `max_depth`, searched over configurations.

    Level d holds one entry per distinct configuration d deliveries deep
    with a delivery enabled, keyed by its `Config.fingerprint()`: the
    configuration, its enabled deliveries, the number of schedules reaching
    it, its first schedule (choice indices) with that schedule's events,
    and the first schedule reaching it that raised a violation.  A
    configuration reached again only adds its count and may lower that
    violating schedule; quiescent, depth and stuck leaves are counted where
    they are reached.  Each level is walked in the order its entries
    arrived, and each entry's deliveries in `enabled_deliveries` order, so
    an entry's first schedule is its first in depth-first order.  So the
    report is the one an enumeration of every schedule gives: `schedules`
    and `outcomes` count schedules, each witness is the first schedule of
    its class in depth-first order (the classes come in that order), and
    the violation witness, replayed from `config`, is the first schedule
    raising one.

    Monitored, every delivery runs the turn's own checks (send permission,
    conservation, effect conformance), but the global check depends only
    on the configuration a delivery leaves, so `deliver` leaves it to the
    search (`global_check=False`), which runs it once for each new entry
    and each leaf, where `deliver` would have.  A delivery into a known
    configuration needs no check: its entry's first schedule came earlier
    in depth-first order and ran it, so if the check raised a violation,
    that schedule is already the entry's first violating one and the kinds
    are recorded.  So the events of every schedule the report keeps are
    those `deliver` would have traced.  The fingerprints come from value
    shapes that the search keeps for its two live levels (`_Shapes`), so
    a value shared between configurations is not walked again.

    Branches run on independent config copies (tag tables included), but
    an entry's last delivery takes over its configuration and events.  The
    only entry of a level, with one delivery enabled, leads to at most one
    entry, which is not fingerprinted.  `states` counts the entries, and
    the search raises `lang.StateBudgetExceeded` once it would hold more
    than `STATE_CAP`.  That cap and `max_depth` bound the search, which
    takes no Python stack per level.
    """
    report = ExplorationReport()
    outcomes, kinds = report.outcomes, report.violation_kinds
    firsts: dict[str, tuple[tuple[int, ...], list[TraceEvent]]] = {}
    violating: tuple[tuple[int, ...], str] | None = None  # schedule, class

    def leaf(label, count, path, events, vpath):
        nonlocal violating
        report.schedules += count
        outcomes[label] = outcomes.get(label, 0) + count
        if label not in firsts or path < firsts[label][0]:
            firsts[label] = (path, events)
        if vpath is not None and (violating is None or vpath < violating[0]):
            violating = (vpath, label)

    base = list(base_trace.events) if base_trace is not None else []
    kinds.update(_violations(base))
    root, vpath = config.copy(), () if kinds else None
    enabled = enabled_deliveries(root)
    if enabled and max_depth > 0:
        level = {None: [root, enabled, 1, (), list(base), vpath]}
    else:
        level = {}
        leaf("depth" if enabled else "quiescent", 1, (), list(base), vpath)
    report.states = len(level)
    shapes = _Shapes()
    depth = 0
    while level:
        depth += 1
        shapes.next_level()
        nxt: dict = {}
        for cfg, enabled, count, path, events, vpath in level.values():
            lone = len(level) == 1 and len(enabled) == 1
            last = len(enabled) - 1
            for i, (src, dst, _) in enumerate(enabled):
                branch = cfg if i == last else cfg.copy()
                n = len(events)
                tr = Trace(events=events if i == last else list(events))
                res = deliver(branch, (src, dst), typed=typed, monitor=monitor,
                              trace=tr, global_check=False)
                here = path + (i,)
                vhere = None if vpath is None else vpath + (i,)
                entry = None
                if not isinstance(res, Stuck):
                    after = enabled_deliveries(res)
                    if after and depth < max_depth:
                        key = None if lone else res.fingerprint(shapes)
                        entry = nxt.get(key)
                    if monitor and entry is None:
                        for viol in mon.global_invariant(res, res.check_memo):
                            tr.violation(viol, None, viol.actor)
                if monitor:
                    new = _violations(tr.events[n:])
                    if new:
                        kinds |= new
                        vhere = here
                if entry is not None:
                    entry[2] += count
                    if vhere is not None and (entry[5] is None or vhere < entry[5]):
                        entry[5] = vhere
                    continue
                if isinstance(res, Stuck):
                    leaf(f"stuck:{res.kind}", count, here, tr.events, vhere)
                    continue
                if not after:
                    leaf("quiescent", count, here, tr.events, vhere)
                    continue
                if depth >= max_depth:
                    leaf("depth", count, here, tr.events, vhere)
                    continue
                report.states += 1
                if report.states > STATE_CAP:
                    raise lng.StateBudgetExceeded(
                        f"explore expanded more than {STATE_CAP} states at depth "
                        f"{max_depth}"
                    )
                nxt[key] = [res, after, count, here, tr.events, vhere]
        level = nxt

    for label in sorted(outcomes, key=lambda label: firsts[label][0]):
        outcomes[label] = outcomes.pop(label)
        report.witnesses[label] = Trace(events=firsts[label][1], outcome=label)
    if violating is not None:
        path, label = violating
        cfg, tr = config.copy(), Trace(events=base, outcome=label)
        for i in path:
            src, dst, _ = enabled_deliveries(cfg)[i]
            deliver(cfg, (src, dst), typed=typed, monitor=monitor, trace=tr)
        report.violation_witness = tr
    return report


def _violations(events: list[TraceEvent]) -> set[str]:
    return {e.violation for e in events if e.kind == "violation"}
