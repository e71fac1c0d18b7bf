import dataclasses
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actorcap import lang as lng
from actorcap import runtime
from actorcap.checker import check_program
from actorcap.lang import EPS, MsgType, UNIT_MSG, cat, sym
from actorcap.runtime import (
    BudgetExhausted,
    Config,
    Stuck,
    Trace,
    deliver,
    enabled_deliveries,
    explore,
    init_config,
    run,
)
from actorcap.syntax import (
    Beh,
    Case,
    NatLit,
    Path,
    Send,
    parse_program,
    _Parser,
    tokenize,
)
from actorcap.values import BehValue, Closure, Num, PairV, RefValue, UNIT_V, UnitV

from local_eval import local_eval

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"
sys.path.insert(0, str(CORPUS.parent / "bench"))
import gen  # noqa: E402  (the benchmark's program generators)
A, B = MsgType("a"), MsgType("b")


def load(name):
    prog = parse_program((CORPUS / name).read_text())
    typed = check_program(prog)
    return prog, typed


def parse_expr(text, *msgs):
    p = _Parser(tokenize(text))
    for m in msgs:
        p.alphabet.add(MsgType(m))
    return p.expr()


class TestLocalEval:
    def test_self_capability(self):
        v, outq, spawned, observed = local_eval(3, {}, parse_expr("self[<a>]", "a"))
        assert isinstance(v, RefValue) and (v.target, v.tag) == (3, sym("a"))
        assert outq == [] and spawned == {}
        assert lng.equiv(observed, sym("a"))

    def test_send_enqueues(self):
        r = RefValue(7, sym("a"))
        v, outq, spawned, observed = local_eval(
            0, {"r": r}, Send(A, Path("r"), NatLit(5))
        )
        assert v == UNIT_V
        assert outq == [(Num(5), A, 7)]
        assert spawned == {}
        assert lng.equiv(observed, EPS)

    def test_if_picks_a_branch(self):
        v, _, _, _ = local_eval(0, {}, parse_expr("if true then 1 else 2"))
        assert v == Num(1)

    def test_arithmetic_is_total_on_naturals(self):
        v, _, _, _ = local_eval(0, {}, parse_expr("(1 - 2) + 6 / 0 + 8 / 2"))
        assert v == Num(4)

    def test_budget_exhaustion_models_divergence(self, monkeypatch):
        monkeypatch.setattr(runtime, "LOCAL_STEPS", 500)
        loop = parse_expr("(fun f(x: Nat): Nat ! eps => f x) 0")
        with pytest.raises(BudgetExhausted):
            local_eval(0, {}, loop)

    def test_observed_is_ordered_shuffle_of_selfcaps(self):
        e = parse_expr("(self[<a>], self[<b>])", "a", "b")
        tr = Trace()
        _, _, _, observed = local_eval(0, {}, e, trace=tr)
        assert lng.equiv(observed, lng.shuffle(sym("a"), sym("b")))
        assert [ev.lang for ev in tr.events if ev.kind == "selfcap"] == ["<a>", "<b>"]

    def test_spawn_allocates_sequentially(self):
        e = parse_expr(
            "(spawn(beh[eps]{ }), spawn(beh[eps]{ }))",
        )
        v, _, spawned, _ = local_eval(0, {}, e)
        assert sorted(spawned) == [1, 2]
        assert isinstance(v, PairV)
        assert (v.first.target, v.second.target) == (1, 2)
        assert v.first.tag == EPS and v.second.tag == EPS


class TestInitConfig:
    def test_counter_initial_state(self):
        prog, typed = load("positive/counter.acap")
        cfg = init_config(prog, typed=typed)
        assert list(cfg.store) == [0]
        assert lng.equiv(cfg.store[0].annot, lng.star(sym("Unit")))
        assert cfg.queues == {(0, 0): [(UNIT_V, UNIT_MSG)]}

    def test_root_spawning_during_setup(self):
        src = (
            "msg z : Unit "
            "let c = spawn(beh[<z>]{ z(x) => beh[eps]{ } }) "
            "in (fun hold(r: ActorRef[<z>]): Beh[<Unit>*] ! eps =>"
            "    beh[<Unit>*]{ Unit(m) => hold r }) c"
        )
        prog = parse_program(src)
        typed = check_program(prog)
        cfg = init_config(prog, typed=typed)
        assert sorted(cfg.store) == [0, 1]


class TestEnabledDeliveries:
    def test_fresh_counter(self):
        prog, typed = load("positive/counter.acap")
        cfg = init_config(prog, typed=typed)
        assert enabled_deliveries(cfg) == [(0, 0, UNIT_MSG)]

    def test_quiescent(self):
        assert enabled_deliveries(Config()) == []

    def test_receiver_major_order(self):
        cfg = Config(
            queues={
                (2, 0): [(UNIT_V, A)],
                (1, 0): [(UNIT_V, B)],
                (0, 1): [(UNIT_V, A)],
            }
        )
        assert enabled_deliveries(cfg) == [(1, 0, B), (2, 0, A), (0, 1, A)]


def ready_of(cfg: Config) -> list[tuple[int, int]]:
    """The ready index a configuration's queues define."""
    return sorted((d, s) for (s, d), q in cfg.queues.items() if q)


QUEUE_KEYS = st.tuples(st.integers(0, 3), st.integers(0, 3))
# A configuration built by hand, empty queues allowed, then steps: append to
# a queue, pop a nonempty one, or copy, each on one of the branches so far.
READY_STEPS = st.lists(
    st.tuples(st.sampled_from(["append", "pop", "copy"]), st.integers(0, 7),
              QUEUE_KEYS, st.sampled_from([A, B])),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(QUEUE_KEYS, st.lists(st.sampled_from([A, B]), max_size=2)),
       READY_STEPS)
def test_ready_index_follows_the_queues(queues, steps):
    cfg = Config(queues={k: [(UNIT_V, m) for m in q] for k, q in queues.items()})
    branches = [cfg]
    for op, which, key, msg in steps:
        cfg = branches[which % len(branches)]
        if op == "append":
            cfg.append(key, UNIT_V, msg)
        elif op == "pop":
            if cfg.ready:
                dst, src = cfg.ready[which % len(cfg.ready)]
                cfg.pop_head((src, dst))
        else:
            branches.append(cfg.copy())
        for branch in branches:
            assert branch.ready == ready_of(branch)
            by_hand = Config(queues={k: list(q) for k, q in branch.queues.items()})
            assert by_hand.ready == branch.ready
            assert enabled_deliveries(branch) == [
                (s, d, q[0][1])
                for (s, d), q in sorted(branch.queues.items(),
                                        key=lambda kq: kq[0][::-1])
                if q
            ]


def two_case_receiver():
    """Hand-built behaviour accepting a then b or b then a."""
    done = Beh(EPS, ())
    after_a = Beh(sym("b"), (Case(B, "y", done),))
    after_b = Beh(sym("a"), (Case(A, "y", done),))
    top = Beh(
        lng.shuffle(sym("a"), sym("b")),
        (Case(A, "x", after_a), Case(B, "x", after_b)),
    )
    return BehValue(top.annot, top.cases, {}, top)


class TestDeliver:
    def test_counter_turn(self):
        prog, typed = load("positive/counter.acap")
        cfg = init_config(prog, typed=typed)
        res = deliver(cfg, (0, 0), typed=typed)
        assert isinstance(res, Config)
        assert cfg.queues == {}
        assert cfg.store[0].env["s"] == Num(1)

    def test_unhandled_message_is_stuck(self):
        cfg = Config(
            store={0: two_case_receiver()},
            queues={(1, 0): [(UNIT_V, MsgType("c"))]},
            next_id=1,
        )
        res = deliver(cfg, (1, 0), monitor=False)
        assert res == Stuck("UnhandledMessage", "actor 0 has no case for <c>")

    def test_outgoing_order_preserved_per_destination(self):
        prog, typed = load("positive/fifo_accumulator.acap")
        cfg = init_config(prog, typed=typed)
        deliver(cfg, (0, 0), typed=typed)
        msgs = [m for _, m in cfg.queues[(0, 1)]]
        assert msgs == ["add", "add", "stop"]


class TestRun:
    def test_same_seed_identical_traces(self):
        prog, typed = load("positive/fanin.acap")
        outputs = []
        for _ in range(2):
            tr = Trace(seed=11)
            cfg = init_config(prog, typed=typed, trace=tr)
            trace, _ = run(cfg, typed=typed, seed=11, trace=tr)
            outputs.append(trace.to_jsonl())
        assert outputs[0] == outputs[1]

    def test_counter_single_delivery_then_quiescent(self):
        prog, typed = load("positive/counter.acap")
        tr = Trace(seed=0)
        cfg = init_config(prog, typed=typed, trace=tr)
        trace, outcome = run(cfg, typed=typed, seed=0, max_deliveries=5, trace=tr)
        assert outcome == "quiescent"
        assert sum(1 for e in trace.events if e.kind == "deliver") == 1

    def test_unchecked_double_send_sticks_quickly(self):
        prog = parse_program((CORPUS / "negative/double_send.acap").read_text())
        tr = Trace(seed=0)
        cfg = init_config(prog, trace=tr)
        trace, outcome = run(cfg, seed=0, max_deliveries=3, trace=tr)
        assert outcome == "stuck:UnhandledMessage"

    def test_budget_outcome(self):
        prog, typed = load("positive/fifo_accumulator.acap")
        tr = Trace(seed=0)
        cfg = init_config(prog, typed=typed, trace=tr)
        _, outcome = run(cfg, typed=typed, seed=0, max_deliveries=1, trace=tr)
        assert outcome == "budget"

    @pytest.mark.parametrize("budget", [0, -1])
    def test_no_budget_delivers_nothing(self, budget):
        prog, typed = load("positive/counter.acap")
        tr = Trace(seed=0)
        cfg = init_config(prog, typed=typed, trace=tr)
        trace, outcome = run(cfg, typed=typed, seed=0, max_deliveries=budget, trace=tr)
        assert outcome == "budget"
        assert not any(e.kind == "deliver" for e in trace.events)

    def test_rest_at_the_budget_is_quiescent(self):
        prog, typed = load("positive/counter.acap")
        tr = Trace(seed=0)
        cfg = init_config(prog, typed=typed, trace=tr)
        _, outcome = run(cfg, typed=typed, seed=0, max_deliveries=1, trace=tr)
        assert outcome == "quiescent"

    def test_strict_violation_at_the_budget_is_reported(self):
        prog = parse_program((CORPUS / "negative/double_send.acap").read_text())
        tr = Trace(seed=0)
        cfg = init_config(prog, trace=tr)
        _, outcome = run(cfg, seed=0, strict=True, max_deliveries=1, trace=tr)
        assert outcome == "violation:SendNotPermitted"

    def test_strict_mode_halts_on_violation(self):
        prog = parse_program((CORPUS / "negative/double_send.acap").read_text())
        tr = Trace(seed=0)
        cfg = init_config(prog, trace=tr)
        _, outcome = run(cfg, seed=0, strict=True, trace=tr)
        assert outcome.startswith("violation:")

    def test_non_behaviour_handler_result(self):
        prog = parse_program("beh[<Unit>]{ Unit(m) => 42 }")
        tr = Trace(seed=0)
        cfg = init_config(prog, trace=tr)
        _, outcome = run(cfg, seed=0, trace=tr)
        assert outcome == "stuck:NonBehaviourResult"

    def test_diverging_handler_hits_budget(self, monkeypatch):
        monkeypatch.setattr(runtime, "LOCAL_STEPS", 300)
        prog = parse_program(
            "beh[<Unit>]{ Unit(m) => (fun f(x: Nat): Beh[eps] ! eps => f x) 0 }"
        )
        tr = Trace(seed=0)
        cfg = init_config(prog, trace=tr)
        _, outcome = run(cfg, seed=0, trace=tr)
        assert outcome == "stuck:HandlerDiverged"

    def test_handler_deeper_than_the_stack_diverges(self):
        # Each call nests the evaluator, so the default step budget is
        # deeper than Python's stack; running out of stack is divergence too.
        prog = parse_program(
            "beh[<Unit>]{ Unit(m) =>"
            " let y = (fun f(x: Nat): Nat ! eps => f x) 0 in beh[eps]{ } }"
        )
        typed = check_program(prog)
        tr = Trace(seed=0)
        cfg = init_config(prog, typed=typed, trace=tr)
        _, outcome = run(cfg, typed=typed, seed=0, trace=tr)
        assert outcome == "stuck:HandlerDiverged"
        res = deliver(init_config(prog, typed=typed), (0, 0), typed=typed)
        assert isinstance(res, Stuck) and res.kind == "HandlerDiverged"
        assert "evaluation depth" in res.detail

    def test_nested_evaluation_is_one_frame(self):
        # The sender's loop nests two evaluations per send: the call, then
        # the let around the send.  With 400 frames to spare it sends about
        # 197 times at one Python frame per evaluation, and about 98 at two.
        prog = parse_program("""msg d : Unit
msg go : Unit
beh[<Unit>]{ Unit(m) =>
  let t = spawn((fun mk(s: Nat): Beh[<d>*] ! eps => beh[<d>*]{ d(x) => mk s }) 0)
  in let w = spawn((fun mw(r: ActorRef[<d>*]): Beh[<go>] ! eps =>
       beh[<go>]{ go(x) => (fun f(n: Nat): Beh[eps] ! eps => let u = send[d](r, ()) in f n) 0 }) t)
  in let g = send[go](w, ())
  in beh[eps]{ }
}
""")
        typed = check_program(prog)
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 400)
        try:
            tr = Trace(seed=0)
            cfg = init_config(prog, typed=typed, trace=tr)
            _, outcome = run(cfg, typed=typed, seed=0, trace=tr)
        finally:
            sys.setrecursionlimit(limit)
        assert outcome == "stuck:HandlerDiverged"
        sends = [e for e in tr.events if e.kind == "send" and (e.src, e.dst) == (2, 1)]
        assert len(sends) >= 190

    def test_store_monotone_and_ids_sequential(self):
        prog, typed = load("positive/fanin.acap")
        cfg = init_config(prog, typed=typed)
        seen: set[int] = set(cfg.store)
        while True:
            enabled = enabled_deliveries(cfg)
            if not enabled:
                break
            src, dst, _ = enabled[0]
            deliver(cfg, (src, dst), typed=typed)
            assert seen <= set(cfg.store)
            seen = set(cfg.store)
        assert sorted(cfg.store) == list(range(len(cfg.store)))


class TestExplore:
    def test_counter_single_schedule(self):
        prog, typed = load("positive/counter.acap")
        cfg = init_config(prog, typed=typed)
        report = explore(cfg, typed=typed, max_depth=4)
        assert report.outcomes == {"quiescent": 1}
        assert report.schedules == 1

    def test_two_independent_senders_two_interleavings(self):
        cfg = Config(
            store={0: two_case_receiver()},
            queues={(1, 0): [(UNIT_V, A)], (2, 0): [(UNIT_V, B)]},
            next_id=3,
        )
        report = explore(cfg, monitor=False, max_depth=4)
        assert report.schedules == 2
        assert report.outcomes == {"quiescent": 2}

    def test_depth_bound_reported(self):
        prog, typed = load("positive/ping_pong.acap")
        cfg = init_config(prog, typed=typed)
        report = explore(cfg, typed=typed, max_depth=1)
        assert report.outcomes == {"depth": 1}

    def test_branches_do_not_share_state(self):
        prog, typed = load("positive/fanin.acap")
        cfg = init_config(prog, typed=typed)
        before = cfg.copy()
        explore(cfg, typed=typed, max_depth=8)
        # the root config is still explorable afterwards
        report = explore(before, typed=typed, max_depth=8)
        assert report.outcomes == {"quiescent": 6}


class TestTraceProperties:
    @pytest.mark.parametrize(
        "path",
        sorted((CORPUS / "positive").glob("*.acap")),
        ids=lambda p: p.name,
    )
    def test_fifo_per_endpoint(self, path):
        prog = parse_program(path.read_text())
        typed = check_program(prog)
        tr = Trace(seed=3)
        cfg = init_config(prog, typed=typed, trace=tr)
        trace, _ = run(cfg, typed=typed, seed=3, trace=tr)
        sends: dict[tuple[int, int], list[str]] = {}
        delivers: dict[tuple[int, int], list[str]] = {}
        for e in trace.events:
            if e.kind == "send":
                sends.setdefault((e.src, e.dst), []).append(e.msg)
            elif e.kind == "deliver":
                delivers.setdefault((e.src, e.dst), []).append(e.msg)
        for key, delivered in delivers.items():
            sent = sends.get(key, [])
            assert delivered == sent[: len(delivered)]

    def test_monitor_does_not_influence_execution(self):
        for name in ("positive/fanin.acap", "negative/double_send.acap"):
            prog = parse_program((CORPUS / name).read_text())
            streams = []
            for monitor in (True, False):
                tr = Trace(seed=5)
                cfg = init_config(prog, monitor=monitor, trace=tr)
                trace, outcome = run(cfg, seed=5, monitor=monitor, trace=tr)
                streams.append(
                    (
                        [
                            (e.kind, e.src, e.dst, e.msg, e.lang)
                            for e in trace.events
                            if e.kind != "violation"
                        ],
                        outcome,
                    )
                )
            assert streams[0] == streams[1]

    def test_replaying_delivery_choices_reproduces_events(self):
        prog, typed = load("positive/fanin.acap")
        tr = Trace(seed=13)
        cfg = init_config(prog, typed=typed, trace=tr)
        trace, _ = run(cfg, typed=typed, seed=13, trace=tr)
        choices = [(e.src, e.dst) for e in trace.events if e.kind == "deliver"]

        replay = Trace(seed=13)
        cfg2 = init_config(prog, typed=typed, trace=replay)
        for choice in choices:
            res = deliver(cfg2, choice, typed=typed, trace=replay)
            assert isinstance(res, Config)
        key = lambda e: (e.kind, e.src, e.dst, e.msg, e.lang)
        assert list(map(key, replay.events)) == list(map(key, trace.events))
        assert enabled_deliveries(cfg2) == []

    def test_jsonl_is_valid_and_has_outcome(self):
        import json

        prog, typed = load("positive/ping_pong.acap")
        tr = Trace(seed=0)
        cfg = init_config(prog, typed=typed, trace=tr)
        trace, _ = run(cfg, typed=typed, seed=0, trace=tr)
        lines = trace.to_jsonl().strip().split("\n")
        objs = [json.loads(line) for line in lines]
        assert all(
            set(("step", "kind", "src", "dst", "msg", "lang")) <= set(o)
            for o in objs[:-1]
        )
        assert objs[-1] == {"outcome": "quiescent"}


def _labels_and_languages(root):
    """The case labels and every language reachable from a parsed program."""
    labels, langs, stack = [], [], [root]
    while stack:
        v = stack.pop()
        if isinstance(v, lng.LangExpr):
            langs.append(v)
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
        elif dataclasses.is_dataclass(v):
            if isinstance(v, Case):
                labels.append(v.label)
            stack.extend(getattr(v, f.name) for f in dataclasses.fields(v))
    return labels, langs


class TestMessageNames:
    """A message type is its declared name, from the parser to the queues."""

    def test_msg_type_is_str(self):
        assert lng.MsgType is str

    @pytest.mark.parametrize(
        "path",
        sorted((CORPUS / "positive").glob("*.acap")),
        ids=lambda p: p.name,
    )
    def test_names_end_to_end(self, path):
        prog = parse_program(path.read_text())
        typed = check_program(prog)
        labels, langs = _labels_and_languages(prog.root)
        assert labels and all(type(m) is str for m in labels)
        assert all(type(m) is str for l in langs for m in lng.symbols(l))
        cfg = init_config(prog, typed=typed)
        for _ in range(200):
            queued = [m for q in cfg.queues.values() for _, m in q]
            assert all(type(m) is str for m in queued)
            enabled = enabled_deliveries(cfg)
            assert all(type(m) is str for _, _, m in enabled)
            if not enabled:
                break
            src, dst, _ = enabled[0]
            assert isinstance(deliver(cfg, (src, dst), typed=typed), Config)

    def test_fingerprint_tells_a_message_named_pair_from_a_pair(self):
        beh = BehValue(EPS, (), {}, Beh(EPS, ()))

        def key(*queue):
            return Config({0: beh}, {(0, 0): list(queue)}, 1).fingerprint()

        named = key((UNIT_V, "pair"), (UNIT_V, "a"))
        paired = key((PairV(UNIT_V, UNIT_V), "a"), (UNIT_V, "a"))
        assert named == key((UNIT_V, "pair"), (UNIT_V, "a"))
        assert named != paired
        assert key((PairV(UNIT_V, UNIT_V), "pair")) != key((UNIT_V, "pair"))


def reachable_refs(value) -> set:
    """The references under `value`, by a walk that ignores `Value.refs`."""
    found, stack = set(), [value]
    while stack:
        v = stack.pop()
        if isinstance(v, RefValue):
            found.add(v)
        elif isinstance(v, PairV):
            stack += (v.first, v.second)
        elif isinstance(v, (Closure, BehValue)):
            stack.extend(v.env.values())
    return found


def assert_inflight_counted(cfg: Config):
    """`Config.inflight` equals a recount from the queues, and each
    payload's cached `refs` is what a walk of the payload finds."""
    recount: dict = {}
    for q in cfg.queues.values():
        for value, _ in q:
            assert len(value.refs) == len(set(value.refs))
            assert set(value.refs) == reachable_refs(value)
            for ref in value.refs:
                recount[ref] = recount.get(ref, 0) + 1
    assert cfg.inflight == recount


@pytest.fixture
def counted(monkeypatch):
    """Wraps `runtime.deliver`, which `run` and `explore` call, with
    `assert_inflight_counted` after every delivery; yields the largest
    in-flight table seen, so a test can tell it was not always empty."""
    seen = {"max": 0}
    real = runtime.deliver

    def checked(cfg, choice, **kw):
        res = real(cfg, choice, **kw)
        assert_inflight_counted(cfg)
        seen["max"] = max(seen["max"], len(cfg.inflight))
        return res

    monkeypatch.setattr(runtime, "deliver", checked)
    return seen


class TestInflightTable:
    @pytest.mark.parametrize("monitor", [True, False], ids=["mon", "nomon"])
    def test_corpus_runs(self, counted, monitor):
        for path in sorted((CORPUS / "positive").glob("*.acap")):
            prog, typed = load(f"positive/{path.name}")
            for seed in range(4):
                tr = Trace(seed=seed)
                cfg = init_config(prog, typed=typed, monitor=monitor, trace=tr)
                assert_inflight_counted(cfg)
                run(cfg, typed=typed, seed=seed, monitor=monitor, trace=tr)
        assert counted["max"] > 0  # ping_pong sends a reference

    @pytest.mark.parametrize("monitor", [True, False], ids=["mon", "nomon"])
    def test_explore_branches(self, counted, monitor):
        sources = [gen.fanin_program(3, 2, "t")]
        sources += [p.read_text() for p in sorted((CORPUS / "positive").glob("*.acap"))]
        for source in sources:
            prog = parse_program(source)
            typed = check_program(prog)
            cfg = init_config(prog, typed=typed, monitor=monitor)
            assert_inflight_counted(cfg)
            report = explore(cfg, typed=typed, monitor=monitor)
            assert report.states > 0
        assert counted["max"] > 0

    def test_built_by_hand(self):
        r, s = RefValue(1, sym("a")), RefValue(2, sym("b"))
        shared = PairV(r, r)
        cfg = Config(
            store={0: two_case_receiver(), 1: two_case_receiver()},
            queues={
                (1, 0): [(PairV(shared, s), A), (UNIT_V, B)],
                (2, 1): [(shared, A)],
            },
            next_id=3,
        )
        assert cfg.inflight == {r: 2, s: 1}
        assert_inflight_counted(cfg)
        branch = cfg.copy()
        assert branch.inflight == cfg.inflight and branch.inflight is not cfg.inflight
        assert cfg == branch
        deliver(branch, (1, 0), monitor=False)
        assert branch.inflight == {r: 1}
        assert_inflight_counted(branch)
        assert cfg.inflight == {r: 2, s: 1}
        deliver(branch, (2, 1), monitor=False)
        assert branch.inflight == {}
        assert branch.queues == {(1, 0): [(UNIT_V, B)]}
