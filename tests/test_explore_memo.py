"""`runtime.explore` searches configurations, not schedules.

Its report must be the one the plain depth-first enumeration gives
(`naive_explore`): the same schedule count, the same outcome classes in
the same order, the same witnesses byte for byte.  The fan-in programs
come from the benchmark's generators, imported read-only.
"""

import gc
import pathlib
import sys

import pytest

from actorcap import monitor, runtime
from actorcap.checker import check_program
from actorcap.cli import main
from actorcap.lang import EPS, MsgType, StateBudgetExceeded, sym
from actorcap.runtime import Config, Stuck, Trace, explore, init_config
from actorcap.syntax import Beh, parse_program
from actorcap.values import UNIT_V, BehValue, Num, PairV, RefValue

from naive_explore import naive_explore

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import gen  # noqa: E402  (the benchmark's program generators)

CORPUS = sorted((ROOT / "corpus").glob("*/*.acap"))

# Two forwarders share one reference.  Sending <b> before <a> breaks its
# protocol, and both orders reach one configuration, which the second
# order meets in the memo with its first violation raised on the way.
CONVERGING = """
msg a : Unit
msg b : Unit
msg go : Unit

beh[<Unit>]{
  Unit(m) =>
    let recv = spawn[<a>.(<b>|eps)|<b>]((fun mk(s: Nat): Beh[(<a>|<b>)*] ! eps =>
        beh[(<a>|<b>)*]{ a(x) => mk s | b(x) => mk s }) 0)
    in let f1 = spawn(beh[<go>]{ go(x) => let u = send[a](recv, ()) in beh[eps]{ } })
    in let f2 = spawn(beh[<go>]{ go(x) => let u = send[b](recv, ()) in beh[eps]{ } })
    in let u1 = send[go](f1, ())
    in let u2 = send[go](f2, ())
    in beh[eps]{ }
}
"""

# Actor 2 has no case for <q>, so every schedule gets stuck.  Delivering
# <p> first comes first in depth-first order, so the first stuck schedule
# is the longer of the two: <p> then <q>, not <q> alone.
LONG_FIRST = """
msg p : Unit
msg q : Unit

beh[<Unit>]{
  Unit(m) =>
    let b = spawn(beh[<p>]{ p(x) => beh[eps]{ } })
    in let c = spawn(beh[<q>]{ p(x) => beh[eps]{ } })
    in let u = send[p](b, ())
    in let v = send[q](c, ())
    in beh[eps]{ }
}
"""

# Actor 2 takes <x> then <y>, and then has actor 1 take <z>; <y> first
# leaves it without a case for <x>.  Actor 3 sends it <y> once given <p>.
# The first quiescent schedule (five deliveries) comes before the only
# stuck one (four) in depth-first order.
CLASSES_BY_ORDER = """
msg p : ActorRef[<y>]
msg x : Unit
msg y : Unit
msg z : Unit

beh[<Unit>]{
  Unit(m) =>
    let d = spawn(beh[<z>]{ z(w) => beh[eps]{ } })
    in let b = spawn(beh[<p>]{ p(r) => let u = send[y](r, ()) in beh[eps]{ } })
    in let c = spawn(beh[<x>.<y>]{
         x(w) => beh[<y>]{ y(w2) => let u = send[z](d, ()) in beh[eps]{ } }
       | y(w) => beh[eps]{ } })
    in let u = send[p](b, c)
    in let v = send[x](c, ())
    in beh[eps]{ }
}
"""



def _setup(source: str, monitor: bool, checked: bool = True):
    program = parse_program(source)
    typed = check_program(program) if checked else None
    base = Trace()
    config = init_config(program, typed=typed, monitor=monitor, trace=base)
    return config, dict(typed=typed, monitor=monitor, base_trace=base)


def _observable(report) -> tuple:
    return (
        report.schedules,
        list(report.outcomes.items()),
        [(label, w.to_jsonl()) for label, w in report.witnesses.items()],
        report.violation_kinds,
        report.violation_witness and report.violation_witness.to_jsonl(),
    )


def _same_as_naive(source: str, depth: int, monitor: bool, checked: bool = True):
    config, kw = _setup(source, monitor, checked)
    want = naive_explore(config, max_depth=depth, **kw)
    got = explore(config, max_depth=depth, **kw)
    assert _observable(got) == _observable(want)
    return got


@pytest.mark.parametrize("monitor", [True, False], ids=["mon", "nomon"])
@pytest.mark.parametrize("path", CORPUS, ids=[f"{p.parent.name}/{p.stem}" for p in CORPUS])
def test_corpus_matches_naive(path, monitor):
    _same_as_naive(path.read_text(), 8, monitor, checked=path.parent.name == "positive")


@pytest.mark.parametrize("monitor", [True, False], ids=["mon", "nomon"])
@pytest.mark.parametrize("star", [False, True], ids=["exact", "star"])
@pytest.mark.parametrize("k,m,depth", [(3, 2, 12), (2, 3, 12), (3, 3, 6), (4, 2, 6)])
def test_fanin_matches_naive(k, m, depth, star, monitor):
    report = _same_as_naive(gen.fanin_program(k, m, "t", star=star), depth, monitor)
    assert report.states < report.schedules


@pytest.mark.parametrize("monitor", [True, False], ids=["mon", "nomon"])
def test_violation_on_the_way_to_a_known_state(monitor):
    report = _same_as_naive(CONVERGING, 8, monitor, checked=False)
    assert bool(report.violation_kinds) == monitor


@pytest.mark.parametrize("monitor", [True, False], ids=["mon", "nomon"])
def test_first_schedule_of_a_class_may_be_longer(monitor):
    report = _same_as_naive(LONG_FIRST, 8, monitor, checked=False)
    assert [e.msg for e in report.witnesses["stuck:UnhandledMessage"].events
            if e.kind == "deliver"] == ["Unit", "p", "q"]


@pytest.mark.parametrize("monitor", [True, False], ids=["mon", "nomon"])
def test_classes_in_order_of_their_first_schedules(monitor):
    report = _same_as_naive(CLASSES_BY_ORDER, 8, monitor, checked=False)
    assert list(report.outcomes) == ["quiescent", "stuck:UnhandledMessage"]
    lengths = [sum(e.kind == "deliver" for e in w.events)
               for w in report.witnesses.values()]
    assert lengths == [5, 4]


@pytest.mark.parametrize("flags", [[], ["--no-monitor"]], ids=["mon", "nomon"])
def test_deep_chain_takes_no_stack_per_delivery(tmp_path, capsys, flags):
    # 1,500 deliveries in a row, with 200 Python frames to spare: the
    # search must not nest a frame per delivery.
    program = tmp_path / "chain.acap"
    program.write_text(gen.chain_program(1500, "t"))
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 200)
    try:
        code = main(["explore", str(program), "--depth", "2000", *flags])
    finally:
        sys.setrecursionlimit(limit)
    assert capsys.readouterr().out == "schedules explored: 1\n  quiescent: 1\n"
    assert code == 0

def test_fanin_3x3_depth_10_expands_few_states(monkeypatch):
    deliveries = 0
    real = runtime.deliver

    def counted(*args, **kwargs):
        nonlocal deliveries
        deliveries += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(runtime, "deliver", counted)
    config, kw = _setup(gen.fanin_program(3, 3, "t"), monitor=True)
    report = explore(config, max_depth=10, **kw)
    assert report.schedules == 11_130
    assert report.outcomes == {"depth": 11_130}
    assert report.states <= 120
    assert deliveries <= 300  # the plain enumeration makes 18,901


def test_global_check_once_per_state(monkeypatch):
    # Monitored, the global check runs once in `init_config`, then once for
    # each configuration the search keeps (the lone successors among them)
    # and for each delivery that ends a schedule; an edge into a known
    # configuration needs none.  Checked per edge, as `deliver` alone
    # does, this search makes 146 checks.
    checks = leaf_edges = 0
    real_check, real_deliver = monitor.global_invariant, runtime.deliver

    def counted_check(*args, **kwargs):
        nonlocal checks
        checks += 1
        return real_check(*args, **kwargs)

    def counted_deliver(config, choice, **kwargs):
        nonlocal leaf_edges
        res = real_deliver(config, choice, **kwargs)
        depth = sum(e.kind == "deliver" for e in kwargs["trace"].events)
        if (isinstance(res, Stuck) or depth == 12
                or not runtime.enabled_deliveries(res)):
            leaf_edges += 1
        return res

    monkeypatch.setattr(monitor, "global_invariant", counted_check)
    monkeypatch.setattr(runtime, "deliver", counted_deliver)
    config, kw = _setup(gen.fanin_program(3, 2, "t"), monitor=True)
    report = explore(config, max_depth=12, **kw)
    assert (report.states, report.schedules) == (64, 1680)
    assert checks <= report.states + leaf_edges + 1
    assert leaf_edges == 3  # the three deliveries into the quiescent end


SEARCHES = [
    *[(f"{p.parent.name}/{p.stem}", p.read_text(), 8, p.parent.name == "positive")
      for p in CORPUS],
    *[(f"fanin-{k}x{m}-d{d}", gen.fanin_program(k, m, "t"), d, True)
      for k, m, d in [(3, 2, 12), (2, 3, 12), (3, 3, 6)]],
]


@pytest.mark.parametrize("monitor", [True, False], ids=["mon", "nomon"])
@pytest.mark.parametrize("name,source,depth,checked", SEARCHES,
                         ids=[s[0] for s in SEARCHES])
def test_memoised_fingerprints_are_fresh(monkeypatch, name, source, depth,
                                         checked, monitor):
    # Every key the search builds from its kept shapes equals the key
    # computed afresh for the same configuration, at that moment.
    keys = 0
    real = Config.fingerprint

    def compared(self, shapes=None):
        nonlocal keys
        key = real(self, shapes)
        if shapes is not None:
            keys += 1
            assert key == real(self), name
        return key

    monkeypatch.setattr(Config, "fingerprint", compared)
    config, kw = _setup(source, monitor, checked)
    report = explore(config, max_depth=depth, **kw)
    if name.startswith("fanin"):
        assert 0 < report.states <= keys


def test_explore_leaves_no_garbage_cycle():
    # A cycle would outlive the search until a collection, and the shape
    # table holds a shape only while the search does.
    config, kw = _setup(gen.fanin_program(3, 2, "t"), monitor=True)
    shapes = len(runtime._SHAPES)
    gc.collect()
    gc.disable()
    try:
        report = explore(config, max_depth=12, **kw)
        del report
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(runtime._SHAPES) == shapes


def test_cli_fanin_3x3_depth_10(tmp_path, capsys):
    program = tmp_path / "fanin.acap"
    program.write_text(gen.fanin_program(3, 3, "t"))
    assert main(["explore", str(program), "--depth", "10"]) == 0
    assert capsys.readouterr().out == "schedules explored: 11130\n  depth: 11130\n"


def test_fanin_4x3_depth_13_is_under_the_cap():
    # 6,745,200 schedules, which a cap on schedules would refuse, meet in
    # 556 configurations.
    config, kw = _setup(gen.fanin_program(4, 3, "t"), monitor=True)
    report = explore(config, max_depth=13, **kw)
    assert report.schedules == 6_745_200
    assert report.outcomes == {"depth": 6_745_200}
    assert report.states == 556
    assert not report.violation_kinds


def test_monitored_fanin_5x3_depth_16_is_under_the_budget(tmp_path, capsys):
    # Monitor on: each global check with several senders in flight is one
    # inclusion over the shuffle of their queues, which must stay under the
    # state budget (a refusal exits 5).
    program = tmp_path / "fanin.acap"
    program.write_text(gen.fanin_program(5, 3, "t"))
    assert main(["explore", str(program), "--depth", "16"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "schedules explored: 8681673000"


class TestStateCap:
    """The cap counts expanded configurations; memo hits do not count."""

    def _explore(self, monkeypatch, cap: int):
        monkeypatch.setattr(runtime, "STATE_CAP", cap)
        config, kw = _setup(gen.fanin_program(3, 2, "t"), monitor=False)
        return explore(config, max_depth=12, **kw)

    def test_exact_cap_passes(self, monkeypatch):
        report = self._explore(monkeypatch, 64)
        assert report.states == 64
        assert report.schedules == 1680

    def test_one_below_raises(self, monkeypatch):
        with pytest.raises(StateBudgetExceeded) as exc:
            self._explore(monkeypatch, 63)
        assert str(exc.value) == "explore expanded more than 63 states at depth 12"


A = MsgType("a")
NODE = Beh(EPS, ())


def _holding(tags=None, **env) -> Config:
    """Actor 0 holds `env`; actor 1 exists."""
    return Config(store={0: BehValue(EPS, (), env, NODE)}, next_id=2,
                  tags=dict(tags or {}))


class TestFingerprint:
    def test_aliasing_counts(self):
        r = RefValue(1, sym(A))
        one = _holding(x=r, y=r)
        two = _holding(x=r, y=RefValue(1, sym(A)))
        assert one.fingerprint() != two.fingerprint()

    def test_remaining_tag_counts(self):
        r = RefValue(1, sym(A))
        assert _holding(x=r).fingerprint() != _holding({r: EPS}, x=r).fingerprint()

    def test_dead_tag_entries_do_not_count(self):
        r, dead = RefValue(1, sym(A)), RefValue(1, sym(A))
        assert _holding(x=r).fingerprint() == _holding({dead: EPS}, x=r).fingerprint()

    def test_allocation_order_does_not_count(self):
        def build(first: int) -> Config:
            refs = {}
            for target in (first, 1 - first):
                refs[target] = RefValue(target, sym(A))
            cfg = Config(next_id=3)
            for actor in (1 - first, first):
                cfg.store[actor] = BehValue(EPS, (), {"r": refs[1 - actor]}, NODE)
            cfg.queues[(1, 0)] = [(PairV(refs[0], Num(2)), A)]
            cfg.tags[refs[0]] = EPS
            return cfg

        assert build(0).fingerprint() == build(1).fingerprint()

    def test_sharing_without_references_does_not_count(self):
        # Nothing can tell one pair under two names from two equal pairs.
        p = PairV(Num(1), Num(2))
        one = _holding(x=p, y=p)
        two = _holding(x=p, y=PairV(Num(1), Num(2)))
        assert one.fingerprint() == two.fingerprint()

    def test_sharing_a_reference_counts_through_pairs(self):
        r = RefValue(1, sym(A))
        p = PairV(r, Num(1))
        shared = _holding(x=p, y=p)
        assert shared.fingerprint() == _holding(x=p, y=PairV(r, Num(1))).fingerprint()
        other = _holding(x=p, y=PairV(RefValue(1, sym(A)), Num(1)))
        assert shared.fingerprint() != other.fingerprint()

    def test_shared_structure_costs_its_parts(self):
        # 2**60 leaves as a tree, 61 values as shared; and 20,000 nested
        # pairs take no Python stack.
        doubled, chain = Num(1), UNIT_V
        for _ in range(60):
            doubled = PairV(doubled, doubled)
        for i in range(20_000):
            chain = PairV(Num(i), chain)
        cfg = _holding(x=doubled)
        cfg.append((0, 1), chain, A)
        assert cfg.fingerprint() == cfg.fingerprint()
        assert cfg.fingerprint() != _holding(x=PairV(doubled, Num(1))).fingerprint()

    def test_next_id_counts(self):
        a, b = _holding(), _holding()
        b.next_id += 1
        assert a.fingerprint() != b.fingerprint()
