"""The global check visits only the actors a delivery touched.

`runtime.deliver` carries the last check's memo past each turn with the
actors the turn touched, and after a clean check `monitor.global_invariant`
visits only those, with every actor whose combined tags changed.  Every
check that `run` and `explore` make is compared here with a full check of
a copy of its configuration that has no memo: the same violations, in the
same order and with the same text, and the same memo, tag table and
residual table left behind.  The width family, n receivers of one message
each, shows what that saves: a monitored run grows with its deliveries,
not with its deliveries times its actors.
"""

import math
import pathlib
import sys
import time

import pytest

from actorcap import monitor
from actorcap.checker import check_program
from actorcap.runtime import Trace, explore, init_config, run
from actorcap.syntax import parse_program

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import gen  # noqa: E402  (the benchmark's program generators)


def width_source(n: int) -> str:
    """The root spawns n receivers of <d> and sends each one <d>."""
    lines = [
        f"let r{i} = spawn(beh[<d>]{{ d(x) => beh[eps]{{ }} }})\n"
        f"  in let u{i} = send[d](r{i}, ())\n  in"
        for i in range(n)
    ]
    body = "\n  ".join(lines)
    return f"msg d : Unit\nbeh[<Unit>]{{ Unit(m) =>\n  {body} beh[eps]{{ }}\n}}\n"


# Each of these four breaks the promise of an actor that a turn neither
# delivers to nor sends to.  Run unchecked, the root spawns a receiver of
# <e> with no case for it and drops the reference, so only the spawn
# touches it.
SPAWNED_UNHANDLED = """msg d : Unit
msg e : Unit
beh[<Unit>]{ Unit(m) =>
  let b = spawn(beh[<e>]{ d(x) => beh[eps]{ } })
  in let t = spawn((fun mk(s: Nat): Beh[<d>*] ! eps => beh[<d>*]{ d(x) => mk s }) 0)
  in let u1 = send[d](t, ()) in let u2 = send[d](t, ()) in beh[eps]{ }
}
"""
# Run unchecked, a forwarder splits its one <d> in two and keeps both
# halves, so the combined tags toward the receiver, which gets no message,
# grow.
SPLIT_KEPT = """msg d : Unit
msg go : Unit
beh[<Unit>]{ Unit(m) =>
  let t = spawn(beh[<d>]{ d(x) => beh[eps]{ } })
  in let f = spawn((fun mf(r: ActorRef[<d>]): Beh[<go>] ! eps =>
       beh[<go>]{ go(x) => split r as r1: ActorRef[<d>], r2: ActorRef[<d>]
         in beh[eps]{ d(y) => let a = r1 in let b = r2 in beh[eps]{ } } }) t)
  in let g = send[go](f, ()) in beh[eps]{ }
}
"""
# Run unchecked, a forwarder sends <d> through a <d>* it keeps, so the
# combined tags toward the receiver stay the same node, while its queue
# from the root still holds the <a> its protocol wants first.
FIXPOINT_SEND = """msg a : Unit
msg d : Unit
msg go : Unit
beh[<Unit>]{ Unit(m) =>
  let t = spawn((fun mk(s: Nat): Beh[<a>.<d>*] ! eps =>
    beh[<a>.<d>*]{ a(x) => beh[<d>*]{ d(y) => beh[eps]{ } } | d(x) => mk s }) 0)
  in split t as ta: ActorRef[<a>], td: ActorRef[<d>*]
  in let f = spawn((fun mf(r: ActorRef[<d>*]): Beh[<go>] ! eps =>
       beh[<go>]{ go(x) => let u = send[d](r, ())
         in beh[eps]{ go(y) => let z = r in beh[eps]{ } } }) td)
  in let u = send[a](ta, ()) in let g = send[go](f, ()) in beh[eps]{ }
}
"""
# A forwarder drops its <d> toward a receiver that promises two <d>s and
# has one in flight, so the combined tags toward it shrink to nothing.  The
# checker accepts this, since capabilities are affine (ROADMAP item 1).
DROPPED = """msg d : Unit
msg go : Unit
beh[<Unit>]{ Unit(m) =>
  let t = spawn(beh[<d>.<d>]{ d(x) => beh[<d>]{ d(y) => beh[eps]{ } } })
  in split t as t1: ActorRef[<d>], t2: ActorRef[<d>]
  in let f = spawn((fun mf(r: ActorRef[<d>]): Beh[<go>] ! eps =>
       beh[<go>]{ go(x) => let z = r in beh[eps]{ } }) t2)
  in let u = send[d](t1, ()) in let g = send[go](f, ()) in beh[eps]{ }
}
"""

# (name, source, checked): the corpus (negatives unchecked, so their
# violations stand and are reported again), the four programs above, the
# benchmark's fan-ins and the width family.
PROGRAMS = [
    *[(f"{p.parent.name}/{p.stem}", p.read_text(), p.parent.name == "positive")
      for p in sorted((ROOT / "corpus").glob("*/*.acap"))],
    ("spawned-unhandled", SPAWNED_UNHANDLED, False),
    ("split-kept", SPLIT_KEPT, False),
    ("fixpoint-send", FIXPOINT_SEND, False),
    ("dropped", DROPPED, True),
    *[(f"fanin-{k}x{m}", gen.fanin_program(k, m, "t"), True)
      for k, m in [(3, 2), (2, 3), (3, 3), (4, 2), (4, 3)]],
    ("star-forwarder-3x2", gen.fanin_program(3, 2, "t", star=True), True),
    *[(f"width-{n}", width_source(n), True) for n in (1, 2, 5, 20)],
]
IDS = [p[0] for p in PROGRAMS]
# A search of n independent receivers keeps 2**n configurations a level,
# so the family is searched at small n only.
SEARCHED = [p for p in PROGRAMS if p[0] not in ("width-20",)]


class Compared:
    """`monitor.global_invariant`, each call compared with a full check of
    a copy of its configuration without a memo."""

    def __init__(self):
        self.real = monitor.global_invariant
        self.touched_only = 0  # checks that visited only touched actors

    def __call__(self, config, memo=None):
        full = config.copy()
        full.check_memo = None
        expected = self.real(full)
        got = self.real(config, memo)
        assert [(v.kind, v.actor, v.detail) for v in got] == [
            (v.kind, v.actor, v.detail) for v in expected
        ]
        assert config.check_memo == full.check_memo
        assert config.tags == full.tags and config.residuals == full.residuals
        self.touched_only += memo is not None and memo[2] is not None
        return got


def _setup(monkeypatch, source: str, checked: bool):
    compared = Compared()
    monkeypatch.setattr(monitor, "global_invariant", compared)
    prog = parse_program(source)
    typed = check_program(prog) if checked else None
    trace = Trace()
    config = init_config(prog, typed=typed, trace=trace)
    return compared, config, typed, trace


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name,source,checked", PROGRAMS, ids=IDS)
def test_run_checks_agree(monkeypatch, name, source, checked, seed):
    compared, config, typed, trace = _setup(monkeypatch, source, checked)
    run(config, typed=typed, seed=seed, trace=trace)
    if checked:  # every check after the first follows a clean one
        assert compared.touched_only > 0


@pytest.mark.parametrize("name,source,checked", SEARCHED,
                         ids=[p[0] for p in SEARCHED])
def test_explore_checks_agree(monkeypatch, name, source, checked):
    compared, config, typed, trace = _setup(monkeypatch, source, checked)
    explore(config, typed=typed, max_depth=6, base_trace=trace)
    if checked:
        assert compared.touched_only > 0


def _run_s(prog, typed, monitored: bool) -> float:
    start = time.perf_counter()
    trace = Trace(seed=0)
    config = init_config(prog, typed=typed, monitor=monitored, trace=trace)
    _, outcome = run(config, typed=typed, seed=0, monitor=monitored, trace=trace)
    elapsed = time.perf_counter() - start
    assert outcome == "quiescent" and trace.violations() == []
    return elapsed


def test_width_family_grows_linearly():
    # When every check visited every actor, and the scheduler sorted every
    # queue on every step, a monitored run of 800 receivers took about 15x
    # the unmonitored one, with growth exponents of 1.6-2.1 and 1.5 from
    # 200 to 800.  Now it reads about 1.7x, with exponents of about 1.1.
    # Parsing and checking are left out of the times.  The exponent is
    # scale-free, and each time is the best of three runs, interleaved
    # with the others' so that a change in the machine's load reaches all.
    programs = {}
    for n in (200, 800):
        prog = parse_program(width_source(n))
        programs[n] = prog, check_program(prog)
    best: dict[tuple[int, bool], float] = {}
    for _ in range(3):
        for n, (prog, typed) in programs.items():
            for monitored in (True, False):
                t = _run_s(prog, typed, monitored)
                best[n, monitored] = min(best.get((n, monitored), t), t)
    for monitored in (True, False):
        exponent = math.log(best[800, monitored] / best[200, monitored]) / math.log(4)
        assert exponent < 1.3, (monitored, exponent)
    ratio = best[800, True] / best[800, False]
    assert ratio <= 3, ratio
