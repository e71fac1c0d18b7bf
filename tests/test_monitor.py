import pathlib
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from actorcap import lang as lng
from actorcap import monitor as mon
from actorcap.checker import check_program
from actorcap.lang import EPS, MsgType, alt, cat, shuffle, star, sym
from actorcap.monitor import (
    Violation,
    check_send_tag,
    conservation,
    effect_conformance,
    fifo_merges,
    global_invariant,
    split_tag,
    summarize,
)
from actorcap.runtime import (
    DEFAULT_MAX_DELIVERIES,
    Config,
    Stuck,
    Trace,
    deliver,
    enabled_deliveries,
    explore,
    init_config,
    run,
)
from actorcap.syntax import Beh, Case, parse_program
from actorcap.values import BehValue, PairV, RefValue, UNIT_V, iter_refs

from langgen import ALPHABET, random_expr
from local_eval import local_eval

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"
A, B = MsgType("a"), MsgType("b")
NOP, ACT = MsgType("nop"), MsgType("act")
NOP_ACT_NOP = cat(cat(star(sym("nop")), sym("act")), star(sym("nop")))


class TestSendTag:
    def test_derivative_residual(self):
        res = check_send_tag(cat(sym("a"), sym("b")), A)
        assert lng.equiv(res, sym("b"))

    def test_exhausted_tag(self):
        res = check_send_tag(EPS, A)
        assert isinstance(res, Violation)
        assert res.kind == "SendNotPermitted"

    def test_protocol_example(self):
        res = check_send_tag(NOP_ACT_NOP, ACT)
        assert lng.equiv(res, star(sym("nop")))


class TestSplitTag:
    def test_protocol_split(self):
        res = split_tag(NOP_ACT_NOP, sym("act"), star(sym("nop")))
        assert res == (sym("act"), star(sym("nop")))

    def test_single_shot_duplication(self):
        res = split_tag(sym("a"), sym("a"), sym("a"))
        assert isinstance(res, Violation)
        assert res.kind == "GlobalInvariantBroken"

    def test_star_self_split(self):
        res = split_tag(star(sym("a")), star(sym("a")), star(sym("a")))
        assert not isinstance(res, Violation)


class TestEffectConformance:
    def test_exact(self):
        assert effect_conformance(sym("act"), sym("act")) is None

    def test_unannounced_capability(self):
        v = effect_conformance(EPS, sym("act"))
        assert v is not None and v.kind == "EffectExceeded"

    def test_interleaving_inclusion(self):
        static = shuffle(sym("a"), sym("b"))
        observed = shuffle(sym("b"), sym("a"))
        assert effect_conformance(static, observed) is None


class TestSummarize:
    def test_aliased_reference_counted_once(self):
        r = RefValue(3, sym("a"))
        summary = summarize([PairV(r, r), r], {})
        assert summary == {3: sym("a")}

    def test_combined_is_shuffle(self):
        s = summarize([RefValue(1, sym("a")), RefValue(1, sym("b"))], {})
        assert lng.equiv(s[1], shuffle(sym("a"), sym("b")))
        assert 9 not in s

    def test_three_references_fold_in_walk_order(self):
        refs = [RefValue(1, sym("a")), RefValue(1, cat(sym("b"), sym("c"))),
                RefValue(1, star(sym("a")))]
        t1, t2, t3 = (r.tag for r in iter_refs(refs))
        folded = shuffle(shuffle(shuffle(EPS, t1), t2), t3)
        assert summarize(refs, {})[1] is folded


def test_fifo_merges():
    merged = fifo_merges([(A, B), (ACT,)])
    assert len(merged) == 3
    assert all(m.index(A) < m.index(B) for m in merged)


queues = st.lists(
    st.lists(st.sampled_from(ALPHABET), max_size=3).map(tuple), max_size=3
)


def receiver(annot, seqs) -> Config:
    """Actor 0 installed with `annot` and a case for each of its symbols,
    and the queue `seqs[i]` from actor i + 1 to it, with unit payloads."""
    done = Beh(EPS, ())
    cases = tuple(Case(s, "x", done) for s in sorted(lng.symbols(annot)))
    node = Beh(annot, cases)
    return Config(
        store={0: BehValue(annot, node.cases, {}, node)},
        queues={
            (i, 0): [(UNIT_V, m) for m in seq] for i, seq in enumerate(seqs, 1)
        },
        next_id=len(seqs) + 1,
    )


def report(combined, residual, annot, word) -> str:
    return (
        f"live tags {lng.lang_to_text(combined)} escape "
        f"{lng.lang_to_text(residual)} (behaviour {lng.lang_to_text(annot)} "
        f"after in-flight {''.join(word) or 'eps'!r})"
    )


@settings(max_examples=300, deadline=None)
@given(queues, st.integers(0, 2**32), st.integers(0, 2**32))
def test_global_check_matches_enumerated_merges(seqs, annot_seed, combined_seed):
    # Reference: the residual after every merge, in enumeration order; the
    # report names the first merge whose residual fails, with it.
    annot = random_expr(random.Random(annot_seed), depth=3)
    combined = random_expr(random.Random(combined_seed), depth=3)
    expected = []
    for w in fifo_merges(seqs):
        residual = lng.word_derivative(w, annot)
        if not lng.includes(combined, residual):
            expected = [report(combined, residual, annot, w)]
            break
    got = global_invariant(receiver(annot, seqs), {0: combined})
    assert [(v.kind, v.actor, v.detail) for v in got] == [
        ("GlobalInvariantBroken", 0, d) for d in expected
    ]


class TestMergeCheck:
    def test_long_single_queue(self):
        # One sender: the residual is folded once and kept, and the report
        # spells out the whole queue.
        seqs = [(NOP,) * 400 + (ACT,)]
        cfg = receiver(NOP_ACT_NOP, seqs)
        assert global_invariant(cfg, {0: star(sym("nop"))}) == []
        assert cfg.residuals[0].residual is star(sym("nop"))
        [v] = global_invariant(cfg, {0: sym("act")})
        assert v.detail == report(sym("act"), star(sym("nop")), NOP_ACT_NOP, seqs[0])

    def test_no_cap_on_interleavings(self):
        # 18!/(3!)**6, about 1.4e8 merges, decided by one inclusion; the
        # first merge in enumeration order takes each queue whole in turn.
        seqs = [(A, B, A)] * 6
        ab = star(alt(sym("a"), sym("b")))
        cfg = receiver(ab, seqs)
        assert global_invariant(cfg, {0: ab}) == []
        assert 0 not in cfg.residuals
        [v] = global_invariant(cfg, {0: sym("c")})
        assert v.detail == report(sym("c"), ab, ab, (A, B, A) * 6)


class TestGlobalInvariant:
    def test_fresh_restricted_spawn_holds(self):
        prog = parse_program((CORPUS / "positive/spawn_restricted.acap").read_text())
        typed = check_program(prog)
        cfg = init_config(prog, typed=typed)
        deliver(cfg, (0, 0), typed=typed)
        assert global_invariant(cfg) == []

    def test_counter_after_first_delivery(self):
        prog = parse_program((CORPUS / "positive/counter.acap").read_text())
        typed = check_program(prog)
        cfg = init_config(prog, typed=typed)
        deliver(cfg, (0, 0), typed=typed)
        assert global_invariant(cfg) == []

    def test_two_single_shot_tags_break_the_promise(self):
        from actorcap.syntax import Case

        done = Beh(lng.EPS, ())
        node = Beh(
            NOP_ACT_NOP,
            (Case(NOP, "x", done), Case(ACT, "x", done)),
        )
        holder = BehValue(
            node.annot,
            node.cases,
            {"r1": RefValue(0, sym("act")), "r2": RefValue(0, sym("act"))},
            node,
        )
        cfg = Config(store={0: holder}, next_id=1)
        violations = global_invariant(cfg)
        assert [v.kind for v in violations] == ["GlobalInvariantBroken"]
        assert violations[0].actor == 0
        assert "act#act" in violations[0].detail.replace("<", "").replace(">", "")

    def test_overclaiming_behaviour_flagged_at_install(self):
        node = Beh(lng.alt(sym("nop"), sym("act")), ())
        cfg = Config(store={0: BehValue(node.annot, node.cases, {}, node)})
        violations = global_invariant(cfg)
        assert violations and "no case" in violations[0].detail

    def test_every_fifo_interleaving_must_pass(self):
        # two in-flight messages whose orders are both FIFO-consistent, but
        # the behaviour only accepts one order
        node = Beh(cat(sym("a"), sym("b")), ())
        cfg = Config(
            store={0: BehValue(node.annot, node.cases, {}, node)},
            queues={(1, 0): [(UNIT_V, A)], (2, 0): [(UNIT_V, B)]},
            next_id=3,
        )
        violations = global_invariant(cfg)
        assert violations and violations[0].actor == 0


class TestConservation:
    def test_send_accounted_by_derivative(self):
        pre = {1: cat(sym("a"), sym("b"))}
        post = {1: sym("b")}
        out = conservation(
            0, pre, {1: [A]}, EPS, post, {}, pre_existing={0, 1}
        )
        assert out == []

    def test_dropped_capability_detected(self):
        pre = {1: cat(sym("a"), sym("b"))}
        out = conservation(
            0, pre, {1: [A]}, EPS, {}, {}, pre_existing={0, 1}
        )
        assert [v.kind for v in out] == ["GlobalInvariantBroken"]

    def test_dropped_capability_text(self):
        pre = {1: cat(sym("a"), sym("b"))}
        out = conservation(0, pre, {1: [A]}, EPS, {}, {}, pre_existing={0, 1})
        assert [v.detail for v in out] == [
            "capability conservation failed: retained eps with transferred "
            "eps differs from expected <b>"
        ]

    def test_transfer_balances(self):
        pre = {1: cat(sym("a"), sym("b"))}
        transferred = {1: sym("b")}
        out = conservation(
            0, pre, {1: [A]}, EPS, {}, transferred, pre_existing={0, 1}
        )
        assert out == []

    def test_self_effect_is_new_obligation(self):
        post = {0: sym("act")}
        out = conservation(
            0, {}, {}, sym("act"), post, {}, pre_existing={0}
        )
        assert out == []

    def test_created_and_dropped_self_capability(self):
        out = conservation(
            0, {}, {}, sym("act"), {}, {},
            pre_existing={0},
        )
        assert [v.kind for v in out] == ["GlobalInvariantBroken"]

    def test_fresh_actors_exempt(self):
        post = {5: sym("a")}
        out = conservation(
            0, {}, {5: [A]}, EPS, post, {}, pre_existing={0}
        )
        assert out == []

    def test_dropping_a_star_residual_allowed(self):
        pre = {1: star(sym("a"))}
        out = conservation(
            0, pre, {1: [A]}, EPS, {}, {}, pre_existing={0, 1}
        )
        assert out == []

    def test_conjured_capability_detected(self):
        pre = {1: sym("a")}
        post = {1: shuffle(sym("a"), sym("a"))}
        out = conservation(
            0, pre, {}, EPS, post, {}, pre_existing={0, 1}
        )
        assert [v.kind for v in out] == ["GlobalInvariantBroken"]


# A forwarder holds <d>* to an actor that already exists, sends one <d> and
# drops the rest, which the affine checker accepts.
STAR_FORWARDER = """msg d : Unit
msg go : Unit
beh[<Unit>]{ Unit(m) =>
  let t = spawn((fun mk(s: Nat): Beh[<d>*] ! eps => beh[<d>*]{ d(x) => mk s }) 0)
  in let f = spawn((fun mf(r: ActorRef[<d>*]): Beh[<go>] ! eps =>
       beh[<go>]{ go(x) => let v = send[d](r, ()) in beh[eps]{ } }) t)
  in let g = send[go](f, ())
  in beh[eps]{ }
}
"""


def fanin_source(k: int, m: int, star: bool = False) -> str:
    """k forwarders, each holding exactly <di>^m to one receiver, send it all.

    With `star`, forwarder i holds <di>* instead and drops the rest.
    """
    syms = [f"d{i}" for i in range(1, k + 1)]
    any_order = "(" + "|".join(f"<{s}>" for s in syms) + ")*"
    cases = " | ".join(f"{s}(x) => mk n" for s in syms)
    if star:
        parts = [f"<{s}>*" for s in syms]
    else:
        parts = ["(" + ".".join([f"<{s}>"] * m) + ")" for s in syms]
    lines = [
        f"let r0 = spawn[{'#'.join(parts)}]((fun mk(n: Nat): Beh[{any_order}]"
        f" ! eps => beh[{any_order}]{{ {cases} }}) 0)"
    ]
    for i in range(1, k):
        lines.append(
            f"in split r{i - 1} as h{i}: ActorRef[{parts[i - 1]}], "
            f"r{i}: ActorRef[{'#'.join(parts[i:])}]"
        )
    handles = [f"h{i}" for i in range(1, k)] + [f"r{k - 1}"]
    for i, (s, h) in enumerate(zip(syms, handles), 1):
        sends = " in ".join(f"let v{j} = send[{s}](r, ())" for j in range(m))
        lines.append(
            f"in let f{i} = spawn((fun mf{i}(r: ActorRef[{parts[i - 1]}]): "
            f"Beh[<go>] ! eps => beh[<go>]{{ go(x) => {sends} in beh[eps]{{ }} }})"
            f" {h})"
        )
    lines += [f"in let g{i} = send[go](f{i}, ())" for i in range(1, k + 1)]
    decls = "".join(f"msg {s} : Unit\n" for s in syms + ["go"])
    body = "\n  ".join(lines)
    return f"{decls}beh[<Unit>]{{ Unit(m) =>\n  {body}\n  in beh[eps]{{ }}\n}}\n"


class TestMonitoredRuns:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "source", [STAR_FORWARDER, fanin_source(4, 3)], ids=["star", "fanin-4x3"]
    )
    def test_well_typed_run_is_clean(self, source, seed):
        prog = parse_program(source)
        typed = check_program(prog)
        tr = Trace(seed=seed)
        cfg = init_config(prog, typed=typed, trace=tr)
        trace, outcome = run(cfg, typed=typed, seed=seed, trace=tr)
        assert outcome == "quiescent"
        assert trace.violations() == []


class TestTagDenotationAgreement:
    def test_tag_tracks_word_derivative(self):
        from actorcap.syntax import _Parser, tokenize

        parser = _Parser(tokenize(
            "let u1 = send[nop](r, ()) in let u2 = send[act](r, ()) in ()"
        ))
        parser.alphabet.update({NOP, ACT})
        expr = parser.expr()

        r = RefValue(4, NOP_ACT_NOP)
        cfg = Config(next_id=5)
        local_eval(0, {"r": r}, expr, config=cfg)
        assert lng.equiv(cfg.tags[r], lng.word_derivative((NOP, ACT), NOP_ACT_NOP))

    def test_tags_untouched_when_monitoring_off(self):
        from actorcap.syntax import _Parser, tokenize

        parser = _Parser(tokenize("send[nop](r, ())"))
        parser.alphabet.add(NOP)
        expr = parser.expr()

        r = RefValue(4, NOP_ACT_NOP)
        cfg = Config(next_id=5)
        local_eval(0, {"r": r}, expr, config=cfg, monitor=False)
        assert cfg.tags.get(r, r.tag) == NOP_ACT_NOP


def parse_expr(text, *msgs):
    from actorcap.syntax import _Parser, tokenize

    parser = _Parser(tokenize(text))
    parser.alphabet.update(MsgType(m) for m in msgs)
    return parser.expr()


class TestAliasedTags:
    """A reference reachable from several places is one capability."""

    def test_copy_shares_aliases_within_a_branch_only(self):
        r = RefValue(1, cat(sym("nop"), sym("act")))
        env = {"r": r, "p": PairV(r, UNIT_V)}
        cfg = Config(store={0: BehValue(EPS, (), env, Beh(EPS, ()))}, next_id=2)
        branch = cfg.copy()
        tr = Trace()
        local_eval(0, env, parse_expr("send[nop](r, ())", "nop"), config=branch, trace=tr)
        # The send through `r` is seen through the pair in the branch ...
        assert summarize([env["p"]], branch.tags) == {1: sym("act")}
        assert summarize(env.values(), branch.tags) == {1: sym("act")}
        # ... and not in the original.
        assert summarize(env.values(), cfg.tags) == {1: r.tag}
        # A second <nop> through the other alias is refused in the branch
        # only.
        second = parse_expr("send[nop](p.1, ())", "nop")
        local_eval(0, env, second, config=branch, trace=tr)
        assert [e.violation for e in tr.violations()] == ["SendNotPermitted"]
        tr = Trace()
        local_eval(0, env, second, config=cfg, trace=tr)
        assert tr.violations() == []

    def test_closure_called_twice_shares_one_tag(self):
        r = RefValue(1, sym("hit"))
        e = parse_expr(
            "let f = fun g(z: Nat): Unit ! eps => send[hit](r, ())"
            " in let u1 = f 1 in f 2",
            "hit",
        )
        cfg, tr = Config(next_id=2), Trace()
        local_eval(0, {"r": r}, e, config=cfg, trace=tr)
        assert [e.violation for e in tr.violations()] == ["SendNotPermitted"]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "name", ["closure_capture", "use_after_consume", "split_behaviour"]
    )
    def test_unchecked_aliasing_programs_send_unpermitted(self, name, seed):
        prog = parse_program((CORPUS / "negative" / f"{name}.acap").read_text())
        tr = Trace(seed=seed)
        cfg = init_config(prog, trace=tr)
        trace, _ = run(cfg, seed=seed, trace=tr)
        assert "SendNotPermitted" in {e.violation for e in trace.violations()}


class TestTagTableHoldsLiveReferences:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "path",
        sorted((CORPUS / "positive").glob("*.acap")),
        ids=lambda p: p.name,
    )
    def test_only_reachable_references_keep_an_entry(self, path, seed):
        prog = parse_program(path.read_text())
        typed = check_program(prog)
        tr = Trace(seed=seed)
        cfg = init_config(prog, typed=typed, trace=tr)
        run(cfg, typed=typed, seed=seed, trace=tr)
        roots = [v for b in cfg.store.values() for v in b.env.values()]
        roots += [v for q in cfg.queues.values() for v, _ in q]
        live = set(iter_refs(roots))
        assert set(cfg.tags) <= live


class TestMonitorOnCorpus:
    @pytest.mark.parametrize(
        "path",
        sorted((CORPUS / "positive").glob("*.acap")),
        ids=lambda p: p.name,
    )
    def test_checked_programs_raise_no_violations(self, path):
        prog = parse_program(path.read_text())
        typed = check_program(prog)
        tr = Trace(seed=1)
        cfg = init_config(prog, typed=typed, trace=tr)
        trace, outcome = run(cfg, typed=typed, seed=1, trace=tr)
        assert not outcome.startswith("stuck")
        assert trace.violations() == []

    def test_unchecked_stuckness_preceded_by_violation(self):
        # the monitor flags the over-send before the receiver gets stuck
        for name in ("double_send", "self_split", "spawn_too_large"):
            prog = parse_program((CORPUS / f"negative/{name}.acap").read_text())
            tr = Trace(seed=0)
            cfg = init_config(prog, trace=tr)
            trace, outcome = run(cfg, seed=0, trace=tr)
            assert outcome == "stuck:UnhandledMessage"
            kinds = [e.kind for e in trace.events]
            first_violation = kinds.index("violation")
            last_deliver = len(kinds) - 1 - kinds[::-1].index("deliver")
            assert first_violation < last_deliver

    @pytest.mark.parametrize(
        "path",
        sorted((CORPUS / "negative").glob("*.acap")),
        ids=lambda p: p.name,
    )
    def test_monitor_completeness_at_desk_scale(self, path):
        # Whenever an unchecked schedule ends with an unhandled message, a
        # SendNotPermitted or GlobalInvariantBroken precedes it on that trace.
        from actorcap.runtime import explore

        prog = parse_program(path.read_text())
        base = Trace()
        cfg = init_config(prog, trace=base)
        report = explore(cfg, max_depth=8, base_trace=base)
        witness = report.witnesses.get("stuck:UnhandledMessage")
        if witness is None:
            pytest.skip("this program does not reach an unhandled message")
        kinds = [
            e.violation for e in witness.events if e.kind == "violation"
        ]
        assert {"SendNotPermitted", "GlobalInvariantBroken"} & set(kinds)


def chain_source(n: int) -> str:
    """One handler, a chain of n lets, sends n <d>s to one receiver."""
    lines = [
        "let t = spawn((fun mk(s: Nat): Beh[<d>*] ! eps =>"
        " beh[<d>*]{ d(x) => mk s }) 0)"
    ]
    lines += [f"in let u{i} = send[d](t, ())" for i in range(n)]
    body = "\n  ".join(lines)
    return f"msg d : Unit\nbeh[<Unit>]{{ Unit(m) =>\n  {body}\n  in beh[eps]{{ }}\n}}\n"


def assert_table_agrees(cfg: Config):
    """The residual table changes no report: the check on a copy of `cfg`
    equals the check on a copy whose table is emptied, detail for detail."""
    kept, fresh = cfg.copy(), cfg.copy()
    fresh.residuals.clear()
    assert global_invariant(kept) == global_invariant(fresh)
    assert kept.residuals == fresh.residuals


def assert_memo_agrees(cfg: Config, tr: Trace):
    """The check memo changes no report: the violations the global check
    of the delivery traced in `tr` reported (those with no source), the
    memo it left and the tag and residual tables equal a full check's on a
    copy of `cfg` without the memo."""
    full = cfg.copy()
    full.check_memo = None
    violations = global_invariant(full)
    got = [(e.violation, e.dst, e.detail) for e in tr.violations() if e.src is None]
    assert got == [(v.kind, v.actor, v.detail) for v in violations]
    assert full.check_memo == cfg.check_memo
    assert full.tags == cfg.tags and full.residuals == cfg.residuals


def differential_run(source: str, seed: int, checked: bool = True) -> int:
    """A seeded monitored run, `assert_table_agrees` and `assert_memo_agrees`
    after every delivery.  Returns how many of the checks came after a quiet
    turn, took the last check's summary and reported a violation."""
    prog = parse_program(source)
    typed = check_program(prog) if checked else None
    cfg = init_config(prog, typed=typed)
    assert_table_agrees(cfg)
    rng = random.Random(seed)
    reused = 0
    for _ in range(DEFAULT_MAX_DELIVERIES):
        enabled = enabled_deliveries(cfg)
        if not enabled:
            break
        src, dst, _ = enabled[rng.randrange(len(enabled))]
        before = cfg.check_memo
        tr = Trace()
        res = deliver(cfg, (src, dst), typed=typed, trace=tr)
        assert_table_agrees(cfg)
        if isinstance(res, Stuck):
            assert cfg.check_memo is None
            break
        assert_memo_agrees(cfg, tr)
        if cfg.check_memo is before:  # a quiet turn's check
            reused += any(e.src is None for e in tr.violations())
    return reused


def deliver_and_agree(cfg: Config, *choices):
    for choice in choices:
        deliver(cfg, choice)
        assert_table_agrees(cfg)


class TestResidualTable:
    """`Config.residuals` and `Config.check_memo` are derived: with them or
    without, the same reports."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "path",
        sorted((CORPUS / "positive").glob("*.acap")),
        ids=lambda p: p.name,
    )
    def test_positive_corpus(self, path, seed):
        differential_run(path.read_text(), seed)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "path",
        sorted((CORPUS / "negative").glob("*.acap")),
        ids=lambda p: p.name,
    )
    def test_negative_corpus_unchecked(self, path, seed):
        differential_run(path.read_text(), seed, checked=False)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "source",
        [chain_source(200), chain_source(400), fanin_source(3, 3),
         fanin_source(3, 3, star=True), fanin_source(4, 3),
         fanin_source(4, 3, star=True), fanin_source(3, 2, star=True)],
        ids=["chain-200", "chain-400", "fanin-3x3", "fanin-3x3-star",
             "fanin-4x3", "fanin-4x3-star", "fanin-3x2-star"],
    )
    def test_generated(self, source, seed):
        differential_run(source, seed)

    def test_next_annotation_not_the_derivative(self):
        # After one <d>, the receiver promises one more <d>, not <d>*, so
        # the two still queued escape it.  The residual kept for <d>* must
        # not be carried over.
        cfg = init_config(parse_program("""msg d : Unit
beh[<Unit>]{ Unit(m) =>
  let t = spawn(beh[<d>*]{ d(x) => beh[<d>]{ d(y) => beh[eps]{ } } })
  in let u1 = send[d](t, ()) in let u2 = send[d](t, ())
  in let u3 = send[d](t, ()) in beh[eps]{ }
}
"""))
        deliver_and_agree(cfg, (0, 0))
        assert cfg.residuals[1].folded == 3
        deliver(cfg, (0, 1))
        [v] = global_invariant(cfg.copy())
        assert "escape" in v.detail and v.actor == 1
        assert_table_agrees(cfg)

    def test_second_sender_then_back_to_one(self):
        # The root sends <d> twice and has a forwarder send two more, so the
        # receiver has two senders in flight until the root's queue drains.
        cfg = init_config(parse_program("""msg d : Unit
msg go : Unit
beh[<Unit>]{ Unit(m) =>
  let t = spawn((fun mk(s: Nat): Beh[<d>*] ! eps =>
    beh[<d>*]{ d(x) => mk s }) 0)
  in split t as t1: ActorRef[<d>*], t2: ActorRef[<d>*]
  in let f = spawn((fun mf(r: ActorRef[<d>*]): Beh[<go>] ! eps =>
    beh[<go>]{ go(x) => let v1 = send[d](r, ()) in let v2 = send[d](r, ())
      in beh[eps]{ } }) t2)
  in let u1 = send[d](t1, ()) in let u2 = send[d](t1, ())
  in let g = send[go](f, ()) in beh[eps]{ }
}
"""))
        deliver_and_agree(cfg, (0, 0))
        assert cfg.residuals[1].queue == (0, 1)
        deliver_and_agree(cfg, (0, 2))  # the forwarder sends its two
        assert 1 not in cfg.residuals
        deliver_and_agree(cfg, (0, 1), (0, 1))  # the root's queue drains
        assert cfg.residuals[1].queue == (2, 1)
        deliver_and_agree(cfg, (2, 1), (2, 1))
        assert enabled_deliveries(cfg) == []

    def test_stuck_delivery_leaves_no_stale_entry(self):
        # The receiver promises <e> first but has no case for it, so the
        # delivery of <e> is stuck and its behaviour stays <e>.<d>*; the
        # entry carried past the <e> stood for <d>* and must not count.
        cfg = init_config(parse_program("""msg d : Unit
msg e : Unit
beh[<Unit>]{ Unit(m) =>
  let t = spawn((fun mk(s: Nat): Beh[<d>*] ! eps =>
    beh[<e>.<d>*]{ d(x) => mk s }) 0)
  in let u1 = send[e](t, ()) in let u2 = send[d](t, ())
  in let u3 = send[d](t, ()) in beh[eps]{ }
}
"""))
        deliver_and_agree(cfg, (0, 0))
        assert isinstance(deliver(cfg, (0, 1)), Stuck)
        kept = cfg.copy()
        violations = global_invariant(kept)
        assert any("escape" in v.detail for v in violations)
        assert kept.residuals[1].annot is kept.store[1].annot
        assert_table_agrees(cfg)

    def test_queue_edited_by_hand_is_walked_again(self):
        # <d>*.<e>.<d>* is its own <d>-derivative, so popping the head <d>
        # and appending an <e> keeps both the annotation and the queue's
        # length; only the queue's items tell the kept residual is stale.
        from actorcap.syntax import Case

        D, E = MsgType("d"), MsgType("e")
        annot = cat(cat(star(sym("d")), sym("e")), star(sym("d")))
        node = Beh(annot, (Case(D, "x", Beh(annot, ())), Case(E, "x", Beh(annot, ()))))
        cfg = Config(
            store={0: BehValue(node.annot, node.cases, {}, node)},
            queues={(1, 0): [(UNIT_V, D), (UNIT_V, E)]},
            next_id=2,
        )
        assert global_invariant(cfg) == []
        q = cfg.queues[(1, 0)]
        q.pop(0)
        q.append((UNIT_V, E))
        assert_table_agrees(cfg)
        [v] = global_invariant(cfg)
        assert "after in-flight 'ee'" in v.detail

    def test_fingerprint_ignores_the_table(self):
        cfg = init_config(parse_program(chain_source(5)))
        deliver(cfg, (0, 0))
        assert cfg.residuals
        fresh = cfg.copy()
        fresh.residuals.clear()
        assert cfg.fingerprint() == fresh.fingerprint()


class TestCheckMemo:
    """`Config.check_memo` after the runs of `TestResidualTable`, and on
    programs made to exercise it."""

    @pytest.mark.parametrize("seed", range(4))
    def test_standing_violations_reported_again(self, seed):
        # Actor 1 promises <e> and has no case for it; that violation stands
        # while actor 2 takes quiet turns, whose checks reuse the last
        # summary and must report it again.  (No negative corpus program has
        # a quiet turn while another actor's violation stands.)
        assert differential_run("""msg d : Unit
msg e : Unit
beh[<Unit>]{ Unit(m) =>
  let b = spawn(beh[<e>]{ d(x) => beh[eps]{ } })
  in let t = spawn((fun mk(s: Nat): Beh[<d>*] ! eps => beh[<d>*]{ d(x) => mk s }) 0)
  in let u1 = send[d](t, ()) in let u2 = send[d](t, ()) in beh[eps]{ }
}
""", seed, checked=False) == 2

    def test_self_capability_at_eps_is_not_quiet(self):
        # `self[eps]` leaves the observed effect `eps`, but the behaviour
        # the turn installs reaches the new reference, a live tag toward
        # the receiver that a quiet turn's reused summary would lack.
        differential_run("""msg d : Unit
beh[<Unit>]{ Unit(m) =>
  let t = spawn(beh[<d>*]{ d(x) => let s = self[eps]
    in beh[<d>*]{ d(y) => let z = s in beh[eps]{ } } })
  in let u1 = send[d](t, ()) in let u2 = send[d](t, ()) in beh[eps]{ }
}
""", 0, checked=False)

    @pytest.mark.parametrize("star", [False, True], ids=["exact", "star"])
    def test_explore_matches_full_checks(self, monkeypatch, star):
        # The naive explorer clears the memo before every delivery, so each
        # of its checks is a full one.
        import naive_explore

        def full_check_deliver(cfg, choice, **kw):
            cfg.check_memo = None
            return deliver(cfg, choice, **kw)

        monkeypatch.setattr(naive_explore, "deliver", full_check_deliver)
        prog = parse_program(fanin_source(3, 2, star=star))
        typed = check_program(prog)
        reports = []
        for explorer in (explore, naive_explore.naive_explore):
            base = Trace()
            cfg = init_config(prog, typed=typed, trace=base)
            report = explorer(cfg, typed=typed, max_depth=12, base_trace=base)
            reports.append((
                report.schedules,
                report.outcomes,
                {k: w.to_jsonl() for k, w in report.witnesses.items()},
                report.violation_kinds,
            ))
        assert reports[0] == reports[1]

    def test_lifetime(self):
        prog = parse_program(chain_source(3))
        cfg = init_config(prog, monitor=False)
        assert cfg.check_memo is None  # no check yet
        assert global_invariant(cfg) == [] and cfg.check_memo is not None
        memo = cfg.check_memo
        branch = cfg.copy()
        assert branch.check_memo is memo  # shared, never updated in place
        deliver(branch, (0, 0))
        assert branch.check_memo is not memo and cfg.check_memo is memo
        assert memo == {}
        monitored, unmonitored = branch.copy(), branch.copy()
        deliver(monitored, (0, 1))
        deliver(unmonitored, (0, 1), monitor=False)
        assert monitored.check_memo is not None and unmonitored.check_memo is None
        assert monitored.fingerprint() == unmonitored.fingerprint()
        assert monitored == unmonitored


def test_monitored_chain_summarizes_a_few_times(monkeypatch):
    # Every delivery to the receiver is quiet: its payload, old and new
    # behaviour reach no reference and it sends nothing, so the turn needs
    # no capability summary (1,601 at N = 400 when every turn made four).
    n = 400
    prog = parse_program(chain_source(n))
    typed = check_program(prog)
    calls = 0
    summarize = mon.summarize

    def counting(roots, tags):
        nonlocal calls
        calls += 1
        return summarize(roots, tags)

    monkeypatch.setattr(mon, "summarize", counting)
    tr = Trace(seed=0)
    cfg = init_config(prog, typed=typed, trace=tr)
    _, outcome = run(cfg, typed=typed, seed=0, trace=tr)
    assert outcome == "quiescent" and tr.violations() == []
    assert calls <= 8


def test_monitored_chain_costs_linear_derivatives(monkeypatch):
    # Re-walking the receiver's queue after every delivery costs about
    # N*N/2 derivatives (80,599 at N = 400); the residual table costs a few
    # per message.
    n = 400
    prog = parse_program(chain_source(n))
    typed = check_program(prog)
    calls = 0
    derivative = lng.derivative

    def counting(m, e):
        nonlocal calls
        calls += 1
        return derivative(m, e)

    monkeypatch.setattr(lng, "derivative", counting)
    tr = Trace(seed=0)
    cfg = init_config(prog, typed=typed, trace=tr)
    _, outcome = run(cfg, typed=typed, seed=0, trace=tr)
    assert outcome == "quiescent" and tr.violations() == []
    assert calls <= 8 * n


def test_monitored_chain_visits_linear_values(monkeypatch):
    # Rebuilding the live references from every queued payload after every
    # delivery hands the walk about N*N/2 roots (83,406 at N = 400); cached
    # `refs` and the in-flight counts hand it six per delivery (2,407).
    n = 400
    prog = parse_program(chain_source(n))
    typed = check_program(prog)
    roots = 0
    walk = mon.iter_refs

    def counting(values):
        nonlocal roots
        values = list(values)
        roots += len(values)
        return walk(values)

    monkeypatch.setattr(mon, "iter_refs", counting)
    tr = Trace(seed=0)
    cfg = init_config(prog, typed=typed, trace=tr)
    _, outcome = run(cfg, typed=typed, seed=0, trace=tr)
    assert outcome == "quiescent" and tr.violations() == []
    assert roots <= 12 * n


def test_deep_pair_chain_does_not_recurse():
    # Payloads nested 5,000 pairs deep, built in loops: each pair joins
    # its children's references as it is built, so asking recurses nowhere.
    refs = [RefValue(i % 3, EPS) for i in range(5000)]
    v = UNIT_V
    for r in refs:
        v = PairV(r, v)
    assert set(iter_refs([v])) == set(refs)
    assert summarize([v], {}) == {0: EPS, 1: EPS, 2: EPS}
    more = [RefValue(3, EPS) for _ in range(5000)]
    w = v
    for r in more:
        w = PairV(w, r)
    assert set(iter_refs([w])) == set(refs + more)
    assert summarize([w, v], {}) == {0: EPS, 1: EPS, 2: EPS, 3: EPS}


def test_refs_are_joined_once_and_deduplicated():
    r, s = RefValue(1, sym("a")), RefValue(2, sym("a"))
    shared = PairV(r, s)
    v = PairV(shared, PairV(r, shared))
    assert sorted(v.refs, key=lambda x: x.target) == [r, s]
    assert v.refs is v.refs  # kept from construction, not walked again
    assert PairV(UNIT_V, shared).refs is shared.refs  # a lone tuple is shared
    assert r.refs == (r,) and UNIT_V.refs == ()
    beh = BehValue(EPS, (), {"x": v, "y": s}, Beh(EPS, ()))
    assert set(beh.refs) == {r, s} and len(beh.refs) == 2
