import pathlib
import re
import types

import pytest

from actorcap import lang as lng
from actorcap.checker import (
    Checker,
    ErrorCode,
    TypeCheckError,
    check_program,
    env_join,
    self_splittable,
    split_judgment,
    types_equal,
)
from actorcap.lang import EPS, MsgType, cat, shuffle, star, sym
from actorcap.syntax import (
    ActorRefT,
    BehT,
    FunT,
    Loc,
    MsgDecl,
    NAT,
    Path,
    ProdT,
    Program,
    UNIT,
    UnitLit,
    _Parser,
    parse_program,
    tokenize,
)

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"

A, B = MsgType("a"), MsgType("b")
NOP, ACT = MsgType("nop"), MsgType("act")
NOP_ACT_NOP = cat(cat(star(sym("nop")), sym("act")), star(sym("nop")))

TEST_DECLS = (
    MsgDecl("a", UNIT),
    MsgDecl("b", UNIT),
    MsgDecl("nop", UNIT),
    MsgDecl("act", UNIT),
    MsgDecl("ack", UNIT),
)
TEST_PROGRAM = Program(TEST_DECLS, UnitLit())


def parse_expr(text):
    p = _Parser(tokenize(text))
    for d in TEST_DECLS:
        p.alphabet.add(MsgType(d.name))
    return p.expr()


def infer(env, text):
    return Checker(TEST_PROGRAM).infer(env, parse_expr(text))


def expect_code(code, env, text):
    with pytest.raises(TypeCheckError) as exc:
        infer(env, text)
    assert exc.value.code == code
    return exc.value


class TestSelfCapability:
    def test_self_reports_its_language_as_effect(self):
        t, env, eff = infer({}, "self[<ack>]")
        assert t == ActorRefT(sym("ack"))
        assert env == {}
        assert lng.equiv(eff, sym("ack"))


class TestSendPath:
    def test_send_takes_the_derivative(self):
        env = {"r": ActorRefT(cat(sym("a"), sym("b")))}
        _, out, _ = infer(env, "send[a](r, ())")
        assert lng.equiv(out.get("r").lang, sym("b"))

    def test_second_send_through_exhausted_ref(self):
        env = {"r": ActorRefT(sym("a"))}
        err = expect_code(
            ErrorCode.EmptyResidual, env, "let u = send[a](r, ()) in send[a](r, ())"
        )
        assert err.declared_language is not None

    def test_component_update_in_place(self):
        checker = Checker(TEST_PROGRAM)
        env = {"q": ProdT(NAT, ActorRefT(sym("a")))}
        residual, out = checker.apply_send_path(env, Path("q", (2,)), A, Loc(1, 1))
        assert lng.equiv(residual, EPS)
        assert out.get("q") == ProdT(NAT, ActorRefT(EPS))

    def test_wrong_symbol(self):
        env = {"r": ActorRefT(sym("b"))}
        expect_code(ErrorCode.EmptyResidual, env, "send[a](r, ())")

    def test_non_reference_target(self):
        env = {"r": NAT}
        expect_code(ErrorCode.TypeMismatch, env, "send[a](r, ())")

    def test_nop_act_nop_example(self):
        checker = Checker(TEST_PROGRAM)
        env = {"r": ActorRefT(NOP_ACT_NOP)}
        residual, _ = checker.apply_send_path(env, Path("r"), ACT, Loc(1, 1))
        assert lng.equiv(residual, star(sym("nop")))


class TestSplitJudgment:
    def test_paper_split(self):
        split_judgment(
            ActorRefT(NOP_ACT_NOP),
            ActorRefT(sym("act")),
            ActorRefT(star(sym("nop"))),
            Loc(1, 1),
        )

    def test_single_shot_does_not_duplicate(self):
        with pytest.raises(TypeCheckError) as exc:
            split_judgment(
                ActorRefT(sym("a")), ActorRefT(sym("a")), ActorRefT(sym("a")), Loc(1, 1)
            )
        assert exc.value.code == ErrorCode.SplitNotJustified

    def test_base_types_copy(self):
        split_judgment(NAT, NAT, NAT, Loc(1, 1))

    def test_products_componentwise(self):
        t = ProdT(NAT, ActorRefT(sym("a")))
        split_judgment(
            t, ProdT(NAT, ActorRefT(EPS)), ProdT(NAT, ActorRefT(sym("a"))), Loc(1, 1)
        )

    def test_behaviours_never_split(self):
        with pytest.raises(TypeCheckError) as exc:
            split_judgment(BehT(EPS), BehT(EPS), BehT(EPS), Loc(1, 1))
        assert exc.value.code == ErrorCode.SplitNotJustified


class TestSelfSplittable:
    def test_functions(self):
        assert self_splittable(FunT(NAT, EPS, NAT))

    def test_single_shot_reference(self):
        assert not self_splittable(ActorRefT(sym("a")))

    def test_star_reference(self):
        assert self_splittable(ActorRefT(star(sym("a"))))

    def test_products(self):
        assert self_splittable(ProdT(NAT, FunT(UNIT, EPS, UNIT)))
        assert not self_splittable(ProdT(NAT, ActorRefT(sym("a"))))

    def test_behaviour(self):
        assert not self_splittable(BehT(star(sym("a"))))


class TestEnvJoin:
    def test_identical_branches(self):
        env = {"r": ActorRefT(sym("a"))}
        joined = env_join(env, env)
        assert lng.equiv(joined.get("r").lang, sym("a"))

    def test_reference_join_is_intersection(self):
        t = {"r": ActorRefT(lng.alt(sym("a"), sym("b")))}
        f = {"r": ActorRefT(sym("a"))}
        joined = env_join(t, f)
        assert lng.equiv(joined.get("r").lang, sym("a"))

    def test_one_sided_binding_dropped(self):
        t = {"r": ActorRefT(sym("a")), "only": NAT}
        f = {"r": ActorRefT(sym("a"))}
        assert "only" not in env_join(t, f)

    def test_incompatible_non_reference(self):
        t = {"x": NAT}
        f = {"x": UNIT}
        with pytest.raises(TypeCheckError) as exc:
            env_join(t, f)
        assert exc.value.code == ErrorCode.JoinFailure


class TestEnvironmentNotMutated:
    """The public entry points never write to the environment they are given.

    Each gets a read-only view, so any write in place would raise.
    """

    R_AB = {"r": ActorRefT(cat(sym("a"), sym("b")))}

    @pytest.mark.parametrize("env, text", [
        (R_AB, "let k = 1 in let u = send[a](r, ()) in send[b](r, ())"),
        ({"r": ActorRefT(shuffle(sym("a"), sym("b")))},
         "split r as r1: ActorRef[<a>], r2: ActorRef[<b>]"
         " in let u = send[a](r1, ()) in send[b](r2, ())"),
        ({"q": ProdT(NAT, ActorRefT(sym("a")))}, "send[a](q.2, ())"),
        ({"r": ActorRefT(sym("a")), "n": NAT},
         "if true then send[a](r, ()) else let m = n in send[a](r, ())"),
        ({"n": NAT}, "fun f(x: Nat): Nat ! eps => x + n"),
        (R_AB, "beh[<a>]{ a(x) => beh[eps]{ } }"),
    ], ids=["let", "split", "send-product-path", "if", "fun", "beh"])
    def test_infer(self, env, text):
        before = dict(env)
        checker = Checker(TEST_PROGRAM, warn_dropped=True)
        checker.infer(types.MappingProxyType(env), parse_expr(text))
        assert env == before

    def test_env_join(self):
        t = {"r": ActorRefT(lng.alt(sym("a"), sym("b"))), "only": NAT}
        f = {"r": ActorRefT(sym("a"))}
        joined = env_join(types.MappingProxyType(t), types.MappingProxyType(f))
        assert lng.equiv(joined["r"].lang, sym("a"))
        assert t == {"r": ActorRefT(lng.alt(sym("a"), sym("b"))), "only": NAT}


class TestBehaviour:
    def test_act_case_settles_the_promise(self):
        env = {}
        t, out, eff = infer(
            env,
            "beh[<nop>*.<act>.<nop>*]{"
            " nop(x) => (fun k(s: Nat): Beh[<nop>*.<act>.<nop>*] ! eps =>"
            "   beh[<nop>*.<act>.<nop>*]{ nop(y) => k s"
            "   | act(y) => (fun d(v: Nat): Beh[<nop>*] ! eps => beh[<nop>*]{ nop(w) => d v }) s }) 0"
            "| act(x) => (fun d(v: Nat): Beh[<nop>*] ! eps => beh[<nop>*]{ nop(w) => d v }) 0"
            "}",
        )
        assert t == BehT(NOP_ACT_NOP)
        assert len(out) == 0
        assert lng.equiv(eff, EPS)

    def test_new_self_capability_breaks_conformance(self):
        err = expect_code(
            ErrorCode.BehaviourConformance,
            {},
            "beh[<nop>*.<act>.<nop>*]{"
            " nop(x) => beh[eps]{ }"
            "| act(x) => let dead = self[<act>] in"
            "   (fun d(v: Nat): Beh[<nop>*] ! eps => beh[<nop>*]{ nop(w) => d v }) 0"
            "}",
        )
        assert err.required_language is not None

    def test_duplicate_labels(self):
        expect_code(
            ErrorCode.DuplicateCaseLabel,
            {},
            "beh[<a>]{ a(x) => beh[eps]{ } | a(y) => beh[eps]{ } }",
        )

    def test_missing_case_for_admitted_message(self):
        expect_code(
            ErrorCode.BehaviourConformance,
            {},
            "beh[<a>|<b>]{ a(x) => beh[eps]{ } }",
        )

    def test_construction_consumes_the_environment(self):
        expect_code(
            ErrorCode.UnboundVariable,
            {"r": ActorRefT(sym("a"))},
            "let b = beh[eps]{ } in send[a](r, ())",
        )


class TestSpawn:
    def test_restricted_initial_capability(self):
        t, _, _ = infer(
            {},
            "spawn[<act>]((fun k(s: Nat): Beh[<nop>*.<act>.<nop>*] ! eps =>"
            " beh[<nop>*.<act>.<nop>*]{ nop(y) => k s"
            " | act(y) => (fun d(v: Nat): Beh[<nop>*] ! eps => beh[<nop>*]{ nop(w) => d v }) s }) 0)",
        )
        assert t == ActorRefT(sym("act"))

    def test_default_annotation_is_the_full_language(self):
        t, _, _ = infer({}, "spawn(beh[<a>]{ a(x) => beh[eps]{ } })")
        assert t == ActorRefT(sym("a"))

    def test_oversized_capability(self):
        expect_code(
            ErrorCode.SpawnCapabilityTooLarge,
            {},
            "spawn[<a>.<a>](beh[<a>]{ a(x) => beh[eps]{ } })",
        )

    def test_shuffle_capability_into_a_server_of_any_order(self):
        # Inclusion discharges the shuffle at its first pair; walked in
        # full, its 2**17 derivatives exceed the state budget.
        names = [f"a{i}" for i in range(1, 18)]
        server = "(" + "|".join(f"<{n}>" for n in names) + ")*"
        src = (
            "".join(f"msg {n} : Unit " for n in names)
            + "beh[<Unit>]{ Unit(m) => let t = spawn["
            + "#".join(f"<{n}>" for n in names)
            + f"]((fun k(z: Nat): Beh[{server}] ! eps => beh[{server}]{{ "
            + " | ".join(f"{n}(x) => k z" for n in names)
            + " }) 0) in beh[eps]{ } }"
        )
        check_program(parse_program(src))


class TestFlowSensitivity:
    def test_variable_use_consumes(self):
        env = {"x": NAT}
        _, out, _ = infer(env, "x + 1")
        assert "x" not in out

    def test_if_effect_is_condition_then_either_branch(self):
        _, _, eff = infer(
            {},
            "if true then let d = self[<a>] in 1 else let d = self[<b>] in 1",
        )
        assert lng.equiv(eff, lng.alt(sym("a"), sym("b")))

    def test_branch_types_must_agree(self):
        expect_code(
            ErrorCode.TypeMismatch,
            {},
            "if true then self[<a>] else self[<b>]",
        )

    def test_application_shuffles_latent_effect(self):
        env = {"f": FunT(UNIT, sym("a"), UNIT)}
        _, _, eff = infer(env, "f ()")
        assert lng.equiv(eff, sym("a"))

    def test_value_forms_have_empty_effect(self):
        for text in ("1", "true", "()", "(1, true)",
                     "fun f(x: Nat): Nat ! eps => x", "beh[eps]{ }"):
            _, _, eff = infer({}, text)
            assert lng.equiv(eff, EPS), text

    def test_lambda_capture_must_be_duplicable(self):
        env = {"r": ActorRefT(sym("a"))}
        expect_code(
            ErrorCode.NonSplittableCapture,
            env,
            "fun g(z: Nat): Unit ! eps => send[a](r, ())",
        )

    def test_lambda_may_capture_star_reference(self):
        env = {"r": ActorRefT(star(sym("a")))}
        t, _, _ = infer(env, "fun g(z: Nat): Unit ! eps => send[a](r, ())")
        assert isinstance(t, FunT)

    def test_latent_annotation_bounds_body_effect(self):
        expect_code(
            ErrorCode.TypeMismatch,
            {},
            "fun g(z: Unit): ActorRef[<a>] ! eps => self[<a>]",
        )


class TestProgramChecking:
    def test_state_passing_counter(self):
        typed = check_program(
            parse_program(
                "(fun f(s: Nat): Beh[<Unit>*] ! eps =>"
                " beh[<Unit>*]{ Unit(m) => f (s + 1) }) 0"
            )
        )
        assert lng.equiv(typed.root_type.lang, star(sym("Unit")))

    def test_root_effect_drives_setup_conformance(self):
        from actorcap.runtime import Trace, init_config

        prog = parse_program(
            "msg hum : Unit "
            "let s = self[<hum>] in let u = send[hum](s, ()) in "
            "beh[<Unit>#<hum>]{ Unit(m) => beh[<hum>]{ hum(x) => beh[eps]{ } }"
            " | hum(x) => beh[<Unit>]{ Unit(m) => beh[eps]{ } } }"
        )
        typed = check_program(prog)
        assert lng.equiv(typed.root_effect, sym("hum"))
        tr = Trace()
        init_config(prog, typed=typed, trace=tr)
        assert tr.violations() == []
        typed.root_effect = EPS
        tr = Trace()
        init_config(prog, typed=typed, trace=tr)
        assert [e.violation for e in tr.violations()] == ["EffectExceeded"]

    def test_non_behaviour_root(self):
        with pytest.raises(TypeCheckError) as exc:
            check_program(parse_program("42"))
        assert exc.value.code == ErrorCode.TypeMismatch

    def test_root_protocol_must_start_with_unit(self):
        src = (
            "msg act : Unit "
            "beh[<act>.<Unit>]{ act(x) => beh[<Unit>]{ Unit(y) => beh[eps]{ } } }"
        )
        with pytest.raises(TypeCheckError) as exc:
            check_program(parse_program(src))
        assert exc.value.code == ErrorCode.RootMissingUnitCase

    def test_typed_program_records_case_effects(self):
        prog = parse_program(
            "msg hum : Unit "
            "beh[<Unit>]{ Unit(m) =>"
            " let mk = fun g(x: Unit): ActorRef[<hum>] ! [<hum>] => self[<hum>]"
            " in let r = mk ()"
            " in (fun hold(rr: ActorRef[<hum>]): Beh[<hum>] ! eps =>"
            "      beh[<hum>]{ hum(h) => let d = rr in beh[eps]{ } }) r }"
        )
        typed = check_program(prog)
        root_effects = typed.case_effects[prog.root]
        assert lng.equiv(root_effects[MsgType("Unit")], sym("hum"))

    def test_warn_dropped_surfaces_leftover_capabilities(self):
        src = (
            "msg a : Unit "
            "beh[<Unit>]{ Unit(m) =>"
            " let t = spawn(beh[<a>]{ a(x) => beh[eps]{ } })"
            " in beh[eps]{ } }"
        )
        typed = check_program(parse_program(src), warn_dropped=True)
        assert any(wn.name == "t" for wn in typed.warnings)


class TestCorpus:
    @pytest.mark.parametrize(
        "path",
        sorted((CORPUS / "positive").glob("*.acap")),
        ids=lambda p: p.name,
    )
    def test_positive_accepted(self, path):
        check_program(parse_program(path.read_text()))

    @pytest.mark.parametrize(
        "path",
        sorted((CORPUS / "negative").glob("*.acap")),
        ids=lambda p: p.name,
    )
    def test_negative_rejected_with_expected_code(self, path):
        src = path.read_text()
        expected = re.search(r"-- expect: (\w+)", src).group(1)
        with pytest.raises(TypeCheckError) as exc:
            check_program(parse_program(src))
        assert exc.value.code.value == expected

    def test_diagnostics_render_and_serialize(self):
        src = (CORPUS / "negative" / "self_split.acap").read_text()
        with pytest.raises(TypeCheckError) as exc:
            check_program(parse_program(src))
        rendered = exc.value.render()
        assert re.match(r"SplitNotJustified @ \d+:\d+ - ", rendered)
        obj = exc.value.to_json_obj()
        assert obj["code"] == "SplitNotJustified"
        assert "required_language" in obj and "declared_language" in obj


def test_send_rebinding_is_capability_monotone():
    # Whatever the rebound protocol still allows, prefixed with the sent
    # message, was allowed by the original protocol.
    import random

    import langgen

    rng = random.Random(5)
    checker = Checker(TEST_PROGRAM)
    checked = 0
    for _ in range(80):
        l = langgen.reference_normalize(langgen.random_expr(rng, depth=3))
        for s in sorted(lng.symbols(l)):
            env = {"r": ActorRefT(l)}
            try:
                residual, out = checker.apply_send_path(env, Path("r"), s, Loc(1, 1))
            except TypeCheckError as e:
                assert e.code == ErrorCode.EmptyResidual
                continue
            assert out.get("r") == ActorRefT(residual)
            full = lng.enumerate_words(l, 5)
            for w in lng.enumerate_words(residual, 4):
                assert (s,) + w in full
            checked += 1
    assert checked > 20


def test_types_equal_uses_language_equivalence():
    t1 = ActorRefT(shuffle(sym("a"), sym("b")))
    t2 = ActorRefT(lng.alt(cat(sym("a"), sym("b")), cat(sym("b"), sym("a"))))
    assert types_equal(t1, t2)
    assert not types_equal(t1, ActorRefT(sym("a")))
