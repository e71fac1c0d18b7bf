import pathlib

import pytest

from actorcap import syntax
from actorcap.checker import check_program
from actorcap.lang import EMPTY, MsgType, parse_lang, star, sym
from actorcap.runtime import Trace, init_config, run
from actorcap.syntax import (
    ActorRefT,
    Beh,
    Let,
    NatLit,
    ParseError,
    Path,
    Program,
    Send,
    SelfCap,
    Split,
    UnitLit,
    Var,
    _Parser,
    locate,
    parse_program,
    pretty_print,
    tokenize,
)
from tree_equal import same_tree

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def parse_expr(text, *msgs):
    p = _Parser(tokenize(text))
    for name in msgs:
        p.alphabet.add(MsgType(name))
    return p.expr()


class TestParse:
    def test_single_decl_behaviour(self):
        prog = parse_program("msg tick : Unit  beh[<tick>*]{ tick(m) => self[0] }")
        assert [d.name for d in prog.msg_decls] == ["tick"]
        root = prog.root
        assert isinstance(root, Beh)
        assert root.annot == star(sym("tick"))
        assert same_tree(root.cases[0].body, SelfCap(EMPTY))

    def test_send_through_path(self):
        e = parse_expr("send[tick](r.1, ())", "tick")
        assert same_tree(e, Send(MsgType("tick"), Path("r", (1,)), UnitLit()))

    def test_split_carries_annotations(self):
        e = parse_expr(
            "split r as r1: ActorRef[<act>], r2: ActorRef[<nop>*] in send[act](r1, ())",
            "act",
            "nop",
        )
        assert isinstance(e, Split)
        assert e.type1 == ActorRefT(sym("act"))
        assert e.type2 == ActorRefT(star(sym("nop")))

    def test_application_is_left_associative(self):
        e = parse_expr("f x y")
        assert str(e.fn.fn.path) == "f"

    def test_var_path(self):
        e = parse_expr("q.1.2")
        assert same_tree(e, Var(Path("q", (1, 2))))

    def test_each_bracketed_text_is_parsed_once(self, monkeypatch):
        texts = []

        def counted(text, alphabet=None):
            texts.append(text)
            return parse_lang(text, alphabet)

        monkeypatch.setattr(syntax, "parse_lang", counted)
        prog = parse_program(
            "msg a : Unit\n"
            "let x = spawn[<a>*](beh[<a>*]{ a(m) => self[0] }) in\n"
            "let y = spawn[<a>*](beh[<a>*]{ a(m) => self[0] }) in ()"
        )
        assert sorted(texts) == ["0", "<a>*"]
        x, y = prog.root.value, prog.root.body.value
        assert x.init_cap is y.init_cap is star(sym("a"))


class TestParseErrors:
    @pytest.mark.parametrize(
        "src",
        [
            "beh[<Unit>]{ Unit(m) => }",
            "msg x : Unit msg x : Unit beh[<Unit>]{ Unit(m) => beh[eps]{ } }",
            "msg Unit : Unit beh[<Unit>]{ Unit(m) => beh[eps]{ } }",
            "beh[<undeclared>]{ }",
            "beh[<Unit>]{ Unit(m) => split p as x: Nat, x: Nat in 1 }",
            "beh[<Unit>]{ Unit(m) => q.3 }",
            "beh[<Unit>",
            "(fun f(s: Nat): Nat ! eps => s) 1 trailing",
        ],
    )
    def test_rejected(self, src):
        with pytest.raises(ParseError):
            parse_program(src)

    def test_unbound_root_is_rejected(self):
        with pytest.raises(ParseError, match="not closed"):
            parse_program("beh[<Unit>]{ Unit(m) => send[Unit](nowhere, ()) }")

    def test_error_carries_location_and_expectations(self):
        try:
            parse_program("msg t Unit beh[<Unit>]{ }")
        except ParseError as e:
            assert e.loc.line == 1
            assert e.expected == frozenset({":"})
        else:
            pytest.fail("expected a parse error")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "path",
        sorted((CORPUS / "positive").glob("*.acap"))
        + sorted((CORPUS / "negative").glob("*.acap")),
        ids=lambda p: p.name,
    )
    def test_corpus_roundtrip(self, path):
        prog = parse_program(path.read_text())
        printed = pretty_print(prog)
        assert same_tree(parse_program(printed), prog)

    def test_roundtrip_is_a_fixpoint(self):
        prog = parse_program((CORPUS / "positive" / "fanin.acap").read_text())
        once = pretty_print(prog)
        assert pretty_print(parse_program(once)) == once

    def test_nested_operators_keep_parens(self):
        src = "beh[<Unit>]{ Unit(m) => let z = (1 + 2) * (3 - 4 / 2) in beh[eps]{ } }"
        prog = parse_program(src)
        assert same_tree(parse_program(pretty_print(prog)), prog)


class TestFreeVars:
    def test_binders(self):
        e = parse_expr("let x = 1 in x + y")
        assert e.free == {"y"}

    def test_fun_binds_self_and_param(self):
        e = parse_expr("fun f(x: Nat): Nat ! eps => f x + z")
        assert e.free == {"z"}

    def test_split_consumes_and_binds(self):
        e = parse_expr(
            "split p as l: Nat, r: Nat in l + r + q",
        )
        assert e.free == {"p", "q"}

    def test_same_long_chain_parses_twice(self):
        # Free variables live on each node, so two equal 400-deep trees are
        # never compared against each other.
        lets = "".join(f"let x{i} = {i} in " for i in range(400))
        src = "beh[<Unit>]{ Unit(m) => " + lets + "beh[eps]{ } }"
        for _ in range(2):
            assert parse_program(src).root.free == frozenset()


class TestLetChains:
    def test_chain_builds_nested_lets(self):
        text = "let x = let y = 1 in y in let z = x in z"
        e = parse_expr(text)
        assert same_tree(e, Let(
            "x", Let("y", NatLit(1), Var(Path("y"))),
            Let("z", Var(Path("x")), Var(Path("z"))),
        ))
        outer, inner = locate(text, [e.loc, e.body.loc])
        assert (outer.col, inner.col) == (1, 27)

    def test_equality_and_hash_of_a_deep_chain_do_not_recurse(self):
        # Nodes compare by identity: two parses of one 5,000-let chain are
        # two trees, and neither `==` nor `hash` walks them.
        lets = "".join(f"let x{i} = {i} in " for i in range(5000))
        a, b = (parse_program(lets + "beh[<Unit>]{ }").root for _ in range(2))
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2
        assert same_tree(a, b)
        changed = parse_program(lets.replace("x4999 = 4999", "x4999 = 0") + "beh[<Unit>]{ }")
        assert not same_tree(a, changed.root)

    def test_800_let_chain_checks_and_runs_monitored(self):
        sends = "".join(f"let u{i} = send[d](t, ()) in " for i in range(1, 800))
        src = (
            "msg d : Unit\n"
            "beh[<Unit>]{ Unit(m) =>\n"
            "  let t = spawn((fun mk(s: Nat): Beh[<d>*] ! eps =>"
            " beh[<d>*]{ d(x) => mk s }) 0)\n"
            f"  in {sends}beh[eps]{{ }} }}\n"
        )
        prog = parse_program(src)
        typed = check_program(prog)
        tr = Trace(seed=0)
        cfg = init_config(prog, typed=typed, trace=tr)
        trace, outcome = run(cfg, typed=typed, seed=0, trace=tr)
        assert outcome == "quiescent"
        assert trace.violations() == []
        assert sum(e.kind == "deliver" for e in trace.events) == 800


class TestProgramHelpers:
    def test_payload_lookup(self):
        prog = parse_program("msg hit : Nat beh[<Unit>]{ Unit(m) => beh[eps]{ } }")
        from actorcap.syntax import NAT, UNIT

        assert prog.payload_type(MsgType("hit")) == NAT
        assert prog.payload_type(MsgType("Unit")) == UNIT
        with pytest.raises(KeyError):
            prog.payload_type(MsgType("nope"))

    def test_locations_do_not_affect_equality(self):
        a = parse_program("beh[<Unit>]{ Unit(m) =>\n beh[eps]{ } }")
        b = parse_program("beh[<Unit>]{ Unit(m) => beh[eps]{ } }")
        assert same_tree(a, b)
        assert isinstance(a, Program)
