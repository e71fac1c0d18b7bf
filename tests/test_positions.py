"""Node positions: token indices, turned into lines and columns when read.

The parser gives each node the index of its first token (a binary
operator's is its operator's, an application's its function's). An error
is located once, when its position or text is first read, and warnings
when they are reported. The oracle scanner (`naive_tokenize`) steps line
and column one character at a time, so it says where each indexed token
is.
"""

import pathlib
import re
import sys

import pytest

from actorcap import syntax
from actorcap.checker import Checker, ErrorCode, TypeCheckError, check_program, env_join
from actorcap.cli import EXIT_PARSE_ERROR, EXIT_TYPE_ERROR, main
from actorcap.runtime import Trace, init_config, run
from actorcap.syntax import (
    NAT,
    NO_LOC,
    NO_POS,
    BOOL,
    App,
    Beh,
    BinOp,
    BoolLit,
    Expr,
    Fun,
    If,
    Let,
    Loc,
    MsgDecl,
    NatLit,
    Not,
    Pair,
    ParseError,
    Path,
    Program,
    SelfCap,
    Send,
    Spawn,
    Split,
    UnitLit,
    Var,
    locate,
    parse_program,
)

from naive_tokenize import naive_tokenize

ROOT = pathlib.Path(__file__).parent.parent
CORPUS = sorted((ROOT / "corpus").glob("*/*.acap"))
POSITIVE = sorted((ROOT / "corpus" / "positive").glob("*.acap"))
NEGATIVE = sorted((ROOT / "corpus" / "negative").glob("*.acap"))
sys.path.insert(0, str(ROOT / "bench"))
import gen  # noqa: E402  (the benchmark's program generators)

# The text of the token a node's position names, by the node's class.
LEAD = {
    MsgDecl: lambda n: "msg",
    NatLit: lambda n: str(n.value),
    BoolLit: lambda n: "true" if n.value else "false",
    UnitLit: lambda n: "(",
    Pair: lambda n: "(",
    BinOp: lambda n: n.op,
    Not: lambda n: "!",
    If: lambda n: "if",
    Fun: lambda n: "fun",
    SelfCap: lambda n: "self",
    Beh: lambda n: "beh",
    Spawn: lambda n: "spawn",
    Send: lambda n: "send",
    Split: lambda n: "split",
    Let: lambda n: "let",
    Var: lambda n: n.path.base,
}


def nodes(program: Program) -> list:
    """Every message declaration and expression node of `program`."""
    out, stack = list(program.msg_decls), [program.root]
    while stack:
        e = stack.pop()
        out.append(e)
        for name in e.__dataclass_fields__:
            v = getattr(e, name)
            if isinstance(v, Expr):
                stack.append(v)
            elif name == "cases":
                stack.extend(c.body for c in v)
    return out


SOURCES = [(p.relative_to(ROOT / "corpus").as_posix(), p.read_text()) for p in CORPUS]
SOURCES += [("chain-200", gen.chain_program(200, "t")),
            ("fanin-3x3", gen.fanin_program(3, 3, "t"))]


@pytest.mark.parametrize("src", [s for _, s in SOURCES], ids=[n for n, _ in SOURCES])
def test_each_node_is_at_its_first_token(src):
    program = parse_program(src)
    found = nodes(program)
    toks = naive_tokenize(src)
    locs = locate(src, [n.loc for n in found])
    for node, loc in zip(found, locs):
        if isinstance(node, App):
            assert node.loc == node.fn.loc
            continue
        _, text, line, col = toks[node.loc]
        assert (text, loc) == (LEAD[type(node)](node), Loc(line, col)), node


def test_the_sources_hold_most_node_kinds():
    seen = {type(n) for _, src in SOURCES for n in nodes(parse_program(src))}
    assert seen >= {MsgDecl, NatLit, Let, Var, Beh, Spawn, Send, Split, If, App}


@pytest.fixture
def resolved(monkeypatch):
    """Every call of `locate`, from any module of the package, as a list of
    the positions it was asked for."""
    calls = []
    real = syntax.locate

    def spy(src, positions):
        calls.append(list(positions))
        return real(src, positions)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "actorcap" and getattr(module, "locate", None) is real:
            monkeypatch.setattr(module, "locate", spy)
    return calls


def test_a_correct_program_resolves_no_position(resolved, capsys):
    for path in POSITIVE:
        program = parse_program(path.read_text())
        typed = check_program(program)
        trace = Trace(seed=0)
        config = init_config(program, typed=typed, monitor=True, trace=trace)
        run(config, typed=typed, seed=0, monitor=True, trace=trace)
        for cmd in ("check", "run", "explore"):
            assert main([cmd, str(path)]) == 0
    capsys.readouterr()
    assert resolved == []


def test_the_spy_sees_reported_positions(resolved, tmp_path, capsys):
    # Raising locates nothing; the first read of the position or the text,
    # whichever it is, locates once, and later reads reuse it.
    negative = (ROOT / "corpus" / "negative" / "self_split.acap").read_text()
    reads = {
        "str": str,
        "loc": lambda e: e.loc,
        "render": lambda e: e.render(),
        "to_json_obj": lambda e: e.to_json_obj(),
    }
    parse_reads = {k: v for k, v in reads.items() if k != "to_json_obj"}
    cases = [
        (TypeCheckError, lambda: check_program(parse_program(negative)), reads),
        # One error from the tokenizer, one from the parser.
        (ParseError, lambda: parse_program("beh[<Unit>]{ Unit(m) => ? }"), parse_reads),
        (ParseError, lambda: parse_program("beh[<Unit>]{ Unit(m) => }"), parse_reads),
    ]
    for error, reject, error_reads in cases:
        for name, first in error_reads.items():
            with pytest.raises(error) as e:
                reject()
            assert resolved == [], name
            first(e.value)
            for read in error_reads.values():
                read(e.value)
                read(e.value)
            assert len(resolved) == 1, name
            resolved.clear()
    # A JSON report reads the line and the column apart.
    for name, src, code in [
        ("type.acap", "if true then 1 else false", EXIT_TYPE_ERROR),
        ("parse.acap", "beh[<Unit>]{ Unit(m) => ? }", EXIT_PARSE_ERROR),
    ]:
        path = tmp_path / name
        path.write_text(src)
        assert main(["check", str(path), "--format", "json"]) == code
        assert '"span":{"line":1,"col":' in capsys.readouterr().out
        assert len(resolved) == 1, name
        resolved.clear()


@pytest.mark.parametrize("path", NEGATIVE, ids=[p.stem for p in NEGATIVE])
def test_a_rejected_program_is_located_only_when_read(path, resolved, capsys):
    src = path.read_text()
    expected = re.search(r"-- expect: (\w+)", src).group(1)
    with pytest.raises(TypeCheckError) as e:
        check_program(parse_program(src))
    assert e.value.code.value == expected
    assert resolved == []
    assert main(["check", str(path)]) == EXIT_TYPE_ERROR
    assert capsys.readouterr().err == str(e.value) + "\n"


def test_warnings_are_resolved_in_one_pass(resolved):
    src = (
        "msg d : Unit\n"
        "beh[<Unit>]{ Unit(m) =>\n"
        "  let a = spawn(beh[<d>]{ d(x) => beh[eps]{ } })\n"
        "  in let b = spawn(beh[<d>]{ d(x) => beh[eps]{ } })\n"
        "  in beh[eps]{ } }\n"
    )
    typed = check_program(parse_program(src), warn_dropped=True)
    assert [(w.name, w.loc) for w in typed.warnings] == [
        ("a", Loc(4, 38)), ("a", Loc(4, 20)), ("b", Loc(5, 6))]
    assert len(resolved) == 1


def test_error_at_token_zero_is_at_1_1(tmp_path, capsys):
    src = "if true then 1 else false"
    with pytest.raises(TypeCheckError) as e:
        check_program(parse_program(src))
    assert e.value.code == ErrorCode.TypeMismatch
    assert e.value.loc == Loc(1, 1)
    assert e.value.render().startswith("TypeMismatch @ 1:1 - branches disagree")
    path = tmp_path / "root_if.acap"
    path.write_text(src)
    assert main(["check", str(path), "--format", "json"]) == EXIT_TYPE_ERROR
    assert '"span":{"line":1,"col":1}' in capsys.readouterr().out


def test_token_zero_is_not_mistaken_for_no_position():
    # Position 0 is falsy; the checker must pass it on as it is.
    with pytest.raises(TypeCheckError) as e:
        env_join({"x": NAT}, {"x": BOOL}, 0)
    assert e.value.loc == 0
    checker = Checker(Program((), UnitLit()))
    with pytest.raises(TypeCheckError) as e:
        checker.apply_send_path({"r": NAT}, Path("r"), "a", 0)
    assert e.value.loc == 0
    assert locate("x", [0, NO_POS]) == [Loc(1, 1), NO_LOC]


def test_a_program_built_by_hand_is_at_0_0():
    with pytest.raises(TypeCheckError) as e:
        check_program(Program((), NatLit(1)))
    assert e.value.loc == NO_LOC
    assert str(e.value).startswith("TypeMismatch @ 0:0 - root must be a behaviour")
