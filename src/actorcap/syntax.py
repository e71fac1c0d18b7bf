"""Surface syntax for the actor language: AST, parser and pretty-printer.

Source files (`.acap`) declare nominal message types and one root
expression.  Message declarations intern to alphabet symbols; the built-in
message `Unit` (payload `Unit`) is always declared.  Splitting an actor
reference is an explicit expression form, which keeps type environments
plain maps and the checker syntax-directed.

Locations are attached to every expression node but excluded from equality,
so a pretty-printed program re-parses to an equal `Program`.

Lexical syntax: blanks are space, tab, CR and LF, and `--` starts a
comment that runs to the end of the line. Names start with a letter or `_`
and go on with letters, digits or `_` (Unicode letters included); numbers
are runs of decimal digits. `[...]` holds a protocol or a message name and
may span lines. Any other character, a non-decimal digit such as `²`
included, is a parse error (exit 4).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .lang import (
    EMPTY,
    EPS,
    LangExpr,
    LangParseError,
    MsgType,
    UNIT_MSG,
    lang_to_text,
    parse_lang,
    symbols,
)


class Loc(NamedTuple):
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NO_LOC = Loc(0, 0)


class ParseError(Exception):
    def __init__(self, message: str, loc: Loc, expected: frozenset[str] = frozenset()):
        detail = f"parse error @ {loc} - {message}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)
        self.message = message
        self.loc = loc
        self.expected = expected


# ---------------------------------------------------------------------------
# Types


class TypeExpr:
    __slots__ = ()

    def __str__(self) -> str:
        return type_to_text(self)


@dataclass(frozen=True)
class BoolT(TypeExpr):
    pass


@dataclass(frozen=True)
class NatT(TypeExpr):
    pass


@dataclass(frozen=True)
class UnitT(TypeExpr):
    pass


@dataclass(frozen=True)
class ProdT(TypeExpr):
    first: TypeExpr
    second: TypeExpr


@dataclass(frozen=True)
class FunT(TypeExpr):
    param: TypeExpr
    latent: LangExpr
    result: TypeExpr


@dataclass(frozen=True)
class ActorRefT(TypeExpr):
    lang: LangExpr


@dataclass(frozen=True)
class BehT(TypeExpr):
    lang: LangExpr


BOOL = BoolT()
NAT = NatT()
UNIT = UnitT()


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Path:
    base: str
    sels: tuple[int, ...] = ()

    def __str__(self) -> str:
        return self.base + "".join(f".{i}" for i in self.sels)


class Expr:
    """Base of expression nodes.

    Every node carries `free`, its free variables, computed once when the
    node is built.  Children are built first, so this takes constant stack
    depth however deep the tree; it is not a dataclass field, so equality,
    hashing and repr ignore it.
    """

    __slots__ = ()

    def __post_init__(self):
        object.__setattr__(self, "free", _free(self))


@dataclass(frozen=True)
class NatLit(Expr):
    value: int
    loc: Loc = field(compare=False, default=NO_LOC)


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool
    loc: Loc = field(compare=False, default=NO_LOC)


@dataclass(frozen=True)
class UnitLit(Expr):
    loc: Loc = field(compare=False, default=NO_LOC)


@dataclass(frozen=True)
class Pair(Expr):
    first: Expr
    second: Expr
    loc: Loc = field(compare=False, default=NO_LOC)


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / && ||
    left: Expr
    right: Expr
    loc: Loc = field(compare=False, default=NO_LOC)


@dataclass(frozen=True)
class Not(Expr):
    expr: Expr
    loc: Loc = field(compare=False, default=NO_LOC)


@dataclass(frozen=True)
class If(Expr):
    cond: Expr
    then_branch: Expr
    else_branch: Expr
    loc: Loc = field(compare=False, default=NO_LOC)


@dataclass(frozen=True)
class Fun(Expr):
    self_name: str
    param: str
    param_type: TypeExpr
    ret_type: TypeExpr
    latent: LangExpr
    body: Expr
    loc: Loc = field(compare=False, default=NO_LOC)


@dataclass(frozen=True)
class App(Expr):
    fn: Expr
    arg: Expr
    loc: Loc = field(compare=False, default=NO_LOC)


@dataclass(frozen=True)
class SelfCap(Expr):
    lang: LangExpr
    loc: Loc = field(compare=False, default=NO_LOC)


@dataclass(frozen=True)
class Case:
    label: MsgType
    binder: str
    body: Expr


@dataclass(frozen=True)
class Beh(Expr):
    annot: LangExpr
    cases: tuple[Case, ...]
    loc: Loc = field(compare=False, default=NO_LOC)


@dataclass(frozen=True)
class Spawn(Expr):
    init_cap: LangExpr | None  # None means the behaviour's full language
    expr: Expr
    loc: Loc = field(compare=False, default=NO_LOC)


@dataclass(frozen=True)
class Send(Expr):
    msg: MsgType
    target: Path
    payload: Expr
    loc: Loc = field(compare=False, default=NO_LOC)


@dataclass(frozen=True)
class Split(Expr):
    path: Path
    name1: str
    type1: TypeExpr
    name2: str
    type2: TypeExpr
    body: Expr
    loc: Loc = field(compare=False, default=NO_LOC)


@dataclass(frozen=True)
class Let(Expr):
    name: str
    value: Expr
    body: Expr
    loc: Loc = field(compare=False, default=NO_LOC)


@dataclass(frozen=True)
class Var(Expr):
    path: Path
    loc: Loc = field(compare=False, default=NO_LOC)


@dataclass(frozen=True)
class MsgDecl:
    name: str
    payload: TypeExpr
    loc: Loc = field(compare=False, default=NO_LOC)


@dataclass(frozen=True)
class Program:
    msg_decls: tuple[MsgDecl, ...]
    root: Expr

    def payload_type(self, msg: MsgType) -> TypeExpr:
        if msg == UNIT_MSG:
            return UNIT
        for d in self.msg_decls:
            if d.name == msg:
                return d.payload
        raise KeyError(msg)


def _free(e: Expr) -> frozenset[str]:
    match e:
        case NatLit() | BoolLit() | UnitLit() | SelfCap():
            return frozenset()
        case Var(path):
            return frozenset({path.base})
        case Pair(a, b) | BinOp(_, a, b) | App(a, b):
            return a.free | b.free
        case Not(x) | Spawn(_, x):
            return x.free
        case If(c, t, f):
            return c.free | t.free | f.free
        case Fun(self_name, param, _, _, _, body):
            return body.free - {self_name, param}
        case Beh(_, cases):
            out = frozenset()
            for c in cases:
                out |= c.body.free - {c.binder}
            return out
        case Send(_, target, payload):
            return frozenset({target.base}) | payload.free
        case Split(path, n1, _, n2, _, body):
            return frozenset({path.base}) | (body.free - {n1, n2})
        case Let(name, value, body):
            return value.free | (body.free - {name})
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Tokenizer

_KEYWORDS = {
    "msg", "beh", "spawn", "send", "self", "split", "as", "in", "let",
    "fun", "if", "then", "else", "true", "false",
    "Bool", "Nat", "Unit", "ActorRef", "Beh",
}

# Alternatives are tried in order at each offset: blanks and comments are
# unnamed, so they match and are skipped; `BAD` is any other character.
_TOKEN = re.compile(r"""
    (?P<NL>\n)
  | [ \t\r]+ | --[^\n]*
  | \[(?P<LANG>[^\]]*)\]
  | (?P<NAT>\d+)
  | (?P<WORD>[^\W\d]\w*)
  | (?P<PUNCT>=> | -> | && | \|\| | [(){}<>,:.*+\-/!=&|#])
  | (?P<BAD>.)
""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str  # NAME, NAT, LANG, EOF, keyword or punctuation text
    text: str
    loc: Loc


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0  # line_start: offset of the line's first character
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind is None:
            continue
        start = m.start()
        if kind == "NL":
            line += 1
            line_start = start + 1
            continue
        text = m.group(kind)
        loc = Loc(line, start - line_start + 1)
        if kind == "WORD":
            # `[^\W\d]` also admits non-decimal digits and other numerals.
            if not (text[0].isalpha() or text[0] == "_"):
                raise ParseError(f"unexpected character {text[0]!r}", loc)
            kind = text if text in _KEYWORDS else "NAME"
        elif kind == "PUNCT":
            kind = text
        elif kind == "LANG":
            # Bracketed annotations (languages, or a message name for send)
            # are captured raw and may span lines; the consumer reads them.
            if "\n" in text:
                line += text.count("\n")
                line_start = start + 2 + text.rindex("\n")
        elif kind == "BAD":
            if text == "[":
                raise ParseError("unterminated '['", loc)
            raise ParseError(f"unexpected character {text!r}", loc)
        toks.append(Token(kind, text, loc))
    toks.append(Token("EOF", "", Loc(line, len(src) - line_start + 1)))
    return toks


# ---------------------------------------------------------------------------
# Parser

# Precedence levels, one table for the parser and the printer.
_STMT, _OR, _AND, _ADD, _MUL, _UNARY, _APP, _PRIM = range(8)

_BINOP_LEVEL = {"||": _OR, "&&": _AND, "+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL}


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0
        self.alphabet: set[MsgType] = {UNIT_MSG}

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def take(self, kind: str) -> Token | None:
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                f"unexpected {t.kind or 'end of input'!s} {t.text!r}",
                t.loc,
                frozenset({kind}),
            )
        return self.next()

    # -- languages and message names inside [...] tokens

    def lang_token(self) -> LangExpr:
        t = self.expect("LANG")
        try:
            l = parse_lang(t.text)
        except LangParseError as e:
            raise ParseError(f"bad language: {e}", t.loc) from None
        undeclared = symbols(l) - self.alphabet
        if undeclared:
            names = ", ".join(sorted(undeclared))
            raise ParseError(f"undeclared message symbol(s): {names}", t.loc)
        return l

    def msg_token(self) -> MsgType:
        t = self.expect("LANG")
        name = t.text.strip()
        if not name.isidentifier():
            raise ParseError(f"expected a message name, got {t.text!r}", t.loc)
        if name not in self.alphabet:
            raise ParseError(f"undeclared message symbol(s): {name}", t.loc)
        return name

    # -- types

    def type_expr(self) -> TypeExpr:
        t = self.type_prod()
        if self.at("-"):
            # latent-effect arrow: T -[L]-> T
            self.next()
            latent = self.lang_token()
            self.expect("->")
            result = self.type_expr()
            return FunT(t, latent, result)
        return t

    def type_prod(self) -> TypeExpr:
        t = self.type_atom()
        while self.take("*"):
            t = ProdT(t, self.type_atom())
        return t

    def type_atom(self) -> TypeExpr:
        t = self.peek()
        if self.take("Bool"):
            return BOOL
        if self.take("Nat"):
            return NAT
        if self.take("Unit"):
            return UNIT
        if self.take("ActorRef"):
            return ActorRefT(self.lang_token())
        if self.take("Beh"):
            return BehT(self.lang_token())
        if self.take("("):
            inner = self.type_expr()
            self.expect(")")
            return inner
        raise ParseError(
            f"expected a type, got {t.text!r}", t.loc,
            frozenset({"Bool", "Nat", "Unit", "ActorRef", "Beh", "("}),
        )

    # -- expressions

    def expr(self) -> Expr:
        t = self.peek()
        if t.kind == "fun":
            return self.fun_expr()
        if t.kind == "let":
            return self.let_expr()
        if t.kind == "split":
            return self.split_expr()
        if t.kind == "if":
            return self.if_expr()
        return self.binary()

    def fun_expr(self) -> Expr:
        loc = self.expect("fun").loc
        self_name = self.expect("NAME").text
        self.expect("(")
        param = self.expect("NAME").text
        self.expect(":")
        param_type = self.type_expr()
        self.expect(")")
        self.expect(":")
        ret_type = self.type_expr()
        self.expect("!")
        latent = self.lang_inline()
        self.expect("=>")
        body = self.expr()
        return Fun(self_name, param, param_type, ret_type, latent, body, loc)

    def lang_inline(self) -> LangExpr:
        # A latent effect is written bare (commonly `eps`) or bracketed.
        if self.at("LANG"):
            return self.lang_token()
        t = self.peek()
        if t.kind == "NAME" and t.text == "eps":
            self.next()
            return EPS
        if t.kind == "NAT" and t.text == "0":
            self.next()
            return EMPTY
        raise ParseError(
            "expected a latent effect (eps, 0 or [language])", t.loc,
            frozenset({"eps", "0", "["}),
        )

    def let_expr(self) -> Expr:
        # A chain `let x = v in let y = w in ...` is read head by head and
        # built right to left, so its length costs no stack depth.
        heads = []
        while self.at("let"):
            loc = self.next().loc
            name = self.expect("NAME").text
            self.expect("=")
            value = self.expr()
            self.expect("in")
            heads.append((name, value, loc))
        body = self.expr()
        for name, value, loc in reversed(heads):
            body = Let(name, value, body, loc)
        return body

    def split_expr(self) -> Expr:
        loc = self.expect("split").loc
        path = self.path()
        self.expect("as")
        n1 = self.expect("NAME").text
        self.expect(":")
        t1 = self.type_expr()
        self.expect(",")
        n2 = self.expect("NAME").text
        self.expect(":")
        t2 = self.type_expr()
        if n1 == n2:
            raise ParseError(f"split names must be distinct, got {n1!r} twice", loc)
        self.expect("in")
        body = self.expr()
        return Split(path, n1, t1, n2, t2, body, loc)

    def if_expr(self) -> Expr:
        loc = self.expect("if").loc
        cond = self.expr()
        self.expect("then")
        then_branch = self.expr()
        self.expect("else")
        else_branch = self.expr()
        return If(cond, then_branch, else_branch, loc)

    def binary(self, min_lvl: int = _OR) -> Expr:
        """Left-associative binary operators of `_BINOP_LEVEL` at `min_lvl`
        or tighter, by precedence climbing."""
        e = self.unary_expr()
        while (lvl := _BINOP_LEVEL.get(self.peek().kind, _STMT)) >= min_lvl:
            op = self.next()
            e = BinOp(op.kind, e, self.binary(lvl + 1), op.loc)
        return e

    def unary_expr(self) -> Expr:
        if self.at("!"):
            loc = self.next().loc
            return Not(self.unary_expr(), loc)
        return self.app_expr()

    _PRIMARY_START = ("NAT", "true", "false", "(", "self", "beh", "spawn",
                      "send", "NAME")

    def app_expr(self) -> Expr:
        e = self.primary()
        while self.peek().kind in self._PRIMARY_START:
            arg = self.primary()
            e = App(e, arg, e.loc)
        return e

    def primary(self) -> Expr:
        t = self.peek()
        if t.kind == "NAT":
            self.next()
            return NatLit(int(t.text), t.loc)
        if t.kind == "true":
            self.next()
            return BoolLit(True, t.loc)
        if t.kind == "false":
            self.next()
            return BoolLit(False, t.loc)
        if t.kind == "(":
            self.next()
            if self.take(")"):
                return UnitLit(t.loc)
            first = self.expr()
            if self.take(","):
                second = self.expr()
                self.expect(")")
                return Pair(first, second, t.loc)
            self.expect(")")
            return first
        if t.kind == "self":
            self.next()
            return SelfCap(self.lang_token(), t.loc)
        if t.kind == "beh":
            return self.beh_expr()
        if t.kind == "spawn":
            self.next()
            init = self.lang_token() if self.at("LANG") else None
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return Spawn(init, inner, t.loc)
        if t.kind == "send":
            self.next()
            msg = self.msg_token()
            self.expect("(")
            target = self.path()
            self.expect(",")
            payload = self.expr()
            self.expect(")")
            return Send(msg, target, payload, t.loc)
        if t.kind == "NAME":
            return Var(self.path(), t.loc)
        raise ParseError(
            f"expected an expression, got {t.text!r}", t.loc,
            frozenset(self._PRIMARY_START),
        )

    def beh_expr(self) -> Expr:
        loc = self.expect("beh").loc
        annot = self.lang_token()
        self.expect("{")
        cases: list[Case] = []
        if not self.at("}"):
            cases.append(self.case())
            while self.take("|"):
                cases.append(self.case())
        self.expect("}")
        return Beh(annot, tuple(cases), loc)

    def case(self) -> Case:
        name_tok = self.next() if self.at("Unit") else self.expect("NAME")
        label = name_tok.text
        if label not in self.alphabet:
            raise ParseError(f"undeclared message symbol(s): {label}", name_tok.loc)
        self.expect("(")
        binder = self.expect("NAME").text
        self.expect(")")
        self.expect("=>")
        body = self.expr()
        return Case(label, binder, body)

    def path(self) -> Path:
        base = self.expect("NAME").text
        sels: list[int] = []
        while self.at(".") and self.peek(1).kind == "NAT":
            self.next()
            sel_tok = self.expect("NAT")
            if sel_tok.text not in ("1", "2"):
                raise ParseError(
                    f"path selector must be 1 or 2, got {sel_tok.text}", sel_tok.loc
                )
            sels.append(int(sel_tok.text))
        return Path(base, tuple(sels))

    # -- program

    def program(self) -> Program:
        decls: list[MsgDecl] = []
        names: set[str] = set()
        # Pre-scan declaration names so payload types may reference each
        # other regardless of declaration order.
        for i, tok in enumerate(self.toks):
            if tok.kind == "msg" and self.toks[i + 1].kind == "NAME":
                self.alphabet.add(self.toks[i + 1].text)
        while self.at("msg"):
            loc = self.next().loc
            name = self.expect("NAME").text
            if name == "Unit" or name in names:
                raise ParseError(f"duplicate message declaration {name!r}", loc)
            self.expect(":")
            payload = self.type_expr()
            names.add(name)
            self.alphabet.add(name)
            decls.append(MsgDecl(name, payload, loc))
        root = self.expr()
        eof = self.peek()
        if eof.kind != "EOF":
            raise ParseError(f"trailing input {eof.text!r}", eof.loc)
        if root.free:
            raise ParseError(
                "root expression is not closed; unbound: "
                + ", ".join(sorted(root.free)),
                eof.loc,
            )
        return Program(tuple(decls), root)


def parse_program(text: str) -> Program:
    return _Parser(tokenize(text)).program()


# ---------------------------------------------------------------------------
# Pretty-printer


def type_to_text(t: TypeExpr) -> str:
    match t:
        case BoolT():
            return "Bool"
        case NatT():
            return "Nat"
        case UnitT():
            return "Unit"
        case ProdT(a, b):
            sa = type_to_text(a)
            sb = type_to_text(b)
            if isinstance(a, (ProdT, FunT)):
                sa = f"({sa})"
            if isinstance(b, (ProdT, FunT)):
                sb = f"({sb})"
            return f"{sa} * {sb}"
        case FunT(p, latent, r):
            sp = type_to_text(p)
            if isinstance(p, FunT):
                sp = f"({sp})"
            return f"{sp} -[{lang_to_text(latent)}]-> {type_to_text(r)}"
        case ActorRefT(l):
            return f"ActorRef[{lang_to_text(l)}]"
        case BehT(l):
            return f"Beh[{lang_to_text(l)}]"
    raise TypeError(f"not a type: {t!r}")


def expr_to_text(e: Expr, ctx: int = _STMT) -> str:
    match e:
        case NatLit(v):
            return str(v)
        case BoolLit(v):
            return "true" if v else "false"
        case UnitLit():
            return "()"
        case Var(path):
            return str(path)
        case Pair(a, b):
            return f"({expr_to_text(a)}, {expr_to_text(b)})"
        case SelfCap(l):
            return f"self[{lang_to_text(l)}]"
        case Send(msg, target, payload):
            return f"send[{msg}]({target}, {expr_to_text(payload)})"
        case Spawn(init, inner):
            ann = f"[{lang_to_text(init)}]" if init is not None else ""
            return f"spawn{ann}({expr_to_text(inner)})"
        case Beh(annot, cases):
            if not cases:
                return f"beh[{lang_to_text(annot)}]{{ }}"
            body = "\n| ".join(
                f"{c.label}({c.binder}) =>\n    {expr_to_text(c.body)}"
                for c in cases
            )
            return f"beh[{lang_to_text(annot)}]{{\n  {body}\n}}"
        case Not(x):
            s = f"!{expr_to_text(x, _UNARY)}"
            return _wrap(s, _UNARY, ctx)
        case BinOp(op, a, b):
            lvl = _BINOP_LEVEL[op]
            s = f"{expr_to_text(a, lvl)} {op} {expr_to_text(b, lvl + 1)}"
            return _wrap(s, lvl, ctx)
        case App(f, a):
            s = f"{expr_to_text(f, _APP)} {expr_to_text(a, _PRIM)}"
            return _wrap(s, _APP, ctx)
        case If(c, t, f):
            s = (
                f"if {expr_to_text(c)} then {expr_to_text(t)} "
                f"else {expr_to_text(f)}"
            )
            return _wrap(s, _STMT, ctx)
        case Fun(sn, p, pt, rt, latent, body):
            s = (
                f"fun {sn}({p}: {type_to_text(pt)}): {type_to_text(rt)} "
                f"! [{lang_to_text(latent)}] =>\n  {expr_to_text(body)}"
            )
            return _wrap(s, _STMT, ctx)
        case Let():
            # A chain of lets is printed along its right spine in a loop, so
            # its length is not bounded by the Python stack.
            heads = []
            while isinstance(e, Let):
                heads.append(f"let {e.name} = {expr_to_text(e.value, _OR)}\nin ")
                e = e.body
            return _wrap("".join(heads) + expr_to_text(e), _STMT, ctx)
        case Split(path, n1, t1, n2, t2, body):
            s = (
                f"split {path} as {n1}: {type_to_text(t1)}, "
                f"{n2}: {type_to_text(t2)}\nin {expr_to_text(body)}"
            )
            return _wrap(s, _STMT, ctx)
    raise TypeError(f"not an expression: {e!r}")


def _wrap(s: str, lvl: int, ctx: int) -> str:
    return f"({s})" if ctx > lvl else s


def pretty_print(p: Program) -> str:
    lines = [f"msg {d.name} : {type_to_text(d.payload)}" for d in p.msg_decls]
    if lines:
        lines.append("")
    lines.append(expr_to_text(p.root))
    return "\n".join(lines) + "\n"
