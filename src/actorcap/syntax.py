"""Surface syntax for the actor language: AST, parser and pretty-printer.

Source files (`.acap`) declare nominal message types and one root
expression.  Message declarations intern to alphabet symbols; the built-in
message `Unit` (payload `Unit`) is always declared.  Splitting an actor
reference is an explicit expression form, which keeps type environments
plain maps and the checker syntax-directed.

AST nodes and types are slotted dataclasses, immutable by convention:
nothing assigns to a field once the record is built, and
`tests/test_immutability.py` scans the source for such stores.  Types
compare structurally.  Expression nodes and `Case`s compare and hash by
identity, so two parses of one text are two trees; a pretty-printed
program re-parses to a tree that differs only in its positions.

Lexical syntax: blanks are space, tab, CR and LF, and `--` starts a
comment that runs to the end of the line. Names start with a letter or `_`
and go on with letters, digits or `_` (Unicode letters included); numbers
are runs of decimal digits. `[...]` holds a protocol or a message name and
may span lines. Any other character, a non-decimal digit such as `²`
included, is a parse error (exit 4).

`tokenize` reads every token's text with one call of one regular
expression, each match taking the blanks and comments before its token.
Kinds come from the texts through a table made for the call: keywords and
punctuation are listed, names and numbers are classified by their first
character when first met, and only bracketed texts, text outside ASCII and
bad characters by a slower test. A node's position is its first token's
index; `locate` rescans the source for the lines and columns of positions
that are read. An error (`SourceError`) keeps its token index when raised
and is located, once, when its position or text is first read. The parser
parses each distinct `[...]` text once.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice
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
NO_POS = -1


class SourceError(Exception):
    """An error at a token of a source text, located and worded when read.

    `pos` is the token's index in `source`, or a `Loc` already resolved.
    `loc` is `pos` until `source` is set, then one `locate` call on first
    read, kept.  Only `render` and `str` build the text.
    """

    source: str | None = None
    _loc: Loc | None = None

    def set_source(self, source: str) -> None:
        """Name the text `pos` indexes, so `loc` reads as a line and column."""
        self.source = source

    @property
    def loc(self) -> Loc | int:
        if self.source is None:
            return self.pos
        if self._loc is None:
            self._loc = locate(self.source, [self.pos])[0]
        return self._loc

    def __str__(self) -> str:
        return self.render()


class ParseError(SourceError):
    def __init__(self, message: str, pos: Loc | int, source: str | None = None,
                 expected: frozenset[str] = frozenset()):
        super().__init__(message, pos)  # `args`, and so `repr`, leave out the source
        self.message = message
        self.pos = pos
        self.source = source
        self.expected = expected

    def render(self) -> str:
        detail = f"parse error @ {self.loc} - {self.message}"
        if self.expected:
            detail += " (expected " + ", ".join(sorted(self.expected)) + ")"
        return detail


# ---------------------------------------------------------------------------
# Types


class TypeExpr:
    __slots__ = ()

    def __str__(self) -> str:
        return type_to_text(self)


@dataclass(slots=True, unsafe_hash=True)
class BoolT(TypeExpr):
    pass


@dataclass(slots=True, unsafe_hash=True)
class NatT(TypeExpr):
    pass


@dataclass(slots=True, unsafe_hash=True)
class UnitT(TypeExpr):
    pass


@dataclass(slots=True, unsafe_hash=True)
class ProdT(TypeExpr):
    first: TypeExpr
    second: TypeExpr


@dataclass(slots=True, unsafe_hash=True)
class FunT(TypeExpr):
    param: TypeExpr
    latent: LangExpr
    result: TypeExpr


@dataclass(slots=True, unsafe_hash=True)
class ActorRefT(TypeExpr):
    lang: LangExpr


@dataclass(slots=True, unsafe_hash=True)
class BehT(TypeExpr):
    lang: LangExpr


BOOL = BoolT()
NAT = NatT()
UNIT = UnitT()


# ---------------------------------------------------------------------------
# Expressions


@dataclass(slots=True, unsafe_hash=True)
class Path:
    base: str
    sels: tuple[int, ...] = ()

    def __str__(self) -> str:
        return self.base + "".join(f".{i}" for i in self.sels)


_CLOSED: frozenset[str] = frozenset()  # the free variables of a closed node


@dataclass(slots=True, eq=False)
class Expr:
    """Base of expression nodes.

    Nodes compare and hash by identity, so `==` and `hash` take constant
    time and stack however deep the tree; two parses of one text are two
    trees.  Nodes are immutable by convention: nothing assigns to a field
    once the node is built (`tests/test_immutability.py` checks the source).
    A node's `loc` is the index of its first token (a binary operator's is
    its operator's), `NO_POS` if built by hand; `locate` turns it into a
    line and column only for a reported error or warning.

    Every node carries `free`, its free variables, computed once by its
    class's `__post_init__` from its children's; a literal has none.
    Children are built first, so this takes constant stack depth however
    deep the tree; it is not an `__init__` argument, and repr leaves it
    out.
    """

    free: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self):
        self.free = _CLOSED


@dataclass(slots=True, eq=False)
class NatLit(Expr):
    value: int
    loc: int = NO_POS


@dataclass(slots=True, eq=False)
class BoolLit(Expr):
    value: bool
    loc: int = NO_POS


@dataclass(slots=True, eq=False)
class UnitLit(Expr):
    loc: int = NO_POS


@dataclass(slots=True, eq=False)
class Pair(Expr):
    first: Expr
    second: Expr
    loc: int = NO_POS

    def __post_init__(self):
        self.free = self.first.free | self.second.free


@dataclass(slots=True, eq=False)
class BinOp(Expr):
    op: str  # one of + - * / && ||
    left: Expr
    right: Expr
    loc: int = NO_POS

    def __post_init__(self):
        self.free = self.left.free | self.right.free


@dataclass(slots=True, eq=False)
class Not(Expr):
    expr: Expr
    loc: int = NO_POS

    def __post_init__(self):
        self.free = self.expr.free


@dataclass(slots=True, eq=False)
class If(Expr):
    cond: Expr
    then_branch: Expr
    else_branch: Expr
    loc: int = NO_POS

    def __post_init__(self):
        self.free = self.cond.free | self.then_branch.free | self.else_branch.free


@dataclass(slots=True, eq=False)
class Fun(Expr):
    self_name: str
    param: str
    param_type: TypeExpr
    ret_type: TypeExpr
    latent: LangExpr
    body: Expr
    loc: int = NO_POS

    def __post_init__(self):
        self.free = self.body.free - {self.self_name, self.param}


@dataclass(slots=True, eq=False)
class App(Expr):
    fn: Expr
    arg: Expr
    loc: int = NO_POS

    def __post_init__(self):
        self.free = self.fn.free | self.arg.free


@dataclass(slots=True, eq=False)
class SelfCap(Expr):
    lang: LangExpr
    loc: int = NO_POS


@dataclass(slots=True, eq=False)
class Case:
    label: MsgType
    binder: str
    body: Expr


@dataclass(slots=True, eq=False)
class Beh(Expr):
    annot: LangExpr
    cases: tuple[Case, ...]
    loc: int = NO_POS

    def __post_init__(self):
        out = _CLOSED
        for c in self.cases:
            out |= c.body.free - {c.binder}
        self.free = out


@dataclass(slots=True, eq=False)
class Spawn(Expr):
    init_cap: LangExpr | None  # None means the behaviour's full language
    expr: Expr
    loc: int = NO_POS

    def __post_init__(self):
        self.free = self.expr.free


@dataclass(slots=True, eq=False)
class Send(Expr):
    msg: MsgType
    target: Path
    payload: Expr
    loc: int = NO_POS

    def __post_init__(self):
        self.free = frozenset({self.target.base}) | self.payload.free


@dataclass(slots=True, eq=False)
class Split(Expr):
    path: Path
    name1: str
    type1: TypeExpr
    name2: str
    type2: TypeExpr
    body: Expr
    loc: int = NO_POS

    def __post_init__(self):
        self.free = frozenset({self.path.base}) | (self.body.free - {self.name1, self.name2})


@dataclass(slots=True, eq=False)
class Let(Expr):
    name: str
    value: Expr
    body: Expr
    loc: int = NO_POS

    def __post_init__(self):
        self.free = self.value.free | (self.body.free - {self.name})


@dataclass(slots=True, eq=False)
class Var(Expr):
    path: Path
    loc: int = NO_POS

    def __post_init__(self):
        self.free = frozenset({self.path.base})


@dataclass(slots=True, unsafe_hash=True)
class MsgDecl:
    name: str
    payload: TypeExpr
    loc: int = field(compare=False, default=NO_POS)


@dataclass(slots=True, unsafe_hash=True)
class Program:
    """Message declarations and a root expression.

    `payloads` maps each message name to its payload type, built once with
    the program as `free` is for nodes: the first declaration of a name
    counts, and `Unit` carries `Unit`.  It is not an `__init__` argument,
    and equality, hashing and repr leave it out.
    """

    msg_decls: tuple[MsgDecl, ...]
    root: Expr
    # The text parsed, which `locate` reads; empty for a program built by hand.
    source: str = field(default="", compare=False, repr=False)
    payloads: dict[MsgType, TypeExpr] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        payloads = {d.name: d.payload for d in reversed(self.msg_decls)}
        payloads[UNIT_MSG] = UNIT
        self.payloads = payloads

    def payload_type(self, msg: MsgType) -> TypeExpr:
        """The payload type declared for `msg`; KeyError if none is."""
        return self.payloads[msg]


# ---------------------------------------------------------------------------
# Tokenizer

_KEYWORDS = {
    "msg", "beh", "spawn", "send", "self", "split", "as", "in", "let",
    "fun", "if", "then", "else", "true", "false",
    "Bool", "Nat", "Unit", "ActorRef", "Beh",
}

# Keyword and punctuation tokens are their own kind; `_TOKEN` below admits
# the same punctuation.
_PUNCT = ("=>", "->", "&&", "||", *"(){}<>,:.*+-/!=&|#")
_FIXED = {text: text for text in (*_KEYWORDS, *_PUNCT)}
_FIXED[""] = "EOF"
# The kind of any other token that starts with an ASCII character, by that
# character.
_FIRST = dict.fromkeys("0123456789", "NAT")
_FIRST.update(dict.fromkeys(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "NAME"))

# One match per token, its text the one group: a run of blanks, then
# comments each with the blanks after it, are a prefix of the match. A name
# (keywords included) comes first; a word that starts outside ASCII, where
# `[^\W\d]` also admits non-decimal digits and other numerals, comes after
# the numbers; the empty match at the end of the text ends it, and any
# other character is a token of its own.
_TOKEN = re.compile(r"""
    [ \t\r\n]* (?:--[^\n]*[ \t\r\n]*)*
    ( [A-Za-z_]\w*
    | => | -> | && | \|\| | [(){}<>,:.*+\-/!=&|#]
    | \[[^\]]*\]
    | \d+
    | [^\W\d]\w*
    | \Z
    | .
    )
""", re.VERBOSE | re.DOTALL)


def _indices(items: list, item):
    """The positions of `item` in `items`, in order, each found by `index`."""
    i = -1
    try:
        while True:
            i = items.index(item, i + 1)
            yield i
    except ValueError:
        return


class _Kinds(dict):
    """Token kinds by text, made from `_FIXED` for one `tokenize` call.  A
    text it does not list is classified when first met: by `_FIRST`, else as
    a bracketed text, a name or number outside ASCII, or `BAD` (an unclosed
    `[`, a word that starts with a non-decimal digit or another numeral, or
    a character no token admits)."""

    __slots__ = ()

    def __missing__(self, text: str) -> str:
        c = text[0]
        kind = _FIRST.get(c)
        if kind is None:
            if c == "[":
                kind = "LANG" if len(text) > 1 else "BAD"
            else:
                kind = "NAT" if c.isdecimal() else "NAME" if c.isalpha() else "BAD"
        self[text] = kind
        return kind


@dataclass(slots=True)
class Tokens:
    """A source's tokens as parallel lists, ending with `EOF`.

    `kinds[i]` is `NAME`, `NAT`, `LANG`, `EOF`, or the keyword or
    punctuation text; `texts[i]` is the token's text (a `LANG` token's
    without its brackets).  `locate` finds a token's line and column.
    """

    kinds: list[str]
    texts: list[str]
    src: str

    def __len__(self) -> int:
        return len(self.kinds)


def locate(src: str, positions: Sequence[int]) -> list[Loc]:
    """The line and column of each token of `src` that `positions` indexes
    (`NO_LOC` for `NO_POS`), from one rescan of `src` up to the last one."""
    matches = islice(_TOKEN.finditer(src), max(positions, default=NO_POS) + 1)
    starts = [m.start(1) for m in matches]
    return [NO_LOC if i < 0 else Loc(src.count("\n", 0, starts[i]) + 1,
                                     starts[i] - src.rfind("\n", 0, starts[i]))
            for i in positions]


def tokenize(src: str) -> Tokens:
    texts = _TOKEN.findall(src)
    if len(texts) > 1 and not texts[-2]:
        # After a tail of blanks or a comment, the end matches once more.
        texts.pop()
    kinds = list(map(_Kinds(_FIXED).__getitem__, texts))
    if "BAD" in kinds:
        i = kinds.index("BAD")
        text = texts[i]
        message = ("unterminated '['" if text == "["
                   else f"unexpected character {text[0]!r}")
        raise ParseError(message, i, src)
    # Bracketed annotations (languages, or a message name for send) are
    # captured raw and may span lines; the consumer reads them. The token
    # starts at its `[`.
    for i in _indices(kinds, "LANG"):
        texts[i] = texts[i][1:-1]
    return Tokens(kinds, texts, src)


# ---------------------------------------------------------------------------
# Parser

# Precedence levels, one table for the parser and the printer.
_STMT, _OR, _AND, _ADD, _MUL, _UNARY, _APP, _PRIM = range(8)

_BINOP_LEVEL = {"||": _OR, "&&": _AND, "+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL}


_PRIMARY_START = frozenset({"NAT", "true", "false", "(", "self", "beh", "spawn",
                            "send", "NAME"})


class _Parser:
    """Recursive descent over a `Tokens`; `pos` indexes its lists."""

    def __init__(self, toks: Tokens):
        self.kinds = toks.kinds
        self.texts = toks.texts
        self.src = toks.src
        self.pos = 0
        self.alphabet: set[MsgType] = {UNIT_MSG}
        # Each distinct `[...]` text is parsed and checked once per program:
        # the declaration pre-scan completes the alphabet before any is.
        self.langs: dict[str, LangExpr] = {}

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def take(self, kind: str) -> bool:
        if self.kinds[self.pos] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str) -> int:
        """Move past the current token, which must be a `kind`; its index."""
        i = self.pos
        if self.kinds[i] != kind:
            found = self.shown(i)
            if self.kinds[i] != "EOF":
                found = f"{self.kinds[i]} {found}"
            raise ParseError(f"unexpected {found}", i, self.src, frozenset({kind}))
        self.pos = i + 1
        return i

    def shown(self, i: int) -> str:
        """Token `i` as an error names it: its quoted text, or `end of input`."""
        return "end of input" if self.kinds[i] == "EOF" else repr(self.texts[i])

    def name(self) -> str:
        return self.texts[self.expect("NAME")]

    # -- languages and message names inside [...] tokens

    def lang_token(self) -> LangExpr:
        i = self.expect("LANG")
        text = self.texts[i]
        l = self.langs.get(text)
        if l is None:
            try:
                l = parse_lang(text)
            except LangParseError as e:
                raise ParseError(f"bad language: {e}", i, self.src) from None
            undeclared = symbols(l) - self.alphabet
            if undeclared:
                names = ", ".join(sorted(undeclared))
                raise ParseError(f"undeclared message symbol(s): {names}", i, self.src)
            self.langs[text] = l
        return l

    def msg_token(self) -> MsgType:
        i = self.expect("LANG")
        text = self.texts[i]
        name = text.strip()
        if not name.isidentifier():
            raise ParseError(f"expected a message name, got {text!r}", i, self.src)
        if name not in self.alphabet:
            raise ParseError(f"undeclared message symbol(s): {name}", i, self.src)
        return name

    # -- types

    def type_expr(self) -> TypeExpr:
        t = self.type_prod()
        if self.take("-"):
            # latent-effect arrow: T -[L]-> T
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
        i = self.pos
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
            f"expected a type, got {self.shown(i)}", i, self.src,
            frozenset({"Bool", "Nat", "Unit", "ActorRef", "Beh", "("}),
        )

    # -- expressions

    def expr(self) -> Expr:
        kind = self.kinds[self.pos]
        if kind == "let" or kind == "split":
            return self.chain()
        if kind == "fun":
            return self.fun_expr()
        if kind == "if":
            return self.if_expr()
        return self.binary()

    def fun_expr(self) -> Expr:
        i = self.expect("fun")
        self_name = self.name()
        self.expect("(")
        param = self.name()
        self.expect(":")
        param_type = self.type_expr()
        self.expect(")")
        self.expect(":")
        ret_type = self.type_expr()
        self.expect("!")
        latent = self.lang_inline()
        self.expect("=>")
        body = self.expr()
        return Fun(self_name, param, param_type, ret_type, latent, body, i)

    def lang_inline(self) -> LangExpr:
        # A latent effect is written bare (commonly `eps`) or bracketed.
        i = self.pos
        kind, text = self.kinds[i], self.texts[i]
        if kind == "LANG":
            return self.lang_token()
        if kind == "NAME" and text == "eps":
            self.pos = i + 1
            return EPS
        if kind == "NAT" and text == "0":
            self.pos = i + 1
            return EMPTY
        raise ParseError(
            "expected a latent effect (eps, 0 or [language])", i, self.src,
            frozenset({"eps", "0", "["}),
        )

    def chain(self) -> Expr:
        # A chain of `let x = v in` and `split p as ... in` heads is read head
        # by head and built right to left, so its length costs no stack depth.
        heads = []
        while True:
            i = self.pos
            kind = self.kinds[i]
            if kind == "let":
                self.pos = i + 1
                name = self.name()
                self.expect("=")
                heads.append((Let, (name, self.expr()), i))
            elif kind == "split":
                self.pos = i + 1
                path = self.path()
                self.expect("as")
                n1 = self.name()
                self.expect(":")
                t1 = self.type_expr()
                self.expect(",")
                n2 = self.name()
                self.expect(":")
                t2 = self.type_expr()
                if n1 == n2:
                    raise ParseError(
                        f"split names must be distinct, got {n1!r} twice",
                        i, self.src,
                    )
                heads.append((Split, (path, n1, t1, n2, t2), i))
            else:
                break
            self.expect("in")
        body = self.expr()
        for node, fields, i in reversed(heads):
            body = node(*fields, body, i)
        return body

    def if_expr(self) -> Expr:
        i = self.expect("if")
        cond = self.expr()
        self.expect("then")
        then_branch = self.expr()
        self.expect("else")
        else_branch = self.expr()
        return If(cond, then_branch, else_branch, i)

    def binary(self, min_lvl: int = _OR) -> Expr:
        """Left-associative binary operators of `_BINOP_LEVEL` at `min_lvl`
        or tighter, by precedence climbing."""
        e = self.unary_expr()
        while (lvl := _BINOP_LEVEL.get(self.kinds[self.pos], _STMT)) >= min_lvl:
            i = self.pos
            self.pos = i + 1
            e = BinOp(self.kinds[i], e, self.binary(lvl + 1), i)
        return e

    def unary_expr(self) -> Expr:
        """`!` prefixes, then left-associative application."""
        i = self.pos
        if self.take("!"):
            return Not(self.unary_expr(), i)
        e = self.primary()
        while self.kinds[self.pos] in _PRIMARY_START:
            e = App(e, self.primary(), e.loc)
        return e

    def primary(self) -> Expr:
        i = self.pos
        kind = self.kinds[i]
        if kind == "NAME":
            return Var(self.path(), i)
        if kind not in _PRIMARY_START:
            raise ParseError(
                f"expected an expression, got {self.shown(i)}", i, self.src,
                _PRIMARY_START,
            )
        if kind == "beh":
            return self.beh_expr()
        self.pos = i + 1
        if kind == "NAT":
            return NatLit(int(self.texts[i]), i)
        if kind == "true":
            return BoolLit(True, i)
        if kind == "false":
            return BoolLit(False, i)
        if kind == "(":
            if self.take(")"):
                return UnitLit(i)
            first = self.expr()
            if self.take(","):
                second = self.expr()
                self.expect(")")
                return Pair(first, second, i)
            self.expect(")")
            return first
        if kind == "self":
            return SelfCap(self.lang_token(), i)
        if kind == "spawn":
            init = self.lang_token() if self.at("LANG") else None
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return Spawn(init, inner, i)
        # send
        msg = self.msg_token()
        self.expect("(")
        target = self.path()
        self.expect(",")
        payload = self.expr()
        self.expect(")")
        return Send(msg, target, payload, i)

    def beh_expr(self) -> Expr:
        i = self.expect("beh")
        annot = self.lang_token()
        self.expect("{")
        cases: list[Case] = []
        if not self.at("}"):
            cases.append(self.case())
            while self.take("|"):
                cases.append(self.case())
        self.expect("}")
        return Beh(annot, tuple(cases), i)

    def case(self) -> Case:
        i = self.pos
        if not self.take("Unit"):
            self.expect("NAME")
        label = self.texts[i]
        if label not in self.alphabet:
            raise ParseError(f"undeclared message symbol(s): {label}", i, self.src)
        self.expect("(")
        binder = self.name()
        self.expect(")")
        self.expect("=>")
        body = self.expr()
        return Case(label, binder, body)

    def path(self) -> Path:
        base = self.name()
        kinds = self.kinds
        sels: list[int] = []
        while kinds[self.pos] == "." and kinds[self.pos + 1] == "NAT":
            i = self.pos + 1
            text = self.texts[i]
            if text not in ("1", "2"):
                raise ParseError(
                    f"path selector must be 1 or 2, got {text}", i, self.src
                )
            sels.append(int(text))
            self.pos = i + 1
        return Path(base, tuple(sels))

    # -- program

    def program(self) -> Program:
        kinds, texts = self.kinds, self.texts
        decls: list[MsgDecl] = []
        names: set[str] = set()
        # Pre-scan declaration names so payload types may reference each
        # other regardless of declaration order.
        for i in _indices(kinds, "msg"):
            if kinds[i + 1] == "NAME":
                self.alphabet.add(texts[i + 1])
        while self.at("msg"):
            i = self.expect("msg")
            name = self.name()
            if name == "Unit" or name in names:
                raise ParseError(f"duplicate message declaration {name!r}", i, self.src)
            self.expect(":")
            payload = self.type_expr()
            names.add(name)
            self.alphabet.add(name)
            decls.append(MsgDecl(name, payload, i))
        root = self.expr()
        eof = self.pos
        if kinds[eof] != "EOF":
            raise ParseError(f"trailing input {texts[eof]!r}", eof, self.src)
        if root.free:
            raise ParseError(
                "root expression is not closed; unbound: "
                + ", ".join(sorted(root.free)),
                eof, self.src,
            )
        return Program(tuple(decls), root, self.src)


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
        case Let() | Split():
            # A chain of lets and splits is printed along its right spine in
            # a loop, so its length is not bounded by the Python stack.
            heads = []
            while True:
                if isinstance(e, Let):
                    heads.append(f"let {e.name} = {expr_to_text(e.value, _OR)}\nin ")
                elif isinstance(e, Split):
                    heads.append(
                        f"split {e.path} as {e.name1}: {type_to_text(e.type1)}, "
                        f"{e.name2}: {type_to_text(e.type2)}\nin "
                    )
                else:
                    break
                e = e.body
            return _wrap("".join(heads) + expr_to_text(e), _STMT, ctx)
    raise TypeError(f"not an expression: {e!r}")


def _wrap(s: str, lvl: int, ctx: int) -> str:
    return f"({s})" if ctx > lvl else s


def pretty_print(p: Program) -> str:
    lines = [f"msg {d.name} : {type_to_text(d.payload)}" for d in p.msg_decls]
    if lines:
        lines.append("")
    lines.append(expr_to_text(p.root))
    return "\n".join(lines) + "\n"
