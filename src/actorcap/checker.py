"""Flow-sensitive type-and-effect checking.

Judgments thread a type environment through every expression: checking
returns the expression's type, the environment after it runs, and its effect
(a language over-approximating the self-capabilities it creates).  The
environment is a plain dict from variable names to types.  The public
`Checker.infer` copies it once; below that, a judgment owns the dict it is
given and binds, consumes and updates names in it in place, so checking a
chain of n bindings takes time linear in n.  A dict is copied only where two
judgments must start from one environment: the then-arm of a conditional,
each case of a behaviour and a function body.
Sequentially evaluated subexpressions have their effects shuffled together;
the two arms of a conditional are joined with union, and their output
environments are intersected.

Sending through a reference replaces its protocol with the derivative by the
sent message type.  Duplicating a reference requires an explicit `split`
whose two annotations must shuffle back inside the original protocol, so the
combined use of both halves, in any interleaving, stays within what the
target actor promised to handle.

Variable use is consuming: each binding justifies one use, and `split` is
how a value legitimately becomes two.  Leftover bindings at scope exit are
discarded silently (affine weakening); pass `warn_dropped` to surface them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import lang as lng
from .lang import EPS, LangExpr, MsgType, UNIT_MSG, lang_to_text
from .syntax import (
    ActorRefT,
    App,
    Beh,
    BehT,
    BinOp,
    BOOL,
    BoolLit,
    BoolT,
    Case,
    Expr,
    Fun,
    FunT,
    If,
    Let,
    Loc,
    NAT,
    NO_POS,
    NatLit,
    NatT,
    Not,
    Pair,
    Path,
    ProdT,
    Program,
    SelfCap,
    Send,
    SourceError,
    Spawn,
    Split,
    TypeExpr,
    UNIT,
    UnitLit,
    UnitT,
    Var,
    locate,
    type_to_text,
)


class ErrorCode(enum.Enum):
    UnboundVariable = "UnboundVariable"
    TypeMismatch = "TypeMismatch"
    SplitNotJustified = "SplitNotJustified"
    EmptyResidual = "EmptyResidual"
    NonSplittableCapture = "NonSplittableCapture"
    BehaviourConformance = "BehaviourConformance"
    DuplicateCaseLabel = "DuplicateCaseLabel"
    SpawnCapabilityTooLarge = "SpawnCapabilityTooLarge"
    RootMissingUnitCase = "RootMissingUnitCase"
    JoinFailure = "JoinFailure"


class TypeCheckError(SourceError):
    """A rejected expression, at the index of its first token (`pos`).

    `check_program` gives it the program's text, so `loc` reads as a line
    and column; raised by a `Checker` method alone, `loc` is `pos`.
    """

    def __init__(
        self,
        code: ErrorCode,
        pos: int,
        detail: str,
        required_language: LangExpr | None = None,
        declared_language: LangExpr | None = None,
    ):
        self.code = code
        self.pos = pos
        self.detail = detail
        self.required_language = required_language
        self.declared_language = declared_language

    def render(self) -> str:
        msg = f"{self.code.value} @ {self.loc} - {self.detail}"
        if self.required_language is not None and self.declared_language is not None:
            msg += (
                f" [required: {lang_to_text(self.required_language)}"
                f" vs declared: {lang_to_text(self.declared_language)}]"
            )
        return msg

    def to_json_obj(self) -> dict:
        obj = {
            "code": self.code.value,
            "span": {"line": self.loc.line, "col": self.loc.col},
            "detail": self.detail,
        }
        if self.required_language is not None:
            obj["required_language"] = lang_to_text(self.required_language)
        if self.declared_language is not None:
            obj["declared_language"] = lang_to_text(self.declared_language)
        return obj


# A type environment maps variable names to types; a judgment updates the one
# it is given in place.
TypeEnv = dict[str, TypeExpr]


def _replace(t: TypeExpr, sels: tuple[int, ...], new: TypeExpr) -> TypeExpr:
    """`t` with its part at the product selectors `sels` replaced by `new`."""
    if not sels:
        return new
    if sels[0] == 1:
        return ProdT(_replace(t.first, sels[1:], new), t.second)
    return ProdT(t.first, _replace(t.second, sels[1:], new))


@dataclass(slots=True, unsafe_hash=True)
class DroppedBinding:
    loc: Loc | int  # a position until `check_program` resolves it
    name: str
    type_text: str


@dataclass
class TypedProgram:
    """A checked program plus the facts the runtime monitor needs."""

    program: Program
    root_type: TypeExpr
    root_effect: LangExpr = EPS
    case_effects: dict[Beh, dict[MsgType, LangExpr]] = field(default_factory=dict)
    warnings: list[DroppedBinding] = field(default_factory=list)

    def static_case_effect(self, beh_node: Beh, label: MsgType) -> LangExpr | None:
        table = self.case_effects.get(beh_node)
        if table is None:
            return None
        return table.get(label)


def types_equal(t1: TypeExpr, t2: TypeExpr) -> bool:
    """Structural equality with embedded languages compared by equivalence."""
    if t1 is t2:
        return True
    match (t1, t2):
        case (BoolT(), BoolT()) | (NatT(), NatT()) | (UnitT(), UnitT()):
            return True
        case (ProdT(a1, b1), ProdT(a2, b2)):
            return types_equal(a1, a2) and types_equal(b1, b2)
        case (FunT(p1, l1, r1), FunT(p2, l2, r2)):
            return (
                types_equal(p1, p2)
                and lng.equiv(l1, l2)
                and types_equal(r1, r2)
            )
        case (ActorRefT(l1), ActorRefT(l2)) | (BehT(l1), BehT(l2)):
            return lng.equiv(l1, l2)
    return False


def self_splittable(t: TypeExpr) -> bool:
    """Whether a value of this type may be duplicated without change."""
    match t:
        case BoolT() | NatT() | UnitT() | FunT():
            return True
        case ProdT(a, b):
            return self_splittable(a) and self_splittable(b)
        case ActorRefT(l):
            return lng.includes(lng.shuffle(l, l), l)
        case BehT(_):
            return False
    return False


def split_judgment(t: TypeExpr, t1: TypeExpr, t2: TypeExpr, loc: int) -> None:
    """Check t < t1 * t2: the two halves may not jointly exceed the whole."""
    match t:
        case ActorRefT(l):
            if not (isinstance(t1, ActorRefT) and isinstance(t2, ActorRefT)):
                raise TypeCheckError(
                    ErrorCode.TypeMismatch, loc,
                    f"cannot split {type_to_text(t)} into "
                    f"{type_to_text(t1)} and {type_to_text(t2)}",
                )
            combined = lng.shuffle(t1.lang, t2.lang)
            if not lng.includes(combined, l):
                raise TypeCheckError(
                    ErrorCode.SplitNotJustified, loc,
                    "the shuffle of the two halves escapes the original protocol",
                    required_language=combined,
                    declared_language=l,
                )
            return
        case BoolT() | NatT() | UnitT() | FunT():
            if types_equal(t, t1) and types_equal(t, t2):
                return
            raise TypeCheckError(
                ErrorCode.SplitNotJustified, loc,
                f"{type_to_text(t)} splits only into two copies of itself",
            )
        case ProdT(a, b):
            if not (isinstance(t1, ProdT) and isinstance(t2, ProdT)):
                raise TypeCheckError(
                    ErrorCode.TypeMismatch, loc,
                    f"cannot split {type_to_text(t)} into non-product types",
                )
            split_judgment(a, t1.first, t2.first, loc)
            split_judgment(b, t1.second, t2.second, loc)
            return
        case BehT(_):
            raise TypeCheckError(
                ErrorCode.SplitNotJustified, loc, "behaviours are not splittable"
            )
    raise TypeCheckError(
        ErrorCode.TypeMismatch, loc, f"unsplittable type {type_to_text(t)}"
    )


def env_join(env_t: TypeEnv, env_f: TypeEnv, loc: int = NO_POS) -> TypeEnv:
    """Join the two branch environments of a conditional.

    Bindings present on only one side are dropped.  Reference bindings join
    at the intersection of their protocols; anything else must agree up to
    language equivalence.
    """
    out = {}
    for name, ta in env_t.items():
        tb = env_f.get(name)
        if tb is None:
            continue
        if isinstance(ta, ActorRefT) and isinstance(tb, ActorRefT):
            out[name] = ActorRefT(lng.conj(ta.lang, tb.lang))
        elif types_equal(ta, tb):
            out[name] = ta
        else:
            raise TypeCheckError(
                ErrorCode.JoinFailure, loc,
                f"variable {name!r} has incompatible types after the branches: "
                f"{type_to_text(ta)} vs {type_to_text(tb)}",
            )
    return out


class Checker:
    def __init__(self, program: Program, warn_dropped: bool = False):
        self.program = program
        self.typed = TypedProgram(program, UNIT)
        self.warn_dropped = warn_dropped

    # -- paths

    def _lookup_path(self, env: TypeEnv, path: Path, loc: int) -> TypeExpr:
        t = env.get(path.base)
        if t is None:
            raise TypeCheckError(
                ErrorCode.UnboundVariable, loc, f"unbound variable {path.base!r}"
            )
        for sel in path.sels:
            if not isinstance(t, ProdT):
                raise TypeCheckError(
                    ErrorCode.TypeMismatch, loc,
                    f"path {path} selects into non-product {type_to_text(t)}",
                )
            t = t.first if sel == 1 else t.second
        return t

    def apply_send_path(
        self, env: TypeEnv, path: Path, msg: MsgType, loc: int = NO_POS
    ) -> tuple[LangExpr, TypeEnv]:
        """Consume one permitted send of `msg` through the reference at `path`.

        The reference's protocol is replaced by its derivative in `env`
        itself, which is returned with the residual; an empty derivative
        means the protocol does not allow sending `msg` now.
        """
        t = self._lookup_path(env, path, loc)
        if not isinstance(t, ActorRefT):
            raise TypeCheckError(
                ErrorCode.TypeMismatch, loc,
                f"send target {path} is {type_to_text(t)}, not an actor reference",
            )
        residual = lng.derivative(msg, t.lang)
        if lng.is_empty(residual):
            raise TypeCheckError(
                ErrorCode.EmptyResidual, loc,
                f"protocol of {path} does not allow sending <{msg}> here",
                required_language=lng.Sym(msg),
                declared_language=t.lang,
            )
        env[path.base] = _replace(env[path.base], path.sels, ActorRefT(residual))
        return residual, env

    # -- scope bookkeeping

    def _drop(self, env: TypeEnv, name: str, loc: int) -> None:
        t = env.pop(name, None)
        if t is not None:
            self._note_drop(name, t, loc)

    def _note_drop(self, name: str, t: TypeExpr, loc: int):
        if not self.warn_dropped:
            return
        if isinstance(t, BehT) or (isinstance(t, ActorRefT)
                                   and not lng.equiv(t.lang, EPS)):
            self.typed.warnings.append(DroppedBinding(loc, name, type_to_text(t)))

    # -- expressions

    def infer(self, env: TypeEnv, e: Expr) -> tuple[TypeExpr, TypeEnv, LangExpr]:
        """The type, output environment and effect of `e`; `env` is left as is."""
        return self._infer(dict(env), e)

    def _infer(self, env: TypeEnv, e: Expr) -> tuple[TypeExpr, TypeEnv, LangExpr]:
        """`infer` on a dict it owns and updates in place: afterwards the
        caller uses the output environment, never `env`."""
        # Dispatch by exact class, the forms most checked first; every form
        # is handled in this frame or in one method it calls.
        t = type(e)
        if t is Var:
            path = e.path
            ty = self._lookup_path(env, path, e.loc)
            if path.sels:
                self._note_drop(path.base, env[path.base], e.loc)
            # Use consumes the binding; duplication needs an explicit split.
            del env[path.base]
            return ty, env, EPS
        if t is Send:
            msg = e.msg
            declared = self.program.payload_type(msg)
            tp, env1, eff = self._infer(env, e.payload)
            if not types_equal(tp, declared):
                raise TypeCheckError(
                    ErrorCode.TypeMismatch, e.loc,
                    f"payload of <{msg}> must be "
                    f"{type_to_text(declared)}, got {type_to_text(tp)}",
                )
            _, env2 = self.apply_send_path(env1, e.target, msg, e.loc)
            return UNIT, env2, eff
        if t is App:
            tf, env1, eff1 = self._infer(env, e.fn)
            if not isinstance(tf, FunT):
                raise TypeCheckError(
                    ErrorCode.TypeMismatch, e.loc,
                    f"applied expression is {type_to_text(tf)}, not a function",
                )
            ta, env2, eff2 = self._infer(env1, e.arg)
            if not types_equal(ta, tf.param):
                raise TypeCheckError(
                    ErrorCode.TypeMismatch, e.loc,
                    f"argument type {type_to_text(ta)} does not match "
                    f"parameter type {type_to_text(tf.param)}",
                )
            return tf.result, env2, lng.shuffle(lng.shuffle(eff1, eff2), tf.latent)
        if t is Beh:
            return self.check_behaviour(env, e)
        if t is Let or t is Split:
            # A chain of lets and splits is walked along its right spine
            # in a loop, so its length is not bounded by the Python
            # stack; scopes then close innermost first, as nested calls
            # would close them.
            spine = []
            while True:
                if t is Let:
                    tv, env, eff = self._infer(env, e.value)
                    env[e.name] = tv
                    spine.append((e, eff))
                elif t is Split:
                    self._open_split(env, e)
                    spine.append((e, None))
                else:
                    break
                e = e.body
                t = type(e)
            tb, env, eff = self._infer(env, e)
            for head, head_eff in reversed(spine):
                if type(head) is Let:
                    self._drop(env, head.name, head.loc)
                    eff = lng.shuffle(head_eff, eff)
                else:
                    self._drop(env, head.name1, head.loc)
                    self._drop(env, head.name2, head.loc)
            return tb, env, eff
        if t is UnitLit:
            return UNIT, env, EPS
        if t is NatLit:
            return NAT, env, EPS
        if t is BoolLit:
            return BOOL, env, EPS
        if t is Pair:
            ta, env1, eff1 = self._infer(env, e.first)
            tb, env2, eff2 = self._infer(env1, e.second)
            return ProdT(ta, tb), env2, lng.shuffle(eff1, eff2)
        if t is Not:
            tx, env1, eff = self._infer(env, e.expr)
            if not isinstance(tx, BoolT):
                raise TypeCheckError(
                    ErrorCode.TypeMismatch, e.loc,
                    f"operand of ! must be Bool, got {type_to_text(tx)}",
                )
            return BOOL, env1, eff
        if t is BinOp:
            op = e.op
            want: TypeExpr = BOOL if op in ("&&", "||") else NAT
            ta, env1, eff1 = self._infer(env, e.left)
            tb, env2, eff2 = self._infer(env1, e.right)
            for tt in (ta, tb):
                if not types_equal(tt, want):
                    raise TypeCheckError(
                        ErrorCode.TypeMismatch, e.loc,
                        f"operands of {op} must be {type_to_text(want)}, "
                        f"got {type_to_text(tt)}",
                    )
            return want, env2, lng.shuffle(eff1, eff2)
        if t is If:
            tc, envc, effc = self._infer(env, e.cond)
            if not isinstance(tc, BoolT):
                raise TypeCheckError(
                    ErrorCode.TypeMismatch, e.loc,
                    f"condition must be Bool, got {type_to_text(tc)}",
                )
            # Both arms start from envc, so the then-arm gets a copy.
            tt, envt, efft = self._infer(dict(envc), e.then_branch)
            tf, envf, efff = self._infer(envc, e.else_branch)
            if not types_equal(tt, tf):
                raise TypeCheckError(
                    ErrorCode.TypeMismatch, e.loc,
                    f"branches disagree: {type_to_text(tt)} vs "
                    f"{type_to_text(tf)}",
                )
            joined = env_join(envt, envf, e.loc)
            return tt, joined, lng.shuffle(effc, lng.alt(efft, efff))
        if t is Fun:
            return self._infer_fun(env, e)
        if t is SelfCap:
            return ActorRefT(e.lang), env, e.lang
        if t is Spawn:
            return self.check_spawn(env, e)
        raise TypeCheckError(
            ErrorCode.TypeMismatch, getattr(e, "loc", NO_POS),
            f"unhandled expression form {type(e).__name__}",
        )

    def _infer_fun(self, env: TypeEnv, e: Fun) -> tuple[TypeExpr, TypeEnv, LangExpr]:
        fun_type = FunT(e.param_type, e.latent, e.ret_type)
        for name in sorted(e.free):
            t = env.get(name)
            if t is None:
                raise TypeCheckError(
                    ErrorCode.UnboundVariable, e.loc,
                    f"function body captures unbound variable {name!r}",
                )
            if not self_splittable(t):
                raise TypeCheckError(
                    ErrorCode.NonSplittableCapture, e.loc,
                    f"function captures {name!r} at non-duplicable type "
                    f"{type_to_text(t)}; functions may be called any number "
                    "of times",
                )
        body_env = {**env, e.self_name: fun_type, e.param: e.param_type}
        tb, _, body_eff = self._infer(body_env, e.body)
        if not types_equal(tb, e.ret_type):
            raise TypeCheckError(
                ErrorCode.TypeMismatch, e.loc,
                f"function body has type {type_to_text(tb)}, "
                f"declared {type_to_text(e.ret_type)}",
            )
        if not lng.includes(body_eff, e.latent):
            raise TypeCheckError(
                ErrorCode.TypeMismatch, e.loc,
                "function body effect exceeds the declared latent effect",
                required_language=body_eff,
                declared_language=e.latent,
            )
        return fun_type, env, EPS

    def check_behaviour(
        self, env: TypeEnv, e: Beh
    ) -> tuple[TypeExpr, TypeEnv, LangExpr]:
        seen_labels: set[MsgType] = set()
        for c in e.cases:
            if c.label in seen_labels:
                raise TypeCheckError(
                    ErrorCode.DuplicateCaseLabel, e.loc,
                    f"duplicate case for <{c.label}>",
                )
            seen_labels.add(c.label)
        s = lng.first_unhandled(e.annot, seen_labels)
        if s is not None:
            raise TypeCheckError(
                ErrorCode.BehaviourConformance, e.loc,
                f"declared protocol admits <{s}> first but the "
                "behaviour has no case for it",
                required_language=lng.derivative(s, e.annot),
                declared_language=e.annot,
            )
        effects: dict[MsgType, LangExpr] = {}
        for c in e.cases:
            payload = self.program.payload_type(c.label)
            case_env = {**env, c.binder: payload}
            tb, _, eff = self._infer(case_env, c.body)
            if not isinstance(tb, BehT):
                raise TypeCheckError(
                    ErrorCode.TypeMismatch, e.loc,
                    f"case <{c.label}> returns {type_to_text(tb)}, "
                    "not a behaviour",
                )
            required = lng.shuffle(lng.derivative(c.label, e.annot), eff)
            if not lng.includes(required, tb.lang):
                raise TypeCheckError(
                    ErrorCode.BehaviourConformance, e.loc,
                    f"after <{c.label}>, leftover promises and newly "
                    "created capabilities are not covered by the returned "
                    "behaviour",
                    required_language=required,
                    declared_language=tb.lang,
                )
            effects[c.label] = eff
        self.typed.case_effects[e] = effects
        if self.warn_dropped:
            for name, t in env.items():
                if name not in e.free:
                    self._note_drop(name, t, e.loc)
        # Constructing a behaviour consumes the whole environment.
        return BehT(e.annot), {}, EPS

    def check_spawn(self, env: TypeEnv, e: Spawn) -> tuple[TypeExpr, TypeEnv, LangExpr]:
        tb, env1, eff = self._infer(env, e.expr)
        if not isinstance(tb, BehT):
            raise TypeCheckError(
                ErrorCode.TypeMismatch, e.loc,
                f"spawn argument is {type_to_text(tb)}, not a behaviour",
            )
        init = e.init_cap if e.init_cap is not None else tb.lang
        if not lng.includes(init, tb.lang):
            raise TypeCheckError(
                ErrorCode.SpawnCapabilityTooLarge, e.loc,
                "initial capability exceeds what the spawned behaviour handles",
                required_language=init,
                declared_language=tb.lang,
            )
        return ActorRefT(init), env1, eff

    def _open_split(self, env: TypeEnv, e: Split) -> None:
        """Enter a split in `env`: the halves replace the path's base."""
        t = self._lookup_path(env, e.path, e.loc)
        split_judgment(t, e.type1, e.type2, e.loc)
        if e.path.sels:
            self._note_drop(e.path.base, env[e.path.base], e.loc)
        del env[e.path.base]
        env[e.name1] = e.type1
        env[e.name2] = e.type2


def check_program(p: Program, warn_dropped: bool = False) -> TypedProgram:
    """Accept a program or raise TypeCheckError.

    The root must check to a behaviour type under the empty environment, and
    its protocol must allow the initial unit message.  The error raised is
    the one the checker raised, given the program's source: its line and
    column are found only if its position or text is read.
    """
    checker = Checker(p, warn_dropped=warn_dropped)
    try:
        t, _, eff = checker.infer({}, p.root)
        if not isinstance(t, BehT):
            raise TypeCheckError(
                ErrorCode.TypeMismatch, p.root.loc,
                f"root must be a behaviour, got {type_to_text(t)}",
            )
        if lng.is_empty(lng.derivative(UNIT_MSG, t.lang)):
            raise TypeCheckError(
                ErrorCode.RootMissingUnitCase, p.root.loc,
                "the root protocol does not allow the initial unit message",
                required_language=lng.Sym(UNIT_MSG),
                declared_language=t.lang,
            )
    except TypeCheckError as e:
        e.set_source(p.source)
        raise
    typed = checker.typed
    typed.root_type = t
    typed.root_effect = eff
    if typed.warnings:
        locs = locate(p.source, [w.loc for w in typed.warnings])
        typed.warnings = [DroppedBinding(loc, w.name, w.type_text)
                          for w, loc in zip(typed.warnings, locs)]
    return typed

