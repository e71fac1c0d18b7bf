"""Runtime values.

All values are immutable.  An actor reference carries the protocol tag it
was created with; what sends have left of that tag is run state, kept per
reference in the configuration (`runtime.Config.tags`), so a reference
reachable from several places is still one capability.  Tags are
instrumentation only and never influence evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang import LangExpr, lang_to_text
from .syntax import Beh, Case, Fun


class Value:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Value):
    value: int


@dataclass(frozen=True)
class BoolV(Value):
    value: bool


@dataclass(frozen=True)
class UnitV(Value):
    pass


UNIT_V = UnitV()


@dataclass(frozen=True)
class PairV(Value):
    first: Value
    second: Value


@dataclass(frozen=True)
class Closure(Value):
    fun: Fun
    env: dict[str, Value] = field(compare=False)


@dataclass(frozen=True)
class BehValue(Value):
    annot: LangExpr
    cases: tuple[Case, ...]
    env: dict[str, Value] = field(compare=False)
    node: Beh | None = field(compare=False, default=None)

    def case_for(self, label) -> Case | None:
        for c in self.cases:
            if c.label == label:
                return c
        return None


@dataclass(frozen=True, eq=False)
class RefValue(Value):
    """Reference to an actor, tagged with the protocol it was created with.

    Equality and hashing are by identity: two references to one actor are
    two capabilities, each with its own remaining tag in the configuration.
    """

    target: int
    tag: LangExpr

    def __repr__(self) -> str:
        return f"RefValue({self.target}, {lang_to_text(self.tag)})"


def iter_refs(roots):
    """Yield each reachable RefValue once (deduplicated by identity)."""
    seen_ids: set[int] = set()
    stack = list(roots)
    while stack:
        v = stack.pop()
        if id(v) in seen_ids:
            continue
        seen_ids.add(id(v))
        match v:
            case RefValue():
                yield v
            case PairV(a, b):
                stack.append(a)
                stack.append(b)
            case Closure(_, env) | BehValue(_, _, env, _):
                stack.extend(env.values())
            case _:
                pass
