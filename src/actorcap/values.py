"""Runtime values.

All values are immutable by convention: nothing assigns to a field once
the value is built (`tests/test_immutability.py` checks the source).
Scalars and references are slotted dataclasses; a pair, closure or
behaviour keeps a `__dict__` for its cached `refs`.  An actor reference
carries the protocol tag it was created with; what sends have left of
that tag is run state, kept per reference in the configuration
(`runtime.Config.tags`), so a reference reachable from several places is
still one capability.  Tags are instrumentation only and never influence
evaluation.

A value's `refs` is the tuple of references it reaches, each once (by
identity): none for a number, a boolean or unit, itself for a reference.
A pair, closure or behaviour computes it on first use, from the cached
tuples of the values under it where they have one, and keeps it; values
are immutable, so the tuple never goes stale, and a run that never asks
never builds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .lang import LangExpr, lang_to_text
from .syntax import Beh, Case, Fun


class Value:
    __slots__ = ()
    refs: tuple[RefValue, ...] = ()  # a scalar reaches no reference


def _reach(root: Value) -> tuple[RefValue, ...]:
    """The references under `root`, each once, walked on an explicit stack:
    a value met with its `refs` already cached adds that tuple whole."""
    found: dict[RefValue, None] = {}
    seen: set[int] = set()
    stack = _children(root)
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, (PairV, Closure, BehValue)) and "refs" not in vars(v):
            stack.extend(_children(v))
        else:
            found.update(dict.fromkeys(v.refs))
    return tuple(found)


def _children(v: Value) -> list[Value]:
    if isinstance(v, PairV):
        return [v.first, v.second]
    return list(v.env.values())


@dataclass(slots=True, unsafe_hash=True)
class Num(Value):
    value: int


@dataclass(slots=True, unsafe_hash=True)
class BoolV(Value):
    value: bool


@dataclass(slots=True, unsafe_hash=True)
class UnitV(Value):
    pass


UNIT_V = UnitV()


@dataclass(unsafe_hash=True)
class PairV(Value):
    first: Value
    second: Value

    refs = cached_property(_reach)


@dataclass(unsafe_hash=True)
class Closure(Value):
    fun: Fun
    env: dict[str, Value] = field(compare=False)

    refs = cached_property(_reach)


@dataclass(unsafe_hash=True)
class BehValue(Value):
    annot: LangExpr
    cases: tuple[Case, ...]
    env: dict[str, Value] = field(compare=False)
    node: Beh | None = field(compare=False, default=None)

    refs = cached_property(_reach)

    def case_for(self, label) -> Case | None:
        for c in self.cases:
            if c.label == label:
                return c
        return None


@dataclass(slots=True, eq=False)
class RefValue(Value):
    """Reference to an actor, tagged with the protocol it was created with.

    Equality and hashing are by identity: two references to one actor are
    two capabilities, each with its own remaining tag in the configuration.
    """

    target: int
    tag: LangExpr

    @property
    def refs(self) -> tuple[RefValue, ...]:
        return (self,)

    def __repr__(self) -> str:
        return f"RefValue({self.target}, {lang_to_text(self.tag)})"


def iter_refs(roots) -> dict[RefValue, None]:
    """Each reference the values reach, once (deduplicated by identity), as
    the keys of a dict in the order the roots first reach them."""
    return dict.fromkeys(ref for root in roots for ref in root.refs)
