"""Runtime values.

All values are immutable by convention: nothing assigns to a field once
the value is built (`tests/test_immutability.py` checks the source).
Every value is a slotted dataclass.  An actor reference carries the
protocol tag it was created with; what sends have left of that tag is run
state, kept per reference in the configuration (`runtime.Config.tags`), so
a reference reachable from several places is still one capability.  Tags
are instrumentation only and never influence evaluation.

A value's `refs` is the tuple of references it reaches, each once (by
identity): none for a number, a boolean or unit, itself for a reference.
A pair, closure or behaviour joins its children's tuples when it is
built, as an expression node computes its free variables, and shares a
lone nonempty child tuple instead of copying it; values are immutable, so
the tuple never goes stale, and asking for it walks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang import LangExpr, lang_to_text
from .syntax import Beh, Case, Fun


class Value:
    __slots__ = ()
    refs: tuple[RefValue, ...] = ()  # a scalar reaches no reference


def _join(values) -> tuple[RefValue, ...]:
    """The references the `values` reach, each once, in the order they
    first reach them."""
    parts = [v.refs for v in values if v.refs]
    if len(parts) == 1:
        return parts[0]
    return tuple(dict.fromkeys(r for p in parts for r in p))


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


@dataclass(slots=True, unsafe_hash=True)
class PairV(Value):
    first: Value
    second: Value
    refs: tuple[RefValue, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.refs = _join((self.first, self.second))


@dataclass(slots=True, unsafe_hash=True)
class Closure(Value):
    fun: Fun
    env: dict[str, Value] = field(compare=False)
    refs: tuple[RefValue, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.refs = _join(self.env.values())


@dataclass(slots=True, unsafe_hash=True)
class BehValue(Value):
    annot: LangExpr
    cases: tuple[Case, ...]
    env: dict[str, Value] = field(compare=False)
    node: Beh | None = field(compare=False, default=None)
    refs: tuple[RefValue, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.refs = _join(self.env.values())

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
