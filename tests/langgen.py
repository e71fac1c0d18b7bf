"""Seeded random language expressions over a 3-symbol alphabet, and the
tests' definition of canonical form (`reference_normalize`)."""

from __future__ import annotations

import random

from actorcap.lang import (
    Alt,
    And,
    Cat,
    EMPTY,
    EPS,
    LangExpr,
    MsgType,
    Shuffle,
    Star,
    Sym,
)

ALPHABET = (MsgType("a"), MsgType("b"), MsgType("c"))


def random_expr(rng: random.Random, depth: int = 4) -> LangExpr:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.08:
            return EMPTY
        if roll < 0.2:
            return EPS
        return Sym(rng.choice(ALPHABET))
    op = rng.randrange(5)
    if op == 2:
        return Star(random_expr(rng, depth - 1))
    cls = (Cat, Alt, None, Shuffle, And)[op]
    # Raw `|`, `#` and `&` nodes sometimes take three operands at once.
    n = 3 if cls is not Cat and rng.random() < 0.25 else 2
    return cls(*[random_expr(rng, depth - 1) for _ in range(n)])


def random_word(rng: random.Random, max_len: int) -> tuple[MsgType, ...]:
    return tuple(rng.choice(ALPHABET) for _ in range(rng.randrange(max_len + 1)))


def reference_normalize(e: LangExpr) -> LangExpr:
    """The tests' own definition of canonical form, rebuilt bottom up.

    The random expressions above are raw trees; this is what the smart
    constructors must make of them.  It is written from the node classes
    and the facts `_order` and `_nullable` alone, not from `lang`'s
    constructors, so it checks them against an independent definition.  An
    expression the package builds is canonical, so it is its own
    `reference_normalize`.
    """
    match e:
        case Star(a):
            a = reference_normalize(a)
            if a is EMPTY or a is EPS:
                return EPS
            return a if isinstance(a, Star) else Star(a)
        case Cat() | Alt() | Shuffle() | And():
            cls = type(e)
            raw = (e.left, e.right) if cls is Cat else e.items
            parts = [reference_normalize(x) for x in raw]
            return canonical_chain(cls, [x for p in parts for x in operands(cls, p)])
    return e


def operands(cls, e: LangExpr) -> list[LangExpr]:
    """The operands of a canonical `cls` node: those along the right spine
    of a `.` chain, the flat operand tuple of the other classes."""
    if cls is not Cat:
        return list(e.items) if type(e) is cls else [e]
    items = []
    while type(e) is Cat:
        items.append(e.left)
        e = e.right
    return items + [e]


def canonical_chain(cls, items: list[LangExpr]) -> LangExpr:
    """The canonical `cls` node over canonical operands that are not `cls`
    nodes themselves: a right-nested chain for `.`, one node over the
    sorted operands for the others."""
    if cls is And:
        if EMPTY in items:
            return EMPTY
        if EPS in items:  # eps & L is eps when L is nullable, else 0
            return EPS if all(x._nullable for x in items) else EMPTY
    else:
        unit = EMPTY if cls is Alt else EPS
        items = [x for x in items if x is not unit]
        if not items:
            return unit
        if cls is not Alt and EMPTY in items:
            return EMPTY
    if cls in (Alt, And):  # idempotent
        items = list(dict.fromkeys(items))
    if len(items) == 1:
        return items[0]
    if cls is not Cat:  # commutative, and one flat node
        return cls(*sorted(items, key=lambda x: x._order))
    acc = items[-1]
    for x in reversed(items[:-1]):
        acc = cls(x, acc)
    return acc
