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
    if op == 0:
        return Cat(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if op == 1:
        return Alt(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if op == 2:
        return Star(random_expr(rng, depth - 1))
    if op == 3:
        return Shuffle(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    return And(random_expr(rng, depth - 1), random_expr(rng, depth - 1))


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
        case Cat(a, b) | Alt(a, b) | Shuffle(a, b) | And(a, b):
            cls = type(e)
            parts = [reference_normalize(a), reference_normalize(b)]
            return canonical_chain(cls, [x for p in parts for x in spine(cls, p)])
    return e


def spine(cls, e: LangExpr) -> list[LangExpr]:
    """The operands along the right spine of a `cls` chain."""
    items = []
    while type(e) is cls:
        items.append(e.left)
        e = e.right
    return items + [e]


def canonical_chain(cls, items: list[LangExpr]) -> LangExpr:
    """The canonical `cls` chain over canonical operands that are not
    chains of `cls` themselves."""
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
    if cls is not Cat:  # commutative
        items.sort(key=lambda x: x._order)
    acc = items[-1]
    for x in reversed(items[:-1]):
        acc = cls(x, acc)
    return acc
