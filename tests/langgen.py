"""Seeded random language expressions over a 3-symbol alphabet, and the
tests' definition of canonical form (`reference_normalize`)."""

from __future__ import annotations

import random

from actorcap import lang
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
    star,
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
    """The recursive rebuild, one smart constructor per node, no shortcuts.

    The random expressions above are raw trees; this is what the smart
    constructors make of them.  An expression the package builds is
    canonical, so it is its own `reference_normalize`.
    """
    match e:
        case Star(a):
            return star(reference_normalize(a))
        case Cat(a, b) | Alt(a, b) | Shuffle(a, b) | And(a, b):
            cls = type(e)
            parts = [reference_normalize(a), reference_normalize(b)]
            return lang._SMART[cls]([x for p in parts for x in lang._chain(cls, p)])
    return e
