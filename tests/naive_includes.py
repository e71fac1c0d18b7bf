"""The rule-free derivative-pair search, kept as an oracle for `lang.includes`.

It expands every pair it has not seen, so against a right side that holds
every word it still walks each derivative of the left one (all 2**n of an
n-way shuffle); `lang.includes` must give the same answer.
"""

from __future__ import annotations

from actorcap.lang import (
    LangExpr,
    _terms,
    nullable,
    partial_derivatives,
    symbols,
)


def naive_includes(sub: LangExpr, sup: LangExpr) -> bool:
    """True iff every word of `sub` is a word of `sup`; no state budget."""
    seen: set[tuple[LangExpr, frozenset[LangExpr]]] = set()
    stack = [(t, _terms(sup)) for t in _terms(sub)]
    while stack:
        t, rights = stack.pop()
        if t in rights or (t, rights) in seen:
            continue
        if nullable(t) and not any(nullable(r) for r in rights):
            return False
        seen.add((t, rights))
        for s in symbols(t):
            succ_l = partial_derivatives(s, t)
            if not succ_l:
                continue
            succ_r = frozenset().union(
                *(partial_derivatives(s, r) for r in rights)
            ) if rights else frozenset()
            for t2 in succ_l:
                stack.append((t2, succ_r))
    return True
