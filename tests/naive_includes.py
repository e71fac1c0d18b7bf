"""Two oracles for `lang.includes`.

`naive_includes` is the rule-free derivative-pair search.  It expands every
pair it has not seen, so against a right side that holds every word it
still walks each derivative of the left one (all 2**n of an n-way shuffle);
`lang.includes` must give the same answer.

`eager_includes` is the search `lang.includes` made before it derived
successors lazily: the same rules and the same depth-first order, but each
pair it expands derives the successors for every symbol at once, and the
pairs themselves are pushed on the stack.  It returns the number of pairs
it added too, so the lazy search must give the same verdict and refuse
its state budget at the same pair.
"""

from __future__ import annotations

from actorcap.lang import (
    EPS,
    LangExpr,
    _key,
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


def eager_includes(sub: LangExpr, sup: LangExpr) -> tuple[bool, int]:
    """`includes(sub, sup)` and the number of pairs the search added before
    its verdict; no state budget.  The two cases `includes` answers without
    a search add none."""
    if sub is sup:
        return True, 0
    if sub is EPS:
        return nullable(sup), 0
    seen: set[tuple[LangExpr, frozenset[LangExpr]]] = set()
    right0 = _terms(sup)
    stack = [(t, right0) for t in sorted(_terms(sub), key=_key, reverse=True)]
    while stack:
        t, rights = stack.pop()
        if t in rights or (t, rights) in seen:
            continue
        accepts = any(nullable(r) for r in rights)
        if nullable(t) and not accepts or t._nonempty and not rights:
            return False, len(seen)
        seen.add((t, rights))
        steps = [
            (s, frozenset().union(*(partial_derivatives(s, r) for r in rights)))
            for s in sorted(symbols(t), reverse=True)
        ]
        if accepts and all(succ_r == rights for _, succ_r in steps):
            continue  # `rights` holds every word over symbols(t)
        for s, succ_r in steps:
            for t2 in sorted(partial_derivatives(s, t), key=_key, reverse=True):
                stack.append((t2, succ_r))
    return True, len(seen)
