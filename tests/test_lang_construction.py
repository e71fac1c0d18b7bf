"""Building language nodes: the smart constructors, the facts each new
node computes, and how construction time grows along a chain.

`alt`, `cat`, `shuffle` and `conj` take two or more operands.  `alt`,
`shuffle` and `conj` build one flat node over all of them, and `cat` a
right-nested chain (given two, it keeps a chain on the right whole).  Each
must make the tests' own canonical form (`reference_normalize`) of the raw
node over the same operands.  A new node computes its four facts from its
operands' (`LangExpr._facts`), which must agree with a recursion over the
whole tree, a flat node's with that over the chain of pairs it stands for.
"""

import math
import random
import time
from functools import reduce

import hypothesis.strategies as st
from hypothesis import given, settings

from actorcap import lang
from actorcap.lang import (
    Alt,
    And,
    Cat,
    EMPTY,
    EPS,
    Empty,
    Eps,
    Shuffle,
    Star,
    Sym,
    alt,
    cat,
    conj,
    derivative,
    parse_lang,
    partial_derivatives,
    shuffle,
)

from langgen import ALPHABET, random_expr, reference_normalize

CONSTRUCTORS = ((Alt, alt), (Cat, cat), (Shuffle, shuffle), (And, conj))


def canonical(seed: int):
    return reference_normalize(random_expr(random.Random(seed)))


def chain_of(cls, seeds):
    return dict(CONSTRUCTORS)[cls](*[canonical(s) for s in seeds])


seeds = st.integers(0, 2**16)
operands = st.one_of(
    st.sampled_from([EMPTY, EPS, Sym(ALPHABET[0])]),
    seeds.map(canonical),
    # Chains of every class, so each constructor meets its own class's
    # chains, and the other classes', on either side.
    st.builds(
        chain_of,
        st.sampled_from([cls for cls, _ in CONSTRUCTORS]),
        st.lists(seeds, min_size=2, max_size=4),
    ),
)


@settings(max_examples=300, deadline=None)
@given(operands, operands)
def test_two_operands_build_the_canonical_form(a, b):
    for cls, build in CONSTRUCTORS:
        want = reference_normalize(cls(a, b))
        assert build(a, b) is want, (cls.__name__, str(a), str(b))


@settings(max_examples=300, deadline=None)
@given(st.lists(operands, min_size=3, max_size=4), st.booleans())
def test_more_operands_build_the_canonical_form(parts, nest_left):
    # However the raw node nests the operands, one call over all of them
    # makes its canonical form.
    for cls, build in CONSTRUCTORS:
        if nest_left:
            raw = reduce(cls, parts)
        else:
            raw = reduce(lambda right, p: cls(p, right), reversed(parts))
        want = reference_normalize(raw)
        assert build(*parts) is want, (cls.__name__, [str(p) for p in parts])


_RANK = {Empty: 0, Eps: 1, Sym: 2, Star: 3, Cat: 4, Shuffle: 5, And: 6, Alt: 7}


def scratch_facts(e):
    """The four facts of `e` by recursion over the whole tree, checking the
    facts each node stored on the way: the order key is the class's rank
    and its operands' keys; the symbols are those of every `Sym` below, as
    a sorted tuple; a word is known to be held without `&` exactly when the
    language is nonempty, and under `&` when the empty word is."""
    match e:
        case Empty() | Eps():
            facts = (_RANK[type(e)],), e is EPS, (), e is EPS
        case Sym(s):
            facts = (2, s), False, (s,), True
        case Star(inner):
            order, _, syms, _ = scratch_facts(inner)
            facts = (3, order), True, syms, True
        case Cat(l, r):
            lo, ln, ls, lf = scratch_facts(l)
            ro, rn, rs, rf = scratch_facts(r)
            facts = (4, lo, ro), ln and rn, tuple(sorted({*ls, *rs})), lf and rf
        case Shuffle(items) | And(items) | Alt(items):
            # The facts of the right-nested chain of pairs the node stands for.
            *init, (order, null, syms, full) = map(scratch_facts, items)
            for lo, ln, ls, lf in reversed(init):
                order = (_RANK[type(e)], lo, order)
                syms = tuple(sorted({*ls, *syms}))
                if isinstance(e, Alt):
                    null, full = ln or null, lf or full
                elif isinstance(e, And):
                    null = full = ln and null
                else:
                    null, full = ln and null, lf and full
            facts = order, null, syms, full
    assert (e._order, e._nullable, e._symbols, e._nonempty) == facts, str(e)
    return facts


@settings(max_examples=300, deadline=None)
@given(seeds)
def test_node_facts_match_a_recursion_over_the_tree(seed):
    raw = random_expr(random.Random(seed))
    built = [raw, reference_normalize(raw)]
    for s in ALPHABET:
        built.append(derivative(s, built[1]))
        built.extend(partial_derivatives(s, built[1]))
    for e in built:
        scratch_facts(e)


def test_symbols_of_long_chains_are_exact():
    # The symbols of a `.` node that brings new ones to a long chain are
    # inserted into the chain's tuple; a node that brings none shares it.
    # An `|`, `#` or `&` node holds one tuple for all of its operands.
    names = [f"f{i}" for i in range(300)]
    for op in ".|#&":
        e = parse_lang(op.join(f"<{n}>" for n in names))
        scratch_facts(e)
        again = parse_lang(f"(<f7>{op}<f150>{op}<f299>)*")
        both = lang._union(e._symbols, again._symbols)
        assert both is e._symbols
    mixed = parse_lang("(" + "|".join(f"<g{i}>" for i in range(50)) + ")#<f3>.<f1>")
    scratch_facts(mixed)


_RUNS = iter(range(10**9))


def _best_build_s(op: str, n: int) -> float:
    """Best of five parses of an `op` chain of n distinct symbols, each
    with fresh names (nodes are interned, so a repeated text would build
    nothing).  The nodes are taken out of the table after each parse:
    a `.` chain's symbol tuples hold about 4 * n**2 bytes."""
    times = []
    for _ in range(5):
        run = next(_RUNS)
        text = op.join(f"<c{run}_{i}>" for i in range(n))
        before = len(lang._NODES)
        start = time.perf_counter()
        parse_lang(text)
        times.append(time.perf_counter() - start)
        for key in list(lang._NODES)[before:]:
            del lang._NODES[key]
    return min(times)


def test_chain_construction_grows_below_a_sort_per_node():
    # An `|`, `#` or `&` chain is one node, built by one sort of its
    # operands and one union of their symbols: the exponent reads 0.85-1.12
    # on a shared 2-core x86-64 machine (1.6-1.7 when they were right-nested
    # pairs).  A `.` chain is still right-nested: a node that brings one new
    # symbol copies the chain's symbol tuple once, where sorting both
    # operands' symbols at every node made a 4,000-symbol chain take about
    # 2 s (exponent about 2.2 over 1,000 symbols).  The copies still add up
    # to n**2/2 names, and the collector scans each new tuple once, so its
    # exponent reads 1.7-1.8.  It is scale-free; the best of five damps the
    # noise.
    for op, bound in zip(".|#&", (2.0, 1.4, 1.4, 1.4)):
        exponent = math.log(_best_build_s(op, 4000) / _best_build_s(op, 1000)) / math.log(4)
        assert exponent < bound, (op, exponent)
