import itertools
import random

import hypothesis.strategies as st
from hypothesis import example, given, settings

from actorcap.lang import (
    Alt,
    And,
    Cat,
    EMPTY,
    EPS,
    Shuffle,
    Star,
    Sym,
    alt,
    cat,
    conj,
    derivative,
    enumerate_words,
    equiv,
    includes,
    is_empty,
    member,
    nullable,
    partial_derivatives,
    shuffle,
    star,
    word_derivative,
)

from langgen import ALPHABET, random_expr, reference_normalize
from naive_includes import naive_includes

A, B, C = ALPHABET

leaves = st.sampled_from([EMPTY, EPS, Sym(A), Sym(B), Sym(C), Sym(A), Sym(B)])
exprs = st.recursive(
    leaves,
    lambda ch: st.one_of(
        st.builds(Cat, ch, ch),
        st.builds(Alt, ch, ch),
        st.builds(Star, ch),
        st.builds(Shuffle, ch, ch),
        st.builds(And, ch, ch),
    ),
    max_leaves=8,
)
symbols = st.sampled_from(ALPHABET)
words = st.lists(symbols, max_size=4).map(tuple)


@settings(max_examples=120, deadline=None)
@given(exprs)
def test_member_agrees_with_enumeration_oracle(e):
    words_of_e = enumerate_words(e, 3)
    for n in range(4):
        for cand in itertools.product(ALPHABET, repeat=n):
            assert member(cand, e) == (cand in words_of_e)


@settings(max_examples=150, deadline=None)
@given(symbols, exprs, words)
def test_derivative_soundness(s, e, rest):
    assert member(rest, derivative(s, e)) == member((s,) + rest, e)


@settings(max_examples=200, deadline=None)
@given(symbols, exprs)
# A partial derivative that is itself a union: <a>|<b> next to <c>.
@example(A, Alt(Cat(Sym(A), Alt(Sym(A), Sym(B))), Cat(Sym(A), Sym(C))))
def test_derivative_matches_enumeration_oracle(s, e):
    e = reference_normalize(e)
    d = derivative(s, e)
    expected = {w[1:] for w in enumerate_words(e, 5) if w[:1] == (s,)}
    assert enumerate_words(d, 4) == expected
    assert reference_normalize(d) is d  # the union of the terms is canonical


@settings(max_examples=100, deadline=None)
@given(words, words, exprs)
def test_word_derivative_composition(w1, w2, e):
    assert equiv(
        word_derivative(w1 + w2, e),
        word_derivative(w2, word_derivative(w1, e)),
    )


@settings(max_examples=100, deadline=None)
@given(exprs, exprs)
def test_shuffle_commutative(e1, e2):
    assert equiv(shuffle(e1, e2), shuffle(e2, e1))


@settings(max_examples=80, deadline=None)
@given(exprs, exprs, exprs)
def test_shuffle_associative(e1, e2, e3):
    assert equiv(shuffle(shuffle(e1, e2), e3), shuffle(e1, shuffle(e2, e3)))


@settings(max_examples=100, deadline=None)
@given(exprs)
def test_shuffle_eps_unit(e):
    assert equiv(shuffle(e, EPS), e)
    assert equiv(shuffle(EPS, e), e)


@settings(max_examples=80, deadline=None)
@given(exprs, exprs, exprs)
def test_shuffle_distributes_over_union_both_sides(e1, e2, e3):
    assert equiv(shuffle(e1, alt(e2, e3)), alt(shuffle(e1, e2), shuffle(e1, e3)))
    assert equiv(shuffle(alt(e1, e2), e3), alt(shuffle(e1, e3), shuffle(e2, e3)))


@settings(max_examples=120, deadline=None)
@given(exprs)
def test_includes_reflexive(e):
    assert includes(e, e)


@settings(max_examples=100, deadline=None)
@given(exprs, exprs, exprs)
def test_includes_transitive_on_union_chain(e1, e2, e3):
    lo, mid, hi = e1, alt(e1, e2), alt(alt(e1, e2), e3)
    assert includes(lo, mid) and includes(mid, hi) and includes(lo, hi)


@settings(max_examples=100, deadline=None)
@given(exprs, exprs)
def test_includes_antisymmetric_up_to_equiv(e1, e2):
    if includes(e1, e2) and includes(e2, e1):
        assert equiv(e1, e2)


@settings(max_examples=150, deadline=None)
@given(exprs)
def test_normalize_idempotent_and_denotation_preserving(e):
    n = reference_normalize(e)
    assert reference_normalize(n) is n
    assert enumerate_words(e, 3) == enumerate_words(n, 3)


@settings(max_examples=120, deadline=None)
@given(exprs)
def test_is_empty_consistent_with_enumeration(e):
    if is_empty(e):
        assert enumerate_words(e, 5) == set()
    if enumerate_words(e, 3):
        assert not is_empty(e)


@settings(max_examples=100, deadline=None)
@given(symbols, exprs, exprs)
def test_shuffle_derivative_rule(s, e1, e2):
    expected = alt(
        shuffle(derivative(s, e1), e2), shuffle(e1, derivative(s, e2))
    )
    assert equiv(derivative(s, shuffle(e1, e2)), expected)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**16))
def test_operations_build_canonical_forms(seed):
    # Canonical by construction: what the operations build from canonical
    # operands is its own rebuild, with no normalising pass anywhere.
    e = reference_normalize(random_expr(random.Random(seed)))
    built = [e]
    for s in ALPHABET:
        built.append(derivative(s, e))
        built.extend(partial_derivatives(s, e))
    for x, y in itertools.combinations_with_replacement(built, 2):
        for z in (alt(x, y), cat(x, y), shuffle(x, y), conj(x, y), star(x)):
            assert reference_normalize(z) is z


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**16), st.integers(0, 2**16))
def test_equality_is_identity(seed1, seed2):
    e1 = random_expr(random.Random(seed1))
    e2 = random_expr(random.Random(seed2))
    assert (e1 == e2) == (e1 is e2) == (repr(e1) == repr(e2))
    assert random_expr(random.Random(seed1)) is e1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**16))
def test_includes_shortcuts_agree_with_the_search(seed):
    # `includes` answers `eps <= x` and `x <= x` without the pair search;
    # the rule-free search and the word oracle give the same answers, and
    # the canonical rebuild, a different tree when `x` is not canonical,
    # goes through the search both ways.
    x = random_expr(random.Random(seed))
    assert includes(EPS, x) == nullable(x) == naive_includes(EPS, x)
    assert includes(EPS, x) == (() in enumerate_words(x, 0))
    assert includes(x, x) and naive_includes(x, x)
    y = reference_normalize(x)
    assert includes(x, y) and includes(y, x)
