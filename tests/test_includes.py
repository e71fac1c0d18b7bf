"""`lang.includes` against the rule-free pair search (`naive_includes`).

The search discharges a pair whose right side is nullable and steps back to
itself on every symbol of the left term.  The right sides drawn here are
often of that kind: a star over some of the alphabet, alone or under a
union, concatenation or shuffle with another expression.
"""

import functools
import random

import hypothesis.strategies as st
from hypothesis import given, settings

from actorcap.lang import Sym, alt, cat, includes, shuffle, star

from langgen import ALPHABET, random_expr
from naive_includes import naive_includes

exprs = st.integers(0, 2**16).map(lambda seed: random_expr(random.Random(seed)))
stars = st.lists(st.sampled_from(ALPHABET), min_size=1, unique=True).map(
    lambda syms: star(functools.reduce(alt, map(Sym, syms)))
)
stars_under = st.builds(
    lambda op, flip, s, e: op(e, s) if flip else op(s, e),
    st.sampled_from([alt, cat, shuffle]), st.booleans(), stars, exprs,
)


@settings(max_examples=400, deadline=None)
@given(exprs, st.one_of(exprs, stars, stars_under))
def test_includes_agrees_with_the_rule_free_search(e1, e2):
    assert includes(e1, e2) == naive_includes(e1, e2)
