"""`lang.includes` and `lang.is_empty` against the rule-free pair search
(`naive_includes`).

The search discharges a pair whose right side is nullable and steps back to
itself on every symbol of the left term.  The right sides drawn here are
often of that kind: a star over some of the alphabet, alone or under a
union, concatenation or shuffle with another expression.  It also refutes
a pair whose right side is empty as soon as the left term is known
nonempty, so right sides that are `0` or an `&` term are drawn too.

The search walks pairs in an order fixed by the expressions, so its
verdicts and the derivatives it computes do not depend on the hash seed.
It derives a pair's successors only when it steps to them, so it must
agree with the search that derived them all at once (`eager_includes`) on
each verdict and on the pair at which a state budget is refused, and a
refutation must cache fewer partial derivatives.
"""

import functools
import json
import os
import pathlib
import random
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import actorcap
from actorcap import lang
from actorcap.cli import main
from actorcap.lang import (
    EMPTY,
    EPS,
    And,
    StateBudgetExceeded,
    Sym,
    alt,
    cat,
    includes,
    is_empty,
    parse_lang,
    partial_derivatives,
    shuffle,
    star,
)

from langgen import ALPHABET, random_expr
from naive_includes import eager_includes, naive_includes

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import gen  # noqa: E402  (the benchmark's query generators)

exprs = st.integers(0, 2**16).map(lambda seed: random_expr(random.Random(seed)))
stars = st.lists(st.sampled_from(ALPHABET), min_size=1, unique=True).map(
    lambda syms: star(functools.reduce(alt, map(Sym, syms)))
)
stars_under = st.builds(
    lambda op, flip, s, e: op(e, s) if flip else op(s, e),
    st.sampled_from([alt, cat, shuffle]), st.booleans(), stars, exprs,
)
conjunctions = st.builds(And, st.one_of(exprs, stars), exprs)
rights = st.one_of(exprs, stars, stars_under, conjunctions, st.just(EMPTY))


@settings(max_examples=400, deadline=None)
@given(exprs, rights)
def test_includes_agrees_with_the_rule_free_search(e1, e2):
    assert includes(e1, e2) == naive_includes(e1, e2)


@settings(max_examples=400, deadline=None)
@given(exprs, rights)
def test_includes_agrees_with_the_eager_search(e1, e2):
    assert includes(e1, e2) == eager_includes(e1, e2)[0]


@settings(max_examples=200, deadline=None)
@given(st.one_of(exprs, stars_under), rights)
def test_budget_is_refused_where_the_eager_search_passes_it(e1, e2):
    verdict, pairs = eager_includes(e1, e2)
    for k in range(1, pairs + 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lang, "STATE_BUDGET", k)
            if pairs > k:
                with pytest.raises(StateBudgetExceeded):
                    includes(e1, e2)
            else:
                assert includes(e1, e2) == verdict


@settings(max_examples=400, deadline=None)
@given(st.one_of(exprs, conjunctions))
def test_is_empty_agrees_with_the_rule_free_search(e):
    assert is_empty(e) == naive_includes(e, EMPTY)
    if e._nonempty:
        assert not is_empty(e)


# Verdicts and the number of cached partial derivatives for each query,
# printed as JSON: the self-splits at n = 3..7, the near-miss shuffles at
# n = 8, 12 and 16, and the check of every corpus program.
SEED_SCRIPT = """
import json, pathlib, sys
sys.path.insert(0, sys.argv[1] + "/bench")
import gen
from actorcap.checker import TypeCheckError, check_program
from actorcap.lang import includes, parse_lang, partial_derivatives
from actorcap.syntax import parse_program

def measured(name, run):
    partial_derivatives.cache_clear()
    out.append([name, run(), partial_derivatives.cache_info().currsize])

def check(path):
    try:
        check_program(parse_program(path.read_text()))
    except TypeCheckError as exc:
        return exc.code.value
    return "accepted"

out = []
queries = [("self_split", n, gen.self_split_query(n, "x")) for n in range(3, 8)]
queries += [("near_miss", n, gen.shuffle_star_query(n, "x", True)) for n in (8, 12, 16)]
for family, n, (sub, sup) in queries:
    measured(f"{family}-{n}", lambda: includes(parse_lang(sub), parse_lang(sup)))
for path in sorted(pathlib.Path(sys.argv[1], "corpus").glob("*/*.acap")):
    measured(path.stem, lambda: check(path))
print(json.dumps(out))
"""


def test_search_does_not_depend_on_the_hash_seed():
    runs = []
    for seed in ("0", "3"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=str(pathlib.Path(actorcap.__file__).parents[1]),
        )
        proc = subprocess.run(
            [sys.executable, "-c", SEED_SCRIPT, str(ROOT)],
            env=env, capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    sizes = {name: size for name, _, size in runs[0]}
    verdicts = {name: verdict for name, verdict, _ in runs[0]}
    assert [verdicts[f"self_split-{n}"] for n in range(3, 8)] == [False] * 5
    assert [verdicts[f"near_miss-{n}"] for n in (8, 12, 16)] == [False] * 3
    assert len(verdicts) > 8  # the corpus was found
    # Refuted near the first empty right side.  Walked in hash order, the
    # same query reaches 196,546 derivatives under hash seed 2 and 236,054
    # under seed 3.
    assert sizes["self_split-7"] < 2_000


def cached_derivatives(query) -> int:
    """Partial derivatives cached while `includes` refutes `query`."""
    sub, sup = map(parse_lang, query)
    partial_derivatives.cache_clear()
    assert not includes(sub, sup)
    return partial_derivatives.cache_info().currsize


@pytest.mark.parametrize("n", range(3, 8))
def test_a_self_split_derives_linearly_many_terms(n):
    # Deriving every successor of every pair the walk passed cached 144,
    # 264, 420, 612 and 840: a square in n.
    assert cached_derivatives(gen.self_split_query(n, "x")) <= 10 * n


def test_a_near_miss_derives_fewer_terms_than_every_successor():
    assert cached_derivatives(gen.shuffle_star_query(16, "x", True)) < 736


def test_cli_18_way_shuffle_into_the_star_of_its_symbols(capsys):
    # Holds at its first derivative pair; walked in full, the 2**18
    # derivatives of the shuffle exceed the state budget (exit 5).
    syms = [f"<a{i}>" for i in range(1, 19)]
    code = main(["alg", "includes", "#".join(syms), "(" + "|".join(syms) + ")*"])
    assert (code, capsys.readouterr().out) == (0, "true\n")


def test_rebuilding_units_gives_the_unit():
    assert shuffle(EPS, EPS) is EPS
    assert cat(EPS, EPS) is EPS
    assert alt(EMPTY, EMPTY) is EMPTY
