"""Self-test of the benchmark: small-size smoke passes and input oracles.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from actorcap import checker, lang, syntax  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMALL = {
    "check-scale": {"chain": (5, 10), "spawn": (3, 4), "includes": (3, 4),
                    "self_split": (2,), "self_split_names": 2, "corpus_copies": 1},
    "run-seeded": {"chain": (5, 10), "fanin": ((2, 2),), "star_fanin": (2, 2),
                   "sched_seeds": 2},
    "explore-fanin": {"fanin": ((2, 2, 6),),
                      "corpus_depth": 3, "corpus_copies": 1},
}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(gen.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_pass_emits_every_metric(workload):
    ops = gen.build(workload, 7, SMALL[workload])
    plain = worker.execute(workload, ops, trace=False)
    traced = worker.execute(workload, ops, trace=True)
    for p in (plain, traced):
        assert not any(run.unexpected(op) for op in p["ops"]), p["ops"]
    e2e = run.end_to_end([plain], [0.01])
    layers = run.per_layer([plain], [traced])
    for spec, got in (("end_to_end", e2e), ("per_layer", layers)):
        for metric in SPEC[spec]:
            assert metric["name"] in got, metric["name"]
            assert got[metric["name"]][1] == metric["unit"], metric["name"]
        assert set(got) == {m["name"] for m in SPEC[spec]}


def test_inputs_depend_only_on_the_seed():
    for workload in run.WORKLOADS:
        a = gen.build(workload, 3, SMALL[workload])
        b = gen.build(workload, 3, SMALL[workload])
        c = gen.build(workload, 4, SMALL[workload])
        assert [(o.source, o.query) for o in a] == [(o.source, o.query) for o in b]
        assert [(o.source, o.query) for o in a] != [(o.source, o.query) for o in c]


def _oracle_includes(left: str, right: str, bound: int) -> bool:
    """Inclusion of the words up to `bound`, by the derivative-free evaluator."""
    l, r = lang.parse_lang(left), lang.parse_lang(right)
    return lang.enumerate_words(l, bound) <= lang.enumerate_words(r, bound)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shuffle_star_answers_match_the_oracle(n):
    # Every word of the n-way shuffle has length n, so a bound of n is exact.
    assert _oracle_includes(*gen.shuffle_star_query(n, "t", near_miss=False), n)
    assert not _oracle_includes(*gen.shuffle_star_query(n, "t", near_miss=True), n)


@pytest.mark.parametrize("n", [1, 2])
def test_self_split_answer_matches_the_oracle(n):
    # a1 a1 b1 b1 is in L # L and not in L: a witness of length 4.
    assert not _oracle_includes(*gen.self_split_query(n, "t"), 4)


def _verdict(source: str) -> str:
    try:
        checker.check_program(syntax.parse_program(source))
        return gen.ACCEPTED
    except checker.TypeCheckError as e:
        return e.code.value


def test_renaming_preserves_corpus_verdicts():
    rng = random.Random(0)
    for kind in ("positive", "negative"):
        for stem, source, expect in gen.corpus(kind):
            renamed = gen.rename(source, gen.Namer(rng).tag())
            assert renamed != source, stem
            assert _verdict(source) == expect, stem
            assert _verdict(renamed) == expect, stem


def test_generated_programs_are_accepted_at_small_sizes():
    sources = [gen.chain_program(6, "t"), gen.spawn_program(3, "t"),
               gen.fanin_program(2, 2, "t"), gen.fanin_program(3, 2, "u", star=True)]
    assert [_verdict(s) for s in sources] == [gen.ACCEPTED] * len(sources)
