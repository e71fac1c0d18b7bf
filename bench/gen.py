"""Seeded input generators for the benchmark, each with a known answer.

Every generated operation carries its expected result, fixed by
construction (or, for the corpus, by the file's directory and its
`-- expect:` line).  Nothing here imports `actorcap`: answers never come
from the checker or runtime under test, and the inputs are plain text, so
parsing is part of every timed operation.

Every operation gets its own name tag.  The algebra's memo tables live for
the whole process, so two operations that spelled their message types the
same way would let the second one time cache lookups instead of work.
"""

from __future__ import annotations

import pathlib
import random
import re
from dataclasses import dataclass

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

ACCEPTED = "accepted"
CLEAN_OUTCOMES = frozenset({"quiescent", "depth"})


@dataclass
class Op:
    """One user-level command with its known answer.

    kind is check, alg, run or explore.  For check, `expect` is "accepted"
    or the expected error code; for alg it is the inclusion verdict; for run
    it is the only acceptable outcome, and for explore the set of acceptable
    outcome classes.  run and explore also require that the monitor raise
    no violation.  `pair` links a monitored item to its unmonitored twin.
    `weight` is the share of one operation this one stands for: an
    operation asked under k renamings counts each at 1/k.
    """

    name: str
    kind: str
    family: str
    size: int
    expect: object
    source: str = ""
    query: tuple[str, str] = ("", "")
    monitor: bool = True
    sched_seed: int = 0
    depth: int = 0
    pair: str = ""
    weight: float = 1.0


class Namer:
    """Hands out one fresh, seed-dependent tag per operation."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def tag(self) -> str:
        while True:
            t = "".join(self.rng.choice("bcdfghjkmnpqrstvwxz") for _ in range(5))
            if t not in self.used:
                self.used.add(t)
                return t


# ---------------------------------------------------------------------------
# Program families


def _recv(fn: str, syms: list[str]) -> str:
    """A receiver accepting any number of each symbol, in any order."""
    star = "(" + "|".join(f"<{s}>" for s in syms) + ")*"
    cases = " | ".join(f"{s}(x) => {fn} s" for s in syms)
    return (
        f"(fun {fn}(s: Nat): Beh[{star}] ! eps =>\n"
        f"        beh[{star}]{{ {cases} }}) 0"
    )


def _decls(syms: list[str]) -> str:
    return "".join(f"msg {s} : Unit\n" for s in syms)


def _root(body: str) -> str:
    return f"beh[<Unit>]{{\n  Unit(m) =>\n    {body}\n}}\n"


def chain_program(n: int, tag: str) -> str:
    """A sender whose handler is a chain of n lets: one spawn, n-1 sends."""
    d = f"d_{tag}"
    lines = [f"let t_{tag} = spawn({_recv('mk_' + tag, [d])})"]
    for i in range(1, n):
        lines.append(f"in let u{i}_{tag} = send[{d}](t_{tag}, ())")
    lines.append("in beh[eps]{ }")
    return _decls([d]) + _root("\n    ".join(lines))


def spawn_program(n: int, tag: str) -> str:
    """Spawn at the n-way shuffle capability into an (a1|...|an)* receiver."""
    syms = [f"a{i}_{tag}" for i in range(1, n + 1)]
    cap = "#".join(f"<{s}>" for s in syms)
    body = (
        f"let t_{tag} = spawn[{cap}]({_recv('mk_' + tag, syms)})\n"
        "    in beh[eps]{ }"
    )
    return _decls(syms) + _root(body)


def _word(s: str, m: int) -> str:
    return ".".join([f"<{s}>"] * m)


def fanin_program(k: int, m: int, tag: str, star: bool = False) -> str:
    """k forwarders each send m messages of their own type to one receiver.

    Exact form: forwarder i holds exactly <di>^m.  Star form: it holds
    <di>* and drops the residual when done, which the checker accepts
    (capabilities are affine).
    """
    syms = [f"d{i}_{tag}" for i in range(1, k + 1)]
    go = f"go_{tag}"
    parts = [f"<{s}>*" if star else f"({_word(s, m)})" for s in syms]
    cap = "#".join(parts)
    lines = [f"let r0_{tag} = spawn[{cap}]({_recv('mk_' + tag, syms)})"]
    for i in range(1, k):
        rest = "#".join(parts[i:])
        lines.append(
            f"in split r{i - 1}_{tag} as h{i}_{tag}: ActorRef[{parts[i - 1]}], "
            f"r{i}_{tag}: ActorRef[{rest}]"
        )
    handles = [f"h{i}_{tag}" for i in range(1, k)] + [f"r{k - 1}_{tag}"]
    for i, (s, h) in enumerate(zip(syms, handles), 1):
        sends = " in ".join(f"let v{j} = send[{s}](r, ())" for j in range(m))
        lines.append(
            f"in let f{i}_{tag} = spawn((fun mf{i}_{tag}(r: ActorRef[{parts[i - 1]}]): "
            f"Beh[<{go}>] ! eps =>\n"
            f"        beh[<{go}>]{{ {go}(x) => {sends} in beh[eps]{{ }} }}) {h})"
        )
    for i in range(1, k + 1):
        lines.append(f"in let g{i}_{tag} = send[{go}](f{i}_{tag}, ())")
    lines.append("in beh[eps]{ }")
    return _decls(syms + [go]) + _root("\n    ".join(lines))


def shuffle_star_query(n: int, tag: str, near_miss: bool) -> tuple[str, str]:
    """<a1>#...#<an> against (<a1>|...|<an>)*, or against a star missing a1."""
    syms = [f"<a{i}_{tag}>" for i in range(1, n + 1)]
    star_syms = syms[1:] if near_miss else syms
    return "#".join(syms), "(" + "|".join(star_syms) + ")*"


def self_split_query(n: int, tag: str) -> tuple[str, str]:
    """L # L against L for L = (<a1>.<b1>)* # ... # (<an>.<bn>)*; false."""
    lang = "#".join(f"(<a{i}_{tag}>.<b{i}_{tag}>)*" for i in range(1, n + 1))
    return f"({lang})#({lang})", lang


# ---------------------------------------------------------------------------
# The corpus, renamed

# Reserved words of programs and of protocol languages; every other word
# is a message type or an identifier and gets renamed.
_RESERVED = frozenset({
    "msg", "beh", "spawn", "send", "self", "split", "as", "in", "let", "fun",
    "if", "then", "else", "true", "false", "Bool", "Nat", "Unit", "ActorRef",
    "Beh", "eps",
})
_WORD = re.compile(r"\b[A-Za-z_]\w*\b")
_EXPECT = re.compile(r"--\s*expect:\s*(\w+)")


def rename(source: str, tag: str) -> str:
    """Suffix every message type and identifier with the tag.

    A consistent renaming outside comments keeps the program's meaning and
    gives it syntax trees and languages no other operation shares.
    """
    out = []
    for line in source.splitlines(keepends=True):
        code, sep, comment = line.partition("--")
        code = _WORD.sub(
            lambda mt: mt[0] if mt[0] in _RESERVED else f"{mt[0]}_{tag}", code
        )
        out.append(code + sep + comment)
    return "".join(out)


def corpus(kind: str) -> list[tuple[str, str, str]]:
    """(stem, source, expected check answer) for corpus/<kind>/*.acap."""
    out = []
    for path in sorted((CORPUS / kind).glob("*.acap")):
        src = path.read_text()
        if kind == "positive":
            expect = ACCEPTED
        else:
            found = _EXPECT.search(src)
            if found is None:
                raise ValueError(f"{path} has no '-- expect:' line")
            expect = found.group(1)
        out.append((path.stem, src, expect))
    if not out:
        raise FileNotFoundError(f"no corpus programs under {CORPUS / kind}")
    return out


# ---------------------------------------------------------------------------
# Workloads


def check_scale(rng: random.Random, sizes=None) -> list[Op]:
    sizes = sizes or {}
    namer = Namer(rng)
    ops: list[Op] = []
    for n in sizes.get("chain", (100, 200, 400, 800)):
        ops.append(Op(f"check/chain-{n}", "check", "chain", n, ACCEPTED,
                      source=chain_program(n, namer.tag())))
    for n in sizes.get("spawn", (6, 8, 10, 12)):
        ops.append(Op(f"check/spawn-shuffle-{n}", "check", "spawn", n, ACCEPTED,
                      source=spawn_program(n, namer.tag())))
    for n in sizes.get("includes", (8, 10, 12)):
        for near in (False, True):
            label = "false" if near else "true"
            ops.append(Op(f"alg/shuffle-star-{n}-{label}", "alg",
                          f"includes_{label}", n, not near,
                          query=shuffle_star_query(n, namer.tag(), near)))
    # A self-split search is refuted sooner or later depending on the order
    # it meets the symbols in, which follows their names and the hash seed:
    # n=5 takes 0.01 s to 1 s.  One draw per workload seed would move
    # wall_s by up to a fifth between seeds, so each size is asked under
    # several renamings, each counting at 1/k: the times then carry the
    # mean cost over orders.
    k = sizes.get("self_split_names", 4)
    for n in sizes.get("self_split", (3, 4, 5)):
        for copy in range(k):
            ops.append(Op(f"alg/self-split-{n}#{copy}", "alg", "self_split", n, False,
                          query=self_split_query(n, namer.tag()), weight=1 / k))
    # Corpus checks take about a millisecond each, so each is done under
    # several renamings: one sample per program would let a moment of
    # machine noise move op_geomean_ms.
    for copy in range(sizes.get("corpus_copies", 5)):
        for kind in ("positive", "negative"):
            for stem, src, expect in corpus(kind):
                ops.append(Op(f"check/corpus-{kind[:3]}-{stem}#{copy}", "check",
                              "corpus", 1, expect, source=rename(src, namer.tag())))
    return ops


def _twins(namer: Namer, base: str, kind: str, family: str, size: int,
           build, expect, **kw) -> list[Op]:
    """The same item with the monitor on and off, each under its own names."""
    on = Op(f"{base}/mon", kind, f"{family}/mon", size, expect,
            source=build(namer.tag()), monitor=True, **kw)
    off = Op(f"{base}/nomon", kind, f"{family}/nomon", size, expect,
             source=build(namer.tag()), monitor=False, pair=on.name, **kw)
    return [on, off]


def run_seeded(rng: random.Random, sizes=None) -> list[Op]:
    sizes = sizes or {}
    namer = Namer(rng)
    # Scheduler seeds are fixed, not drawn from the workload seed.  The
    # monitored 4x3 fan-in takes 0.09-4.2 s or overflows the merge cap
    # (14 of seeds 0-39) depending on delivery order, and an overflow counts
    # at the 10 s limit, so seed-drawn schedules would move wall_s by tens
    # of seconds between workload seeds.
    seeds = range(sizes.get("sched_seeds", 4))
    items = []
    for n in sizes.get("chain", (100, 200, 400)):
        items.append((f"chain-{n}", "chain", n, lambda t, n=n: chain_program(n, t)))
    for k, m in sizes.get("fanin", ((3, 3), (4, 2), (4, 3))):
        items.append((f"fanin-{k}x{m}", "fanin", k * m,
                      lambda t, k=k, m=m: fanin_program(k, m, t)))
    k, m = sizes.get("star_fanin", (3, 2))
    items.append((f"star-forwarder-{k}x{m}", "star_fanin", k * m,
                  lambda t: fanin_program(k, m, t, star=True)))
    for stem, src, _ in corpus("positive"):
        items.append((f"corpus-{stem}", "corpus", 1,
                      lambda t, src=src: rename(src, t)))
    ops: list[Op] = []
    for base, family, size, build in items:
        for s in seeds:
            ops += _twins(namer, f"run/{base}/s{s}", "run", family, size, build,
                          "quiescent", sched_seed=s)
    return ops


def explore_fanin(rng: random.Random, sizes=None) -> list[Op]:
    sizes = sizes or {}
    namer = Namer(rng)
    items = []
    # 3x3 is cut to depth 4 (1.2 s monitored; depth 8 takes over 10 s);
    # 3x2 to depth 12 runs to completion with three senders in flight.
    for k, m, depth in sizes.get("fanin", ((3, 2, 12), (2, 3, 12), (3, 3, 4))):
        items.append((f"fanin-{k}x{m}-d{depth}", f"fanin-{k}x{m}", depth, depth,
                      lambda t, k=k, m=m: fanin_program(k, m, t)))
    depth = sizes.get("corpus_depth", 8)
    for copy in range(sizes.get("corpus_copies", 3)):
        for stem, src, _ in corpus("positive"):
            items.append((f"corpus-{stem}-d{depth}#{copy}", "corpus", depth, depth,
                          lambda t, src=src: rename(src, t)))
    ops: list[Op] = []
    for base, family, size, depth, build in items:
        ops += _twins(namer, f"explore/{base}", "explore", family, size, build,
                      CLEAN_OUTCOMES, depth=depth)
    return ops


WORKLOADS = {
    "check-scale": check_scale,
    "run-seeded": run_seeded,
    "explore-fanin": explore_fanin,
}


def spread_out(ops: list[Op]) -> list[Op]:
    """Interleave the families evenly over the pass.

    The machine's speed drifts over seconds; spreading each family over the
    whole pass lets its many short operations sample the drift instead of
    all landing in one slow or fast stretch.
    """
    groups: dict[str, list[Op]] = {}
    for op in ops:
        groups.setdefault(op.family, []).append(op)
    keyed = [((i + 0.5) / len(g), op) for g in groups.values() for i, op in enumerate(g)]
    return [op for _, op in sorted(keyed, key=lambda t: t[0])]


def build(workload: str, seed: int, sizes=None) -> list[Op]:
    return spread_out(WORKLOADS[workload](random.Random(f"{workload}:{seed}"), sizes))
