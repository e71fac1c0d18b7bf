#!/usr/bin/env python3
"""Walk through the nop*/act protocol with the language algebra, then watch
the corresponding program execute under the capability monitor."""

import pathlib

from actorcap import lang as lng
from actorcap.checker import check_program
from actorcap.lang import cat, shuffle, star, sym
from actorcap.runtime import Trace, init_config, run
from actorcap.syntax import parse_program

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def algebra_walkthrough():
    nop, act = sym("nop"), sym("act")
    protocol = cat(cat(star(nop), act), star(nop))
    print("protocol     :", protocol)
    print("split halves :", act, "and", star(nop))
    halves = shuffle(act, star(nop))
    print("shuffle      :", halves)
    print("split ok     :", lng.includes(halves, protocol))
    after_act = lng.derivative("act", protocol)
    print("after act    :", after_act, "=", star(nop), "?",
          lng.equiv(after_act, star(nop)))
    twice = lng.derivative("act", after_act)
    print("second act   : empty?", lng.is_empty(twice))
    print("words <= 3   :",
          sorted("".join(w) or "eps"
                 for w in lng.enumerate_words(protocol, 3)))


def run_delegation():
    src = (CORPUS / "positive" / "split_delegate.acap").read_text()
    prog = parse_program(src)
    typed = check_program(prog)
    trace = Trace(seed=0)
    config = init_config(prog, typed=typed, trace=trace)
    trace, outcome = run(config, typed=typed, seed=0, trace=trace)
    print()
    print("-- split_delegate.acap under the monitor, seed 0")
    print(trace.to_text(), end="")
    print("violations:", len(trace.violations()))


if __name__ == "__main__":
    algebra_walkthrough()
    run_delegation()
