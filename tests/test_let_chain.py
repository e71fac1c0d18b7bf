"""Long `let` and `split` chains check, run and print without a RecursionError.

The parser, the checker, the evaluator and the printer walk a chain's right
spine of `let` and `split` heads in a loop, so its length is not bounded by
the Python stack; checking a chain takes time linear in its length.
"""

import math
import pathlib
import sys
import time

from actorcap.checker import check_program
from actorcap.cli import main
from actorcap.runtime import Trace, init_config, run
from actorcap.syntax import parse_program, pretty_print

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import gen  # noqa: E402  (the benchmark's program generators)

N = 3000
SOURCE = gen.chain_program(N, "t")


def test_checks():
    typed = check_program(parse_program(SOURCE))
    assert typed.warnings == []


def test_checking_time_grows_linearly():
    # The checker updates one environment in place along the chain; copying
    # it at every binding made checking quadratic (exponent about 1.8).  The
    # exponent is scale-free, and the best of five runs damps the noise of
    # a shared machine.
    def best(n):
        program = parse_program(gen.chain_program(n, "t"))
        runs = []
        for _ in range(5):
            start = time.perf_counter()
            check_program(program)
            runs.append(time.perf_counter() - start)
        return min(runs)

    exponent = math.log(best(6400) / best(800)) / math.log(8)
    assert exponent < 1.4, exponent


def test_cli_check_exits_0(tmp_path, capsys):
    path = tmp_path / "chain.acap"
    path.write_text(SOURCE)
    assert main(["check", str(path)]) == 0
    assert "well typed" in capsys.readouterr().out


def test_prints_and_reparses_to_the_same_text():
    # Texts, not trees, are compared: `Expr.__eq__` recurses down the chain.
    text = pretty_print(parse_program(SOURCE))
    assert pretty_print(parse_program(text)) == text


def test_unmonitored_run_is_quiescent():
    program = parse_program(SOURCE)
    typed = check_program(program)
    trace = Trace()
    config = init_config(program, typed=typed, monitor=False, trace=trace)
    trace, outcome = run(config, typed=typed, monitor=False, trace=trace,
                         max_deliveries=2 * N)
    assert outcome == "quiescent"
    sends = [e for e in trace.events if e.kind == "send" and e.msg.startswith("d_")]
    assert len(sends) == N - 1


def test_dropped_bindings_keep_their_order():
    """A let chain's dropped-binding warnings, in order."""
    source = """msg d : Unit
beh[<Unit>]{
  Unit(m) =>
    let a = spawn(beh[<d>]{ d(x) => beh[eps]{ } })
    in let b = spawn(beh[<d>]{ d(x) => beh[eps]{ } })
    in beh[eps]{ }
}
"""
    typed = check_program(parse_program(source), warn_dropped=True)
    got = [(w.name, w.loc.line, w.loc.col) for w in typed.warnings]
    assert got == [("a", 5, 40), ("a", 5, 22), ("b", 6, 8)]


SPLITS = 1500
SPLIT_SOURCE = (
    "beh[<Unit>]{\n  Unit(m) =>\n    let x0 = 0\n"
    + "".join(f"    in split x{i} as x{i + 1}: Nat, y{i}: Nat\n" for i in range(SPLITS))
    + "    in beh[eps]{ }\n}\n"
)


def test_split_chain_checks_runs_and_prints(tmp_path, capsys):
    program = parse_program(SPLIT_SOURCE)
    typed = check_program(program)
    trace = Trace()
    config = init_config(program, typed=typed, monitor=True, trace=trace)
    _, outcome = run(config, typed=typed, monitor=True, trace=trace)
    assert outcome == "quiescent"
    text = pretty_print(program)
    assert text.count("split ") == SPLITS
    assert pretty_print(parse_program(text)) == text
    path = tmp_path / "splits.acap"
    path.write_text(SPLIT_SOURCE)
    assert main(["check", str(path)]) == 0
    assert main(["run", str(path)]) == 0
    assert "quiescent" in capsys.readouterr().out


def test_split_and_let_drops_keep_their_order():
    """Scopes of a mixed chain close innermost first, as nested ones did."""
    source = """msg d : Unit
beh[<Unit>]{
  Unit(m) =>
    let a = spawn(beh[<d>.<d>]{ d(x) => beh[<d>]{ d(y) => beh[eps]{ } } })
    in split a as b: ActorRef[<d>], c: ActorRef[<d>]
    in let u = (let e = b
                in split c as f: ActorRef[<d>], g: ActorRef[eps]
                in ())
    in beh[eps]{ }
}
"""
    typed = check_program(parse_program(source), warn_dropped=True)
    got = [(w.name, w.loc.line, w.loc.col) for w in typed.warnings]
    assert got == [("f", 7, 20), ("e", 6, 17)]
