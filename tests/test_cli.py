import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from actorcap import lang, runtime
from actorcap.cli import main

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"
SRC = pathlib.Path(__file__).parent.parent / "src"

COUNTER = str(CORPUS / "positive/counter.acap")
FANIN = str(CORPUS / "positive/fanin.acap")
PIPELINE = str(CORPUS / "positive/pipeline.acap")
DOUBLE_SEND = str(CORPUS / "negative/double_send.acap")
MISSING_CASE = str(CORPUS / "negative/missing_case.acap")


class TestCheck:
    def test_accepts_positive(self, capsys):
        assert main(["check", COUNTER]) == 0
        assert "well typed" in capsys.readouterr().out

    def test_rejects_negative_with_exit_1(self, capsys):
        assert main(["check", DOUBLE_SEND]) == 1
        assert "EmptyResidual" in capsys.readouterr().err

    def test_parse_error_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.acap"
        bad.write_text("beh[<Unit>]{ Unit(m) => }")
        assert main(["check", str(bad)]) == 4
        assert "parse error" in capsys.readouterr().err

    def test_json_diagnostics(self, capsys):
        assert main(["check", DOUBLE_SEND, "--format", "json"]) == 1
        diags = json.loads(capsys.readouterr().out)
        assert diags[0]["code"] == "EmptyResidual"
        assert {"line", "col"} <= set(diags[0]["span"])
        assert "declared_language" in diags[0]

    def test_json_empty_array_on_success(self, capsys):
        assert main(["check", COUNTER, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_warn_dropped(self, tmp_path, capsys):
        src = (
            "msg a : Unit\n"
            "beh[<Unit>]{ Unit(m) =>\n"
            "  let t = spawn(beh[<a>]{ a(x) => beh[eps]{ } })\n"
            "  in beh[eps]{ } }\n"
        )
        f = tmp_path / "drop.acap"
        f.write_text(src)
        assert main(["check", str(f), "--warn-dropped"]) == 0
        assert "dropped t" in capsys.readouterr().out


class TestRun:
    def test_checked_run_exit_0(self, capsys):
        assert main(["run", COUNTER, "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("outcome: quiescent\n")

    def test_type_error_blocks_run(self, capsys):
        assert main(["run", DOUBLE_SEND]) == 1

    def test_unchecked_run_reports_violation(self, capsys):
        code = main(["run", DOUBLE_SEND, "--unchecked"])
        assert code == 3
        assert "SendNotPermitted" in capsys.readouterr().out

    def test_unchecked_without_monitor_is_stuck(self, capsys):
        code = main(["run", DOUBLE_SEND, "--unchecked", "--no-monitor"])
        assert code == 2
        assert "stuck:UnhandledMessage" in capsys.readouterr().out

    def test_missing_case_unchecked_flagged_before_stuck(self, capsys):
        # the monitor reports the overclaimed behaviour, so the violation
        # exit wins over the stuck exit
        code = main(["run", MISSING_CASE, "--unchecked"])
        assert code == 3

    def test_missing_case_unchecked_no_monitor_sticks(self, capsys):
        code = main(["run", MISSING_CASE, "--unchecked", "--no-monitor"])
        assert code == 2

    def test_deterministic_bytes(self, capsys):
        outputs = []
        for _ in range(2):
            assert main(["run", FANIN, "--seed", "9", "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        out_file = tmp_path / "trace.jsonl"
        assert main(["run", FANIN, "--seed", "9", "--format", "json"]) == 0
        stdout_text = capsys.readouterr().out
        assert (
            main(
                ["run", FANIN, "--seed", "9", "--format", "json",
                 "--out", str(out_file)]
            )
            == 0
        )
        assert out_file.read_text() == stdout_text

    def test_json_trace_lines(self, capsys):
        assert main(["run", COUNTER, "--format", "json"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        objs = [json.loads(line) for line in lines]
        assert objs[-1] == {"outcome": "quiescent"}
        assert objs[0]["kind"] == "send"

    def test_monitor_strict_halts(self, capsys):
        code = main(["run", DOUBLE_SEND, "--unchecked", "--monitor-strict"])
        assert code == 3
        assert "violation:" in capsys.readouterr().out


    def test_diverging_handler_is_stuck(self, tmp_path, capsys):
        f = tmp_path / "div.acap"
        f.write_text(
            "beh[<Unit>]{ Unit(m) =>"
            " let y = (fun f(x: Nat): Nat ! eps => f x) 0 in beh[eps]{ } }"
        )
        assert main(["run", str(f)]) == 2
        assert "stuck:HandlerDiverged" in capsys.readouterr().out
        assert main(["explore", str(f)]) == 2
        assert "stuck:HandlerDiverged" in capsys.readouterr().out

    def test_diverging_root_is_a_setup_error(self, tmp_path, capsys):
        f = tmp_path / "divroot.acap"
        f.write_text(
            "let y = (fun f(x: Nat): Nat ! eps => f x) 0"
            " in beh[<Unit>]{ Unit(m) => beh[eps]{ } }"
        )
        assert main(["run", str(f)]) == 2
        assert "runtime error during setup" in capsys.readouterr().err


class TestExplore:
    def test_positive_program(self, capsys):
        assert main(["explore", FANIN, "--depth", "8"]) == 0
        out = capsys.readouterr().out
        assert "schedules explored: 6" in out
        assert "quiescent: 6" in out

    def test_negative_unchecked_flags(self, capsys):
        code = main(["explore", DOUBLE_SEND, "--unchecked", "--depth", "8"])
        assert code == 3
        assert "SendNotPermitted" in capsys.readouterr().out

    def test_json_report(self, capsys):
        assert main(["explore", FANIN, "--format", "json"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        objs = [json.loads(line) for line in lines]
        assert objs[0] == {"schedules": 6}
        assert {"outcome": "quiescent", "count": 6} in objs

    def test_depth_zero_reports_depth_bound(self, capsys):
        assert main(["explore", COUNTER, "--depth", "0"]) == 0
        assert "depth: 1" in capsys.readouterr().out

    def test_state_cap_exit_5(self, capsys, monkeypatch):
        # fanin.acap expands more than one configuration; a cap of 1
        # refuses it as a budget, with one line and no report.
        monkeypatch.setattr(runtime, "STATE_CAP", 1)
        assert main(["explore", FANIN]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: state budget exceeded: "
            "explore expanded more than 1 states at depth 8\n"
        )


class TestAlg:
    def test_includes_true_exit_0(self, capsys):
        code = main(["alg", "includes", "<act> # <nop>*", "<nop>*.<act>.<nop>*"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_includes_false_exit_1(self, capsys):
        code = main(["alg", "includes", "<a>#<b>", "<a>.<b>"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_derivative_prints_language(self, capsys):
        assert main(["alg", "derivative", "act", "<nop>*.<act>.<nop>*"]) == 0
        from actorcap.lang import equiv, parse_lang, star, sym

        printed = capsys.readouterr().out.strip()
        assert equiv(parse_lang(printed), star(sym("nop")))

    def test_enumerate(self, capsys):
        assert main(["alg", "enumerate", "<a> # <b>", "2"]) == 0
        assert capsys.readouterr().out.strip() == "ab ba"

    def test_enumerate_includes_eps(self, capsys):
        assert main(["alg", "enumerate", "<a>*", "1"]) == 0
        assert capsys.readouterr().out.strip() == "eps a"

    def test_enumerate_builds_each_interleaving_once(self, capsys):
        # a^11 and a^11 have C(22, 11) = 705,432 interleavings, all one word.
        start = time.perf_counter()
        assert main(["alg", "enumerate", "<a>*#<a>*", "22"]) == 0
        assert time.perf_counter() - start < 5
        words = capsys.readouterr().out.split()
        assert words == ["eps"] + ["a" * n for n in range(1, 23)]

    def test_enumerate_long_shuffle_of_one_symbol(self, capsys):
        # 601 words up to length 600; the shuffle is walked in a loop, not
        # by one stack frame per letter.
        assert main(["alg", "enumerate", "<a>*#<a>*", "600"]) == 0
        words = capsys.readouterr().out.split()
        assert words == ["eps"] + ["a" * n for n in range(1, 601)]

    def test_enumerate_time_does_not_follow_the_length_bound(self, capsys):
        start = time.perf_counter()
        for expr in ("<a>.<b>", "<a>#<b>"):
            assert main(["alg", "enumerate", expr, str(10**9)]) == 0
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().out == "ab\nab ba\n"

    def test_shuffle(self, capsys):
        assert main(["alg", "shuffle", "<a>", "<b>"]) == 0
        from actorcap.lang import equiv, parse_lang, shuffle, sym

        printed = capsys.readouterr().out.strip()
        assert equiv(parse_lang(printed), shuffle(sym("a"), sym("b")))

    def test_equiv(self, capsys):
        assert main(["alg", "equiv", "<a>#<b>", "<a>.<b>|<b>.<a>"]) == 0

    def test_alphabet_restriction(self, capsys):
        code = main(["alg", "includes", "<d>", "<d>", "--alphabet", "a,b,c"])
        assert code == 4

    def test_parse_error_exit_4(self, capsys):
        assert main(["alg", "derivative", "a", "<a"]) == 4

    @pytest.mark.parametrize("symbol", ["", "a b", "a>", "<a>"])
    def test_derivative_rejects_a_symbol_no_protocol_can_spell(self, capsys, symbol):
        assert main(["alg", "derivative", symbol, "<a>"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: expected a symbol name")

    def test_derivative_takes_any_name_a_protocol_can_spell(self, capsys):
        assert main(["alg", "derivative", "é_1", "<é_1>.<b>"]) == 0
        assert capsys.readouterr().out == "<b>\n"

    @pytest.mark.parametrize("op", ["derivative", "shuffle", "includes",
                                    "equiv", "enumerate"])
    @pytest.mark.parametrize("args", [["<a>"], ["<a>", "<a>", "<a>"]])
    def test_wrong_argument_count_names_the_operation(self, capsys, op, args):
        assert main(["alg", op, *args]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: alg {op} takes 2 arguments, got {len(args)}\n"
        )

    def test_json_result(self, capsys):
        assert main(["alg", "includes", "<a>", "<a>|<b>", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"result": "true"}

    def test_state_budget_exit_5(self, capsys, monkeypatch):
        monkeypatch.setattr(lang, "STATE_BUDGET", 1)
        code = main(["alg", "includes", "<a>.<b>.<c>", "(<a>.<b>.<c>)*"])
        assert code == 5
        assert "state" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("length", [17, 40])
    def test_enumerate_word_budget_exit_5(self, capsys, length):
        # (<a>|<b>)* has 2**(length+1) - 1 words up to `length`: 262,143 at
        # 17, past the budget of 100,000, and about 2.2e12 at 40.  Both are
        # refused once the set being built passes the budget, long before
        # the words at 40 would exhaust memory.
        start = time.perf_counter()
        assert main(["alg", "enumerate", "(<a>|<b>)*", str(length)]) == 5
        assert time.perf_counter() - start < 10
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: state budget exceeded: enumeration exceeded "
            f"{lang.STATE_BUDGET} words up to length {length}\n"
        )

    @staticmethod
    def _enumerate_under_1gb(expr: str, length: int):
        """`alg enumerate` in a child under a 1 GB address-space limit, so a
        set that outgrows memory fails there instead of the machine.  Returns
        the finished process and its time in seconds."""
        pytest.importorskip("resource")
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from actorcap.cli import main\n"
            f"sys.exit(main(['alg', 'enumerate', {expr!r}, '{length}']))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        return proc, time.perf_counter() - start

    def test_enumerate_symbol_budget_bounds_memory(self):
        # <a>* up to 100,000 is 100,001 words, within the word budget, but
        # their symbols number about 5e9.  The set is refused by the symbols
        # it holds.
        proc, seconds = self._enumerate_under_1gb("<a>*", 100000)
        assert seconds < 5
        assert (proc.returncode, proc.stdout) == (5, "")
        assert proc.stderr == (
            "error: state budget exceeded: enumeration exceeded "
            f"{20 * lang.STATE_BUDGET} symbols up to length 100000\n"
        )

    def test_enumerate_symbol_budget_spans_the_enumeration(self):
        # Each <ai>* up to 1,990 holds 1,981,045 symbols, just under the
        # budget, and the memo keeps every star's set until the union is
        # built: 70 of them would pass 1 GB.  The budget counts the symbols
        # of every set, so the second star is refused.
        stars = "|".join(f"<a{i}>*" for i in range(1, 71))
        proc, seconds = self._enumerate_under_1gb(stars, 1990)
        assert seconds < 5
        assert (proc.returncode, proc.stdout) == (5, "")
        assert proc.stderr == (
            "error: state budget exceeded: enumeration exceeded "
            f"{20 * lang.STATE_BUDGET} symbols up to length 1990\n"
        )

    def test_state_budget_during_run_exit_5(self, tmp_path, capsys,
                                            monkeypatch):
        # The stage holds the spawn tag <add>.<stop> while its work message
        # is in flight; that tag in the receiver's <add>*.<stop> takes the
        # monitor's global check two derivative pairs.
        prog = tmp_path / "two_pairs.acap"
        prog.write_text(
            "msg work : Nat\nmsg add : Nat\nmsg stop : Unit\n"
            "beh[<Unit>]{ Unit(m) =>\n"
            "  let acc = spawn[<add>.<stop>]((fun mk(t: Nat): "
            "Beh[<add>*.<stop>] ! eps =>\n"
            "    beh[<add>*.<stop>]{ add(n) => mk (t + n)"
            " | stop(x) => beh[eps]{ } }) 0)\n"
            "  in let stage = spawn(beh[<work>]{ work(n) =>\n"
            "    let u1 = send[add](acc, n) in let u2 = send[stop](acc, ())\n"
            "    in beh[eps]{ } })\n"
            "  in let u = send[work](stage, 1)\n"
            "  in beh[eps]{ } }\n"
        )
        assert main(["check", str(prog)]) == 0
        monkeypatch.setattr(lang, "STATE_BUDGET", 1)
        assert main(["run", str(prog), "--unchecked"]) == 5
        assert "state budget exceeded" in capsys.readouterr().err

    def test_environment_sets_no_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("ACTORCAP_STATE_BUDGET", "1")
        code = main(["alg", "includes", "<a>.<b>.<c>", "(<a>|<b>|<c>)*"])
        assert code == 0
        assert capsys.readouterr().out == "true\n"

    @pytest.mark.parametrize("value", ["1", "abc", "0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [["check", PIPELINE], ["run", PIPELINE, "--unchecked"],
         ["explore", PIPELINE],
         ["alg", "includes", "<a>.<b>.<c>", "(<a>|<b>|<c>)*"]],
        ids=["check", "run", "explore", "alg"],
    )
    def test_state_budget_env_is_ignored(self, argv, value, capsys,
                                         monkeypatch):
        # Whatever the variable holds, every subcommand behaves as unset.
        monkeypatch.delenv("ACTORCAP_STATE_BUDGET", raising=False)
        unset = (main(argv), capsys.readouterr())
        monkeypatch.setenv("ACTORCAP_STATE_BUDGET", value)
        assert (main(argv), capsys.readouterr()) == unset
        assert unset[0] == 0

    def test_deep_chain_without_traceback(self, capsys):
        chain = ".".join(["<a>"] * 3000)
        assert main(["alg", "includes", chain, "<a>*"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["alg", "derivative", "a", chain]) == 0
        assert capsys.readouterr().out.strip() == ".".join(["<a>"] * 2999)


class TestInputErrors:
    @pytest.mark.parametrize("source", [
        "beh[<Unit>]{ Unit(m) => " + "(" * 300 + "beh[eps]{ }" + ")" * 300 + " }",
        "let b = " + "!" * 2000 + "true in beh[<Unit>]{ Unit(m) => beh[eps]{ } }",
    ], ids=["parens", "nots"])
    def test_nesting_deeper_than_the_stack_exit_5(self, source, tmp_path, capsys):
        f = tmp_path / "nested.acap"
        f.write_text(source)
        assert main(["check", str(f)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: stack budget exceeded: ")
        assert captured.err.count("\n") == 1

    def test_source_not_utf8_exit_4(self, tmp_path, capsys):
        f = tmp_path / "latin1.acap"
        f.write_bytes("msg caf\u00e9 : Unit\n".encode("latin-1"))
        assert main(["check", str(f)]) == 4
        assert capsys.readouterr().err.startswith(f"error: {f} is not UTF-8: ")

    @pytest.mark.parametrize("command", ["run", "explore"])
    def test_out_in_missing_directory_exit_4(self, command, tmp_path, capsys):
        out = tmp_path / "missing" / "out.txt"
        assert main([command, COUNTER, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file" in err

    # `²` is a digit but not a decimal one: the tokenizer once read it as a
    # number and `int()` raised ValueError.
    NON_DECIMAL = {
        "alone": ("let x = ² in", 33),
        "after-a-digit": ("let x = 1² in", 34),
    }

    def non_decimal_program(self, tmp_path, case):
        text, col = self.NON_DECIMAL[case]
        f = tmp_path / "digit.acap"
        f.write_text("beh[<Unit>]{ Unit(m) => " + text + " beh[eps]{ } }\n")
        return str(f), col

    @pytest.mark.parametrize("case", NON_DECIMAL)
    @pytest.mark.parametrize("command", ["check", "run", "explore"])
    def test_non_decimal_digit_exit_4(self, command, case, tmp_path, capsys):
        path, col = self.non_decimal_program(tmp_path, case)
        assert main([command, path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error @ 1:{col} - unexpected character '²'\n"

    @pytest.mark.parametrize("case", NON_DECIMAL)
    def test_non_decimal_digit_json(self, case, tmp_path, capsys):
        path, col = self.non_decimal_program(tmp_path, case)
        assert main(["check", path, "--format", "json"]) == 4
        assert json.loads(capsys.readouterr().out) == [{
            "code": "ParseError",
            "span": {"line": 1, "col": col},
            "detail": "unexpected character '²'",
            "expected": [],
        }]

    def test_non_decimal_digit_prints_no_traceback(self, tmp_path):
        path, _ = self.non_decimal_program(tmp_path, "alone")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "actorcap.cli", "check", path],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 4
        assert proc.stderr == "parse error @ 1:33 - unexpected character '²'\n"

    def test_usage_error_exit_4(self, capsys):
        assert main(["run", COUNTER, "--seed", "x"]) == 4
        assert "invalid int value" in capsys.readouterr().err
        assert main(["--help"]) == 0

    def test_negative_max_deliveries_is_a_usage_error(self, capsys):
        assert main(["run", COUNTER, "--max-deliveries", "-1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --max-deliveries: must be 0 or more, got -1" in captured.err
        assert main(["run", COUNTER, "--max-deliveries", "x"]) == 4
        assert "invalid int value: 'x'" in capsys.readouterr().err
        assert main(["run", COUNTER, "--max-deliveries", "0"]) == 0

    def test_negative_depth_is_a_usage_error(self, capsys):
        assert main(["explore", COUNTER, "--depth", "-1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --depth: must be 0 or more, got -1" in captured.err
        assert main(["explore", COUNTER, "--depth", "0"]) == 0


class TestExitCodeContract:
    def test_codes_are_disjoint_over_the_corpus(self):
        # ok / type error / stuck / violation / parse error
        assert main(["check", COUNTER]) == 0
        assert main(["check", DOUBLE_SEND]) == 1
        assert main(["run", MISSING_CASE, "--unchecked", "--no-monitor"]) == 2
        assert main(["run", DOUBLE_SEND, "--unchecked"]) == 3
