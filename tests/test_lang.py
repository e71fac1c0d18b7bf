import ast
import copy
import functools
import itertools
import os
import pathlib
import pickle
import subprocess
import sys
import tracemalloc

import pytest

import actorcap

from actorcap import lang
from actorcap.lang import (
    Alt,
    And,
    Cat,
    EMPTY,
    EPS,
    LangParseError,
    MsgType,
    Shuffle,
    Star,
    StateBudgetExceeded,
    Sym,
    alt,
    cat,
    conj,
    derivative,
    enumerate_words,
    equiv,
    first_unhandled,
    includes,
    is_empty,
    lang_to_text,
    member,
    nullable,
    parse_lang,
    partial_derivatives,
    shuffle,
    star,
    sym,
    symbols,
    word_derivative,
)

A, B, C = MsgType("a"), MsgType("b"), MsgType("c")
NOP, ACT = MsgType("nop"), MsgType("act")

# nop* . act . nop*, the running protocol example
NOP_ACT_NOP = cat(cat(star(Sym(NOP)), Sym(ACT)), star(Sym(NOP)))


def w(*names):
    return tuple(MsgType(n) for n in names)


class TestNullable:
    def test_star_always_nullable(self):
        assert nullable(Star(Sym(A)))

    def test_leading_symbol_not_nullable(self):
        assert not nullable(Cat(Sym(A), Star(Sym(A))))

    def test_shuffle_of_nullables(self):
        assert nullable(Shuffle(Star(Sym(A)), EPS))

    def test_conjunction_needs_both(self):
        assert not nullable(And(Star(Sym(A)), Sym(A)))


class TestDerivative:
    def test_act_consumes_the_single_act(self):
        assert equiv(derivative(ACT, NOP_ACT_NOP), star(Sym(NOP)))

    def test_eps_has_no_completions(self):
        assert derivative(A, EPS) == EMPTY

    def test_shuffle_case(self):
        # words of (a.b) # b are {abb, bab}; the b-residuals are {ab}
        e = shuffle(cat(Sym(A), Sym(B)), Sym(B))
        assert enumerate_words(e, 3) == {w("a", "b", "b"), w("b", "a", "b")}
        assert equiv(derivative(B, e), cat(Sym(A), Sym(B)))

    def test_union_of_partial_derivatives_prints_distributed(self):
        # derivative is the union of partial derivatives, so the residual of
        # (a.b|a.c).d prints as a union of terms, not as a factored concat.
        e = parse_lang("(<a>.<b>|<a>.<c>).<d>")
        assert lang_to_text(derivative(A, e)) == "<b>.<d>|<c>.<d>"


class TestWordDerivative:
    def test_empty_word_is_identity(self):
        assert equiv(word_derivative((), NOP_ACT_NOP), NOP_ACT_NOP)

    def test_chained(self):
        assert equiv(word_derivative(w("nop", "act"), NOP_ACT_NOP), star(Sym(NOP)))

    def test_over_consumption(self):
        assert word_derivative(w("a", "a"), Sym(A)) == EMPTY


class TestMember:
    @pytest.mark.parametrize(
        "word,expected",
        [
            (w("nop", "act", "nop"), True),
            ((), False),
            (w("act",), True),
            (w("act", "act"), False),
        ],
    )
    def test_nop_act_nop(self, word, expected):
        assert member(word, NOP_ACT_NOP) is expected

    def test_eps_in_star(self):
        assert member((), Star(Sym(A)))


class TestEnumerate:
    def test_shuffle_of_two_symbols(self):
        assert enumerate_words(shuffle(Sym(A), Sym(B)), 2) == {w("a", "b"), w("b", "a")}

    def test_star(self):
        assert enumerate_words(Star(Sym(A)), 2) == {(), w("a"), w("a", "a")}

    def test_empty(self):
        assert enumerate_words(EMPTY, 5) == set()

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            enumerate_words(EPS, -1)

    def test_keeps_nothing_once_the_result_is_dropped(self):
        # The memo of subterm word sets lives for one call: a process-wide
        # cache kept 8.8 MB of them after this enumeration returned.
        e = parse_lang("(<a>.<b>)*#(<c>.<d>)*")
        tracemalloc.start()
        try:
            assert len(enumerate_words(e, 16)) > 10_000
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 1_000_000


class TestIsEmpty:
    def test_empty(self):
        assert is_empty(EMPTY)

    def test_wrong_symbol_derivative(self):
        assert is_empty(derivative(A, Sym(B)))

    def test_shuffle_with_empty(self):
        assert is_empty(Shuffle(Sym(A), EMPTY))

    def test_conjunction_of_disjoint(self):
        assert is_empty(And(Sym(A), Sym(B)))

    def test_nonempty(self):
        assert not is_empty(NOP_ACT_NOP)

    def test_takes_no_state_budget(self, monkeypatch):
        # Finding <c> in a.b.c needs more than one search state; with the
        # same budget, inclusion is refused.
        chain = cat(Sym(A), cat(Sym(B), Sym(C)))
        monkeypatch.setattr(lang, "STATE_BUDGET", 1)
        assert not is_empty(chain)
        assert is_empty(And(chain, cat(Sym(A), Sym(B))))
        with pytest.raises(StateBudgetExceeded):
            includes(chain, star(chain))


class TestFirstUnhandled:
    def test_first_missing_symbol_in_order(self):
        e = parse_lang("<c>|<b>.<a>")
        assert first_unhandled(e, set()) == B
        assert first_unhandled(e, {B}) == C
        assert first_unhandled(e, {B, C}) is None

    def test_symbols_no_word_starts_with_need_no_case(self):
        assert first_unhandled(parse_lang("<a>&<b>|<c>"), {C}) is None


class TestIncludes:
    def test_split_halves_fit_the_protocol(self):
        assert includes(shuffle(Sym(ACT), star(Sym(NOP))), NOP_ACT_NOP)

    def test_reflexive(self):
        assert includes(NOP_ACT_NOP, NOP_ACT_NOP)

    def test_shuffle_not_inside_cat(self):
        assert not includes(shuffle(Sym(A), Sym(B)), cat(Sym(A), Sym(B)))

    def test_budget(self, monkeypatch):
        chain = cat(Sym(A), cat(Sym(B), Sym(C)))
        monkeypatch.setattr(lang, "STATE_BUDGET", 2)
        with pytest.raises(StateBudgetExceeded):
            includes(chain, star(chain))

    def test_budget_of_one(self, monkeypatch):
        chain = cat(Sym(A), cat(Sym(B), Sym(C)))
        monkeypatch.setattr(lang, "STATE_BUDGET", 1)
        with pytest.raises(StateBudgetExceeded):
            includes(chain, star(chain))

    @staticmethod
    def _shuffle_and_star(n: int, star_from: int = 0):
        syms = [Sym(MsgType(f"a{i}")) for i in range(1, n + 1)]
        return (
            functools.reduce(shuffle, syms),
            star(functools.reduce(alt, syms[star_from:])),
        )

    def test_star_of_every_symbol_holds_at_the_first_pair(self, monkeypatch):
        # The star loops on every symbol of the left side, so the first
        # pair is discharged; without that rule this walks 2**16 pairs.
        monkeypatch.setattr(lang, "STATE_BUDGET", 1)
        assert includes(*self._shuffle_and_star(16))

    def test_star_missing_a_symbol_is_still_refused(self):
        assert not includes(*self._shuffle_and_star(16, star_from=1))


class TestEquiv:
    def test_shuffle_of_symbols_is_both_orders(self):
        assert equiv(shuffle(Sym(A), Sym(B)), alt(cat(Sym(A), Sym(B)), cat(Sym(B), Sym(A))))

    def test_eps_is_shuffle_unit(self):
        assert equiv(shuffle(NOP_ACT_NOP, EPS), NOP_ACT_NOP)

    def test_star_squared(self):
        assert equiv(Star(Sym(A)), cat(Star(Sym(A)), Star(Sym(A))))


class TestSmartConstructors:
    """The laws that make expressions canonical by construction."""

    def test_union_idempotent(self):
        assert alt(NOP_ACT_NOP, NOP_ACT_NOP) is NOP_ACT_NOP

    def test_eps_unit(self):
        assert cat(EPS, NOP_ACT_NOP) is NOP_ACT_NOP

    def test_empty_union_identity(self):
        assert alt(EMPTY, NOP_ACT_NOP) is NOP_ACT_NOP

    def test_star_collapse(self):
        assert star(star(Sym(A))) is Star(Sym(A))

    def test_empty_annihilates(self):
        assert shuffle(Sym(A), EMPTY) is EMPTY
        assert conj(Sym(A), EMPTY) is EMPTY

    def test_shuffle_not_deduplicated(self):
        # a # a is {aa}, not {a}
        e = shuffle(Sym(A), Sym(A))
        assert e is Shuffle(Sym(A), Sym(A))
        assert enumerate_words(e, 2) == {w("a", "a")}


class TestOnlyLangBuildsCompositeNodes:
    """Outside `lang`, composite expressions come from the smart
    constructors or `parse_lang`, never from a raw node class, so every
    expression the package builds is canonical."""

    RAW = {"Alt", "Cat", "Shuffle", "And", "Star"}

    def test_no_raw_composite_constructor_outside_lang(self):
        package = pathlib.Path(actorcap.__file__).parent
        modules = [p for p in sorted(package.glob("*.py")) if p.name != "lang.py"]
        assert len(modules) >= 6
        raw = []
        for path in modules:
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                if name in self.RAW:
                    raw.append(f"{path.name}:{node.lineno}: {name}(...)")
        assert raw == []


class TestInterning:
    def test_raw_constructors_share_nodes(self):
        assert Cat(Sym(A), Star(Sym(B))) is Cat(Sym(MsgType("a")), Star(sym("b")))
        assert parse_lang("<a>.<b>*") is cat(sym("a"), star(sym("b")))

    def test_nodes_are_immutable_values(self):
        e = parse_lang("(<a>|<b>)*.<c>")
        with pytest.raises(AttributeError):
            e.left = EPS
        assert copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e

    def test_deep_chain_needs_no_recursion(self):
        # Facts come from the operands' cached ones, so depth costs no stack.
        chain = Sym(A)
        for i in range(5000):
            chain = Cat(Sym((A, B)[i % 2]), chain)
        # Nodes hash by identity, which is what their interned `==` is.
        assert hash(chain) == object.__hash__(chain)
        assert {chain: 1}[chain] == 1
        assert not nullable(chain)
        assert symbols(chain) == {A, B}
        assert derivative(B, chain) is chain.right
        assert derivative(A, chain) is EMPTY

    def test_partial_derivatives_come_in_structural_order(self):
        # A tuple sorted by `_order`, so no user reads an order from a set.
        e = parse_lang(
            "(<a>.<b>|<a>.<c>|<a>.<d>*|<a>.(<b>|<c>)*)"
            " # (<a>|<a>.<a>|<a>*.<b>) # <a>*.(<c>|<d>)"
        )
        terms = partial_derivatives(A, e)
        assert type(terms) is tuple
        assert len(terms) > 5
        orders = [t._order for t in terms]
        assert orders == sorted(orders) and len(set(terms)) == len(terms)
        assert EMPTY not in terms
        assert derivative(A, e) is lang.alt(*terms)

    def test_iteration_order_ignores_allocation_history(self):
        # Nodes hash by address, so set order follows unrelated allocations;
        # partial derivatives come sorted by `_order` and do not follow it.
        script = (
            "import sys\n"
            "junk = [object() for _ in range(int(sys.argv[1]))]\n"
            "from actorcap.lang import MsgType, lang_to_text, parse_lang, "
            "partial_derivatives\n"
            "e = parse_lang('<a>.<b> # <a>.<c> # <a>*.<d> # <a>.(<b>|<c>)"
            " # <a>.<b>.<c> # <a>.<d>*')\n"
            "print([lang_to_text(t) for t in "
            "partial_derivatives(MsgType('a'), e)])\n"
        )
        env = dict(
            os.environ,
            PYTHONHASHSEED="7",
            PYTHONPATH=str(pathlib.Path(actorcap.__file__).parents[1]),
        )
        outs = [
            subprocess.run(
                [sys.executable, "-c", script, str(n)],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            for n in (0, 1_000, 50_000, 200_000)
        ]
        assert outs == outs[:1] * 4
        assert outs[0].count(",") == 5


class TestDeepChains:
    """5,000-deep chains are walked without recursion and built once."""

    N = 5000
    TEXT = ".".join(["<a>"] * N)

    def test_parse_is_right_nested(self):
        assert lang._chain(Cat, parse_lang(self.TEXT)) == [Sym(A)] * self.N

    def test_includes(self):
        chain = parse_lang(self.TEXT)
        assert includes(chain, star(sym("a")))
        assert includes(chain, chain)
        assert not includes(parse_lang(self.TEXT + ".<a>"), chain)

    def test_lang_to_text(self):
        assert lang_to_text(parse_lang(self.TEXT)) == self.TEXT
        shuffled = shuffle(parse_lang(self.TEXT), sym("b"))
        assert lang_to_text(shuffled) == f"<b>#{self.TEXT}"
        assert lang_to_text(star(parse_lang(self.TEXT))) == f"({self.TEXT})*"

    def test_left_nested_raw_trees_print_as_before(self):
        assert lang_to_text(Cat(Cat(Sym(A), Sym(B)), Sym(C))) == "(<a>.<b>).<c>"
        assert lang_to_text(Alt(Sym(A), Alt(Sym(B), EPS))) == "<a>|<b>|eps"


class TestTextSyntax:
    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "eps",
            "<a>",
            "<nop>*.<act>.<nop>*",
            "<a>#<b>",
            "(<a>|<b>)&<a>",
            "<a>.<b>|<b>.<a>",
            "((<a>))**",
        ],
    )
    def test_roundtrip(self, text):
        e = parse_lang(text)
        assert equiv(parse_lang(lang_to_text(e)), e)

    def test_precedence(self):
        # * > . > # > & > |
        e = parse_lang("<a>.<b>#<c>*|0&eps")
        expected = alt(
            shuffle(cat(Sym(A), Sym(B)), star(Sym(C))), conj(EMPTY, EPS)
        )
        assert e == expected

    def test_empty_prints_as_zero(self):
        assert lang_to_text(EMPTY) == "0"

    def test_parens_when_needed(self):
        e = cat(alt(Sym(A), Sym(B)), Sym(C))
        assert parse_lang(lang_to_text(e)) == e
        assert "(" in lang_to_text(e)

    @pytest.mark.parametrize("bad", ["", "<a", "a", "<a>|", "(<a>", "<a> <b>"])
    def test_errors(self, bad):
        with pytest.raises(LangParseError):
            parse_lang(bad)

    def test_alphabet_restriction(self):
        with pytest.raises(LangParseError):
            parse_lang("<d>", alphabet={A, B, C})

    def test_symbol_helper(self):
        assert sym("a") == Sym(A)


class TestOracleSpotChecks:
    def test_member_matches_enumeration_on_a_tricky_expr(self):
        e = conj(shuffle(star(Sym(A)), Sym(B)), cat(Star(alt(Sym(A), Sym(B))), EPS))
        words = enumerate_words(e, 4)
        for n in range(5):
            for cand in itertools.product((A, B), repeat=n):
                assert member(cand, e) == (cand in words)
