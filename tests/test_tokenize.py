"""`syntax.tokenize` against the per-character scanner it replaced.

Both must give the same tokens, or the same `ParseError` message and
location, on every input without a non-decimal digit (`²`, `①`); those are
covered by `test_cli.py::TestInputErrors` and by the cases below.
"""

import pathlib

import hypothesis.strategies as st
import pytest
from hypothesis import given

from actorcap.syntax import ParseError, locate, tokenize

from naive_tokenize import naive_tokenize
from test_monitor import chain_source, fanin_source

CORPUS = sorted((pathlib.Path(__file__).parent.parent / "corpus").glob("*/*.acap"))


def tokens(src: str) -> list[tuple[str, str, int, int]]:
    toks = tokenize(src)
    locs = locate(src, range(len(toks)))
    return [(kind, text, *loc) for kind, text, loc in zip(toks.kinds, toks.texts, locs)]


def outcome(tokenizer, src: str):
    try:
        return tokenizer(src)
    except ParseError as e:
        return ("ParseError", e.message, tuple(e.loc))


def assert_agree(src: str):
    assert outcome(tokens, src) == outcome(naive_tokenize, src)


def test_corpus_is_all_there():
    assert len(CORPUS) == 26


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_corpus(path):
    assert_agree(path.read_text())


@pytest.mark.parametrize(
    "source",
    [chain_source(400), fanin_source(3, 3), fanin_source(3, 3, star=True),
     fanin_source(4, 3), fanin_source(4, 3, star=True)],
    ids=["chain-400", "fanin-3x3", "fanin-3x3-star", "fanin-4x3",
         "fanin-4x3-star"],
)
def test_generated(source):
    assert_agree(source)


# Program fragments, letters and decimal digits outside ASCII, blanks of
# each kind, brackets that span lines or never close, comments that end a
# line or the input, and characters no token admits.
FRAGMENTS = [
    "msg", "beh", "let", "in", "send", "split", "as", "fun", "if", "true",
    "Nat", "ActorRef", "x", "r1", "_t", "café", "x٣", "٣٠",
    "0", "42", "=>", "->", "&&", "||", "(", ")", "{", "}", "<", ">", ",",
    ":", ".", "*", "+", "-", "/", "!", "=", "&", "|", "#",
    "[<a>*]", "[<a>\n.<b>]", "[", "]", "[\r\n]",
    " ", "\t", "\n", "\r\n", "\r", "-- note\n", "-- note", "--",
    "\f", "\xa0", "?", "@", "$",
]


@given(st.lists(st.one_of(st.sampled_from(FRAGMENTS),
                          st.text("ab_é٣ \t\n[]-", max_size=3)),
                max_size=40).map("".join))
def test_property(src):
    assert_agree(src)


@pytest.mark.parametrize("src, expected", [
    ("a\r\nb", [("NAME", "a", 1, 1), ("NAME", "b", 2, 1), ("EOF", "", 2, 2)]),
    ("\tx", [("NAME", "x", 1, 2), ("EOF", "", 1, 3)]),
    ("[<a>\n.<b>] x", [("LANG", "<a>\n.<b>", 1, 1), ("NAME", "x", 2, 7),
                       ("EOF", "", 2, 8)]),
    ("x\n", [("NAME", "x", 1, 1), ("EOF", "", 2, 1)]),
    ("x -- c", [("NAME", "x", 1, 1), ("EOF", "", 1, 7)]),
    ("x\n-- c\n", [("NAME", "x", 1, 1), ("EOF", "", 3, 1)]),
], ids=["crlf", "tab", "newline-in-brackets", "trailing-newline",
        "comment-at-eof", "comment-then-newline"])
def test_locations(src, expected):
    assert tokens(src) == expected
    assert naive_tokenize(src) == expected


@pytest.mark.parametrize("src, col", [
    ("let x = ² in", 9),      # superscript two, a digit but not decimal
    ("1²", 2),                # was read as the number '1²'
    ("x ①", 3),               # circled one
    ("½x", 1),                # a numeral that starts a word
    ("Ⅻ", 1),                 # roman numeral twelve
])
def test_non_decimal_digit_is_unexpected(src, col):
    with pytest.raises(ParseError) as e:
        tokenize(src)
    assert e.value.message == f"unexpected character {src[col - 1]!r}"
    assert tuple(e.value.loc) == (1, col)


def test_non_decimal_digit_inside_a_name_or_comment():
    # Only the start of a word is restricted, as before.
    assert tokens("x² -- ²") == [("NAME", "x²", 1, 1), ("EOF", "", 1, 8)]
