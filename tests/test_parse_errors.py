"""Parse-error texts and locations on every cut of the corpus.

Each corpus program is cut at each token start and at the end of the input,
and both parts of every cut are parsed: the part before ends at EOF, and
the part after fails at tokens in the middle of lines. A part reads `ok`
or the `str()` of its `ParseError`, which carries the `line:col` the parser
took from the token it stopped at; an error at the end of a part names
the `end of input`. The joined results are pinned by a digest, and a few
are pinned literally so a failure is readable.

Token starts come from the oracle scanner (`naive_tokenize`), whose line and
column are turned back into offsets, so the cuts do not depend on the
tokenizer under test.

The protocols inside `[...]` are pinned the same way: each one is cut at
every character, and both parts go through `parse_lang`, whose
`LangParseError` carries a column.
"""

import hashlib
import pathlib

import pytest

from actorcap.lang import LangParseError, parse_lang
from actorcap.syntax import ParseError, parse_program

from naive_tokenize import naive_tokenize

ROOT = pathlib.Path(__file__).parent.parent
CORPUS = sorted((ROOT / "corpus").glob("*/*.acap"))

DIGEST = "d990c6dbdd284923a45bc21266d33da567913069476b275d3f54e438df6c89ea"
LANG_DIGEST = "22fc4cdd7d6633788a178f7df273b2a701978faf4dc09766408d1e644dea5d3a"


def cut_offsets(src: str) -> list[int]:
    """The offset of each token but EOF, then the end of the input."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(src) if ch == "\n"]
    offsets = [line_starts[line - 1] + col - 1
               for kind, _, line, col in naive_tokenize(src) if kind != "EOF"]
    return offsets + [len(src)]


def outcome(text: str) -> str:
    try:
        parse_program(text)
    except ParseError as e:
        return str(e)
    return "ok"


def outcomes() -> dict[tuple[str, int], tuple[str, str]]:
    out = {}
    for path in CORPUS:
        src = path.read_text()
        name = f"{path.parent.name}/{path.name}"
        for offset in cut_offsets(src):
            out[name, offset] = outcome(src[:offset]), outcome(src[offset:])
    return out


def test_digest():
    lines = [f"{name}@{offset}: {before} | {after}"
             for (name, offset), (before, after) in outcomes().items()]
    assert len(lines) > 2000
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST


EXPECTED = "(expected (, NAME, NAT, beh, false, self, send, spawn, true)"


def test_cuts_of_one_program():
    src = (ROOT / "corpus/positive/counter.acap").read_text()
    offsets = cut_offsets(src)
    assert offsets[:4] == [118, 119, 123, 124] and offsets[-1] == len(src) == 198
    before = {offset: outcome(src[:offset]) for offset in offsets}
    after = {offset: outcome(src[offset:]) for offset in offsets}
    # After the two comment lines; after `fun`; before the closing `}`.
    assert before[118] == f"parse error @ 3:1 - expected an expression, got end of input {EXPECTED}"
    assert before[123] == "parse error @ 3:6 - unexpected end of input (expected NAME)"
    assert before[193] == "parse error @ 4:38 - unexpected end of input (expected })"
    assert before[198] == "ok"
    # From `fun` on; from `eps`; from the last `)`; from the end.
    assert after[119] == "parse error @ 2:39 - trailing input ')'"
    assert after[149] == "parse error @ 1:5 - trailing input '=>'"
    assert after[194] == f"parse error @ 1:1 - expected an expression, got ')' {EXPECTED}"
    assert after[198] == f"parse error @ 1:1 - expected an expression, got end of input {EXPECTED}"


def lang_outcome(text: str) -> str:
    try:
        return str(parse_lang(text))
    except LangParseError as e:
        return str(e)


# Blanks of several kinds, names outside ASCII, and characters no token
# admits, around the corpus's own protocols.
LANG_EXTRA = ["( <a> |\t<b_1> )*", "<a >.\n<b>", "<é٣>#eps", "< a>", "<a", "epsx",
              "eps_", "0 0", "<a>\xa0|\u2003<b>", "<a>**&<b>", "(<a>", ")", "<a>>", ""]


def lang_texts() -> list[str]:
    texts = []
    for path in CORPUS:
        texts += [text for kind, text, _, _ in naive_tokenize(path.read_text())
                  if kind == "LANG"]
    return texts + LANG_EXTRA


def test_lang_digest():
    lines = [f"{text!r}@{cut}: {lang_outcome(text[:cut])} | {lang_outcome(text[cut:])}"
             for text in lang_texts() for cut in range(len(text) + 1)]
    assert len(lines) > 1000
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LANG_DIGEST


@pytest.mark.parametrize("text, expected", [
    ("<a>.<b", "expected '>' (at column 7)"),
    ("<a> .", "expected a language atom (at column 6)"),
    ("< a>", "expected a symbol name (at column 2)"),
    ("(<a> | <b>  ", "expected ')' (at column 13)"),
    ("<a>  <b>", "trailing input (at column 6)"),
    ("epsx", "expected a language atom (at column 1)"),
    ("<a >.\n<b>", "<a>.<b>"),
])
def test_lang_cuts(text, expected):
    assert lang_outcome(text) == expected
