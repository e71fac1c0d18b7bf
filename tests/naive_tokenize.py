"""The per-character scanner, kept as an oracle for `syntax.tokenize`.

It steps line and column one character at a time, so it is slow but
obviously right about locations; `syntax.tokenize` must give the same
tokens, or the same `ParseError`, on every input without a non-decimal
digit (`²`, `①`).  On those this scanner reads a number that `int()`
cannot parse, where `syntax.tokenize` reports the character.
"""

from __future__ import annotations

from actorcap.syntax import _KEYWORDS, Loc, ParseError

_TWO_CHAR = ("=>", "->", "&&", "||")
_ONE_CHAR = "(){}<>,:.*+-/!=&|#"


def naive_tokenize(src: str) -> list[tuple[str, str, int, int]]:
    """`(kind, text, line, col)` for each token, ending with EOF."""
    toks: list[tuple[str, str, int, int]] = []
    line, col = 1, 1
    i = 0
    n = len(src)

    def advance(k: int):
        nonlocal i, line, col
        for _ in range(k):
            if src[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = src[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                advance(1)
            continue
        loc = Loc(line, col)
        if ch == "[":
            j = src.find("]", i + 1)
            if j < 0:
                raise ParseError("unterminated '['", loc)
            body = src[i + 1 : j]
            toks.append(("LANG", body, loc.line, loc.col))
            advance(j + 1 - i)
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(("NAT", src[i:j], loc.line, loc.col))
            advance(j - i)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            kind = word if word in _KEYWORDS else "NAME"
            toks.append((kind, word, loc.line, loc.col))
            advance(j - i)
            continue
        two = src[i : i + 2]
        if two in _TWO_CHAR:
            toks.append((two, two, loc.line, loc.col))
            advance(2)
            continue
        if ch in _ONE_CHAR:
            toks.append((ch, ch, loc.line, loc.col))
            advance(1)
            continue
        raise ParseError(f"unexpected character {ch!r}", loc)
    toks.append(("EOF", "", line, col))
    return toks
