"""The character-by-character ``.nfrs`` lexer, kept as the oracle for ``textformat._tokenize``.

``_tokenize`` is the lexer as it stood before the master-pattern rewrite,
copied verbatim. It returns a list of ``_Token`` (from ``parser_oracle``, the
token record of that time), or raises ``_LexError`` carrying the one
``ParseError`` that the library raises inside a ``ParseFailure``. One later
change rides along: a ``found`` text writes each non-printable character as
its escape (``parser_oracle._printable``), as the library's does.
``tests/test_lexer.py`` compares its tokens with the library's.
"""

from __future__ import annotations

from nfrstdo.diagnostics import SourceLocation
from nfrstdo.textformat import ParseError
from parser_oracle import _Token, _printable

_WORD_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_WORD_CHARS = _WORD_START | set("0123456789")
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


class _LexError(Exception):
    def __init__(self, error: ParseError) -> None:
        self.error = error


def _tokenize(text: str) -> list[_Token]:
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    tokens: list[_Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch in " \t":
            i, col = i + 1, col + 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = SourceLocation(line, col)
        if ch in _WORD_START:
            j = i
            while j < n and text[j] in _WORD_CHARS:
                j += 1
            tokens.append(_Token("word", text[i:j], start))
            col += j - i
            i = j
            continue
        if ch == '"':
            value = []
            j = i + 1
            while True:
                if j >= n or text[j] == "\n":
                    raise _LexError(ParseError(start, "closing '\"'", "end of line or input"))
                c = text[j]
                if c == '"':
                    j += 1
                    break
                if c == "\\":
                    if j + 1 >= n or text[j + 1] not in _UNESCAPES:
                        raise _LexError(
                            ParseError(SourceLocation(line, col + (j - i)), "a valid escape", f"'\\{_printable(text[j + 1: j + 2])}'")
                        )
                    value.append(_UNESCAPES[text[j + 1]])
                    j += 2
                    continue
                value.append(c)
                j += 1
            tokens.append(_Token("string", "".join(value), start))
            col += j - i
            i = j
            continue
        if text.startswith("<->", i):
            tokens.append(_Token("punct", "<->", start))
            i, col = i + 3, col + 3
            continue
        if text.startswith("->", i):
            tokens.append(_Token("punct", "->", start))
            i, col = i + 2, col + 2
            continue
        if ch in "{}:.":
            tokens.append(_Token("punct", ch, start))
            i, col = i + 1, col + 1
            continue
        raise _LexError(ParseError(start, "a declaration", f"'{_printable(ch)}'"))
    # place EOF on the last line's end-of-line cursor, never past the input
    if col == 1 and line > 1:
        line -= 1
        col = len(text.split("\n")[line - 1]) + 1
    tokens.append(_Token("eof", "", SourceLocation(line, col)))
    return tokens
