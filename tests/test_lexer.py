"""Differential test: ``textformat._tokenize`` against the character-by-character oracle.

Both lexers run on the ``.nfrs`` fixtures, 200 ``random_document``
serializations and 2,000 seeded mutations of those texts (inserted quotes,
bad escapes, stray characters, line breaks, deletions, truncations). Each
input must give the same tokens as ``(kind, value, line, column)`` records,
EOF included, or the same error. The library's tokens carry an offset into
the text with its line breaks made ``\\n``; the test counts the line breaks
before it to get the line and column.
"""

from __future__ import annotations

import functools

import lexer_oracle
from docgen import lexer_texts, mutated_texts
from nfrstdo.textformat import ParseError, ParseFailure, _tokenize

MUTATIONS = 2000


@functools.lru_cache(maxsize=1)
def inputs() -> tuple[str, ...]:
    bases = lexer_texts()
    return (*bases, *mutated_texts(bases, MUTATIONS))


def oracle_records(text: str) -> list[tuple]:
    """The oracle's tokens as ``(kind, value, line, column)`` records."""
    return [(t.kind, t.value, t.location.line, t.location.column) for t in lexer_oracle._tokenize(text)]


def library_records(text: str) -> list[tuple]:
    """The library's tokens as ``(kind, value, line, column)`` records."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return [(kind, value, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))
            for kind, value, offset in _tokenize(text)]


def lex(tokenize, text: str) -> list:
    """The token records, or the errors raised."""
    try:
        return tokenize(text)
    except ParseFailure as exc:
        return exc.errors
    except lexer_oracle._LexError as exc:
        return [exc.error]


def test_tokens_and_errors_match_oracle():
    expected = [lex(oracle_records, text) for text in inputs()]
    reached = {result[0].expected for result in expected if isinstance(result[0], ParseError)}
    assert reached == {"closing '\"'", "a valid escape", "a declaration"}
    mismatched = [text for text, want in zip(inputs(), expected) if lex(library_records, text) != want]
    assert not mismatched, f"{len(mismatched)} of {len(expected)} differ, first: {mismatched[0]!r}"
