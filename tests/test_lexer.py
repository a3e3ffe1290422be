"""Differential test: ``textformat._tokenize`` against the character-by-character oracle.

Both lexers run on the ``.nfrs`` fixtures, 200 ``random_document``
serializations and 2,000 seeded mutations of those texts (inserted quotes,
bad escapes, stray characters, line breaks, deletions, truncations). Each
input must give the same tokens as ``(kind, value, line, column)`` records,
EOF included, or the same error. The library's tokens carry an offset into
the text with its line breaks made ``\\n``; the test counts the line breaks
before it to get the line and column. A statement token, one whole edge
statement or view block, is expanded to the plain tokens it stands for, each
found at its place in the text after the blanks before it, so every token is
compared.

A guard test checks that the statement tokens do occur: every edge statement
and view block of a ``random_document`` serialization whose strings need no
escape is one statement token, and no other statement is.
"""

from __future__ import annotations

import functools
import random
import re
from collections import Counter

import lexer_oracle
from docgen import lexer_texts, mutated_texts, random_document
from nfrstdo.model import EDGE_KINDS, VIEW_FIELDS, iter_edges
from nfrstdo.textformat import ParseError, ParseFailure, _block_pattern, _tokenize, quote, serialize

MUTATIONS = 2000
ARROWS = {k.keyword: k.arrow for k in EDGE_KINDS}
BLANKS = re.compile("[ \t\n]*")


@functools.lru_cache(maxsize=1)
def inputs() -> tuple[str, ...]:
    bases = lexer_texts()
    return (*bases, *mutated_texts(bases, MUTATIONS))


def oracle_records(text: str) -> list[tuple]:
    """The oracle's tokens as ``(kind, value, line, column)`` records."""
    return [(t.kind, t.value, t.location.line, t.location.column) for t in lexer_oracle._tokenize(text)]


def statement_text(token: tuple) -> list[str]:
    """The source text of each plain token that a statement token stands for, in order."""
    keyword, fields = token[1], token[3]
    if keyword != "view":
        source, target = fields
        return [keyword, f'"{source}"', ARROWS[keyword], f'"{target}"']
    # after the name, each field's values in table order; a pair's second name is read inside the loop
    values = iter(fields[1:])
    pieces = ["view", f'"{fields[0]}"', "{"]
    for f, value in zip(VIEW_FIELDS, values):
        if f.syntax == "pair":
            pieces += [f.keyword, ":", f'"{value}"', ".", f'"{next(values)}"']
        elif value is not None:  # an optional field left out reads None
            pieces += [f.keyword, ":", value if f.syntax == "kind" else f'"{value}"']
    return [*pieces, "}"]


def plain_tokens(text: str, tokens: list[tuple]) -> list[tuple]:
    """``tokens`` as ``(kind, value, offset)`` tokens, each statement token expanded."""
    plain = []
    for token in tokens:
        if len(token) == 3:
            plain.append(token)
            continue
        offset = token[2]
        for piece in statement_text(token):
            offset = BLANKS.match(text, offset).end()
            assert text.startswith(piece, offset), (token, piece, text[offset:offset + 40])
            if piece.startswith('"'):
                plain.append(("string", piece[1:-1], offset))
            else:
                plain.append(("word" if piece[0].isalpha() else "punct", piece, offset))
            offset += len(piece)
    return plain


def library_records(text: str) -> list[tuple]:
    """The library's tokens as ``(kind, value, line, column)`` records."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return [(kind, value, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))
            for kind, value, offset in plain_tokens(text, _tokenize(text))]


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


def escape_free(*strings: str | None) -> bool:
    return all(s is None or "\\" not in quote(s) for s in strings)


def token_values(view) -> tuple:
    """What a view's statement token carries: its name, then each field's values in ``VIEW_FIELDS`` order, a kind
    as its word."""
    values = [view.name]
    for f in VIEW_FIELDS:
        value = getattr(view, f.attribute)
        values += value if f.syntax == "pair" else [value.value if f.syntax == "kind" else value]
    return tuple(values)


def test_escape_free_statements_lex_as_one_token():
    found = 0
    for seed in range(50):
        doc = random_document(random.Random(seed))
        expected = Counter()
        for owner in (*doc.models.values(), *doc.view_models.values()):
            expected.update((k.keyword, (source, target)) for k, source, target in iter_edges(owner)
                            if escape_free(source, target))
        for vm in doc.view_models.values():
            expected.update(("view", values) for values in map(token_values, vm.views.values())
                            if escape_free(*values))
        statements = Counter((t[1], t[3]) for t in _tokenize(serialize(doc)) if len(t) == 4)
        assert statements == expected, seed
        found += sum(expected.values())
    assert found > 150


def test_block_pattern_follows_its_field_table():
    # the view fields in another order: the pattern reads a block written in that order, its values in table
    # order, and no longer one written in the order of VIEW_FIELDS
    reordered = re.compile(_block_pattern("view", (*VIEW_FIELDS[2:], *VIEW_FIELDS[:2])))
    block = 'view "V" {\n  focus: "M" . "C"\n  statement: "s"\n  kind: cost\n  category: "X"\n}'
    assert reordered.fullmatch(block).groups() == ("V", "M", "C", "s", "cost", "X")
    assert reordered.fullmatch(block.replace('  statement: "s"\n', "")).groups() == ("V", "M", "C", None, "cost", "X")
    old_order = 'view "V" { kind: cost category: "X" focus: "M" . "C" statement: "s" }'
    assert re.fullmatch(_block_pattern("view", VIEW_FIELDS), old_order).groups() == ("V", "cost", "X", "M", "C", "s")
    assert reordered.match(old_order) is None
