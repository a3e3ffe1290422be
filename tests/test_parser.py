"""Differential test: ``textformat.parse`` against the parser kept in ``parser_oracle``.

Both parsers run on the ``.nfrs`` fixtures, 200 ``random_document``
serializations, 2,000 seeded mutations of those texts (seeds other than the
golden parse hashes use) and a few hand-written inputs for error recovery and
the error cap. Each input must give an equal document with equal source
locations, or the same ``ParseFailure``: the same errors, in the same order,
and the same message.
"""

from __future__ import annotations

import functools

import parser_oracle
from docgen import lexer_texts, mutated_texts
from nfrstdo.textformat import ParseFailure, parse

MUTATIONS = 2000
FIRST_SEED = 10_000

RECOVERY = (
    "category\n" * 60,  # more errors than the cap keeps
    'model "M" {\n  characteristic "C" { definition: "d" focus: maybe }\n  combines "C" "A"\n  "x" : y\n',
    'model "M" {\n  relates "A" <-> "B"\n  attribute "A" { definition: "d" }\n  model\n}\nfr "F" { }\n',
    'view_model "V" {\n  depends_on "A" -> "B"\n  influences "A" -> "B"\n  view "X" { kind: cost }\n'
    '  view "Y" { kind: quality category: "c" focus: "M" "C" }\n  "stray" { } }\ncategory "" { }\n',
    'category "C" { } category "C" { } entity "E" { belongs_to: "C" } entity "E" { }\n',
    # found strings of 20 characters, shown whole, and of 21, shortened
    '"twenty characters.." { }\nmodel "M" { attribute "A" { definition: "d" focus: quality }\n'
    '  "twenty-one characters" }\n',
)


@functools.lru_cache(maxsize=1)
def inputs() -> tuple[str, ...]:
    bases = lexer_texts()
    return (*bases, *mutated_texts(bases, MUTATIONS, FIRST_SEED), *RECOVERY)


def outcome(parse_text, text: str) -> tuple:
    """The document with its source locations, or the errors and message of the failure."""
    try:
        doc = parse_text(text)
    except ParseFailure as exc:
        return ("failure", exc.errors, str(exc))
    return ("document", doc, doc.source_locations)


def test_documents_and_errors_match_oracle():
    expected = [outcome(parser_oracle.parse, text) for text in inputs()]
    failures = [want for want in expected if want[0] == "failure"]
    assert len(expected) - len(failures) > 200  # documents that parse
    assert any(len(want[1]) == parser_oracle._MAX_ERRORS for want in failures)
    assert len({error.expected for want in failures for error in want[1]}) >= 30
    mismatched = [text for text, want in zip(inputs(), expected) if outcome(parse, text) != want]
    assert not mismatched, f"{len(mismatched)} of {len(expected)} differ, first: {mismatched[0]!r}"
