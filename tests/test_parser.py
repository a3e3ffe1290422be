"""Differential test: ``textformat.parse`` against the parser kept in ``parser_oracle``.

Both parsers run on the ``.nfrs`` fixtures, 200 ``random_document``
serializations, 2,000 seeded mutations of those texts (seeds other than the
golden parse hashes use), a few hand-written inputs for error recovery and
the error cap, and near misses of the lexer's statement tokens: a wrong
arrow, an empty name, a comment, escape or line break inside, or a
statement where it does not belong, and bodies whose statements come out
of order, hold stray tokens or end with the input. Each input must give an equal document with equal source
locations, or the same ``ParseFailure``: the same errors, in the same order,
and the same message.

``Document.source_locations`` keeps offsets and builds a location only when
one is read: a successful parse of the fixtures and ``random_document``
texts calls ``textformat._locate`` zero times, and every read path of each
parsed document's locations gives the oracle's eager dict.
"""

from __future__ import annotations

import copy
import functools
import pickle

import parser_oracle
from docgen import lexer_texts, mutated_texts
from nfrstdo import textformat
from nfrstdo.diagnostics import SourceLocation
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

_MODEL = 'model "M" {\n  characteristic "C" { definition: "d" }\n  attribute "A" { definition: "d" }\n'
_VIEWS = 'view_model "VM" {\n  view "V" { kind: quality category: "X" focus: "M" . "C" }\n'
# statements that only just miss the lexer's one-token statement branches, or sit where they do not belong
NEAR_MISSES = (
    _VIEWS + '  view "W" { kind: qualitycategory: "X" focus: "M" . "C" }\n}\n',
    _VIEWS + '  view "W" { kind: cost category: "" focus: "M" . "C" statement: "" }\n}\n',
    _MODEL + '  combines "" -> "A"\n  maps "C" -> ""\n}\n',
    _VIEWS + '  view "" { kind: cost category: "X" focus: "M" . "C" }\n  influences "V" -> ""\n}\n',
    _VIEWS + '  view "W" { kind: cost category: "X" focus: "" . "C" }\n  view "Y" { kind: cost category: "X" '
    'focus: "M" . "" }\n}\n',
    _MODEL + '  subcharacteristic "A" -> "C"\n  relates "C" -> "A"\n  relates "C" <-> "A"\n}\n',
    _VIEWS + '  influences "V" <-> "V"\n  influences "V" of "V"\n  depends_on "V" -> "V"\n}\n',
    _MODEL + '  subcharacteristic "A" of "C"\n  subcharacteristic "A" ofx "C"\n}\n',
    _VIEWS + '  view "W" { kind: cost # a comment\n category: "X" focus: "M" . "C" }\n'
    '  view "Y" {\r\n kind: cost category: "X" focus: "M"\r.\r\n"C" }\n'
    '  influences "V" # a comment\n -> "W"\n  influences "W"\r\n->\r"Y"\n}\n',
    _MODEL + '  combines "C" # a comment\n -> "A"\n  relates "C"\r\n<->\r"A"\n}\n',
    'view "V" { kind: cost category: "X" focus: "M" . "C" }\ninfluences "V" -> "W"\n'
    + _MODEL + '  view "V" { kind: cost category: "X" focus: "M" . "C" }\n  influences "V" -> "W"\n}\n'
    + _VIEWS + '  combines "V" -> "V"\n  subcharacteristic "V" of "V"\n  influences "V" -> "V"\n}\n',
    _VIEWS + '  view "V" { kind: cost category: "X" focus: "M" . "C" }\n'
    '  view "V" { kind: quality category: "Y" focus: "N" . "D" statement: "s" }\n}\n',
    _VIEWS + '  view "V\\"q" { kind: cost category: "X\\\\" focus: "M\\t" . "C" statement: "a\\nb" }\n'
    '  influences "V" -> "V\\"q"\n  depends_on "V\\"q" -> "V"\n}\n' + _MODEL + '  combines "C\\\\" -> "A"\n}\n',
    _VIEWS + '  view"W"{kind:cost category:"X"focus:"M"."C"statement:"s"}influences"V"->"W"depends_on"W"->"V"}\n',
)
_VIEW = '  view "W" { kind: quality category: "X" focus: "M" . "C" }\n'
# statements out of their body's order, stray tokens at each stage, and input that ends inside a body
OUT_OF_ORDER = (
    _VIEWS + '  influences "V" -> "V"\n' + _VIEW + '}\n',
    _VIEWS + '  depends_on "V" -> "V"\n' + _VIEW + '}\n',
    _VIEWS + '  depends_on "V" -> "V"\n  influences "V" -> "V"\n' + _VIEW + '  depends_on "W" -> "V"\n}\n',
    _MODEL + '  relates "C" <-> "A"\n  statement_item "S" { declaration: "d" }\n  maps "S" -> "A"\n}\n',
    _MODEL + '  combines "C" -> "S"\n  statement_item "S" { declaration: "d" }\n}\n',
    _MODEL + '  "stray"\n  combines "C" -> "A"\n  stray { }\n  maps "S" -> "A"\n}\n',
    _VIEWS + '  "stray"\n  influences "V" -> "V"\n  stray\n  depends_on "V" -> "V"\n  : { view }\n}\n',
    _MODEL + '  combines "C" -> "A"',
    _VIEWS + '  influences "V" -> "V"\n',
    _VIEWS + '  depends_on "V" -> "V"',
)


@functools.lru_cache(maxsize=1)
def inputs() -> tuple[str, ...]:
    bases = lexer_texts()
    return (*bases, *mutated_texts(bases, MUTATIONS, FIRST_SEED), *RECOVERY, *NEAR_MISSES, *OUT_OF_ORDER)


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


def test_a_successful_parse_builds_no_location(monkeypatch):
    calls = []
    locate = textformat._locate
    monkeypatch.setattr(textformat, "_locate", lambda starts, offset: calls.append(offset) or locate(starts, offset))
    docs = [parse(text) for text in lexer_texts()]
    assert calls == []
    located = [location for doc in docs for location in doc.source_locations.values()]
    assert len(calls) == len(located) > 3000  # each read builds one


def test_every_read_path_of_source_locations_gives_the_oracle_dict():
    missing = ("edge", "no such owner", "relates", "A", "B")
    documents = 0
    for text in inputs():
        try:
            want = parser_oracle.parse(text).source_locations
        except ParseFailure:
            continue
        got = parse(text).source_locations
        documents += 1
        assert isinstance(got, dict)
        plain = [{key: got[key] for key in got}, {key: got.get(key) for key in want}, dict(got.items()),
                 dict(zip(got, got.values())), dict(got), {**got}, got.copy(), copy.copy(got), copy.deepcopy(got),
                 pickle.loads(pickle.dumps(got))]
        for read in plain:
            assert type(read) is dict and list(read.items()) == list(want.items())
            assert all(type(location) is SourceLocation for location in read.values())
        assert got.get(missing) is None and got.get(missing, 7) == 7
        assert got == want and want == got and not got != want and not want != got
        assert repr(got) == repr(want)
        # the read paths that also write, and a value stored by a caller
        keys = list(want)
        for key in keys[:2]:
            assert got.setdefault(key) == want[key] and got.pop(key) == want[key] and got.pop(key, 7) == 7
        if len(keys) > 2:
            assert got.popitem() == (keys[-1], want[keys[-1]])
        got[missing] = stored = SourceLocation(1, 1)
        assert got[missing] is stored and got.setdefault(missing) is stored and got.pop(missing) is stored
    assert documents > 400
