from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from docgen import random_document
from nfrstdo.model import CategoryNode, Document, NfrKind, NfrNode, NfrsModelNode, add_node
from nfrstdo.textformat import ParseFailure, parse, serialize
from nfrstdo.validator import validate


def parse_errors(text: str):
    with pytest.raises(ParseFailure) as info:
        parse(text)
    return info.value.errors


def test_empty_input_is_empty_document():
    doc = parse("")
    assert doc.is_empty()
    assert serialize(doc) == ""


def test_single_category():
    doc = parse('category "Service Category" { description: "Services of value" }')
    node = doc.categories["Service Category"]
    assert node.description == "Services of value"
    assert node.parent is None
    assert doc.source_locations[("category", "Service Category")].line == 1


def test_comments_and_crlf():
    doc = parse('# leading comment\r\ncategory "X" { } # trailing\r\n')
    assert set(doc.categories) == {"X"}


def test_string_escapes_round_trip():
    tricky = 'a "quoted" \\ back\nnew\ttab'
    doc = add_node(Document(), CategoryNode(name=tricky, description=tricky))
    assert parse(serialize(doc)) == doc


def test_missing_definition_reports_field():
    errors = parse_errors('model "M" { attribute "A1" { } }')
    assert any(e.expected == "field 'definition'" for e in errors)
    assert "expected field 'definition'" in errors[0].message


def test_missing_declaration_reports_field():
    errors = parse_errors('model "M" { statement_item "S" { statement: "x" } }')
    assert any(e.expected == "field 'declaration'" for e in errors)


@pytest.mark.parametrize(
    "keyword, expected",
    [("attribute", "an attribute name"), ("statement_item", "a statement item name")],
)
def test_missing_nfr_name_reads_with_article(keyword, expected):
    error = parse_errors(f'model "M" {{ {keyword} {{ }} }}')[0]
    assert error.expected == expected
    assert f"expected {expected}" in error.message


def test_unterminated_string():
    errors = parse_errors('category "Oops')
    assert errors[0].expected == "closing '\"'"


def test_unknown_keyword_top_level():
    errors = parse_errors('widget "X" { }')
    assert len(errors) == 1
    assert errors[0].location.line == 1


def test_unknown_escape():
    errors = parse_errors('category "a\\qb" { }')
    assert "escape" in errors[0].expected


def test_empty_name_rejected():
    errors = parse_errors('category "" { }')
    assert errors[0].expected == "a non-empty name"


def test_duplicate_names_rejected():
    errors = parse_errors('category "X" { }\ncategory "X" { }')
    assert len(errors) == 1
    assert errors[0].location.line == 2


@pytest.mark.parametrize(("text", "line", "message"), [
    ('fr "F" { statement: "s" requester: "r" }\nfr "F" { statement: "s" requester: "r" }\n', 2,
     "expected a unique functional requirement name, found duplicate 'F'"),
    ('view_model "VM" { }\nview_model "VM" { }\n', 2, "expected a unique view model name, found duplicate 'VM'"),
    ('model "M\'s" {\n  attribute "A" { definition: "d" }\n  statement_item "A" { declaration: "d" }\n}\n', 3,
     "expected a unique NFR name in model \"M's\", found duplicate 'A'"),
    ('view_model "VM" {\n  view "V" { kind: quality category: "K" focus: "M" . "C" }\n'
     '  view "V" { kind: cost category: "K" focus: "M" . "C" }\n}\n', 3,
     "expected a unique view name in 'VM', found duplicate 'V'"),
], ids=["fr", "view-model", "nfr", "view"])
def test_duplicate_name_messages_name_the_kind_and_owner(text, line, message):
    assert [(e.location.line, e.message) for e in parse_errors(text)] == [(line, message)]


def test_multiple_errors_collected_with_locations():
    text = 'category "" { }\ncategory "X" { oops }\nmodel "M" { attribute "A" { } }\n'
    errors = parse_errors(text)
    assert len(errors) == 3
    assert [e.location.line for e in errors] == [1, 2, 3]


@pytest.mark.parametrize(
    "text",
    [
        'category "X" {\n  parent:\n}\n',
        'category "X" {\n',
        'model "M" { attribute "A" {\n',
        "}\n\n\n",
        'category "Oops\n',
    ],
)
def test_error_locations_within_bounds(text):
    lines = text.split("\n")
    for error in parse_errors(text):
        assert 1 <= error.location.line <= max(1, len(lines))
        line_text = lines[error.location.line - 1]
        assert 1 <= error.location.column <= len(line_text) + 1


@pytest.mark.parametrize(
    ("text", "location", "found"),
    [
        # EOF sits at the end of the last line; a trailing comment does not move it
        ('model "M" {\n# end', "1:12", "end of input"),
        ('model "M" {  # end', "1:14", "end of input"),
        ('model "M" {\r\r', "2:1", "end of input"),
        ('model "M" {\t ', "1:14", "end of input"),
        # an escape cut off by the end of input is reported at its backslash
        ('category "a\\', "1:12", "'\\'"),
    ],
)
def test_exact_eof_and_escape_locations(text, location, found):
    error = parse_errors(text)[0]
    assert (f"{error.location.line}:{error.location.column}", error.found) == (location, found)


def test_focus_only_on_characteristics():
    errors = parse_errors('model "M" { attribute "A" { definition: "d" focus: quality } }')
    assert errors


def test_nfr_after_edge_rejected():
    text = (
        'model "M" {\n'
        '  characteristic "C" { definition: "d" }\n'
        '  relates "C" <-> "C"\n'
        '  attribute "A" { definition: "d" }\n'
        "}\n"
    )
    errors = parse_errors(text)
    assert any("precede" in e.expected for e in errors)


def test_view_requires_field_order():
    errors = parse_errors('view_model "VM" { view "V" { category: "C" kind: quality focus: "M" . "F" } }')
    assert any(e.expected == "field 'kind'" for e in errors)


def test_combines_routing_by_lookup():
    text = (
        'model "M" {\n'
        '  characteristic "C" { definition: "d" }\n'
        '  attribute "A" { definition: "d" }\n'
        '  statement_item "S" { declaration: "d" }\n'
        '  combines "C" -> "A"\n'
        '  combines "C" -> "S"\n'
        '  combines "C" -> "Ghost"\n'
        "}\n"
    )
    model = parse(text).models["M"]
    assert model.combines_attr_edges == (("C", "A"), ("C", "Ghost"))
    assert model.combines_item_edges == (("C", "S"),)


def test_combines_edge_in_the_wrong_list_does_not_round_trip():
    # the round trip holds only when each combines edge sits in the list of its target's kind
    nfrs = {"C": NfrNode(kind=NfrKind.CHARACTERISTIC, name="C", definition="d"),
            "A": NfrNode(kind=NfrKind.ATTRIBUTE, name="A", definition="d")}
    doc = add_node(Document(), NfrsModelNode(name="M", nfrs=nfrs, combines_item_edges=(("C", "A"),)))
    model = parse(serialize(doc)).models["M"]
    assert (model.combines_attr_edges, model.combines_item_edges) == ((("C", "A"),), ())
    assert "R-003" in {d.code for d in validate(doc)}


def test_subcharacteristic_stored_parent_first():
    text = (
        'model "M" {\n'
        '  characteristic "P" { definition: "d" }\n'
        '  characteristic "C" { definition: "d" }\n'
        '  subcharacteristic "C" of "P"\n'
        "}\n"
    )
    assert parse(text).models["M"].subchar_edges == (("P", "C"),)


def test_edge_locations_recorded():
    text = 'model "M" {\n  characteristic "C" { definition: "d" }\n  relates "C" <-> "C"\n}\n'
    doc = parse(text)
    assert doc.source_locations[("edge", "M", "relates", "C", "C")].line == 3


def test_statement_empty_vs_absent_distinct():
    with_empty = parse('model "M" { attribute "A" { definition: "d" statement: "" } }')
    without = parse('model "M" { attribute "A" { definition: "d" } }')
    assert with_empty != without
    assert parse(serialize(with_empty)) == with_empty


def test_serialize_is_construction_order_independent():
    rng = random.Random(7)
    doc = random_document(rng)
    shuffled = Document(
        categories=dict(sorted(doc.categories.items(), reverse=True)),
        entities=dict(sorted(doc.entities.items(), reverse=True)),
        frs=dict(sorted(doc.frs.items(), reverse=True)),
        models=dict(sorted(doc.models.items(), reverse=True)),
        view_models=dict(sorted(doc.view_models.items(), reverse=True)),
    )
    assert serialize(doc) == serialize(shuffled)


def test_serialize_uses_lf_and_two_space_indent():
    text = serialize(parse('category "X" { description: "d" }'))
    assert "\r" not in text
    assert '  description: "d"' in text
    assert text.endswith("\n")


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    doc = random_document(random.Random(seed))
    text = serialize(doc)
    reparsed = parse(text)
    assert reparsed == doc
    assert serialize(reparsed) == text


def test_round_trip_of_golden_fixtures(chain_doc, product_quality_doc, checklist_doc, trace_doc):
    for doc in (chain_doc, product_quality_doc, checklist_doc, trace_doc):
        assert parse(serialize(doc)) == doc


def test_parse_failure_message_carries_location():
    failure = None
    try:
        parse('category "X" {')
    except ParseFailure as exc:
        failure = exc
    assert failure is not None
    assert str(failure).startswith("1:")
