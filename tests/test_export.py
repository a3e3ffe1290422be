from __future__ import annotations

import json
import random

from hypothesis import given, settings, strategies as st

from conftest import load_fixture
from docgen import random_document
from nfrstdo.export import to_dot, to_json, to_turtle
from nfrstdo.model import Document
from nfrstdo.textformat import parse, serialize


def test_empty_document_json():
    expected = '{"categories":[],"entities":[],"frs":[],"models":[],"view_models":[]}\n'
    assert to_json(Document()) == expected


def test_json_deterministic_across_runs(chain_doc):
    assert to_json(chain_doc) == to_json(load_fixture("quality_views_chain.nfrs"))


def test_json_is_insertion_order_independent():
    a = parse('category "B" { }\ncategory "A" { }')
    b = parse('category "A" { }\ncategory "B" { }')
    assert to_json(a) == to_json(b)


def test_json_arrays_name_sorted(product_quality_doc):
    obj = json.loads(to_json(product_quality_doc))
    model = obj["models"][0]
    names = [n["name"] for n in model["nfrs"]]
    assert names == sorted(names)
    assert model["subcharacteristics"] == sorted(model["subcharacteristics"])


def test_json_agrees_with_nfrs_serialization(chain_doc, product_quality_doc):
    # the JSON export is the normalized form both routes must reach
    for doc in (chain_doc, product_quality_doc):
        assert to_json(parse(serialize(doc))) == to_json(doc)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_json_agrees_with_nfrs_serialization_generated(seed):
    doc = random_document(random.Random(seed))
    assert to_json(parse(serialize(doc))) == to_json(doc)


def test_dot_chain_fixture(chain_doc):
    dot = to_dot(chain_doc)
    assert dot.startswith("digraph nfrs {")
    assert dot.count('label="influences"') == 4
    assert dot.count('label="belongs to"') == 5
    assert dot.count('label="deals with universals"') == 5
    assert dot.count('label="is represented by"') == 5
    assert dot.count('label="refers to particulars"') == 5
    assert to_dot(chain_doc) == dot


def test_dot_shapes_by_kind(product_quality_doc):
    dot = to_dot(product_quality_doc)
    assert '"nfr:Software Product Quality Model/Product Quality" [label="Product Quality", shape=box]' in dot
    assert "shape=ellipse" in dot  # attributes
    assert "shape=note" in dot  # statement items
    assert "shape=diamond" in dot  # views
    assert dot.count('label="combines"') == 5
    assert dot.count('label="is mapped to"') == 1


def test_dot_labels_category_parent_as_sub_category():
    dot = to_dot(parse('category "Top" { }\ncategory "Sub" { parent: "Top" }\n'))
    edge = '"category:Sub" -> "category:Top" [label="sub category of", style=solid, arrowhead=empty];'
    assert edge in dot
    assert "subcharacteristic of" not in dot


def test_dot_ids_encode_slashes_in_names():
    # joined raw, both characteristics would read "nfr:a/b/c" and Graphviz would draw one node
    doc = parse('model "a/b" { characteristic "c" { definition: "d" } }\n'
                'model "a" { characteristic "b/c" { definition: "d" } }\n'
                'model "50%" { characteristic "x%2Fy" { definition: "d" } }\n')
    dot = to_dot(doc)
    assert '"nfr:a%2Fb/c" [label="c", shape=box];' in dot
    assert '"nfr:a/b%2Fc" [label="b/c", shape=box];' in dot
    assert '"model:a%2Fb" [label="a/b", shape=box3d];' in dot
    assert '"nfr:50%25/x%252Fy" [label="x%2Fy", shape=box];' in dot


def test_dot_escapes_quotes():
    doc = parse('category "Say \\"hi\\"" { }')
    dot = to_dot(doc)
    assert 'label="Say \\"hi\\""' in dot


def test_turtle_empty():
    assert to_turtle(Document()) == "@prefix nfrstdo: <urn:nfrstdo:vocab:> .\n"


def test_turtle_chain_fixture(chain_doc):
    turtle = to_turtle(chain_doc)
    assert turtle.count(" nfrstdo:influences ") == 4
    assert " nfrstdo:belongs_to " in turtle
    assert " nfrstdo:deals_with_universals " in turtle
    assert " nfrstdo:is_represented_by " in turtle
    assert " nfrstdo:refers_to_particulars " in turtle
    assert "<urn:nfrstdo:entity:Issue%20Tracker> a nfrstdo:Evaluable_Entity ." in turtle
    assert (
        "<urn:nfrstdo:characteristic:Resource%20Quality%20Model/Resource%20Quality>"
        " a nfrstdo:Quality_Focus ." in turtle
    )
    lines = turtle.splitlines()[2:]
    assert lines == sorted(lines)


def test_turtle_predicates_for_all_edge_kinds(product_quality_doc, trace_doc):
    turtle = to_turtle(product_quality_doc)
    assert " nfrstdo:combines " in turtle
    assert " nfrstdo:is_mapped_to " in turtle
    assert " nfrstdo:has_subcharacteristic " in turtle
    assert " nfrstdo:refers_to_universals " in turtle
    assert " nfrstdo:satisfies " in to_turtle(trace_doc)


def test_turtle_percent_encoding_and_literal_escaping():
    doc = parse('category "A/B" { description: "line\\nbreak \\"q\\"" }')
    turtle = to_turtle(doc)
    assert "<urn:nfrstdo:category:A%2FB>" in turtle
    assert 'nfrstdo:description "line\\nbreak \\"q\\""' in turtle


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exports_deterministic_generated(seed):
    doc = random_document(random.Random(seed))
    rebuilt = parse(serialize(doc))
    assert to_json(doc) == to_json(rebuilt)
    assert to_dot(doc) == to_dot(rebuilt)
    assert to_turtle(doc) == to_turtle(rebuilt)
