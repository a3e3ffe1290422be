from __future__ import annotations

import copy
import pickle
import random

import pytest

import builder_oracle
from docgen import random_document
from nfrstdo import model
from nfrstdo.kernel import builtin_schema
from nfrstdo.model import (
    EDGE_KINDS,
    NFR_FIELDS,
    NODE_KINDS,
    VIEW_FIELDS,
    CategoryNode,
    Document,
    DuplicateName,
    EdgeKindError,
    EntityNode,
    FocusKind,
    FunctionalRequirementNode,
    NfrKind,
    NfrNode,
    NfrsModelNode,
    NfrsViewModelNode,
    NfrViewNode,
    NotFound,
    add_model_edge,
    add_node,
    add_view_edge,
    edge_kind,
    iter_edges,
    resolve,
)
from nfrstdo.queries import depends_closure, influence_closure
from nfrstdo.textformat import serialize


def _model_with_nfrs() -> Document:
    nfrs = {
        "C1": NfrNode(kind=NfrKind.CHARACTERISTIC, name="C1", definition="d"),
        "C2": NfrNode(kind=NfrKind.CHARACTERISTIC, name="C2", definition="d"),
        "A1": NfrNode(kind=NfrKind.ATTRIBUTE, name="A1", definition="d"),
        "S1": NfrNode(kind=NfrKind.STATEMENT_ITEM, name="S1", declaration="d"),
    }
    return add_node(Document(), NfrsModelNode(name="M", nfrs=nfrs))


def test_add_and_resolve():
    doc = add_node(Document(), CategoryNode(name="Service Category", description="Services of value"))
    assert resolve(doc, "category", "Service Category").description == "Services of value"
    assert len(doc.categories) == 1


def test_add_duplicate_name():
    doc = add_node(Document(), CategoryNode(name="Service Category"))
    with pytest.raises(DuplicateName):
        add_node(doc, CategoryNode(name="Service Category"))


@pytest.mark.parametrize(
    ("node", "message"),
    [
        (CategoryNode(name="X"), "category 'X' already exists"),
        (EntityNode(name="X", category="C"), "entity 'X' already exists"),
        (FunctionalRequirementNode(name="X", statement="s", requester="r"), "fr 'X' already exists"),
        (NfrsModelNode(name="X"), "model 'X' already exists"),
        (NfrsViewModelNode(name="X"), "view model 'X' already exists"),
    ],
)
def test_duplicate_name_message_names_the_kind(node, message):
    with pytest.raises(DuplicateName, match=f"^{message}$"):
        add_node(add_node(Document(), node), node)


def test_entity_reference_resolvable_after_category():
    doc = add_node(Document(), CategoryNode(name="Service Category"))
    doc = add_node(doc, EntityNode(name="Helpdesk", category="Service Category"))
    entity = resolve(doc, "entity", "Helpdesk")
    assert resolve(doc, "category", entity.category).name == "Service Category"


def test_resolve_not_found():
    with pytest.raises(NotFound):
        resolve(Document(), "category", "Nonexistent")


def test_resolve_on_product_quality_fixture(product_quality_doc):
    node = resolve(product_quality_doc, "category", "Software Product Category")
    assert node.name == "Software Product Category"


def test_resolve_is_kind_segregated():
    doc = add_node(Document(), CategoryNode(name="Service Category"))
    with pytest.raises(NotFound):
        resolve(doc, "entity", "Service Category")


def test_resolve_rejects_unknown_kind():
    with pytest.raises(ValueError):
        resolve(Document(), "gizmo", "x")


def test_persistent_update_law():
    before = Document()
    after = add_node(before, FunctionalRequirementNode(name="F", statement="s", requester="r"))
    assert resolve(after, "fr", "F").name == "F"
    with pytest.raises(NotFound):
        resolve(before, "fr", "F")
    assert before.is_empty()


def test_structural_equality_ignores_order_and_locations():
    a = add_node(add_node(Document(), CategoryNode(name="A")), CategoryNode(name="B"))
    b = add_node(add_node(Document(), CategoryNode(name="B")), CategoryNode(name="A"))
    assert a == b

    m1 = NfrsModelNode(
        name="M",
        nfrs={"C1": NfrNode(kind=NfrKind.CHARACTERISTIC, name="C1", definition="d")},
        relates_with_edges=(("C1", "C1"), ("C1", "C1")),
    )
    m2 = NfrsModelNode(
        name="M",
        nfrs=dict(m1.nfrs),
        relates_with_edges=(("C1", "C1"), ("C1", "C1")),
    )
    assert add_node(Document(), m1) == add_node(Document(), m2)


def test_edge_multiset_equality():
    nfrs = {"C1": NfrNode(kind=NfrKind.CHARACTERISTIC, name="C1", definition="d")}
    once = NfrsModelNode(name="M", nfrs=nfrs, relates_with_edges=(("C1", "C1"),))
    twice = NfrsModelNode(name="M", nfrs=nfrs, relates_with_edges=(("C1", "C1"), ("C1", "C1")))
    assert once != twice


def test_nfr_field_presence_checked():
    with pytest.raises(ValueError):
        NfrNode(kind=NfrKind.ATTRIBUTE, name="A", declaration="d")
    with pytest.raises(ValueError):
        NfrNode(kind=NfrKind.STATEMENT_ITEM, name="S", definition="d")
    with pytest.raises(ValueError):
        NfrNode(kind=NfrKind.ATTRIBUTE, name="A", definition="d", is_focus=True, focus_kind=FocusKind.QUALITY)
    with pytest.raises(ValueError):
        NfrNode(kind=NfrKind.CHARACTERISTIC, name="C", definition="d", is_focus=True)


def test_combines_routes_by_target_kind():
    doc = _model_with_nfrs()
    doc = add_model_edge(doc, "M", "combines", "C1", "A1")
    doc = add_model_edge(doc, "M", "combines", "C1", "S1")
    model = doc.models["M"]
    assert model.combines_attr_edges == (("C1", "A1"),)
    assert model.combines_item_edges == (("C1", "S1"),)


def test_combines_rejects_non_characteristic_source():
    doc = _model_with_nfrs()
    with pytest.raises(EdgeKindError):
        add_model_edge(doc, "M", "combines", "A1", "A1")


def test_combines_rejects_characteristic_target():
    doc = _model_with_nfrs()
    with pytest.raises(EdgeKindError):
        add_model_edge(doc, "M", "combines", "C1", "C2")


def test_subcharacteristic_rejects_attribute():
    doc = _model_with_nfrs()
    with pytest.raises(EdgeKindError):
        add_model_edge(doc, "M", "subcharacteristic", "A1", "C1")
    doc = add_model_edge(doc, "M", "subcharacteristic", "C2", "C1")
    assert doc.models["M"].subchar_edges == (("C1", "C2"),)


def test_maps_rejects_wrong_kinds():
    doc = _model_with_nfrs()
    with pytest.raises(EdgeKindError):
        add_model_edge(doc, "M", "maps", "A1", "A1")
    doc = add_model_edge(doc, "M", "maps", "S1", "A1")
    assert doc.models["M"].mapped_to_edges == (("S1", "A1"),)


def test_satisfies_requires_existing_fr():
    doc = _model_with_nfrs()
    with pytest.raises(NotFound):
        add_model_edge(doc, "M", "satisfies", "C1", "F")
    doc = add_node(doc, FunctionalRequirementNode(name="F", statement="s", requester="r"))
    doc = add_model_edge(doc, "M", "satisfies", "C1", "F")
    assert doc.models["M"].satisfies_edges == (("C1", "F"),)


def test_refers_edges_require_existing_targets():
    doc = _model_with_nfrs()
    with pytest.raises(NotFound):
        add_model_edge(doc, "M", "refers_to_entity", "C1", "E")
    with pytest.raises(NotFound):
        add_model_edge(doc, "M", "refers_to_category", "C1", "K")


def test_edge_insertion_is_persistent():
    doc = _model_with_nfrs()
    updated = add_model_edge(doc, "M", "combines", "C1", "A1")
    assert doc.models["M"].combines_attr_edges == ()
    assert updated.models["M"].combines_attr_edges == (("C1", "A1"),)


def _view_model_doc() -> Document:
    views = {
        "Q1": NfrViewNode(name="Q1", kind=FocusKind.QUALITY, category="C", focus=("M", "F")),
        "Q2": NfrViewNode(name="Q2", kind=FocusKind.QUALITY, category="C", focus=("M", "F")),
        "K": NfrViewNode(name="K", kind=FocusKind.COST, category="C", focus=("M", "F")),
    }
    return add_node(Document(), NfrsViewModelNode(name="VM", views=views))


def test_view_edges_quality_only():
    doc = _view_model_doc()
    doc = add_view_edge(doc, "VM", "influences", "Q1", "Q2")
    assert doc.view_models["VM"].influences_edges == (("Q1", "Q2"),)
    with pytest.raises(EdgeKindError):
        add_view_edge(doc, "VM", "influences", "Q1", "K")
    with pytest.raises(EdgeKindError):
        add_view_edge(doc, "VM", "depends_on", "K", "Q1")
    with pytest.raises(NotFound):
        add_view_edge(doc, "VM", "influences", "Q1", "Nope")


# --- the relationship table ---------------------------------------------------------

# kernel term of each endpoint kind set or Document collection used by the table
_TERMS = {
    frozenset(NfrKind): "Non-Functional Requirement",
    frozenset({NfrKind.CHARACTERISTIC}): "Characteristic",
    frozenset({NfrKind.ATTRIBUTE}): "Attribute",
    frozenset({NfrKind.STATEMENT_ITEM}): "Statement Item",
    frozenset({FocusKind.QUALITY}): "Quality View",
    "frs": "Functional Requirement",
    "entities": "Evaluable Entity",
    "categories": "Evaluable Entity Category",
}


def test_edge_table_covers_every_edge_list():
    owners = [kind for kind in NODE_KINDS if kind.edges]
    assert [kind.type for kind in owners] == [NfrsModelNode, NfrsViewModelNode]
    for kind in owners:
        edge_fields = [name for name in kind.type._fields if name.endswith("_edges")]
        assert sorted(edge_fields) == sorted(k.field for k in EDGE_KINDS if k.field in edge_fields)
        # an owner row holds exactly its type's edge lists, in table order
        assert kind.edges == tuple(k for k in EDGE_KINDS if k.field in edge_fields)
    assert len(EDGE_KINDS) == len({k.field for k in EDGE_KINDS}) == 10
    # owner equality reads the row of its own type, so owners of two kinds never compare equal
    model, view_model = NfrsModelNode(name="X", specification="s"), NfrsViewModelNode(name="X", specification="s")
    assert model != view_model and view_model != model


def test_edge_table_agrees_with_kernel_registry():
    registry = {r.descriptor() for r in builtin_schema("1.2").relationships}
    # the sub-characteristic hierarchy is structural, not a registered relationship
    rows = [k for k in EDGE_KINDS if k.keyword != "subcharacteristic"]
    described = {(k.relationship, _TERMS[frozenset(k.sources)], _TERMS[k.collection or frozenset(k.targets)])
                 for k in rows}
    assert len(described) == len(rows)
    assert described <= registry
    # both combines definitions have a row; the rest are node attributes, not edge lists
    assert {r[0] for r in registry - described} == {"belongs to", "deals with universals", "is represented by"}


def test_node_table_covers_every_collection_in_order():
    collections = [name for name in Document._fields if name != "source_locations"]
    assert [k.collection for k in NODE_KINDS] == collections
    for kind in NODE_KINDS:
        # members name the type's one dict field; name, fields, members and edges cover every attribute
        dict_fields = [name for name in kind.type._fields if kind.type.__annotations__[name].startswith("dict[")]
        assert dict_fields == ([kind.members] if kind.members else [])
        covered = ["name", *(f.attribute for f in kind.fields), *dict_fields, *(k.field for k in kind.edges)]
        assert sorted(covered) == sorted(kind.type._fields)


def test_node_table_turtle_types_are_kernel_terms():
    terms = builtin_schema("1.2").terms
    assert [k.turtle for k in NODE_KINDS if k.turtle.replace("_", " ") not in terms] == []


def _blocks():
    """(kernel term, fields) of every block: each node kind, each NFR kind and the view."""
    yield from ((kind.turtle.replace("_", " "), kind.fields) for kind in NODE_KINDS)
    yield from ((kind.value.replace("_", " ").title(), fields) for kind, fields in NFR_FIELDS.items())
    yield "NFR View", VIEW_FIELDS


def test_block_fields_agree_with_kernel_terms():
    schema = builtin_schema("1.2")
    relationships = {(r.name, r.source_term) for r in schema.relationships}
    blocks = list(_blocks())
    assert len(blocks) == len(NODE_KINDS) + len(NfrKind) + 1
    for term_name, fields in blocks:
        term = schema.terms[term_name]
        properties = {p.name for p in term.properties}
        if term.parent_term is not None:
            properties |= {p.name for p in schema.terms[term.parent_term].properties}
        for f in fields:
            if f.turtle is None:
                # a literal text field is a property of the term or of its parent term
                assert f.syntax != "text" or f.keyword in properties, (term_name, f.keyword)
            elif f.dot_label != "sub category of":  # the taxonomic link is not a registered relationship
                assert (f.dot_label, term_name) in relationships, (term_name, f.dot_label)


def test_member_field_tables_cover_every_member_attribute():
    assert list(NFR_FIELDS) == list(NfrKind)
    nfr_attributes = [f.attribute for fields in NFR_FIELDS.values() for f in fields]
    assert sorted(set(nfr_attributes)) == sorted(set(NfrNode._fields) - {"kind", "name", "is_focus"})
    assert sorted(f.attribute for f in VIEW_FIELDS) == sorted(set(NfrViewNode._fields) - {"name"})
    syntaxes = {f.syntax for _, fields in _blocks() for f in fields}
    assert syntaxes == {"text", "kind", "pair"}


def test_iter_edges_follows_relationship_direction():
    doc = add_model_edge(_model_with_nfrs(), "M", "subcharacteristic", "C2", "C1")
    doc = add_model_edge(doc, "M", "combines", "C1", "S1")
    edges = [(k.keyword, k.field, s, t) for k, s, t in iter_edges(doc.models["M"])]
    assert edges == [
        ("subcharacteristic", "subchar_edges", "C2", "C1"),
        ("combines", "combines_item_edges", "C1", "S1"),
    ]


def test_unknown_edge_keywords_rejected():
    with pytest.raises(ValueError):
        add_model_edge(_model_with_nfrs(), "M", "influences", "C1", "C2")
    with pytest.raises(ValueError):
        add_view_edge(_view_model_doc(), "VM", "combines", "Q1", "Q2")
    # the keyword index is shared by both owners, so each lookup checks that the keyword is its owner's
    for owner, keyword in ((NfrsModelNode, "influences"), (NfrsViewModelNode, "combines")):
        with pytest.raises(KeyError):
            edge_kind(owner, keyword)


# --- the write path against its oracle ------------------------------------------------


def _rebuild_calls(doc: Document) -> list[tuple[str, tuple]]:
    """The ``add_*`` calls that rebuild ``doc``: every node, owners with empty edge lists, then every edge."""
    calls = [("add_node", (node,)) for coll in (doc.categories, doc.entities, doc.frs) for node in coll.values()]
    calls += [("add_node", (NfrsModelNode(m.name, m.specification, m.nfrs),)) for m in doc.models.values()]
    calls += [("add_node", (NfrsViewModelNode(v.name, v.specification, v.views),)) for v in doc.view_models.values()]
    for name, owner in [*doc.models.items(), *doc.view_models.items()]:
        add = "add_model_edge" if name in doc.models else "add_view_edge"
        calls += [(add, (name, kind.keyword, source, target)) for kind, source, target in iter_edges(owner)]
    return calls


def _planted_calls() -> list[tuple[str, tuple]]:
    """Calls on a small workspace that take every branch of the write path, most of them failing."""
    nfrs = {
        "C1": NfrNode(kind=NfrKind.CHARACTERISTIC, name="C1", definition="d"),
        "C2": NfrNode(kind=NfrKind.CHARACTERISTIC, name="C2", definition="d"),
        "A1": NfrNode(kind=NfrKind.ATTRIBUTE, name="A1", definition="d"),
        "S1": NfrNode(kind=NfrKind.STATEMENT_ITEM, name="S1", declaration="d"),
    }
    views = {
        "Q1": NfrViewNode(name="Q1", kind=FocusKind.QUALITY, category="K", focus=("M", "C1")),
        "Q2": NfrViewNode(name="Q2", kind=FocusKind.QUALITY, category="K", focus=("M", "C1")),
        "Cost": NfrViewNode(name="Cost", kind=FocusKind.COST, category="K", focus=("M", "C1")),
    }
    nodes = [CategoryNode(name="K"), EntityNode(name="E", category="K"),
             FunctionalRequirementNode(name="F", statement="s", requester="r"),
             NfrsModelNode(name="M", nfrs=nfrs), NfrsViewModelNode(name="VM", views=views)]
    model_edges = [
        ("Nope", "combines", "C1", "A1"),  # unknown owner
        ("M", "influences", "C1", "C2"),  # unknown keyword
        ("M", "maps", "Nope", "A1"), ("M", "maps", "S1", "Nope"),  # missing source, missing target
        ("M", "satisfies", "Nope", "F"),  # missing source of a collection edge
        ("M", "satisfies", "C1", "Nope"), ("M", "refers_to_entity", "C1", "Nope"),
        ("M", "refers_to_category", "C1", "Nope"),  # targets absent from their collection
        ("M", "maps", "A1", "A1"), ("M", "maps", "S1", "C1"),  # wrong source kind, wrong target kind
        ("M", "subcharacteristic", "A1", "C1"), ("M", "subcharacteristic", "C2", "A1"),
        ("M", "combines", "C1", "A1"), ("M", "combines", "C1", "S1"),  # combines to an attribute, a statement item
        ("M", "combines", "A1", "A1"), ("M", "combines", "S1", "S1"), ("M", "combines", "C1", "C2"),
        ("M", "subcharacteristic", "C2", "C1"), ("M", "maps", "S1", "A1"), ("M", "relates", "A1", "C2"),
        ("M", "satisfies", "C1", "F"), ("M", "refers_to_entity", "A1", "E"), ("M", "refers_to_category", "S1", "K"),
        ("M", "combines", "C1", "A1"),  # a duplicate edge is stored again
    ]
    view_edges = [
        ("Nope", "influences", "Q1", "Q2"), ("VM", "combines", "Q1", "Q2"), ("VM", "influences", "Nope", "Q2"),
        ("VM", "depends_on", "Q1", "Nope"), ("VM", "influences", "Cost", "Q1"), ("VM", "depends_on", "Q1", "Cost"),
        ("VM", "influences", "Q1", "Q2"), ("VM", "depends_on", "Q2", "Q1"), ("VM", "influences", "Q1", "Q1"),
    ]
    return ([("add_node", (node,)) for node in nodes] + [("add_model_edge", args) for args in model_edges]
            + [("add_view_edge", args) for args in view_edges]
            + [("add_node", (CategoryNode(name="K", description="again"),)), ("add_node", (NfrsModelNode(name="M"),)),
               ("add_node", (NfrsViewModelNode(name="VM"),))])  # duplicate nodes


def _outcome(add, doc: Document, args: tuple) -> tuple[Document, tuple | None]:
    """The document after ``add(doc, *args)``, and the exception's type and message if it raised."""
    try:
        return add(doc, *args), None
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return doc, (type(exc), str(exc))


def _write_path_mismatches(calls: list[tuple[str, tuple]]) -> tuple[list[tuple], int]:
    """Each call whose outcome differs between the library and the oracle, and the number of calls that raised."""
    new = old = Document()
    mismatches, failed = [], 0
    for name, args in calls:
        new, new_error = _outcome(getattr(model, name), new, args)
        old, old_error = _outcome(getattr(builder_oracle, name), old, args)
        failed += new_error is not None
        if new_error != old_error or new != old or serialize(new) != serialize(old) or repr(new) != repr(old):
            mismatches.append((name, args, new_error, old_error))
    return mismatches, failed


def test_write_path_matches_oracle_on_generated_documents():
    mismatches, calls, failed, rebuilt = [], 0, 0, 0
    for seed in range(200):
        doc = random_document(random.Random(seed))
        script = _rebuild_calls(doc)
        found, raised = _write_path_mismatches(script)
        mismatches += [(seed, *m) for m in found]
        calls, failed = calls + len(script), failed + raised
        rebuilt += raised == 0
    assert mismatches == []
    # both outcomes are exercised: whole documents rebuilt, and edges the write path refuses
    assert calls >= 2500 and failed >= 100 and rebuilt >= 100


def test_write_path_matches_oracle_on_planted_calls():
    calls = _planted_calls()
    mismatches, failed = _write_path_mismatches(calls)
    assert mismatches == []
    assert failed == 24


# --- copies -----------------------------------------------------------------------------


def _parts(doc: Document) -> list:
    """Every collection of ``doc``, each owner in them and each owner's edge tuples."""
    parts = []
    for kind in NODE_KINDS:
        collection = getattr(doc, kind.collection)
        parts.append(collection)
        for owner in collection.values():
            parts += [owner, *(getattr(owner, edge.field) for edge in kind.edges)]
    return parts


def test_writes_leave_the_input_document_untouched():
    doc, checked = Document(), 0
    for name, args in _planted_calls() + _rebuild_calls(random_document(random.Random(3))):
        before, snapshot = _parts(doc), copy.deepcopy(doc)
        updated, error = _outcome(getattr(model, name), doc, args)
        after = _parts(doc)
        assert len(after) == len(before) and all(a is b for a, b in zip(after, before)), (name, args)
        assert doc == snapshot and repr(doc) == repr(snapshot) and serialize(doc) == serialize(snapshot)
        if error is None:
            assert updated is not doc
            checked += 1
        doc = updated
    assert checked >= 20


def test_each_write_copies_the_owner_and_the_document_once_through_init(monkeypatch):
    doc = add_view_edge(_view_model_doc(), "VM", "influences", "Q1", "Q2")
    doc = add_node(doc, NfrsModelNode(name="M", nfrs=_model_with_nfrs().models["M"].nfrs))
    built = []
    for cls in (Document, NfrsModelNode, NfrsViewModelNode):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    writes = [
        (add_model_edge, ("M", "combines", "C1", "A1"), ["NfrsModelNode", "Document"]),
        (add_view_edge, ("VM", "depends_on", "Q2", "Q1"), ["NfrsViewModelNode", "Document"]),
        (add_node, (CategoryNode(name="K"),), ["Document"]),
        (add_model_edge, ("M", "combines", "A1", "A1"), []),
    ]
    for add, args, expected in writes:
        built.clear()
        try:
            doc = add(doc, *args)
        except EdgeKindError:
            pass
        assert built == expected, add.__name__


def test_view_edge_copy_drops_the_closure_indexes():
    doc = add_view_edge(_view_model_doc(), "VM", "influences", "Q1", "Q2")
    assert influence_closure(doc, "VM", "Q2", transitive=False).reached == ()
    assert depends_closure(doc, "VM", "Q1", transitive=False).reached == ()
    assert hasattr(doc.view_models["VM"], "_closure_indexes")
    updated = add_view_edge(doc, "VM", "influences", "Q2", "Q1")
    assert not hasattr(updated.view_models["VM"], "_closure_indexes")
    assert influence_closure(updated, "VM", "Q2", transitive=False).reached == ("Q1",)
    assert depends_closure(updated, "VM", "Q1", transitive=False).reached == ("Q2",)
    assert influence_closure(doc, "VM", "Q2", transitive=False).reached == ()  # the input keeps its own indexes


def test_copies_and_pickles_drop_the_closure_indexes():
    doc = add_view_edge(_view_model_doc(), "VM", "influences", "Q1", "Q2")
    doc = add_view_edge(doc, "VM", "influences", "Q2", "Q1")
    vm = doc.view_models["VM"]
    closures = [influence_closure(doc, "VM", "Q1"), depends_closure(doc, "VM", "Q1")]
    assert all(index is not None for index in vm._closure_indexes)
    for copied in (copy.copy(vm), copy.deepcopy(vm), pickle.loads(pickle.dumps(vm))):
        assert copied == vm and copied is not vm
        assert not hasattr(copied, "_closure_indexes")
        copied_doc = add_node(Document(), copied)
        assert [influence_closure(copied_doc, "VM", "Q1"), depends_closure(copied_doc, "VM", "Q1")] == closures
