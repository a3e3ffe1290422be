"""The package's record types against their ``@dataclass`` originals, kept in ``record_oracle``.

Every node, NFR, view, location and diagnostic (both modes) of the golden
document set, the parse errors of 400 golden parse mutations, every
``EDGE_KINDS``, ``NODE_KINDS`` and ``NodeField`` row (of ``NFR_FIELDS`` and
``VIEW_FIELDS`` too), both built-in schemas
with their terms, relationships and diff, the fixture architecture, and
closure and coverage results: each record and its dataclass rebuild agree on
``repr``, on ``hash`` (or on refusing it), and on equality in both
directions with the record itself, a copy rebuilt by keyword, the previous
record of its type and the previous record of any type. Per type, the
constructor signatures and the ``__post_init__`` errors agree, and fields
refuse assignment and deletion. ``copy.copy``, ``copy.deepcopy`` and a
``pickle`` round trip give back an equal record of the same type and ``repr``.
A record type of one field is refused, and so is a subclass without fields of
its own of a record type with fields. Each ``__init__`` fills its record
through a writable twin with no call per field, and no record, from the
corpus or the write path, is left as the twin.
"""

from __future__ import annotations

import copy
import dis
import inspect
import pickle
from dataclasses import fields

import pytest

from conftest import fixture_path, load_fixture
from docgen import lexer_texts, mutated_texts
from nfrstdo.diagnostics import Record, SourceLocation, factory, replace
from nfrstdo.kernel import (
    ArchSpec,
    ComponentRef,
    OntoLevel,
    RelationshipDef,
    builtin_schema,
    diff_schemas,
    parse_arch,
)
from nfrstdo.model import (
    EDGE_KINDS,
    NFR_FIELDS,
    NODE_KINDS,
    VIEW_FIELDS,
    CategoryNode,
    FocusKind,
    NfrKind,
    NfrNode,
    add_node,
    add_view_edge,
)
from nfrstdo.queries import depends_closure, influence_closure, mapping_coverage
from nfrstdo.textformat import ParseFailure, parse
from nfrstdo.validator import ValidationMode, validate
from record_oracle import OLD, old
from test_golden import documents

FIXTURES = ("heuristic_checklist.nfrs", "quality_views_chain.nfrs", "satisfies_trace.nfrs",
            "software_product_quality.nfrs")


def _corpus():
    for _, _, doc in documents():
        yield doc
        for kind in NODE_KINDS:
            for node in getattr(doc, kind.collection).values():
                yield node
                if kind.members:
                    yield from getattr(node, kind.members).values()
        yield from doc.source_locations.values()
        for mode in ValidationMode:
            for diagnostic in validate(doc, mode):
                yield diagnostic
                if diagnostic.location is not None:
                    yield diagnostic.location
    yield from EDGE_KINDS
    for kind in NODE_KINDS:
        yield kind
        yield from kind.fields
    for fields in (*NFR_FIELDS.values(), VIEW_FIELDS):
        yield from fields
    for text in mutated_texts(lexer_texts(), 400):
        try:
            parse(text)
        except ParseFailure as failure:
            for error in failure.errors:
                yield error
                yield error.location
    schemas = [builtin_schema(version) for version in ("1.2", "1.1")]
    for schema in schemas:
        yield schema
        yield schema.component
        for term in schema.terms.values():
            yield term
            yield from term.stereotypes
            yield from term.properties
        yield from schema.relationships
    diff = diff_schemas(*schemas)
    yield diff
    yield from diff.stereotype_changes
    spec = parse_arch(fixture_path("fcd_ontoarch.arch").read_text(encoding="utf-8"))
    yield spec
    yield from spec.components
    for name in FIXTURES:
        doc = load_fixture(name)
        for model_name in doc.models:
            yield mapping_coverage(doc, model_name)
        for vm in doc.view_models.values():
            for origin, view in vm.views.items():
                if view.kind is FocusKind.QUALITY:
                    yield influence_closure(doc, vm.name, origin)
                    yield depends_closure(doc, vm.name, origin)


def _hash(value) -> int | str:
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def _field_names(record) -> list[str]:
    return [f.name for f in fields(OLD[type(record)])]


def test_records_agree_with_their_dataclasses():
    by_type: dict[type, object] = {}
    last = None
    count = 0
    for record in _corpus():
        count += 1
        assert type(record) in OLD, type(record)  # its declared type, never the writable twin that filled it
        was = old(record)
        assert type(was) is OLD[type(record)]
        assert repr(record) == repr(was)
        assert _hash(record) == _hash(was), repr(record)
        names = _field_names(record)
        rebuilt = type(record)(**{name: getattr(record, name) for name in names})
        for other in (record, rebuilt, by_type.get(type(record)), last):
            if other is None:
                continue
            other_was = old(other)
            assert (record == other) == (was == other_was), (record, other)
            assert (other == record) == (other_was == was), (other, record)
            assert (record != other) == (was != other_was), (record, other)
        for name in (names[0], names[-1]):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        for duplicate in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(duplicate) is type(record) and repr(duplicate) == repr(record)
            assert duplicate == record and _hash(duplicate) == _hash(record)
        by_type[type(record)] = last = record
    assert set(by_type) == set(OLD)
    assert count > 14_000


@pytest.mark.parametrize("new", list(OLD), ids=lambda cls: cls.__name__)
def test_constructor_signatures_agree(new):
    def parameters(cls):
        # a dataclass default_factory shows as "<factory>", a record's as factory(dict)
        return [(p.name, p.kind, "<factory>" if isinstance(p.default, factory) or repr(p.default) == "<factory>"
                 else p.default)
                for p in inspect.signature(cls).parameters.values()]

    assert parameters(new) == parameters(OLD[new])


def test_one_field_records_are_refused():
    # attrgetter of one field returns the bare value, whose hash differs from the dataclass's (value,)
    with pytest.raises(TypeError, match="two or more fields"):
        class One(Record):
            value: int


def test_a_subclass_of_a_record_type_with_fields_must_declare_its_own():
    # the inherited __init__ would fill it through its parent's twin, and so turn it into its parent
    with pytest.raises(TypeError, match="must declare its own fields"):
        class Sub(SourceLocation):
            pass

    class Base(Record):  # a base without fields, like model._OwnerNode, passes its subclasses on
        def total(self):
            return self.line + self.column

    class Own(Base):
        line: int
        column: int

    assert type(Own(1, 2)) is Own and Own(1, 2).total() == 3


def test_records_made_by_the_write_path_keep_their_declared_type():
    doc = parse(fixture_path("quality_views_chain.nfrs").read_text(encoding="utf-8"))
    vm = next(iter(doc.view_models.values()))
    origin, target = list(vm.views)[:2]
    made = [add_view_edge(doc, vm.name, "influences", origin, target), add_node(doc, CategoryNode("Fresh")),
            replace(vm, specification="s"), SourceLocation(1, 2)]
    made += [made[0].view_models[vm.name], made[1].categories["Fresh"]]
    for record in made:
        assert type(record) in OLD and type(record).__setattr__ is Record.__setattr__
        with pytest.raises(AttributeError):
            record.name = "x"


@pytest.mark.parametrize("new", list(OLD), ids=lambda cls: cls.__name__)
def test_init_calls_nothing_per_field(new):
    # one call switches self into the writable twin; each field is then a plain store, not a call; one call
    # more per factory default and one for __post_init__
    code = new.__init__.__code__
    calls = sum(op.opname.startswith("CALL") for op in dis.get_instructions(code))
    factories = sum(isinstance(default, factory) for default in new.__init__.__defaults__ or ())
    assert calls == 1 + factories + hasattr(new, "__post_init__")
    assert sum(op.opname == "STORE_ATTR" for op in dis.get_instructions(code)) == len(new._fields) + 1


def test_factory_defaults_are_fresh_per_record():
    for kind in NODE_KINDS:
        if kind.members:
            first, second = kind.type(name="X"), kind.type(name="X")
            assert getattr(first, kind.members) == {} and getattr(first, kind.members) is not getattr(
                second, kind.members)


_C = ComponentRef("C", OntoLevel.CORE)
_CHECKED = [
    (SourceLocation, (0, 1), {}),
    (SourceLocation, (1, 0), {}),
    (SourceLocation, (1, 1), {}),
    (NfrNode, (NfrKind.STATEMENT_ITEM, "S"), {"definition": "d"}),
    (NfrNode, (NfrKind.STATEMENT_ITEM, "S"), {"declaration": "d", "definition": "d"}),
    (NfrNode, (NfrKind.ATTRIBUTE, "A"), {"declaration": "d"}),
    (NfrNode, (NfrKind.CHARACTERISTIC, "C"), {}),
    (NfrNode, (NfrKind.ATTRIBUTE, "A"), {"definition": "d", "is_focus": True, "focus_kind": FocusKind.QUALITY}),
    (NfrNode, (NfrKind.CHARACTERISTIC, "C"), {"definition": "d", "is_focus": True}),
    (NfrNode, (NfrKind.CHARACTERISTIC, "C"), {"definition": "d", "focus_kind": FocusKind.COST}),
    (NfrNode, (NfrKind.CHARACTERISTIC, "C"), {"definition": "d", "is_focus": True, "focus_kind": FocusKind.COST}),
    (ComponentRef, ("", OntoLevel.CORE), {}),
    (RelationshipDef, ("r", "A", "B", 2, 1), {}),
    (RelationshipDef, ("r", "A", "B", 2, None), {}),
    (ArchSpec, ((_C,),), {"enrichment_edges": (("C", "D"),)}),
    (ArchSpec, ((_C,),), {"peer_edges": (("D", "C"),)}),
    (ArchSpec, ((_C,),), {"enrichment_edges": (("C", "C"),), "peer_edges": (("C", "C"),)}),
]


@pytest.mark.parametrize(("new", "args", "kwargs"), _CHECKED)
def test_post_init_checks_agree(new, args, kwargs):
    def outcome(cls, args, kwargs):
        try:
            return repr(cls(*args, **kwargs))
        except ValueError as exc:
            return f"ValueError: {exc}"

    assert outcome(new, args, kwargs) == outcome(OLD[new], old(args), old(kwargs))
