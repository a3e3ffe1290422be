from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from closure_oracle import _bfs_closure
from docgen import oracle_leaf_attributes, oracle_reachable, random_document
from nfrstdo import queries
from nfrstdo.model import (
    Document,
    FocusKind,
    FunctionalRequirementNode,
    NfrKind,
    NfrNode,
    NfrsModelNode,
    NfrsViewModelNode,
    NfrViewNode,
    add_node,
    add_view_edge,
)
from nfrstdo.textformat import serialize
from nfrstdo.queries import (
    ClosureResult,
    NotAQualityView,
    UnknownCharacteristic,
    UnknownFunctionalRequirement,
    UnknownModel,
    UnknownView,
    depends_closure,
    influence_closure,
    leaf_attributes,
    mapping_coverage,
    trace_satisfies,
)
from nfrstdo.validator import derive_depends_on

CHAIN_VM = "Organization Quality Views"
CHAIN_DOWNSTREAM = [
    "Process Quality View",
    "Software Product Quality View",
    "System Quality View",
    "System-in-Use Quality View",
]


def _view_graph(edges: list[tuple[str, str]], names: list[str] | None = None) -> Document:
    names = names or sorted({n for e in edges for n in e})
    views = {
        name: NfrViewNode(name=name, kind=FocusKind.QUALITY, category="C", focus=("M", "F"))
        for name in names
    }
    vm = NfrsViewModelNode(name="VM", views=views, influences_edges=tuple(edges))
    return add_node(Document(), vm)


def test_chain_influence_closure(chain_doc):
    result = influence_closure(chain_doc, CHAIN_VM, "Resource Quality View")
    assert list(result.reached) == CHAIN_DOWNSTREAM


def test_chain_depends_closure(chain_doc):
    result = depends_closure(chain_doc, CHAIN_VM, "System-in-Use Quality View")
    assert list(result.reached) == list(reversed(["Resource Quality View"] + CHAIN_DOWNSTREAM[:-1]))


def test_closure_with_no_outgoing_edges(chain_doc):
    assert influence_closure(chain_doc, CHAIN_VM, "System-in-Use Quality View").reached == ()
    assert depends_closure(chain_doc, CHAIN_VM, "Resource Quality View").reached == ()


def test_fan_out_is_lexicographic():
    doc = _view_graph([("View A", "View Z"), ("View A", "View B")])
    result = influence_closure(doc, "VM", "View A")
    assert list(result.reached) == ["View B", "View Z"]
    assert list(result.reached) == oracle_reachable([("View A", "View Z"), ("View A", "View B")], "View A")


def test_cycle_returns_origin():
    doc = _view_graph([("View A", "View B"), ("View B", "View A")])
    assert list(influence_closure(doc, "VM", "View A").reached) == ["View B", "View A"]


def test_closure_has_no_duplicates():
    edges = [("View A", "View B"), ("View A", "View C"), ("View B", "View C"), ("View C", "View B")]
    reached = influence_closure(_view_graph(edges), "VM", "View A").reached
    assert len(reached) == len(set(reached))


def test_closure_unknown_names():
    doc = _view_graph([("View A", "View B")])
    with pytest.raises(UnknownModel):
        influence_closure(doc, "Nope", "View A")
    with pytest.raises(UnknownView):
        influence_closure(doc, "VM", "Nope")


def test_closure_rejects_cost_view():
    views = {
        "K": NfrViewNode(name="K", kind=FocusKind.COST, category="C", focus=("M", "F")),
    }
    doc = add_node(Document(), NfrsViewModelNode(name="VM", views=views))
    with pytest.raises(NotAQualityView):
        influence_closure(doc, "VM", "K")
    with pytest.raises(NotAQualityView):
        depends_closure(doc, "VM", "K")


def _random_view_graph(rng: random.Random) -> tuple[Document, list[str], list[tuple[str, str]]]:
    count = rng.randrange(1, 9)
    names = [f"View {chr(ord('A') + i)}" for i in range(count)]
    edges = []
    for a in names:
        for b in names:
            if rng.random() < 0.25:
                edges.append((a, b))
    return _view_graph(edges, names), names, edges


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_closure_matches_oracle(seed):
    doc, names, edges = _random_view_graph(random.Random(seed))
    reversed_edges = [(b, a) for a, b in edges]
    for origin in names:
        assert list(influence_closure(doc, "VM", origin).reached) == oracle_reachable(edges, origin)
        assert list(depends_closure(doc, "VM", origin).reached) == oracle_reachable(reversed_edges, origin)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_closure_duality(seed):
    doc, names, _ = _random_view_graph(random.Random(seed))
    influenced = {origin: set(influence_closure(doc, "VM", origin).reached) for origin in names}
    depended = {origin: set(depends_closure(doc, "VM", origin).reached) for origin in names}
    for x in names:
        for y in names:
            assert (y in influenced[x]) == (x in depended[y])


def test_depends_closure_matches_derived_edges_on_generated_documents():
    # the walk over explicit depends_on plus reversed influences equals the walk over the derived set;
    # without transitive, each query returns the sorted direct successors
    origins = 0
    for seed in range(1500):
        doc = random_document(random.Random(seed))
        for vm in doc.view_models.values():
            derived = derive_depends_on(vm).depends_on_edges
            for origin, view in vm.views.items():
                if view.kind is FocusKind.QUALITY:
                    expected = ClosureResult(origin=origin, reached=_bfs_closure(derived, origin))
                    assert depends_closure(doc, vm.name, origin) == expected, (seed, vm.name, origin)
                    for run, edges in ((depends_closure, derived), (influence_closure, vm.influences_edges)):
                        direct = tuple(sorted({t for s, t in edges if s == origin}))
                        assert run(doc, vm.name, origin, transitive=False).reached == direct
                    origins += 1
    assert origins >= 400


def _closure_mismatches(doc: Document) -> tuple[list[tuple], int]:
    """Every (view model, origin, direction, transitive) where a closure differs from the string-set oracle."""
    mismatches, checked = [], 0
    for vm in doc.view_models.values():
        reversed_influences = [(b, a) for a, b in vm.influences_edges]
        for origin, view in vm.views.items():
            if view.kind is not FocusKind.QUALITY:
                continue
            for transitive in (True, False):
                expected = {
                    "influences": _bfs_closure(vm.influences_edges, origin, transitive),
                    "depends": _bfs_closure(chain(vm.depends_on_edges, reversed_influences), origin, transitive),
                }
                got = {
                    "influences": influence_closure(doc, vm.name, origin, transitive=transitive).reached,
                    "depends": depends_closure(doc, vm.name, origin, transitive=transitive).reached,
                }
                mismatches += [(vm.name, origin, d, transitive) for d in expected if expected[d] != got[d]]
                checked += 2
    return mismatches, checked


def _cyclic_network(seed: int, count: int) -> Document:
    """One view model of ``count`` quality views, about 3 influences each, with cycles, self-loops and edgeless views."""
    rng = random.Random(seed)
    names = [f"View {i:03d}" for i in range(count)]
    connected = [name for i, name in enumerate(names) if i % 20 != 7]  # every 20th view has no edge at all
    influences = [(a, b) for a in connected for b in rng.sample(connected, rng.randrange(1, 6))]
    influences += [(name, name) for name in connected[::37]]
    influences += list(zip(connected[::11], connected[11::11] + connected[:1]))  # one long ring
    depends_on = [(a, rng.choice(connected)) for a in connected[::9]]
    views = {
        name: NfrViewNode(name=name, kind=FocusKind.QUALITY, category="C", focus=("M", "F"))
        for name in names
    }
    vm = NfrsViewModelNode(name="VM", views=views, influences_edges=tuple(influences),
                           depends_on_edges=tuple(depends_on))
    return add_node(Document(), vm)


def test_closures_match_string_set_oracle_on_generated_documents():
    mismatches, checked = [], 0
    for seed in range(1500):
        found, count = _closure_mismatches(random_document(random.Random(seed)))
        mismatches += [(seed, *m) for m in found]
        checked += count
    assert mismatches == []
    assert checked >= 1600


def test_closures_match_string_set_oracle_on_a_400_view_cyclic_network():
    doc = _cyclic_network(11, 400)
    vm = doc.view_models["VM"]
    endpoints = {name for edge in vm.influences_edges + vm.depends_on_edges for name in edge}
    assert any(a == b for a, b in vm.influences_edges)
    assert len(endpoints) < len(vm.views)
    assert 2.5 <= len(vm.influences_edges) / len(vm.views) <= 3.5
    mismatches, checked = _closure_mismatches(doc)
    assert mismatches == []
    assert checked == 4 * 400


# --- the closure index kept on each view model ---------------------------------------


@pytest.fixture
def builds(monkeypatch) -> list[tuple]:
    """The (edges, reversed edges) of every closure index built while the test runs."""
    built: list[tuple] = []
    build = queries._closure_index

    def counted(edges, reversed_edges):
        built.append((edges, reversed_edges))
        return build(edges, reversed_edges)

    monkeypatch.setattr(queries, "_closure_index", counted)
    return built


def test_closure_queries_build_each_direction_index_once(builds):
    doc = _cyclic_network(3, 60)
    vm = doc.view_models["VM"]
    origins = sorted(vm.views)
    for i in range(50):
        influence_closure(doc, "VM", origins[i % len(origins)])
        depends_closure(doc, "VM", origins[-1 - i % len(origins)], transitive=i % 2 == 0)
    assert builds == [(vm.influences_edges, ()), (vm.depends_on_edges, vm.influences_edges)]


def test_equal_but_distinct_edge_tuples_give_equal_results():
    edges = [("View A", "View B"), ("View B", "View C"), ("View C", "View A")]
    first, second = _view_graph(edges), _view_graph(list(edges))
    assert first.view_models["VM"].influences_edges is not second.view_models["VM"].influences_edges
    for origin in ("View A", "View B", "View C"):
        assert influence_closure(first, "VM", origin) == influence_closure(second, "VM", origin)
        assert depends_closure(first, "VM", origin) == depends_closure(second, "VM", origin)


def test_edge_added_to_a_view_model_changes_the_closure():
    doc = _view_graph([("View A", "View B")], ["View A", "View B", "View C"])
    assert influence_closure(doc, "VM", "View A").reached == ("View B",)
    assert depends_closure(doc, "VM", "View C").reached == ()
    changed = add_view_edge(doc, "VM", "influences", "View B", "View C")
    assert influence_closure(changed, "VM", "View A").reached == ("View B", "View C")
    assert depends_closure(changed, "VM", "View C").reached == ("View B", "View A")
    assert influence_closure(doc, "VM", "View A").reached == ("View B",)


def test_second_pass_over_24_documents_hits_the_cache(builds):
    docs = [doc for doc in (random_document(random.Random(seed)) for seed in range(200)) if doc.view_models][:24]
    view_models = [(doc, vm) for doc in docs for vm in doc.view_models.values()]
    assert len(docs) == 24

    def one_pass() -> None:
        for doc, vm in view_models:
            for origin, view in vm.views.items():
                if view.kind is FocusKind.QUALITY:
                    influence_closure(doc, vm.name, origin)
                    depends_closure(doc, vm.name, origin)

    one_pass()
    first = len(builds)
    one_pass()
    assert 0 < first <= 2 * len(view_models)
    assert len(builds) == first


# --- leaf attribute rollups -------------------------------------------------------


def test_leaf_attributes_empty():
    model = NfrsModelNode(
        name="M", nfrs={"C": NfrNode(kind=NfrKind.CHARACTERISTIC, name="C", definition="d")}
    )
    doc = add_node(Document(), model)
    assert leaf_attributes(doc, "M", "C") == []


def test_leaf_attributes_three_attribute_case():
    nfrs = {
        "P": NfrNode(kind=NfrKind.CHARACTERISTIC, name="P", definition="d"),
        "C": NfrNode(kind=NfrKind.CHARACTERISTIC, name="C", definition="d"),
        "A1": NfrNode(kind=NfrKind.ATTRIBUTE, name="A1", definition="d"),
        "A2": NfrNode(kind=NfrKind.ATTRIBUTE, name="A2", definition="d"),
        "A3": NfrNode(kind=NfrKind.ATTRIBUTE, name="A3", definition="d"),
    }
    model = NfrsModelNode(
        name="M",
        nfrs=nfrs,
        subchar_edges=(("P", "C"),),
        combines_attr_edges=(("P", "A1"), ("P", "A2"), ("C", "A2"), ("C", "A3")),
    )
    doc = add_node(Document(), model)
    assert leaf_attributes(doc, "M", "P") == ["A1", "A2", "A3"]
    assert leaf_attributes(doc, "M", "C") == ["A2", "A3"]


def test_leaf_attributes_on_product_fixture_matches_oracle(product_quality_doc):
    model = product_quality_doc.models["Software Product Quality Model"]
    result = leaf_attributes(product_quality_doc, "Software Product Quality Model", "Product Quality")
    assert result == oracle_leaf_attributes(model, "Product Quality")
    all_attributes = sorted(n.name for n in model.nfrs.values() if n.kind is NfrKind.ATTRIBUTE)
    assert result == all_attributes


def test_leaf_attributes_monotone_over_children(product_quality_doc):
    model_name = "Software Product Quality Model"
    model = product_quality_doc.models[model_name]
    for parent, child in model.subchar_edges:
        parent_set = set(leaf_attributes(product_quality_doc, model_name, parent))
        child_set = set(leaf_attributes(product_quality_doc, model_name, child))
        assert child_set <= parent_set


def test_leaf_attributes_unknown_names(product_quality_doc):
    with pytest.raises(UnknownModel):
        leaf_attributes(product_quality_doc, "Nope", "Product Quality")
    with pytest.raises(UnknownCharacteristic):
        leaf_attributes(product_quality_doc, "Software Product Quality Model", "Nope")
    with pytest.raises(UnknownCharacteristic):
        leaf_attributes(product_quality_doc, "Software Product Quality Model", "Defect density")


# --- mapping coverage --------------------------------------------------------------


def test_coverage_without_items_is_total():
    doc = add_node(Document(), NfrsModelNode(name="M"))
    report = mapping_coverage(doc, "M")
    assert report.mapped == ()
    assert report.unmapped == ()
    assert report.ratio == Fraction(1)


def test_coverage_on_checklist_fixture(checklist_doc):
    report = mapping_coverage(checklist_doc, "Usability Heuristic Checklist")
    assert report.ratio == Fraction(3, 4)
    assert report.unmapped == ("Searchable help",)
    assert dict(report.mapped)["Recovery hints in errors"] == ("Status visibility",)


def test_coverage_fully_mapped():
    nfrs = {
        "S": NfrNode(kind=NfrKind.STATEMENT_ITEM, name="S", declaration="d"),
        "A": NfrNode(kind=NfrKind.ATTRIBUTE, name="A", definition="d"),
    }
    model = NfrsModelNode(name="M", nfrs=nfrs, mapped_to_edges=(("S", "A"),))
    report = mapping_coverage(add_node(Document(), model), "M")
    assert report.unmapped == ()
    assert report.ratio == Fraction(1)


def test_coverage_unknown_model():
    with pytest.raises(UnknownModel):
        mapping_coverage(Document(), "M")


# --- satisfaction traces -------------------------------------------------------------


def test_trace_empty(trace_doc):
    doc = add_node(trace_doc, FunctionalRequirementNode(name="Unused", statement="s", requester="r"))
    assert trace_satisfies(doc, "Unused") == []


def test_trace_across_models(trace_doc):
    pairs = trace_satisfies(trace_doc, "User login")
    assert pairs == [
        ("Performance Requirements", "Login response time"),
        ("Security Requirements", "Authentication strength"),
    ]
    # brute-force scan oracle
    expected = sorted(
        (m.name, s)
        for m in trace_doc.models.values()
        for s, t in m.satisfies_edges
        if t == "User login"
    )
    assert pairs == expected


def test_trace_unknown_fr(trace_doc):
    with pytest.raises(UnknownFunctionalRequirement):
        trace_satisfies(trace_doc, "Nope")


def test_queries_leave_document_unchanged(chain_doc):
    snapshot = serialize(chain_doc)
    influence_closure(chain_doc, CHAIN_VM, "Resource Quality View")
    depends_closure(chain_doc, CHAIN_VM, "System Quality View")
    assert serialize(chain_doc) == snapshot
