from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import validator_oracle
from cycle_oracle import _cycle_groups as oracle_cycle_groups
from docgen import random_document
from nfrstdo.diagnostics import Severity, replace
from nfrstdo.model import (
    MODEL_EDGE_KINDS, Document, FocusKind, NfrKind, NfrNode, NfrsModelNode, NfrsViewModelNode, NfrViewNode,
)
from nfrstdo.textformat import parse, serialize
from nfrstdo.validator import (
    RULES, Rule, ValidationMode, _cycle_groups, derive_depends_on, depends_contradictions, validate,
)

QUALITY_FOCUS_MODEL = 'model "M" { characteristic "F" { definition: "d" focus: quality } }\n'
COST_FOCUS_MODEL = 'model "MC" { characteristic "FC" { definition: "d" focus: cost } }\n'
CATEGORY = 'category "C" { }\n'

# One mutation per rule: the source must produce the code at least once and
# no other error-severity code. Warnings from unrelated rules are fine.
RULE_MUTATIONS = {
    "R-REF": (
        CATEGORY
        + 'entity "E" { belongs_to: "C" }\n'
        + 'model "M" {\n  attribute "A" { definition: "d" }\n  refers_to_entity "Ghost" -> "E"\n}\n',
        ValidationMode.MODEL,
    ),
    "R-001": ('entity "E" { belongs_to: "Nope" }\n', ValidationMode.MODEL),
    "R-002": (
        'model "M" {\n  attribute "A1" { definition: "d" }\n  attribute "A2" { definition: "d" }\n'
        '  combines "A1" -> "A2"\n}\n',
        ValidationMode.MODEL,
    ),
    "R-003": (
        'model "M" {\n  attribute "A1" { definition: "d" }\n  statement_item "S1" { declaration: "d" }\n'
        '  combines "A1" -> "S1"\n}\n',
        ValidationMode.MODEL,
    ),
    "R-004": (
        QUALITY_FOCUS_MODEL
        + 'view_model "VM" {\n  view "V" { kind: quality category: "Nope" focus: "M" . "F" }\n}\n',
        ValidationMode.MODEL,
    ),
    "R-005": (
        CATEGORY
        + QUALITY_FOCUS_MODEL
        + COST_FOCUS_MODEL
        + 'view_model "VM" {\n'
        '  view "Q" { kind: quality category: "C" focus: "M" . "F" }\n'
        '  view "K" { kind: cost category: "C" focus: "MC" . "FC" }\n'
        '  depends_on "K" -> "Q"\n}\n',
        ValidationMode.MODEL,
    ),
    "R-006": (
        CATEGORY
        + QUALITY_FOCUS_MODEL
        + COST_FOCUS_MODEL
        + 'view_model "VM" {\n'
        '  view "Q" { kind: quality category: "C" focus: "M" . "F" }\n'
        '  view "K" { kind: cost category: "C" focus: "MC" . "FC" }\n'
        '  influences "Q" -> "K"\n}\n',
        ValidationMode.MODEL,
    ),
    "R-006b": (
        CATEGORY
        + 'model "M1" { characteristic "F1" { definition: "d" focus: quality } }\n'
        + 'model "M2" { characteristic "F2" { definition: "d" focus: quality } }\n'
        + 'view_model "VM" {\n'
        '  view "Q1" { kind: quality category: "C" focus: "M1" . "F1" }\n'
        '  view "Q2" { kind: quality category: "C" focus: "M2" . "F2" }\n'
        '  depends_on "Q2" -> "Q1"\n}\n',
        ValidationMode.MODEL,
    ),
    "R-007": (
        CATEGORY
        + 'model "M" { characteristic "F" { definition: "d" } }\n'
        + 'view_model "VM" {\n  view "V" { kind: quality category: "C" focus: "M" . "F" }\n}\n',
        ValidationMode.MODEL,
    ),
    "R-008": (
        'model "M" {\n  attribute "A1" { definition: "d" }\n  attribute "A2" { definition: "d" }\n'
        '  maps "A1" -> "A2"\n}\n',
        ValidationMode.MODEL,
    ),
    "R-009": ('model "M" { attribute "A" { definition: "d" } }\n', ValidationMode.INSTANCE),
    "R-010": (
        'model "M" {\n  attribute "A" { definition: "d" }\n  refers_to_category "A" -> "Nope"\n}\n',
        ValidationMode.MODEL,
    ),
    "R-011": (
        'model "M" {\n  attribute "A" { definition: "d" }\n  relates "A" <-> "A"\n}\n',
        ValidationMode.MODEL,
    ),
    "R-012": (
        'model "M" {\n  attribute "A" { definition: "d" }\n  satisfies "A" -> "Nope"\n}\n',
        ValidationMode.MODEL,
    ),
    "R-013": (
        'model "M" {\n  characteristic "F1" { definition: "d" focus: quality }\n'
        '  characteristic "F2" { definition: "d" focus: cost }\n}\n',
        ValidationMode.MODEL,
    ),
    "R-014": (
        CATEGORY
        + COST_FOCUS_MODEL
        + 'view_model "VM" {\n  view "V" { kind: quality category: "C" focus: "MC" . "FC" }\n}\n',
        ValidationMode.MODEL,
    ),
    "R-015": (
        'category "P" { }\ncategory "C" { parent: "P" }\n'
        + QUALITY_FOCUS_MODEL
        + 'view_model "VM" {\n  view "V" { kind: quality category: "C" focus: "M" . "F" }\n}\n',
        ValidationMode.MODEL,
    ),
    "R-016": (
        CATEGORY
        + 'model "M1" { characteristic "F1" { definition: "d" focus: quality } }\n'
        + 'model "M2" { characteristic "F2" { definition: "d" focus: quality } }\n'
        + 'view_model "VM" {\n'
        '  view "Q1" { kind: quality category: "C" focus: "M1" . "F1" }\n'
        '  view "Q2" { kind: quality category: "C" focus: "M2" . "F2" }\n'
        '  influences "Q1" -> "Q2"\n  influences "Q2" -> "Q1"\n}\n',
        ValidationMode.MODEL,
    ),
    "R-017": (
        'model "M" {\n  characteristic "C1" { definition: "d" }\n  attribute "A" { definition: "d" }\n'
        '  subcharacteristic "A" of "C1"\n}\n',
        ValidationMode.MODEL,
    ),
    "R-018": ('category "C" { parent: "Nope" }\n', ValidationMode.MODEL),
}


def error_codes(diagnostics) -> set[str]:
    return {d.code for d in diagnostics if d.severity is Severity.ERROR}


@pytest.mark.parametrize("code", sorted(RULE_MUTATIONS))
def test_rule_mutation_is_exclusive(code):
    source, mode = RULE_MUTATIONS[code]
    diagnostics = validate(parse(source), mode)
    produced = [d.code for d in diagnostics]
    assert code in produced
    assert error_codes(diagnostics) <= {code}


def test_rule_table_has_one_row_per_mutation():
    # RULE_MUTATIONS is written apart from the table, one mutation per code
    assert set(RULE_MUTATIONS) == set(RULES)


def test_rule_table_invariants():
    # the sink reads a row's severity by the mode's value
    assert Rule._fields[:2] == tuple(mode.value for mode in ValidationMode)
    for code, rule in RULES.items():
        # model-mode errors are a subset of instance-mode errors
        assert rule.instance is Severity.ERROR or rule.model is Severity.WARNING, code
        # export validates in model mode, and refuses only what is an error there
        assert not rule.export or rule.model is Severity.ERROR, code


def test_r018_reports_unknown_parents_and_each_category_cycle():
    doc = parse('category "Top" { }\ncategory "Lost" { parent: "Nope" }\ncategory "Self" { parent: "Self" }\n'
                'category "A" { parent: "B" }\ncategory "B" { parent: "C" }\ncategory "C" { parent: "A" }\n'
                'category "Sub" { parent: "Top" }\ncategory "Below" { parent: "A" }\n')
    for mode in ValidationMode:
        assert [(d.code, d.severity, d.message, d.subject, d.location and (d.location.line, d.location.column))
                for d in validate(doc, mode)] == [
            ("R-018", Severity.ERROR, "category hierarchy contains a cycle: A -> B -> C",
             "category-cycle:A -> B -> C", None),
            ("R-018", Severity.ERROR, "category hierarchy contains a cycle: Self", "category-cycle:Self", None),
            ("R-018", Severity.ERROR, "category has unknown parent 'Nope'; a parent must be a category",
             "category:Lost", (2, 1)),
        ]


def test_chain_fixture_has_zero_diagnostics(chain_doc):
    assert validate(chain_doc, ValidationMode.MODEL) == []
    assert validate(chain_doc, ValidationMode.INSTANCE) == []


def test_product_quality_fixture_clean_in_model_mode(product_quality_doc):
    diagnostics = validate(product_quality_doc, ValidationMode.MODEL)
    assert error_codes(diagnostics) == set()


def test_cost_view_receiving_influences_is_r006():
    source, _ = RULE_MUTATIONS["R-006"]
    diagnostics = validate(parse(source), ValidationMode.MODEL)
    assert [d.code for d in diagnostics if d.severity is Severity.ERROR] == ["R-006"]


def test_r009_is_warning_in_model_mode_error_in_instance_mode():
    doc = parse('model "M" { attribute "A" { definition: "d" } }')
    model_diags = validate(doc, ValidationMode.MODEL)
    assert [(d.code, d.severity) for d in model_diags] == [("R-009", Severity.WARNING)]
    instance_diags = validate(doc, ValidationMode.INSTANCE)
    assert [(d.code, d.severity) for d in instance_diags] == [("R-009", Severity.ERROR)]


def test_unresolved_view_focus_only_errs_in_instance_mode():
    doc = parse(
        CATEGORY + 'view_model "VM" { view "V" { kind: quality category: "C" focus: "M" . "F" } }'
    )
    assert validate(doc, ValidationMode.MODEL) == []
    assert [d.code for d in validate(doc, ValidationMode.INSTANCE)] == ["R-007"]


@pytest.mark.parametrize("code", sorted(RULE_MUTATIONS))
def test_mode_monotonicity(code):
    source, _ = RULE_MUTATIONS[code]
    doc = parse(source)
    model_errors = {
        (d.code, d.subject) for d in validate(doc, ValidationMode.MODEL) if d.severity is Severity.ERROR
    }
    instance_errors = {
        (d.code, d.subject) for d in validate(doc, ValidationMode.INSTANCE) if d.severity is Severity.ERROR
    }
    assert model_errors <= instance_errors


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mode_monotonicity_generated(seed):
    doc = random_document(random.Random(seed))
    model_errors = {
        (d.code, d.subject) for d in validate(doc, ValidationMode.MODEL) if d.severity is Severity.ERROR
    }
    instance_errors = {
        (d.code, d.subject) for d in validate(doc, ValidationMode.INSTANCE) if d.severity is Severity.ERROR
    }
    assert model_errors <= instance_errors


def test_diagnostics_deterministic_and_sorted(product_quality_doc):
    source, _ = RULE_MUTATIONS["R-REF"]
    doc = parse(source)
    first = validate(doc, ValidationMode.INSTANCE)
    second = validate(doc, ValidationMode.INSTANCE)
    assert first == second
    keys = [(d.code, d.subject, d.message) for d in first]
    assert keys == sorted(keys)


def test_diagnostic_locations_point_at_source():
    source = 'entity "E" { belongs_to: "Nope" }\n'
    (diag,) = validate(parse(source), ValidationMode.MODEL)
    assert diag.location is not None
    assert diag.location.line == 1
    assert diag.subject == "entity:E"


def test_subchar_cycle_is_r013():
    source = (
        'model "M" {\n'
        '  characteristic "A" { definition: "d" }\n'
        '  characteristic "B" { definition: "d" }\n'
        '  subcharacteristic "A" of "B"\n'
        '  subcharacteristic "B" of "A"\n'
        "}\n"
    )
    diagnostics = validate(parse(source), ValidationMode.MODEL)
    assert error_codes(diagnostics) == {"R-013"}


def test_multi_parent_is_r013():
    source = (
        'model "M" {\n'
        '  characteristic "P1" { definition: "d" }\n'
        '  characteristic "P2" { definition: "d" }\n'
        '  characteristic "C" { definition: "d" }\n'
        '  subcharacteristic "C" of "P1"\n'
        '  subcharacteristic "C" of "P2"\n'
        "}\n"
    )
    assert error_codes(validate(parse(source), ValidationMode.MODEL)) == {"R-013"}


def test_focus_with_parent_is_r013():
    source = (
        'model "M" {\n'
        '  characteristic "P" { definition: "d" }\n'
        '  characteristic "F" { definition: "d" focus: quality }\n'
        '  subcharacteristic "F" of "P"\n'
        "}\n"
    )
    assert error_codes(validate(parse(source), ValidationMode.MODEL)) == {"R-013"}


# --- cycle groups (R-013, R-016) against the reach-set oracle ------------------

# names whose sort order differs from their creation order, some non-ASCII
_GRAPH_NAMES = ["n10", "n2", "N", "é", "a b", "Ω", "z", "n1", "_", "Z9", "q", "b", "a", "m", "x"]


def _random_graph(rng: random.Random) -> list[tuple[str, str]]:
    nodes = rng.sample(_GRAPH_NAMES, rng.randint(1, 15))
    most = rng.choice([len(nodes), 28])  # sparse or dense
    edges = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, most))]
    if edges and rng.random() < 0.3:
        edges.append(rng.choice(edges))  # duplicate edge
    if rng.random() < 0.3:
        node = rng.choice(nodes)
        edges.insert(rng.randint(0, len(edges)), (node, node))  # self-loop
    return edges


def test_cycle_groups_match_oracle_on_random_graphs():
    seen = {"empty": 0, "self-loop": 0, "duplicate": 0, "target-only": 0, "acyclic": 0, "several-groups": 0}
    for seed in range(3000):
        edges = _random_graph(random.Random(seed))
        groups = oracle_cycle_groups(edges)
        assert _cycle_groups(edges) == groups, (seed, edges)
        sources = {a for a, _ in edges}
        seen["empty"] += not edges
        seen["self-loop"] += any(a == b for a, b in edges)
        seen["duplicate"] += len(set(edges)) < len(edges)
        seen["target-only"] += any(b not in sources for _, b in edges)
        seen["acyclic"] += bool(edges) and not groups
        seen["several-groups"] += len(groups) > 1
    # the generator reaches every shape the comparison is meant to cover
    assert min(seen.values()) >= 50, seen


def test_cycle_groups_match_oracle_on_generated_documents():
    for seed in range(500):
        doc = random_document(random.Random(seed))
        graphs = [list(vm.influences_edges) + list(vm.depends_on_edges) for vm in doc.view_models.values()]
        graphs += [list(vm.influences_edges) for vm in doc.view_models.values()]
        graphs += [[(child, parent) for parent, child in m.subchar_edges] for m in doc.models.values()]
        for edges in graphs:
            assert _cycle_groups(edges) == oracle_cycle_groups(edges), (seed, edges)


def _quality_vm_doc(names: list[str], influences: list[tuple[str, str]], cost: tuple[str, ...] = ()) -> Document:
    views = {name: NfrViewNode(name=name, kind=FocusKind.COST if name in cost else FocusKind.QUALITY,
                               category="C", focus=("M", "F"))
             for name in names}
    vm = NfrsViewModelNode(name="VM", views=views, influences_edges=tuple(influences))
    return Document(view_models={"VM": vm})


def _cycle_diagnostics(doc: Document) -> list[tuple[str, str, str]]:
    return [(d.code, d.message, d.subject) for d in validate(doc, ValidationMode.MODEL)
            if d.code in ("R-013", "R-016")]


def test_influences_self_loop_is_a_one_view_cycle():
    doc = _quality_vm_doc(["P", "Q"], [("P", "Q"), ("Q", "Q")])
    assert _cycle_diagnostics(doc) == [
        ("R-016", "influence relationships form a cycle: Q", "view_model:VM/influences-cycle:Q"),
    ]


def test_own_subcharacteristic_is_a_one_node_cycle():
    source = 'model "M" {\n  characteristic "A" { definition: "d" }\n  subcharacteristic "A" of "A"\n}\n'
    assert _cycle_diagnostics(parse(source)) == [
        ("R-013", "sub-characteristic hierarchy contains a cycle: A", "model:M/subcharacteristic-cycle:A"),
    ]


def test_disjoint_cycles_are_two_diagnostics_ordered_by_smallest_name():
    doc = _quality_vm_doc(["a", "b", "c", "x", "y", "z"],
                          [("z", "c"), ("c", "z"), ("y", "b"), ("b", "x"), ("x", "y"), ("a", "b")])
    assert _cycle_diagnostics(doc) == [
        ("R-016", "influence relationships form a cycle: b -> x -> y", "view_model:VM/influences-cycle:b -> x -> y"),
        ("R-016", "influence relationships form a cycle: c -> z", "view_model:VM/influences-cycle:c -> z"),
    ]


def test_cycle_through_a_cost_view_is_not_r016():
    doc = _quality_vm_doc(["A", "B", "K"], [("A", "B"), ("B", "K"), ("K", "A")], cost=("K",))
    codes = {d.code for d in validate(doc, ValidationMode.MODEL)}
    assert "R-006" in codes
    assert "R-016" not in codes


def test_long_ring_and_chain_need_no_recursion():
    # far past the recursion limit, and far too large for the quadratic oracle
    names = [f"V{i:05d}" for i in range(20_000)]
    chain = list(zip(names, names[1:]))
    ring = _cycle_diagnostics(_quality_vm_doc(names, chain + [(names[-1], names[0])]))
    assert [(code, message.count(" -> ")) for code, message, _ in ring] == [("R-016", 19_999)]
    assert ring[0][1].startswith("influence relationships form a cycle: V00000 -> V00001 -> ")
    assert _cycle_diagnostics(_quality_vm_doc(names, chain)) == []


# --- depends_on derivation ------------------------------------------------------


def _vm(influences=(), depends=()) -> NfrsViewModelNode:
    views = {}
    for name in {n for e in (*influences, *depends) for n in e}:
        views[name] = NfrViewNode(name=name, kind=FocusKind.QUALITY, category="C", focus=("M", "F"))
    return NfrsViewModelNode(name="VM", views=views, influences_edges=tuple(influences),
                             depends_on_edges=tuple(depends))


def test_derive_depends_on_inverts_influences():
    vm = derive_depends_on(_vm(influences=[("Resource", "Process")]))
    assert vm.depends_on_edges == (("Process", "Resource"),)


def test_derive_depends_on_empty():
    vm = derive_depends_on(_vm())
    assert vm.depends_on_edges == ()
    assert vm.influences_edges == ()


def test_derive_depends_on_is_idempotent():
    vm = _vm(influences=[("A", "B"), ("B", "C")], depends=[("B", "A")])
    once = derive_depends_on(vm)
    assert derive_depends_on(once) == once


def test_contradiction_detected_by_brute_force_inverse():
    vm = _vm(influences=[("A", "B")], depends=[("C", "A")])
    assert depends_contradictions(vm) == [("C", "A")]
    # brute force: explicit depends minus the inverted influences set
    explicit = set(vm.depends_on_edges)
    inverse = {(b, a) for a, b in vm.influences_edges}
    assert set(depends_contradictions(vm)) == explicit - inverse


def test_chain_fixture_depends_derivation(chain_doc):
    vm = derive_depends_on(chain_doc.view_models["Organization Quality Views"])
    assert ("Process Quality View", "Resource Quality View") in vm.depends_on_edges
    assert len(vm.depends_on_edges) == 4


def test_attribute_endpoint_messages_take_an():
    nfrs = {"C": NfrNode(kind=NfrKind.CHARACTERISTIC, name="C", definition="d"),
            "A": NfrNode(kind=NfrKind.ATTRIBUTE, name="A", definition="d"),
            "S": NfrNode(kind=NfrKind.STATEMENT_ITEM, name="S", declaration="d")}
    # an attribute in the statement-item list can only come from a document built in code
    model = NfrsModelNode(name="M", nfrs=nfrs, combines_item_edges=(("A", "S"), ("C", "A")),
                          mapped_to_edges=(("A", "A"),))
    messages = {(d.code, d.message) for d in validate(Document(models={"M": model}))}
    assert messages >= {
        ("R-003", "only a characteristic can combine statement items; 'A' is an attribute"),
        ("R-003", "this combines edge must target a statement item; 'A' is an attribute"),
        ("R-008", "maps edges start at a statement item; 'A' is an attribute"),
    }


# --- differential: the view-model checks against validator_oracle ---------------------------------------------

PLANTED_VIEW_MODEL = CATEGORY + QUALITY_FOCUS_MODEL + """view_model "VM" {
  view "Q1" { kind: quality category: "C" focus: "M" . "F" }
  view "Q2" { kind: quality category: "C" focus: "M" . "F" }
  view "Q3" { kind: quality category: "C" focus: "M" . "F" }
  view "K1" { kind: cost category: "C" focus: "M" . "F" }
  view "K2" { kind: cost category: "C" focus: "M" . "F" }
  influences "Q1" -> "Q2"
  influences "Q2" -> "Q3"
  influences "Q3" -> "Q1"
  influences "Q1" -> "Ghost"
  influences "Ghost" -> "Q1"
  influences "Ghost" -> "Ghost"
  influences "Nope" -> "Ghost"
  influences "K1" -> "Q1"
  influences "Q1" -> "K1"
  influences "K1" -> "K2"
  influences "K1" -> "K1"
  depends_on "Q2" -> "Q1"
  depends_on "Q1" -> "Q2"
  depends_on "Q3" -> "Q3"
  depends_on "K2" -> "Q1"
  depends_on "Q1" -> "K2"
  depends_on "Q1" -> "K1"
  depends_on "K2" -> "K1"
  depends_on "Ghost" -> "Q1"
  depends_on "Q1" -> "Nope"
  depends_on "Ghost" -> "Ghost"
}
"""


def _random_view_model_text(rng: random.Random) -> str:
    """One view model of quality and cost views whose edges also name unknown views, mirror or contradict."""
    views = {f"V{i}": rng.choice(("quality", "cost")) for i in range(rng.randrange(1, 7))}
    names = [*views, "Ghost", "Nope"]
    influences = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randrange(9))]
    depends_on = []
    for _ in range(rng.randrange(7)):
        if influences and rng.random() < 0.5:
            source, target = rng.choice(influences)
            depends_on.append((target, source))  # the mirror of an influences edge
        else:
            depends_on.append((rng.choice(names), rng.choice(names)))
    lines = [f'  view "{n}" {{ kind: {k} category: "C" focus: "M" . "F" }}' for n, k in views.items()]
    lines += [f'  influences "{a}" -> "{b}"' for a, b in influences]
    lines += [f'  depends_on "{a}" -> "{b}"' for a, b in depends_on]
    return CATEGORY + QUALITY_FOCUS_MODEL + 'view_model "VM" {\n' + "\n".join(lines) + "\n}\n"


def _differential_documents() -> list[tuple[str, Document]]:
    documents = [("planted", parse(PLANTED_VIEW_MODEL))]
    for seed in range(200):
        doc = random_document(random.Random(seed))
        # the parsed copy carries source locations, so the diagnostics' locations are compared too
        documents += [(f"seed {seed}", doc), (f"seed {seed} parsed", parse(serialize(doc))),
                      (f"view model {seed}", parse(_random_view_model_text(random.Random(seed))))]
    return documents


def test_validate_matches_view_model_oracle():
    codes: set[str] = set()
    for label, doc in _differential_documents():
        for mode in ValidationMode:
            expected = validator_oracle.validate(doc, mode)
            assert validate(doc, mode) == expected, f"{label}, {mode.value} mode"
            codes.update(d.code for d in expected if d.subject.startswith("view_model:"))
    assert codes >= {"R-REF", "R-005", "R-006", "R-006b", "R-016"}


def test_planted_view_model_reports_every_planted_edge():
    diagnostics = validate(parse(PLANTED_VIEW_MODEL), ValidationMode.INSTANCE)
    edges = {(d.code, d.subject.rsplit("/", 1)[1]) for d in diagnostics if "->" in d.subject}
    assert edges >= {
        ("R-REF", "influences:Q1->Ghost"), ("R-REF", "influences:Ghost->Ghost"), ("R-REF", "influences:Nope->Ghost"),
        ("R-006", "influences:K1->Q1"), ("R-006", "influences:Q1->K1"), ("R-006", "influences:K1->K1"),
        ("R-006b", "depends_on:Q1->Q2"), ("R-006b", "depends_on:Q3->Q3"), ("R-005", "depends_on:K2->Q1"),
        ("R-005", "depends_on:Q1->K1"), ("R-REF", "depends_on:Ghost->Q1"), ("R-REF", "depends_on:Q1->Nope"),
    }
    assert all(d.location is not None for d in diagnostics if "->" in d.subject and "cycle" not in d.subject)


# --- differential: the model checks against validator_oracle ---------------------------------------------------

_GEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
_gen_spec = importlib.util.spec_from_file_location("perfbench_gen", _GEN_PATH)
perfbench_gen = sys.modules["perfbench_gen"] = importlib.util.module_from_spec(_gen_spec)  # dataclasses looks it up
_gen_spec.loader.exec_module(perfbench_gen)


def _redrawn_model_edges(doc: Document, rng: random.Random) -> Document:
    """``doc`` with each model edge list redrawn from its NFRs, its target collection and an unknown name."""
    models = {}
    for name, model in doc.models.items():
        changes = {}
        for kind in MODEL_EDGE_KINDS:
            names = [*model.nfrs, "Ghost", *(getattr(doc, kind.collection) if kind.collection else ())]
            changes[kind.field] = tuple((rng.choice(names), rng.choice(names)) for _ in range(rng.randrange(5)))
        models[name] = replace(model, **changes)
    return replace(doc, models=models)


def test_model_checks_match_the_oracle_on_generated_documents():
    codes: set[str] = set()
    for seed in range(1500):
        doc = random_document(random.Random(seed))
        redrawn = _redrawn_model_edges(doc, random.Random(seed))
        # a parsed copy carries source locations, so the diagnostics' locations are compared too
        documents = [doc, redrawn, parse(serialize(redrawn))] if seed < 200 else [doc, redrawn]
        for mode in ValidationMode:
            for document in documents:
                expected = validator_oracle.validate(document, mode)
                assert validate(document, mode) == expected, f"seed {seed}, {mode.value} mode"
                codes.update(d.code for d in expected if d.subject.startswith("model:"))
    assert codes >= {"R-REF", "R-002", "R-003", "R-008", "R-009", "R-010", "R-011", "R-012", "R-013", "R-017"}


@pytest.mark.parametrize("seed, target", [(1, 20_000), (2, 50_000), (3, 200_000)])
def test_model_checks_match_the_oracle_on_catalog_documents(seed, target):
    doc = parse(perfbench_gen.catalog_doc(seed, target).text)  # parsed, so locations are compared too
    assert sum(len(model.nfrs) for model in doc.models.values()) > target // 1_000
    for mode in ValidationMode:
        assert validate(doc, mode) == validator_oracle.validate(doc, mode), f"{mode.value} mode"
