from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, strategies as st

from conftest import fixture_path
from nfrstdo.diagnostics import Diagnostic, Severity, replace
from nfrstdo.kernel import (
    ArchParseError,
    ArchSpec,
    ComponentRef,
    OntoLevel,
    OntologySchema,
    RelationshipDef,
    TermDef,
    UnknownTerm,
    UnknownVersion,
    builtin_schema,
    diff_schemas,
    lint_architecture,
    parse_arch,
    schema_counts,
    schema_to_json,
    stereotype_chain,
)

V12_TERMS = {
    "Attribute",
    "Characteristic",
    "Evaluable Entity",
    "Evaluable Entity Category",
    "Functional Requirement",
    "Non-Functional Requirement",
    "NFRs Model",
    "Statement Item",
    "Cost Focus",
    "Cost View",
    "Evaluation Focus",
    "NFR View",
    "NFRs View Model",
    "Quality Focus",
    "Quality View",
}

# (name, source, target, min, max); max None is unbounded
RELATIONSHIP_TABLE = [
    ("belongs to", "Evaluable Entity", "Evaluable Entity Category", 1, 1),
    ("combines", "Characteristic", "Attribute", 0, None),
    ("combines", "Characteristic", "Statement Item", 0, None),
    ("deals with universals", "NFR View", "Evaluable Entity Category", 1, 1),
    ("depends on", "Quality View", "Quality View", 0, None),
    ("influences", "Quality View", "Quality View", 0, None),
    ("is represented by", "Evaluation Focus", "NFRs Model", 1, None),
    ("is mapped to", "Statement Item", "Attribute", 0, None),
    ("refers to particulars", "Non-Functional Requirement", "Evaluable Entity", 1, None),
    ("refers to universals", "Non-Functional Requirement", "Evaluable Entity Category", 0, None),
    ("relates with", "Non-Functional Requirement", "Non-Functional Requirement", 0, None),
    ("satisfies", "Non-Functional Requirement", "Functional Requirement", 0, None),
]


def test_v12_counts():
    assert schema_counts(builtin_schema("1.2")) == (15, 18, 12)


def test_v12_term_names():
    assert set(builtin_schema("1.2").terms) == V12_TERMS


def test_unknown_version():
    with pytest.raises(UnknownVersion):
        builtin_schema("3.0")


@pytest.mark.parametrize("name,source,target,min_count,max_count", RELATIONSHIP_TABLE)
def test_v12_relationship_cardinalities(name, source, target, min_count, max_count):
    schema = builtin_schema("1.2")
    matches = [
        r
        for r in schema.relationships
        if r.name == name and r.source_term == source and r.target_term == target
    ]
    assert len(matches) == 1
    r = matches[0]
    assert (r.min_count, r.max_count) == (min_count, max_count)


def test_v11_counts():
    # Hand-derived from the v1.2 tables by undoing the recorded updates:
    # minus the Functional Requirement term and its 3 properties, minus the
    # relates with / is mapped to / satisfies relationships.
    assert schema_counts(builtin_schema("1.1")) == (14, 15, 9)


def test_v11_refers_to_is_a_single_pair_name():
    names = [r.name for r in builtin_schema("1.1").relationships]
    assert names.count("refers to") == 2
    assert "refers to particulars" not in names


def test_empty_schema_counts():
    empty = OntologySchema(
        component=ComponentRef("X", OntoLevel.TOP_DOMAIN, "0"), terms={}, relationships=()
    )
    assert schema_counts(empty) == (0, 0, 0)


@pytest.mark.parametrize(
    "term,expected",
    [
        ("NFRs Model", [("ProcessCO", "Artifact")]),
        ("NFRs View Model", [("ProcessCO", "Artifact")]),
        ("NFR View", [("ThingFO", "Assertion on Universals")]),
        (
            "Evaluable Entity Category",
            [
                ("SituationCO", "Entity Category"),
                ("SituationCO", "Context Category"),
                ("ThingFO", "Thing Category"),
            ],
        ),
        (
            "Evaluable Entity",
            [("SituationCO", "Target Entity"), ("SituationCO", "Context Entity"), ("ThingFO", "Thing")],
        ),
        (
            "Functional Requirement",
            [("FRsTDO", "Functional Requirement"), ("ThingFO", "Assertion on Particulars")],
        ),
        ("Attribute", []),
    ],
)
def test_stereotype_chain(term, expected):
    chain = stereotype_chain(builtin_schema("1.2"), term)
    assert [(ref.component.name, ref.term) for ref in chain] == expected


def test_stereotype_chain_unknown_term():
    with pytest.raises(UnknownTerm):
        stereotype_chain(builtin_schema("1.2"), "Nope")


@pytest.mark.parametrize("version", ["1.1", "1.2"])
def test_stereotype_levels_never_lower(version):
    schema = builtin_schema(version)
    for name in schema.terms:
        for ref in stereotype_chain(schema, name):
            if ref.component.level == schema.component.level:
                # the only same-level tag is the whole-term reuse from FRsTDO
                assert (name, ref.component.name, ref.reused) == (
                    "Functional Requirement",
                    "FRsTDO",
                    True,
                )
            else:
                assert ref.component.level < schema.component.level


def test_taxonomic_parents_resolve():
    schema = builtin_schema("1.2")
    for term in schema.terms.values():
        if term.parent_term is not None:
            assert term.parent_term in schema.terms


# --- version diff ------------------------------------------------------------


def test_diff_v11_to_v12_exact():
    diff = diff_schemas(builtin_schema("1.1"), builtin_schema("1.2"))
    assert diff.added_terms == ("Functional Requirement",)
    assert diff.removed_terms == ()
    assert diff.added_relationships == (
        ("is mapped to", "Statement Item", "Attribute"),
        ("relates with", "Non-Functional Requirement", "Non-Functional Requirement"),
        ("satisfies", "Non-Functional Requirement", "Functional Requirement"),
    )
    assert diff.removed_relationships == ()
    assert diff.renamed_relationships == (
        ("refers to", "refers to particulars", "Non-Functional Requirement", "Evaluable Entity"),
        ("refers to", "refers to universals", "Non-Functional Requirement", "Evaluable Entity Category"),
    )
    changes = {(c.term, c.change, c.stereotype.component.name, c.stereotype.term) for c in diff.stereotype_changes}
    assert changes == {
        ("Non-Functional Requirement", "removed", "ThingFO", "Quantity-related Assertion"),
        ("Evaluable Entity Category", "removed", "ThingFO", "Thing Category"),
        ("Evaluable Entity Category", "added", "SituationCO", "Entity Category"),
        ("Evaluable Entity Category", "added", "SituationCO", "Context Category"),
    }


def test_diff_identity():
    assert diff_schemas(builtin_schema("1.2"), builtin_schema("1.2")).is_empty()
    assert diff_schemas(builtin_schema("1.1"), builtin_schema("1.1")).is_empty()


def test_diff_from_empty_schema():
    v12 = builtin_schema("1.2")
    empty = OntologySchema(component=v12.component, terms={}, relationships=())
    diff = diff_schemas(empty, v12)
    # cross-check against a brute-force set difference
    assert set(diff.added_terms) == set(v12.terms) - set(empty.terms)
    assert len(diff.added_terms) == 15
    assert diff.removed_terms == ()


def test_diff_counts_a_repeated_relationship_once():
    v12 = builtin_schema("1.2")
    repeated = v12.relationships[0]
    doubled = OntologySchema(component=v12.component, terms=v12.terms,
                             relationships=(*v12.relationships, repeated))
    diff = diff_schemas(v12, doubled)
    assert diff.added_relationships == (repeated.descriptor(),)
    assert diff.removed_relationships == diff.renamed_relationships == ()
    assert diff_schemas(doubled, v12).removed_relationships == (repeated.descriptor(),)


def _mutated_schema(seed: int) -> OntologySchema:
    rng = random.Random(seed)
    base = builtin_schema("1.2")
    terms = {name: t for name, t in base.terms.items() if rng.random() > 0.2}
    if rng.random() < 0.5:
        extra = TermDef(name=f"Extra {rng.randrange(100)}", definition="x", component=base.component)
        terms[extra.name] = extra
    for name in list(terms):
        t = terms[name]
        if t.stereotypes and rng.random() < 0.3:
            terms[name] = replace(t, stereotypes=t.stereotypes[1:])
    rels = [r for r in base.relationships if rng.random() > 0.2]
    rels = [replace(r, name=r.name + " prime") if rng.random() < 0.2 else r for r in rels]
    if rng.random() < 0.4:
        rels.append(RelationshipDef(f"extra {rng.randrange(100)}", "Attribute", "Characteristic", 0, None))
    return OntologySchema(component=base.component, terms=terms, relationships=tuple(rels))


@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_diff_antisymmetry(seed_a, seed_b):
    a, b = _mutated_schema(seed_a), _mutated_schema(seed_b)
    forward, backward = diff_schemas(a, b), diff_schemas(b, a)
    assert forward.added_terms == backward.removed_terms
    assert forward.removed_terms == backward.added_terms
    assert forward.added_relationships == backward.removed_relationships
    assert forward.removed_relationships == backward.added_relationships
    assert sorted(forward.renamed_relationships) == sorted(
        (new, old, s, t) for old, new, s, t in backward.renamed_relationships
    )


# --- architecture linting -----------------------------------------------------

REFERENCE_ARCH = fixture_path("fcd_ontoarch.arch").read_text(encoding="utf-8")


def test_reference_architecture_is_clean():
    assert lint_architecture(parse_arch(REFERENCE_ARCH)) == []


@pytest.mark.parametrize(
    "extra_line,code",
    [
        ("component ThingFOBis level Foundational", "L-001"),
        ("enriches SituationCO <- MetricsLDO", "L-002"),
        ("peer ThingFO ThingFO", "L-003"),
        ("peer SituationCO NFRsTDO", "L-003"),
    ],
)
def test_single_violation_single_diagnostic(extra_line, code):
    spec = parse_arch(REFERENCE_ARCH + extra_line + "\n")
    diagnostics = lint_architecture(spec)
    assert [d.code for d in diagnostics] == [code]


_L001 = "the foundational tier must contain exactly ThingFO (found: {})"


@pytest.mark.parametrize(
    "text,code,message,subject",
    [
        ("component SituationCO level Core\n", "L-001", _L001.format("none"), "architecture"),
        (REFERENCE_ARCH + "component ThingFOBis level Foundational\n", "L-001",
         _L001.format("ThingFO, ThingFOBis"), "architecture"),
        (REFERENCE_ARCH + "enriches SituationCO <- MetricsLDO\n", "L-002",
         "enrichment must come from the same or a higher tier: MetricsLDO (LowDomain) cannot enrich SituationCO (Core)",
         "enriches:SituationCO<-MetricsLDO"),
        (REFERENCE_ARCH + "peer SituationCO NFRsTDO\n", "L-003",
         "peer components must share a tier: SituationCO is Core, NFRsTDO is TopDomain", "peer:SituationCO<->NFRsTDO"),
        (REFERENCE_ARCH + "peer ThingFO ThingFO\n", "L-003",
         "peer relationships are not allowed at the foundational tier", "peer:ThingFO<->ThingFO"),
    ],
    ids=["no-foundational", "two-foundational", "upward-enrichment", "cross-tier-peer", "foundational-peer"],
)
def test_lint_diagnostic_texts(text, code, message, subject):
    assert lint_architecture(parse_arch(text)) == [Diagnostic(code, Severity.ERROR, message, subject)]


def test_missing_thingfo_is_l001():
    spec = parse_arch("component SituationCO level Core\n")
    assert [d.code for d in lint_architecture(spec)] == ["L-001"]


def test_two_foundational_components_trip_l001():
    text = "component ThingFO level Foundational\ncomponent ThingFOBis level Foundational\npeer ThingFO ThingFOBis\n"
    codes = [d.code for d in lint_architecture(parse_arch(text))]
    assert "L-001" in codes
    assert "L-003" in codes


def test_same_level_enrichment_allowed():
    text = (
        "component ThingFO level Foundational\n"
        "component FRsTDO level TopDomain\n"
        "component NFRsTDO level TopDomain\n"
        "enriches NFRsTDO <- FRsTDO\n"
    )
    assert lint_architecture(parse_arch(text)) == []


@pytest.mark.parametrize(
    "text",
    [
        "component X level Bogus\n",
        "component X\n",
        "enriches A -> B\n",
        "frobnicate X\n",
        "component A level Core\nenriches A <- Missing\n",
        "component A level Core\ncomponent A level Core\n",
    ],
)
def test_arch_parse_errors(text):
    with pytest.raises(ArchParseError):
        parse_arch(text)


def test_arch_undeclared_component_reports_edge_line():
    text = "component ThingFO level Foundational\nenriches A <- ThingFO\n\ncomponent B level Core\n# end\n"
    with pytest.raises(ArchParseError) as excinfo:
        parse_arch(text)
    assert excinfo.value.line_no == 2
    assert str(excinfo.value) == "line 2: enrichment edge names undeclared component: A <- ThingFO"


def test_arch_edge_may_precede_component_declaration():
    spec = parse_arch("peer A B\ncomponent A level Core\ncomponent B level Core\n")
    assert spec.peer_edges == (("A", "B"),)


def test_arch_comments_and_blanks_ignored():
    spec = parse_arch("# intro\n\ncomponent ThingFO level Foundational  # trailing\n")
    assert [c.name for c in spec.components] == ["ThingFO"]


def test_archspec_rejects_undeclared_edges():
    with pytest.raises(ValueError):
        ArchSpec(components=(ComponentRef("A", OntoLevel.CORE),), peer_edges=(("A", "B"),))


# --- canonical dump ------------------------------------------------------------


def test_schema_json_canonical():
    first = schema_to_json(builtin_schema("1.2"))
    second = schema_to_json(builtin_schema("1.2"))
    assert first == second
    assert first.endswith("\n")
    assert "\r" not in first
    obj = json.loads(first)
    names = [t["name"] for t in obj["terms"]]
    assert names == sorted(names)
    assert len(obj["relationships"]) == 12
    assert obj["component"] == {"level": "TopDomain", "name": "NFRsTDO", "version": "1.2"}


@pytest.mark.parametrize(("version", "digest"), [
    ("1.1", "e7b854efa7b9c341a8b9385614d522cd779c74f116129cebb30e6f4a050f0167"),
    ("1.2", "bf68d6cc64ae88d501ddbb52f74656fd43907d1fb5d9503d94222314b54ccf4b"),
])
def test_schema_json_bytes(version, digest):
    assert hashlib.sha256(schema_to_json(builtin_schema(version)).encode("utf-8")).hexdigest() == digest
