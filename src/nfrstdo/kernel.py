"""NFRsTDO schema kernel.

Holds the NFRsTDO term/property/relationship registry as plain data (versions
1.2 and 1.1), the stereotype enrichment chains into the higher-level
ontologies (ThingFO, SituationCO, ProcessCO, FRsTDO), the five-tier
ontological architecture model, and the layering linter for it.

All values are immutable after construction and every operation is a pure
function, so schemas can be shared freely across threads.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from enum import IntEnum

from .diagnostics import Diagnostic, Record, Severity, replace, sort_diagnostics

UNBOUNDED = None  # max cardinality for "none or more" / "one or more"


class UnknownVersion(ValueError):
    """Requested a schema version that is not registered."""


class UnknownTerm(LookupError):
    """Named a term that does not exist in the schema."""


class ArchParseError(ValueError):
    """An architecture description file could not be parsed."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class OntoLevel(IntEnum):
    """The five architecture tiers, ordered from most to least foundational."""

    FOUNDATIONAL = 0
    CORE = 1
    TOP_DOMAIN = 2
    LOW_DOMAIN = 3
    INSTANCE = 4

    @property
    def label(self) -> str:
        """The name in CamelCase: ``TopDomain`` for ``TOP_DOMAIN``."""
        return self.name.title().replace("_", "")

    @classmethod
    def from_label(cls, label: str) -> "OntoLevel":
        for level in cls:
            if level.label == label:
                return level
        raise ValueError(f"unknown level {label!r}")


class ComponentRef(Record):
    """One ontology component (name, tier, version) in the architecture."""

    name: str
    level: OntoLevel
    version: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("component name must be non-empty")


class PropertyDef(Record):
    name: str
    definition: str


class StereotypeRef(Record):
    """An enrichment tag: the higher-level term whose semantics a term carries.

    ``reused`` marks whole-term reuse from a peer component at the same tier,
    the one sanctioned exception to the higher-level-only rule.
    """

    component: ComponentRef
    term: str
    reused: bool = False


class TermDef(Record):
    name: str
    definition: str
    component: ComponentRef
    synonyms: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    parent_term: str | None = None
    stereotypes: tuple[StereotypeRef, ...] = ()
    properties: tuple[PropertyDef, ...] = ()


class RelationshipDef(Record):
    """A non-taxonomic relationship with its target multiplicity per source.

    ``max_count`` of ``None`` means unbounded ("none or more" is (0, None),
    "one or more" is (1, None), "one" is (1, 1)).
    """

    name: str
    source_term: str
    target_term: str
    min_count: int
    max_count: int | None
    reflexive_allowed: bool = False
    directed: bool = True

    def __post_init__(self) -> None:
        if self.max_count is not None and self.min_count > self.max_count:
            raise ValueError("min cardinality exceeds bounded max")

    def descriptor(self) -> tuple[str, str, str]:
        return (self.name, self.source_term, self.target_term)


class OntologySchema(Record):
    component: ComponentRef
    terms: dict[str, TermDef]
    relationships: tuple[RelationshipDef, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OntologySchema):
            return NotImplemented
        return (
            self.component == other.component
            and self.terms == other.terms
            and sorted(self.relationships, key=RelationshipDef.descriptor)
            == sorted(other.relationships, key=RelationshipDef.descriptor)
        )


class StereotypeChange(Record):
    term: str
    change: str  # "added" or "removed"
    stereotype: StereotypeRef


class SchemaDiff(Record):
    added_terms: tuple[str, ...]
    removed_terms: tuple[str, ...]
    added_relationships: tuple[tuple[str, str, str], ...]
    removed_relationships: tuple[tuple[str, str, str], ...]
    renamed_relationships: tuple[tuple[str, str, str, str], ...]  # old, new, source, target
    stereotype_changes: tuple[StereotypeChange, ...]

    def is_empty(self) -> bool:
        return not any(getattr(self, name) for name in self._fields)


class ArchSpec(Record):
    """A declared component allocation plus enrichment/peer edges between them."""

    components: tuple[ComponentRef, ...]
    enrichment_edges: tuple[tuple[str, str], ...] = ()  # (consumer, supplier)
    peer_edges: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        declared = {c.name for c in self.components}
        for consumer, supplier in self.enrichment_edges:
            if consumer not in declared or supplier not in declared:
                raise ValueError(f"enrichment edge names undeclared component: {consumer} <- {supplier}")
        for a, b in self.peer_edges:
            if a not in declared or b not in declared:
                raise ValueError(f"peer edge names undeclared component: {a} {b}")


# --- the component registry -------------------------------------------------

THING_FO = ComponentRef("ThingFO", OntoLevel.FOUNDATIONAL, "1.3")
SITUATION_CO = ComponentRef("SituationCO", OntoLevel.CORE, "1.2")
PROCESS_CO = ComponentRef("ProcessCO", OntoLevel.CORE, "1.3")
FRS_TDO = ComponentRef("FRsTDO", OntoLevel.TOP_DOMAIN, "1.1")

# Stereotype chains declared by the higher-level components themselves.
# Only the entries NFRsTDO terms reach are registered; the internals of the
# higher-level ontologies are otherwise out of scope.
HIGHER_LEVEL_STEREOTYPES: dict[tuple[str, str], tuple[StereotypeRef, ...]] = {
    ("SituationCO", "Entity Category"): (StereotypeRef(THING_FO, "Thing Category"),),
    ("SituationCO", "Context Category"): (StereotypeRef(THING_FO, "Thing Category"),),
    ("SituationCO", "Target Entity"): (StereotypeRef(THING_FO, "Thing"),),
    ("SituationCO", "Context Entity"): (StereotypeRef(THING_FO, "Thing"),),
}


def _nfrstdo_component(version: str) -> ComponentRef:
    return ComponentRef("NFRsTDO", OntoLevel.TOP_DOMAIN, version)


def _build_v1_2() -> OntologySchema:
    component = _nfrstdo_component("1.2")
    term = functools.partial(TermDef, component=component)

    terms = [
        term(
            "Attribute",
            "An NFR for a measurable and evaluable elementary aspect attributed"
            " to a particular entity or its category.",
            synonyms=("Property", "Elementary Aspect"),
            notes=(
                "An elementary quality to be quantified.",
                "Quantified with metrics and interpreted with elementary indicators.",
            ),
            parent_term="Non-Functional Requirement",
            properties=(
                PropertyDef("definition", "Unambiguous textual meaning of the elementary aspect."),
            ),
        ),
        term(
            "Characteristic",
            "An NFR for an evaluable, non-elementary aspect attributed to a"
            " particular entity or its category.",
            synonyms=(
                "Dimension",
                "Factor",
                "Non-elementary Aspect",
                "Calculable Concept",
                "Evaluable Concept",
            ),
            notes=(
                "Evaluable but not directly measurable; combines Attributes or Statement Items.",
                "Can have sub-characteristics.",
            ),
            parent_term="Non-Functional Requirement",
            properties=(
                PropertyDef("definition", "Unambiguous textual meaning of the non-elementary aspect."),
            ),
        ),
        term(
            "Evaluable Entity",
            "A particular (concrete) entity to be evaluated.",
            synonyms=("Evaluable Particular Entity", "Evaluable Particular", "Object"),
            notes=(
                "Examples: concrete products, systems, resources, work processes, services.",
            ),
            stereotypes=(
                StereotypeRef(SITUATION_CO, "Target Entity"),
                StereotypeRef(SITUATION_CO, "Context Entity"),
            ),
            properties=(
                PropertyDef("name", "Label that identifies the evaluable entity."),
                PropertyDef("description", "Unambiguous textual statement describing the entity."),
            ),
        ),
        term(
            "Evaluable Entity Category",
            "The universal (category) that particular evaluable entities belong to.",
            synonyms=("Evaluable Universal",),
            notes=(
                "Examples: Software Product Category, Service Category, Resource Category.",
            ),
            stereotypes=(
                StereotypeRef(SITUATION_CO, "Entity Category"),
                StereotypeRef(SITUATION_CO, "Context Category"),
            ),
            properties=(
                PropertyDef("name", "Label that identifies the category."),
                PropertyDef("description", "Unambiguous textual description of the category's aim as universal."),
            ),
        ),
        term(
            "Functional Requirement",
            "An assertion on particulars stating what a developable entity does"
            " or shall do, for a given requester's need.",
            notes=(
                "May require satisfaction by constraints or 'ilities' stated as NFRs.",
            ),
            stereotypes=(
                StereotypeRef(FRS_TDO, "Functional Requirement", reused=True),
                StereotypeRef(THING_FO, "Assertion on Particulars"),
            ),
            properties=(
                PropertyDef("name", "Label that identifies the functional requirement."),
                PropertyDef("statement", "Explicit declaration of what the developable entity does or shall do."),
                PropertyDef("requester", "Agent that requires or establishes the functional requirement."),
            ),
        ),
        term(
            "Non-Functional Requirement",
            "A quality- or constraint-related assertion specifying an aspect, as"
            " a Characteristic, Attribute, or Statement Item, to be evaluated on"
            " how or how well an evaluable entity performs.",
            notes=("Often referred to as an 'ility'.",),
            stereotypes=(
                StereotypeRef(THING_FO, "Quality-related Assertion"),
                StereotypeRef(THING_FO, "Constraint-related Assertion"),
            ),
            properties=(
                PropertyDef("name", "Label that identifies the NFR."),
                PropertyDef("statement", "Explicit declaration of the aspect to be evaluated."),
            ),
        ),
        term(
            "NFRs Model",
            "An artifact that specifies and represents non-functional requirements.",
            synonyms=("Quality Model",),
            notes=(
                "Hierarchically models characteristics, sub-characteristics, and attributes.",
            ),
            stereotypes=(StereotypeRef(PROCESS_CO, "Artifact"),),
            properties=(
                PropertyDef("name", "Label that identifies the NFRs model."),
                PropertyDef("specification", "Detailed representation of the NFRs in a given language."),
            ),
        ),
        term(
            "Statement Item",
            "An NFR declaring a textual expression of an evaluable aspect asserted"
            " for a particular entity or its category.",
            synonyms=("Item", "Guideline", "Heuristic"),
            notes=(
                "For instance an item in a questionnaire, a heuristic checklist, or a style guide.",
                "Can be mapped to Attributes.",
            ),
            parent_term="Non-Functional Requirement",
            properties=(
                PropertyDef("declaration", "Unambiguous textual expression of the item."),
            ),
        ),
        term(
            "Cost Focus",
            "An Evaluation Focus for cost.",
            parent_term="Evaluation Focus",
        ),
        term(
            "Cost View",
            "An NFR View for cost.",
            synonyms=("Cost Perspective",),
            parent_term="NFR View",
        ),
        term(
            "Evaluation Focus",
            "The Characteristic that is the root of an NFRs model.",
            parent_term="Characteristic",
        ),
        term(
            "NFR View",
            "An assertion on universals relating one evaluable entity category"
            " with one evaluation focus.",
            synonyms=("NFR Perspective",),
            notes=(
                "The category must be the super-category: the highest abstraction level of value.",
                "The focus must be the root characteristic of an NFRs model of value.",
            ),
            stereotypes=(StereotypeRef(THING_FO, "Assertion on Universals"),),
            properties=(
                PropertyDef("name", "Label that identifies the NFR view."),
                PropertyDef("statement", "Explicit declaration of the category-to-focus relationship."),
            ),
        ),
        term(
            "NFRs View Model",
            "An artifact that specifies and represents NFR views.",
            stereotypes=(StereotypeRef(PROCESS_CO, "Artifact"),),
            properties=(
                PropertyDef("name", "Label that identifies the NFRs view model."),
                PropertyDef("specification", "Detailed representation of the NFR views in a given language."),
            ),
        ),
        term(
            "Quality Focus",
            "An Evaluation Focus for quality.",
            notes=("Examples: Process Quality, Internal Quality, External Quality, Quality in Use.",),
            parent_term="Evaluation Focus",
        ),
        term(
            "Quality View",
            "An NFR View for quality.",
            synonyms=("Quality Perspective",),
            notes=(
                "Examples: Resource Quality View, Process Quality View, Software Product Quality View.",
            ),
            parent_term="NFR View",
        ),
    ]

    relationships = (
        RelationshipDef("belongs to", "Evaluable Entity", "Evaluable Entity Category", 1, 1),
        RelationshipDef("combines", "Characteristic", "Attribute", 0, UNBOUNDED),
        RelationshipDef("combines", "Characteristic", "Statement Item", 0, UNBOUNDED),
        RelationshipDef("deals with universals", "NFR View", "Evaluable Entity Category", 1, 1),
        RelationshipDef("depends on", "Quality View", "Quality View", 0, UNBOUNDED),
        RelationshipDef("influences", "Quality View", "Quality View", 0, UNBOUNDED),
        RelationshipDef("is represented by", "Evaluation Focus", "NFRs Model", 1, UNBOUNDED),
        RelationshipDef("is mapped to", "Statement Item", "Attribute", 0, UNBOUNDED),
        RelationshipDef("refers to particulars", "Non-Functional Requirement", "Evaluable Entity", 1, UNBOUNDED),
        RelationshipDef(
            "refers to universals", "Non-Functional Requirement", "Evaluable Entity Category", 0, UNBOUNDED
        ),
        RelationshipDef(
            "relates with",
            "Non-Functional Requirement",
            "Non-Functional Requirement",
            0,
            UNBOUNDED,
            reflexive_allowed=True,
            directed=False,
        ),
        RelationshipDef("satisfies", "Non-Functional Requirement", "Functional Requirement", 0, UNBOUNDED),
    )

    return OntologySchema(
        component=component,
        terms={t.name: t for t in terms},
        relationships=relationships,
    )


def _build_v1_1() -> OntologySchema:
    """Reconstruct v1.1 by mechanically undoing each recorded v1.2 update."""
    v12 = _build_v1_2()
    component = _nfrstdo_component("1.1")

    terms: dict[str, TermDef] = {}
    for name, t in v12.terms.items():
        if name == "Functional Requirement":
            continue  # introduced in v1.2
        t = replace(t, component=component)
        if name == "Non-Functional Requirement":
            # v1.1 carried the quantity-related assertion semantics as well
            t = replace(
                t,
                stereotypes=(
                    StereotypeRef(THING_FO, "Quality-related Assertion"),
                    StereotypeRef(THING_FO, "Quantity-related Assertion"),
                    StereotypeRef(THING_FO, "Constraint-related Assertion"),
                ),
            )
        if name == "Evaluable Entity Category":
            # v1.1 tagged the category directly as a foundational thing category
            t = replace(t, stereotypes=(StereotypeRef(THING_FO, "Thing Category"),))
        terms[name] = t

    relationships = []
    for r in v12.relationships:
        if r.name in ("relates with", "is mapped to", "satisfies"):
            continue  # added in v1.2
        if r.name in ("refers to particulars", "refers to universals"):
            r = replace(r, name="refers to")  # single pair name before the rename
        relationships.append(r)

    return OntologySchema(component=component, terms=terms, relationships=tuple(relationships))


_BUILTINS = {"1.2": _build_v1_2, "1.1": _build_v1_1}


def builtin_schema(version: str) -> OntologySchema:
    """Return the complete hardcoded NFRsTDO schema for ``version``."""
    try:
        build = _BUILTINS[version]
    except KeyError:
        raise UnknownVersion(f"no built-in schema for version {version!r}") from None
    return build()


def schema_counts(schema: OntologySchema) -> tuple[int, int, int]:
    """(number of terms, properties summed over terms, relationships)."""
    properties = sum(len(t.properties) for t in schema.terms.values())
    return (len(schema.terms), properties, len(schema.relationships))


def stereotype_chain(schema: OntologySchema, term: str) -> list[StereotypeRef]:
    """All enrichment tags of ``term``, nearest tier first.

    Walks the declared stereotypes and, transitively, the chains the
    higher-level components register for their own terms. Duplicates are
    collapsed; ties in tier distance keep declaration order.
    """
    try:
        term_def = schema.terms[term]
    except KeyError:
        raise UnknownTerm(f"no term {term!r} in {schema.component.name} v{schema.component.version}") from None

    collected: list[StereotypeRef] = []
    seen: set[tuple[str, str]] = set()
    frontier = list(term_def.stereotypes)
    while frontier:
        ref = frontier.pop(0)
        key = (ref.component.name, ref.term)
        if key in seen:
            continue
        seen.add(key)
        collected.append(ref)
        frontier.extend(HIGHER_LEVEL_STEREOTYPES.get(key, ()))

    own_level = schema.component.level
    collected.sort(key=lambda ref: own_level - ref.component.level)
    return collected


def diff_schemas(old: OntologySchema, new: OntologySchema) -> SchemaDiff:
    """Report term/relationship/stereotype deltas between two schemas by name.

    A relationship whose source and target match an otherwise-unpaired one in
    the other schema counts as renamed rather than removed-plus-added.
    """
    added_terms = tuple(sorted(set(new.terms) - set(old.terms)))
    removed_terms = tuple(sorted(set(old.terms) - set(new.terms)))

    old_count = Counter(r.descriptor() for r in old.relationships)
    new_count = Counter(r.descriptor() for r in new.relationships)
    still_new = sorted((new_count - old_count).elements())
    renamed: list[tuple[str, str, str, str]] = []
    removed: list[tuple[str, str, str]] = []
    for name, source, target in sorted((old_count - new_count).elements()):
        partner = next((r for r in still_new if r[1:] == (source, target)), None)
        if partner is not None:
            still_new.remove(partner)
            renamed.append((name, partner[0], source, target))
        else:
            removed.append((name, source, target))

    stereotype_changes: list[StereotypeChange] = []
    for name in sorted(set(old.terms) & set(new.terms)):
        old_tags = {(s.component.name, s.term): s for s in old.terms[name].stereotypes}
        new_tags = {(s.component.name, s.term): s for s in new.terms[name].stereotypes}
        for key in sorted(set(old_tags) - set(new_tags)):
            stereotype_changes.append(StereotypeChange(name, "removed", old_tags[key]))
        for key in sorted(set(new_tags) - set(old_tags)):
            stereotype_changes.append(StereotypeChange(name, "added", new_tags[key]))

    return SchemaDiff(
        added_terms=added_terms,
        removed_terms=removed_terms,
        added_relationships=tuple(still_new),
        removed_relationships=tuple(removed),
        renamed_relationships=tuple(sorted(renamed)),
        stereotype_changes=tuple(stereotype_changes),
    )


# --- architecture linting ----------------------------------------------------


def lint_architecture(spec: ArchSpec) -> list[Diagnostic]:
    """Check an architecture against the five-tier layering rules.

    L-001: exactly one foundational component, and it is ThingFO.
    L-002: enrichment flows only from the same or a higher tier.
    L-003: peer edges stay on one tier and never touch the foundational one.
    """
    diagnostics: list[Diagnostic] = []

    def report(code: str, message: str, subject: str) -> None:
        diagnostics.append(Diagnostic(code, Severity.ERROR, message, subject))

    levels = {c.name: c.level for c in spec.components}
    foundational = [c.name for c in spec.components if c.level is OntoLevel.FOUNDATIONAL]
    if foundational != ["ThingFO"]:
        found = ", ".join(sorted(foundational)) if foundational else "none"
        report("L-001", f"the foundational tier must contain exactly ThingFO (found: {found})", "architecture")

    for consumer, supplier in spec.enrichment_edges:
        if levels[supplier] > levels[consumer]:
            report("L-002", f"enrichment must come from the same or a higher tier: {supplier}"
                   f" ({levels[supplier].label}) cannot enrich {consumer} ({levels[consumer].label})",
                   f"enriches:{consumer}<-{supplier}")

    for a, b in spec.peer_edges:
        if levels[a] != levels[b]:
            report("L-003", f"peer components must share a tier: {a} is {levels[a].label}, {b} is {levels[b].label}",
                   f"peer:{a}<->{b}")
        elif levels[a] is OntoLevel.FOUNDATIONAL:
            report("L-003", "peer relationships are not allowed at the foundational tier", f"peer:{a}<->{b}")

    return sort_diagnostics(diagnostics)


def parse_arch(text: str) -> ArchSpec:
    """Parse the line-oriented architecture description format.

    Lines: ``component <NAME> level <LEVEL>``, ``enriches <CONSUMER> <- <SUPPLIER>``,
    ``peer <A> <B>``; ``#`` starts a comment.
    """
    components: list[ComponentRef] = []
    seen: set[str] = set()
    enrichment: list[tuple[str, str]] = []
    peers: list[tuple[str, str]] = []
    edge_lines: list[tuple[int, tuple[str, str], str]] = []  # line, components named, error if undeclared

    # lines end at \r\n, \r or \n only, as in the .nfrs lexer; str.splitlines would also break at \f, \x85, U+2028, ...
    for line_no, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "component":
            if len(tokens) != 4 or tokens[2] != "level":
                raise ArchParseError(line_no, "expected 'component <NAME> level <LEVEL>'")
            try:
                level = OntoLevel.from_label(tokens[3])
            except ValueError as exc:
                raise ArchParseError(line_no, str(exc)) from None
            if tokens[1] in seen:
                raise ArchParseError(line_no, f"component {tokens[1]!r} declared twice")
            seen.add(tokens[1])
            components.append(ComponentRef(tokens[1], level))
        elif tokens[0] == "enriches":
            if len(tokens) != 4 or tokens[2] != "<-":
                raise ArchParseError(line_no, "expected 'enriches <CONSUMER> <- <SUPPLIER>'")
            enrichment.append((tokens[1], tokens[3]))
            message = f"enrichment edge names undeclared component: {tokens[1]} <- {tokens[3]}"
            edge_lines.append((line_no, (tokens[1], tokens[3]), message))
        elif tokens[0] == "peer":
            if len(tokens) != 3:
                raise ArchParseError(line_no, "expected 'peer <A> <B>'")
            peers.append((tokens[1], tokens[2]))
            message = f"peer edge names undeclared component: {tokens[1]} {tokens[2]}"
            edge_lines.append((line_no, (tokens[1], tokens[2]), message))
        else:
            raise ArchParseError(line_no, f"unknown directive {tokens[0]!r}")

    # components may be declared after the edges naming them, so check once all are read
    for line_no, names, message in edge_lines:
        if not seen.issuperset(names):
            raise ArchParseError(line_no, message)
    return ArchSpec(components=tuple(components), enrichment_edges=tuple(enrichment), peer_edges=tuple(peers))


# --- canonical JSON dump ------------------------------------------------------


def schema_to_json(schema: OntologySchema) -> str:
    """Serialize a schema to canonical JSON: sorted keys, sorted terms, LF."""

    def stereotype(ref: StereotypeRef) -> dict:
        out = {
            "component": ref.component.name,
            "level": ref.component.level.label,
            "term": ref.term,
        }
        if ref.reused:
            out["reused"] = True
        return out

    obj = {
        "component": {
            "level": schema.component.level.label,
            "name": schema.component.name,
            "version": schema.component.version,
        },
        "relationships": [
            {
                "max": r.max_count,
                "min": r.min_count,
                "name": r.name,
                "reflexive": r.reflexive_allowed,
                "source": r.source_term,
                "symmetric": not r.directed,
                "target": r.target_term,
            }
            for r in sorted(schema.relationships, key=RelationshipDef.descriptor)
        ],
        "terms": [
            {
                "definition": t.definition,
                "name": t.name,
                "notes": list(t.notes),
                "parent": t.parent_term,
                "properties": [{"definition": p.definition, "name": p.name} for p in t.properties],
                "stereotypes": [stereotype(s) for s in t.stereotypes],
                "synonyms": list(t.synonyms),
            }
            for _, t in sorted(schema.terms.items())
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
