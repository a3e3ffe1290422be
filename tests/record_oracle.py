"""The package's record types as ``dataclasses`` built them, kept as the oracle for the hand-built records.

Each class below is copied verbatim from the module named above it, as it
stood while the package declared its records with ``@dataclass``. The enums
are not copied: both sides share the package's ``Severity``, ``NfrKind``,
``FocusKind`` and ``OntoLevel``. ``old(value)`` rebuilds every package record
inside ``value``, however deep, as the dataclass here, so that
``tests/test_records.py`` can compare the two on equality, hashing, ``repr``,
constructor signatures, ``__post_init__`` errors and frozenness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from nfrstdo import diagnostics, kernel, model, queries, textformat
from nfrstdo.model import NODE_KINDS, NfrKind

# --- nfrstdo.diagnostics ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SourceLocation:
    """1-based line/column position in an input file."""

    line: int
    column: int

    def __post_init__(self) -> None:
        if self.line < 1 or self.column < 1:
            raise ValueError("line and column are 1-based")


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One validation finding, identified by a stable rule code."""

    code: str
    severity: Severity
    message: str
    subject: str
    location: SourceLocation | None = None

    def sort_key(self) -> tuple[str, str, str]:
        return (self.code, self.subject, self.message)


# --- nfrstdo.model ----------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CategoryNode:
    """An evaluable entity category; ``parent`` points at a broader category."""

    name: str
    description: str | None = None
    parent: str | None = None


@dataclass(frozen=True, slots=True)
class EntityNode:
    """A concrete evaluable entity belonging to exactly one category."""

    name: str
    category: str
    description: str | None = None


@dataclass(frozen=True, slots=True)
class FunctionalRequirementNode:
    name: str
    statement: str
    requester: str


@dataclass(frozen=True, slots=True)
class NfrNode:
    """One non-functional requirement inside a model.

    Field presence follows the kind: attributes and characteristics carry a
    definition, statement items a declaration. Only a characteristic may be
    marked as the model's evaluation focus.
    """

    kind: NfrKind
    name: str
    statement: str | None = None
    definition: str | None = None
    declaration: str | None = None
    is_focus: bool = False
    focus_kind: FocusKind | None = None

    def __post_init__(self) -> None:
        if self.kind is NfrKind.STATEMENT_ITEM:
            if self.declaration is None or self.definition is not None:
                raise ValueError(f"statement item {self.name!r} takes a declaration, not a definition")
        else:
            if self.definition is None or self.declaration is not None:
                raise ValueError(f"{self.kind.value} {self.name!r} takes a definition, not a declaration")
        if self.is_focus and self.kind is not NfrKind.CHARACTERISTIC:
            raise ValueError(f"only a characteristic can be an evaluation focus, not {self.name!r}")
        if self.is_focus != (self.focus_kind is not None):
            raise ValueError(f"focus kind must be set exactly when {self.name!r} is a focus")


class _OwnerNode:
    """Model and view model equality: name, specification and members as values, edge lists as multisets."""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        kind = _KINDS_BY_TYPE[type(self)]
        same_nodes = (self.name, self.specification, getattr(self, kind.members)) == (
            other.name, other.specification, getattr(other, kind.members))
        return same_nodes and all(sorted(getattr(self, k.field)) == sorted(getattr(other, k.field))
                                  for k in kind.edges)


@dataclass(frozen=True, eq=False)
class NfrsModelNode(_OwnerNode):
    """An NFRs model: its NFR nodes plus every edge kind they participate in.

    Edge lists hold name pairs exactly as authored; referential and kind
    checking is the validator's job.
    """

    name: str
    specification: str | None = None
    nfrs: dict[str, NfrNode] = field(default_factory=dict)
    subchar_edges: tuple[Edge, ...] = ()  # (parent characteristic, child characteristic)
    combines_attr_edges: tuple[Edge, ...] = ()
    combines_item_edges: tuple[Edge, ...] = ()
    mapped_to_edges: tuple[Edge, ...] = ()
    relates_with_edges: tuple[Edge, ...] = ()
    satisfies_edges: tuple[Edge, ...] = ()
    refers_to_entity_edges: tuple[Edge, ...] = ()
    refers_to_category_edges: tuple[Edge, ...] = ()


@dataclass(frozen=True, slots=True)
class NfrViewNode:
    """An NFR view: one category, one (model, focus characteristic) reference."""

    name: str
    kind: FocusKind
    category: str
    focus: tuple[str, str]
    statement: str | None = None


@dataclass(frozen=True, eq=False)
class NfrsViewModelNode(_OwnerNode):
    name: str
    specification: str | None = None
    views: dict[str, NfrViewNode] = field(default_factory=dict)
    influences_edges: tuple[Edge, ...] = ()
    depends_on_edges: tuple[Edge, ...] = ()


@dataclass(frozen=True, slots=True)
class EdgeKind:
    """One stored edge list, with what every layer needs to know about it.

    ``source`` and ``target`` follow the relationship's reading direction: a
    subcharacteristic edge goes from child to parent. Lists written with
    ``of`` are stored the other way round, as (parent, child). Messages are
    ``str.format`` templates over ``name``, ``kind`` (the kind's value),
    ``kind_words`` (the value with spaces) and ``an`` (its article); see
    ``edge_message``.
    """

    keyword: str  # the .nfrs keyword, also the kind in ("edge", owner, keyword, a, b) location keys
    field: str  # the edge list attribute of the owning node
    relationship: str  # the kernel relationship name, also the DOT edge label
    arrow: str  # text syntax: "->", "<->" (symmetric), or "of" (child of parent, stored reversed)
    sources: tuple  # allowed source kinds: NfrKind or FocusKind members
    targets: tuple  # allowed target kinds; empty when targets live in ``collection``
    code: str | None  # rule code for a wrong-kind endpoint, or a target missing from ``collection``
    source_message: str
    target_message: str
    json_key: str  # canonical JSON key of the sorted pair list, stored orientation
    turtle: str  # Turtle predicate local name, stored orientation
    collection: str | None = None  # the Document collection targets are looked up in

    def stored(self, source, target):
        """The pair in storage orientation; works on names and on rendered ids alike."""
        return (target, source) if self.arrow == "of" else (source, target)


@dataclass(frozen=True, slots=True)
class NodeField:
    """One ``keyword: "text"`` line of a node block.

    A category reference (``parent``, ``belongs_to``) also names its DOT edge
    label and Turtle predicate; every other field exports as a literal.
    """

    keyword: str
    attribute: str  # the node attribute, also the JSON key
    optional: bool = False
    dot_label: str | None = None
    turtle: str | None = None
    syntax: str = "text"


@dataclass(frozen=True, slots=True)
class NodeKind:
    """One ``Document`` collection, with what every layer needs to know about it."""

    keyword: str  # the .nfrs keyword, also the resolve kind, location-key kind and DOT/URN prefix
    collection: str  # the Document attribute
    type: type
    words: str  # the kind in parse messages
    turtle: str  # Turtle type local name
    fields: tuple[NodeField, ...]  # block fields in order
    members: str | None = None  # the attribute holding an owner's NFRs or views by name
    edges: tuple[EdgeKind, ...] = ()  # an owner's edge lists, in table order

    def present(self, node: Node):
        """Yield (field, value) for each field of ``node`` that is set or required."""
        for f in self.fields:
            value = getattr(node, f.attribute)
            if value is not None or not f.optional:
                yield f, value


@dataclass(frozen=True, eq=False)
class Document:
    """One parsed workspace: all node collections plus source locations."""

    categories: dict[str, CategoryNode] = field(default_factory=dict)
    entities: dict[str, EntityNode] = field(default_factory=dict)
    frs: dict[str, FunctionalRequirementNode] = field(default_factory=dict)
    models: dict[str, NfrsModelNode] = field(default_factory=dict)
    view_models: dict[str, NfrsViewModelNode] = field(default_factory=dict)
    source_locations: dict[LocationKey, SourceLocation] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        # source locations are presentation metadata, not structure
        if not isinstance(other, Document):
            return NotImplemented
        return all(getattr(self, k.collection) == getattr(other, k.collection) for k in NODE_KINDS)

    def is_empty(self) -> bool:
        return not any(getattr(self, k.collection) for k in NODE_KINDS)


# --- nfrstdo.textformat -----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ParseError:
    location: SourceLocation
    expected: str
    found: str

    @property
    def message(self) -> str:
        return f"expected {self.expected}, found {self.found}"


# --- nfrstdo.kernel ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ComponentRef:
    """One ontology component (name, tier, version) in the architecture."""

    name: str
    level: OntoLevel
    version: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("component name must be non-empty")


@dataclass(frozen=True, slots=True)
class PropertyDef:
    name: str
    definition: str


@dataclass(frozen=True, slots=True)
class StereotypeRef:
    """An enrichment tag: the higher-level term whose semantics a term carries.

    ``reused`` marks whole-term reuse from a peer component at the same tier,
    the one sanctioned exception to the higher-level-only rule.
    """

    component: ComponentRef
    term: str
    reused: bool = False


@dataclass(frozen=True, slots=True)
class TermDef:
    name: str
    definition: str
    component: ComponentRef
    synonyms: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    parent_term: str | None = None
    stereotypes: tuple[StereotypeRef, ...] = ()
    properties: tuple[PropertyDef, ...] = ()


@dataclass(frozen=True, slots=True)
class RelationshipDef:
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


@dataclass(frozen=True, eq=False)
class OntologySchema:
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


@dataclass(frozen=True, slots=True)
class StereotypeChange:
    term: str
    change: str  # "added" or "removed"
    stereotype: StereotypeRef


@dataclass(frozen=True, slots=True)
class SchemaDiff:
    added_terms: tuple[str, ...]
    removed_terms: tuple[str, ...]
    added_relationships: tuple[tuple[str, str, str], ...]
    removed_relationships: tuple[tuple[str, str, str], ...]
    renamed_relationships: tuple[tuple[str, str, str, str], ...]  # old, new, source, target
    stereotype_changes: tuple[StereotypeChange, ...]

    def is_empty(self) -> bool:
        return not any(getattr(self, name) for name in self.__slots__)


@dataclass(frozen=True, slots=True)
class ArchSpec:
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


# --- nfrstdo.queries --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ClosureResult:
    origin: str
    reached: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class CoverageReport:
    mapped: tuple[tuple[str, tuple[str, ...]], ...]
    unmapped: tuple[str, ...]
    ratio: Fraction


# --- conversion -------------------------------------------------------------------------------

_MODULES = {"diagnostics": diagnostics, "model": model, "textformat": textformat, "kernel": kernel,
            "queries": queries}
_RECORDS = {
    "diagnostics": (SourceLocation, Diagnostic),
    "model": (CategoryNode, EntityNode, FunctionalRequirementNode, NfrNode, NfrsModelNode, NfrViewNode,
              NfrsViewModelNode, EdgeKind, NodeField, NodeKind, Document),
    "textformat": (ParseError,),
    "kernel": (ComponentRef, PropertyDef, StereotypeRef, TermDef, RelationshipDef, OntologySchema, StereotypeChange,
               SchemaDiff, ArchSpec),
    "queries": (ClosureResult, CoverageReport),
}
# the package's record type -> its dataclass here
OLD = {getattr(_MODULES[module], cls.__name__): cls for module, classes in _RECORDS.items() for cls in classes}
# _OwnerNode reads the package's node table, keyed here by the dataclasses
_KINDS_BY_TYPE = {OLD[k.type]: k for k in NODE_KINDS}


def old(value):
    """``value`` with every package record in it rebuilt as its dataclass here, by keyword, field by field."""
    cls = OLD.get(type(value))
    if cls is not None:
        return cls(**{f.name: old(getattr(value, f.name)) for f in fields(cls)})
    if isinstance(value, tuple):
        return tuple(old(item) for item in value)
    if isinstance(value, dict):
        return {key: old(item) for key, item in value.items()}
    return value
