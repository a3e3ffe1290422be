"""The instance graph: typed nodes and edges for one authored workspace.

Documents are immutable values; every update returns a new document and the
old one is untouched, so any number of readers may share one concurrently.
Node identity is the name alone. Categories, entities, functional
requirements, models, and view models are document-global; NFRs are scoped to
their model, views to their view model.

Document equality is structural: collections compare order-insensitively and
source locations are ignored, which is what lets a reparsed serialization
compare equal to the original.

``EDGE_KINDS`` is the relationship catalog as the program uses it: one row
per stored edge list with its ``.nfrs`` keyword and syntax, the kernel
relationship it instantiates, the endpoint kinds it allows, the rule code and
messages for a wrong endpoint, and its JSON, DOT and Turtle names. The
parser, serializer, validator, exporters and ``add_model_edge`` all read this
table; ``iter_edges`` walks a node's edges through it, and
``EdgeKind.directed`` turns a stored list into the relationship's direction
for every layer that writes or draws edges.

``NODE_KINDS`` does the same for the five ``Document`` collections: one row
each with its ``.nfrs`` keyword (also the ``resolve`` kind and the DOT/URN
prefix), node type, words for parse messages and Turtle type, and its block
fields in order; the model and view model rows also name the attribute that
holds their NFRs or views and the ``EDGE_KINDS`` rows of their edge lists.
``NFR_FIELDS`` (per ``NfrKind``) and ``VIEW_FIELDS`` give the NFR and view
blocks' fields the same way. ``add_node``, ``resolve``, equality,
``iter_edges``, edge insertion, the parser, the serializer and the exporters
read these tables, so each block's field layout is decided here alone.
"""

from __future__ import annotations

from enum import Enum

from .diagnostics import Record, SourceLocation, factory

Edge = tuple[str, str]
LocationKey = tuple  # ("category", name), ("nfr", model, name), ("edge", owner, kind, src, dst), ...


class DuplicateName(ValueError):
    """A node with this name already exists in the target collection."""


class NotFound(LookupError):
    """A name did not resolve in the requested collection."""


class EdgeKindError(ValueError):
    """An edge endpoint has a kind the relationship does not allow."""


class NfrKind(Enum):
    ATTRIBUTE = "attribute"
    CHARACTERISTIC = "characteristic"
    STATEMENT_ITEM = "statement_item"


class FocusKind(Enum):
    """Evaluation perspective, used both for focus marks and for view kinds."""

    QUALITY = "quality"
    COST = "cost"


class CategoryNode(Record):
    """An evaluable entity category; ``parent`` points at a broader category."""

    name: str
    description: str | None = None
    parent: str | None = None


class EntityNode(Record):
    """A concrete evaluable entity belonging to exactly one category."""

    name: str
    category: str
    description: str | None = None


class FunctionalRequirementNode(Record):
    name: str
    statement: str
    requester: str


class NfrNode(Record):
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


class _OwnerNode(Record):
    """Model and view model equality: name, specification and members as values, edge lists as multisets."""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        kind = _KINDS_BY_TYPE[type(self)]
        same_nodes = (self.name, self.specification, getattr(self, kind.members)) == (
            other.name, other.specification, getattr(other, kind.members))
        return same_nodes and all(sorted(getattr(self, k.field)) == sorted(getattr(other, k.field))
                                  for k in kind.edges)


class NfrsModelNode(_OwnerNode):
    """An NFRs model: its NFR nodes plus every edge kind they participate in.

    Edge lists hold name pairs exactly as authored; referential and kind
    checking is the validator's job.
    """

    name: str
    specification: str | None = None
    nfrs: dict[str, NfrNode] = factory(dict)
    subchar_edges: tuple[Edge, ...] = ()  # (parent characteristic, child characteristic)
    combines_attr_edges: tuple[Edge, ...] = ()
    combines_item_edges: tuple[Edge, ...] = ()
    mapped_to_edges: tuple[Edge, ...] = ()
    relates_with_edges: tuple[Edge, ...] = ()
    satisfies_edges: tuple[Edge, ...] = ()
    refers_to_entity_edges: tuple[Edge, ...] = ()
    refers_to_category_edges: tuple[Edge, ...] = ()


class NfrViewNode(Record):
    """An NFR view: one category, one (model, focus characteristic) reference."""

    name: str
    kind: FocusKind
    category: str
    focus: tuple[str, str]
    statement: str | None = None


class NfrsViewModelNode(_OwnerNode):
    __slots__ = ("_closure_indexes",)  # not a field: the closure queries keep their built indexes here
    name: str
    specification: str | None = None
    views: dict[str, NfrViewNode] = factory(dict)
    influences_edges: tuple[Edge, ...] = ()
    depends_on_edges: tuple[Edge, ...] = ()


# --- the relationship table ----------------------------------------------------


class EdgeKind(Record):
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

    def directed(self, pairs):
        """Stored ``pairs`` of this list in the relationship's direction; works on names and on rendered ids alike."""
        return [(source, target) for target, source in pairs] if self.arrow == "of" else pairs


# kind sets are tuples: membership tests by identity, while Enum hashing runs in Python
_ANY_NFR = tuple(NfrKind)
_CHARACTERISTIC = (NfrKind.CHARACTERISTIC,)
_ATTRIBUTE = (NfrKind.ATTRIBUTE,)
_STATEMENT_ITEM = (NfrKind.STATEMENT_ITEM,)
_QUALITY = (FocusKind.QUALITY,)
_HIERARCHY = (
    "{kind_words} {name!r} cannot take a position in the sub-characteristic hierarchy; only characteristics can"
)
_INFLUENCES = "influences edges connect quality views only; cost view(s) involved: {name}"
_DEPENDS_ON = "depends_on edges connect quality views only; cost view(s) involved: {name}"

# One row per stored edge list, in canonical serialization order; rows that
# share a keyword (combines) serialize as one group.
EDGE_KINDS = (
    EdgeKind("subcharacteristic", "subchar_edges", "subcharacteristic of", "of", _CHARACTERISTIC,
             _CHARACTERISTIC, "R-017", _HIERARCHY, _HIERARCHY, "subcharacteristics", "has_subcharacteristic"),
    EdgeKind("combines", "combines_attr_edges", "combines", "->", _CHARACTERISTIC, _ATTRIBUTE, "R-002",
             "only a characteristic can combine attributes; {name!r} is {an} {kind}",
             "combines must target an attribute or statement item; {name!r} is {an} {kind_words}",
             "combines_attributes", "combines"),
    EdgeKind("combines", "combines_item_edges", "combines", "->", _CHARACTERISTIC, _STATEMENT_ITEM, "R-003",
             "only a characteristic can combine statement items; {name!r} is {an} {kind}",
             "this combines edge must target a statement item; {name!r} is {an} {kind}",
             "combines_statement_items", "combines"),
    EdgeKind("maps", "mapped_to_edges", "is mapped to", "->", _STATEMENT_ITEM, _ATTRIBUTE, "R-008",
             "maps edges start at a statement item; {name!r} is {an} {kind}",
             "maps edges target an attribute; {name!r} is {an} {kind_words}", "maps", "is_mapped_to"),
    EdgeKind("refers_to_entity", "refers_to_entity_edges", "refers to particulars", "->", _ANY_NFR,
             (), "R-REF", "", "unknown entity {name!r}", "refers_to_entities", "refers_to_particulars",
             collection="entities"),
    EdgeKind("refers_to_category", "refers_to_category_edges", "refers to universals", "->", _ANY_NFR,
             (), "R-010", "", "refers_to_category must target a category; {name!r} is not one",
             "refers_to_categories", "refers_to_universals", collection="categories"),
    EdgeKind("relates", "relates_with_edges", "relates with", "<->", _ANY_NFR, _ANY_NFR, None, "", "",
             "relates", "relates_with"),
    EdgeKind("satisfies", "satisfies_edges", "satisfies", "->", _ANY_NFR, (), "R-012", "",
             "satisfies must target a functional requirement; {name!r} is not one", "satisfies", "satisfies",
             collection="frs"),
    EdgeKind("influences", "influences_edges", "influences", "->", _QUALITY, _QUALITY, "R-006",
             _INFLUENCES, _INFLUENCES, "influences", "influences"),
    EdgeKind("depends_on", "depends_on_edges", "depends on", "->", _QUALITY, _QUALITY, "R-005",
             _DEPENDS_ON, _DEPENDS_ON, "depends_on", "depends_on"),
)

MODEL_EDGE_KINDS = tuple(k for k in EDGE_KINDS if k.field in NfrsModelNode._fields)
VIEW_EDGE_KINDS = tuple(k for k in EDGE_KINDS if k.field in NfrsViewModelNode._fields)
# each keyword's rows in table order; a keyword belongs to one owner, and only combines has two rows
EDGE_ROWS_BY_KEYWORD = {e.keyword: tuple(r for r in EDGE_KINDS if r.keyword == e.keyword) for e in EDGE_KINDS}


def edge_kind(owner: type, keyword: str, target_kind: Enum | None = None) -> EdgeKind:
    """The row that stores ``owner``'s ``keyword`` edges to a target of ``target_kind``.

    Only ``combines`` has two rows; a target that matches neither (unknown,
    or a characteristic) goes to the first, the attribute list. Raises
    KeyError for a keyword ``owner`` does not have.
    """
    rows = EDGE_ROWS_BY_KEYWORD[keyword]
    if rows[0].field not in owner._fields:
        raise KeyError(keyword)
    for kind in rows:
        if target_kind in kind.targets:
            return kind
    return rows[0]


def iter_edges(node: NfrsModelNode | NfrsViewModelNode):
    """Yield every edge of ``node`` as (kind, source, target), table order, relationship direction."""
    for kind in _KINDS_BY_TYPE[type(node)].edges:
        for source, target in kind.directed(getattr(node, kind.field)):
            yield kind, source, target


def edge_message(template: str, name: str, kind: Enum | None = None) -> str:
    """Fill an EdgeKind message template for endpoint ``name`` of ``kind``."""
    value = "" if kind is None else kind.value
    return template.format(name=name, kind=value, kind_words=value.replace("_", " "), an=article(value))


Node = CategoryNode | EntityNode | FunctionalRequirementNode | NfrsModelNode | NfrsViewModelNode


# --- the node table ------------------------------------------------------------


class NodeField(Record):
    """One ``keyword: value`` line of a node, NFR or view block.

    ``syntax`` says how the value is written: ``text`` a quoted string,
    ``kind`` the word ``quality`` or ``cost`` (a ``FocusKind``), ``pair`` two
    quoted names joined by a dot (``"M" . "C"``). A category reference
    (``parent``, ``belongs_to``, a view's ``category``) also names its DOT
    edge label and Turtle predicate; every other text field exports as a
    literal.
    """

    keyword: str
    attribute: str  # the node attribute, also the JSON key of every field but a kind field, keyed by its keyword
    optional: bool = False
    dot_label: str | None = None
    turtle: str | None = None
    syntax: str = "text"


class NodeKind(Record):
    """One ``Document`` collection, with what every layer needs to know about it."""

    keyword: str  # the .nfrs keyword, also the resolve kind, location-key kind and DOT/URN prefix
    collection: str  # the Document attribute
    type: type
    words: str  # the kind in parse messages
    turtle: str  # Turtle type local name
    fields: tuple[NodeField, ...]  # block fields in order
    members: str | None = None  # the attribute holding an owner's NFRs or views by name
    edges: tuple[EdgeKind, ...] = ()  # an owner's edge lists, in table order


_DESCRIPTION = NodeField("description", "description", optional=True)
_SPECIFICATION = (NodeField("specification", "specification", optional=True),)
_STATEMENT = NodeField("statement", "statement", optional=True)
_DEFINITION = NodeField("definition", "definition")

# The fields of each NFR block, after its kind keyword and name, in order.
NFR_FIELDS = {
    NfrKind.ATTRIBUTE: (_DEFINITION, _STATEMENT),
    NfrKind.CHARACTERISTIC: (_DEFINITION, _STATEMENT, NodeField("focus", "focus_kind", True, syntax="kind")),
    NfrKind.STATEMENT_ITEM: (NodeField("declaration", "declaration"), _STATEMENT),
}
# The fields of a view block, in order: the parser, the serializer, the exporters and the lexer's view branch read it.
VIEW_FIELDS = (
    NodeField("kind", "kind", syntax="kind"),
    NodeField("category", "category", False, "deals with universals", "deals_with_universals"),
    NodeField("focus", "focus", syntax="pair"),
    _STATEMENT,
)

# One row per Document collection, in canonical serialization order.
NODE_KINDS = (
    NodeKind("category", "categories", CategoryNode, "category", "Evaluable_Entity_Category",
             (_DESCRIPTION, NodeField("parent", "parent", True, "sub category of", "sub_category_of"))),
    NodeKind("entity", "entities", EntityNode, "entity", "Evaluable_Entity",
             (_DESCRIPTION, NodeField("belongs_to", "category", False, "belongs to", "belongs_to"))),
    NodeKind("fr", "frs", FunctionalRequirementNode, "functional requirement", "Functional_Requirement",
             (NodeField("statement", "statement"), NodeField("requester", "requester"))),
    NodeKind("model", "models", NfrsModelNode, "model", "NFRs_Model", _SPECIFICATION, "nfrs", MODEL_EDGE_KINDS),
    NodeKind("view_model", "view_models", NfrsViewModelNode, "view model", "NFRs_View_Model", _SPECIFICATION,
             "views", VIEW_EDGE_KINDS),
)

_KINDS_BY_TYPE = {k.type: k for k in NODE_KINDS}
NODE_KINDS_BY_KEYWORD = {k.keyword: k for k in NODE_KINDS}


def article(words: str) -> str:
    """The indefinite article before ``words``."""
    return "an" if words[:1] in ("a", "e", "i", "o", "u") else "a"


class Document(Record):
    """One parsed workspace: all node collections plus source locations."""

    categories: dict[str, CategoryNode] = factory(dict)
    entities: dict[str, EntityNode] = factory(dict)
    frs: dict[str, FunctionalRequirementNode] = factory(dict)
    models: dict[str, NfrsModelNode] = factory(dict)
    view_models: dict[str, NfrsViewModelNode] = factory(dict)
    source_locations: dict[LocationKey, SourceLocation] = factory(dict)

    def __eq__(self, other: object) -> bool:
        # source locations are presentation metadata, not structure
        if not isinstance(other, Document):
            return NotImplemented
        return all(getattr(self, k.collection) == getattr(other, k.collection) for k in NODE_KINDS)

    def is_empty(self) -> bool:
        return not any(getattr(self, k.collection) for k in NODE_KINDS)


def _copy_with(record: Record, field: str, value) -> Record:
    """``replace(record, field=value)`` at its ``_positions`` index via ``__init__``; drops ``_closure_indexes``."""
    values = list(record._key(record))
    values[record._positions[field]] = value
    return record.__class__(*values)


def add_node(doc: Document, node: Node) -> Document:
    """Return a new document containing ``node``; ``doc`` is unchanged."""
    kind = _KINDS_BY_TYPE[type(node)]
    collection = getattr(doc, kind.collection)
    if node.name in collection:
        raise DuplicateName(f"{kind.keyword.replace('_', ' ')} {node.name!r} already exists")
    return _copy_with(doc, kind.collection, {**collection, node.name: node})


def resolve(doc: Document, kind: str, name: str) -> Node:
    """Exact-name lookup in one kind-segregated collection; never fuzzy."""
    try:
        collection = getattr(doc, NODE_KINDS_BY_KEYWORD[kind].collection)
    except KeyError:
        raise ValueError(f"unknown node kind {kind!r}; expected one of {sorted(NODE_KINDS_BY_KEYWORD)}") from None
    try:
        return collection[name]
    except KeyError:
        raise NotFound(f"no {kind} named {name!r}") from None


# --- checked edge insertion ---------------------------------------------------
#
# The programmatic way to attach edges. Unlike the parser, which stores what
# the source text says, these reject endpoints whose kinds contradict the
# relationship definition before any validation runs.


def _append_edge(doc: Document, kind: NodeKind, owner_name: str, keyword: str, source: str, target: str):
    """``doc`` with one more edge on ``kind``'s node ``owner_name``, rejecting bad keywords, endpoints and kinds."""
    owners = getattr(doc, kind.collection)
    try:
        owner = owners[owner_name]
    except KeyError:
        raise NotFound(f"no {kind.keyword} named {owner_name!r}") from None
    rows = EDGE_ROWS_BY_KEYWORD.get(keyword)
    if rows is None or rows[0].field not in kind.type._fields:
        raise ValueError(f"unknown {kind.words} edge kind {keyword!r}")
    members = getattr(owner, kind.members)
    edge = rows[0]
    for name in (source,) if edge.collection else (source, target):
        if name not in members:
            member_word = "NFR" if kind.members == "nfrs" else "view"
            raise NotFound(f"no {member_word} named {name!r} in {kind.words} {owner.name!r}")
    source_kind = members[source].kind
    if edge.collection:
        if target not in getattr(doc, edge.collection):
            raise NotFound(edge_message(edge.target_message, target))
    else:
        target_kind = members[target].kind
        if len(rows) > 1:
            edge = edge_kind(kind.type, keyword, target_kind)
        if target_kind not in edge.targets:
            raise EdgeKindError(edge_message(edge.target_message, target, target_kind))
    if source_kind not in edge.sources:
        raise EdgeKindError(edge_message(edge.source_message, source, source_kind))
    updated = _copy_with(owner, edge.field, getattr(owner, edge.field) + (edge.stored(source, target),))
    return _copy_with(doc, kind.collection, {**owners, owner_name: updated})


def add_model_edge(doc: Document, model_name: str, kind: str, source: str, target: str) -> Document:
    """Attach one model-level edge, rejecting kind-contradicting endpoints.

    ``source`` and ``target`` follow the relationship's direction, so a
    subcharacteristic edge goes from child to parent. ``combines`` routes to
    the attribute or statement-item edge list based on the target's kind.
    """
    return _append_edge(doc, NODE_KINDS_BY_KEYWORD["model"], model_name, kind, source, target)


def add_view_edge(doc: Document, view_model_name: str, kind: str, source: str, target: str) -> Document:
    """Attach an influences/depends_on edge between quality views."""
    return _append_edge(doc, NODE_KINDS_BY_KEYWORD["view_model"], view_model_name, kind, source, target)
