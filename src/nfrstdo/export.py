"""Deterministic document exporters: canonical JSON, DOT, and RDF Turtle.

Ordering rules are fixed (keys sorted, collections name-sorted, edge lists
lexicographic), so exporting the same document twice yields identical bytes.

JSON mirrors the ``model`` tables: each node's name and fields and, for a
model or a view model, its NFRs or views and each stored edge list under its
``EDGE_KINDS`` JSON key; ``_json_fields`` writes the fields of every block.
DOT and Turtle draw one graph: ``_graph`` walks the document, renders each
name once with the exporter's id function, and hands each node (shape,
types, literals) to one callback and each edge list (relationship,
predicate, table row, pairs of ids) in one call to another. ``to_dot`` and
``to_turtle`` are only those callbacks, formatting one line or triple per
node and one comprehension of lines or triples per edge list. Both sort
their lines, so the walk's order does not matter. Of every block's text
fields, a category reference is an edge and any other field a literal.

Nodes are named by refs, ``(prefix, *name parts)``: a kind's keyword and a
name, or, for an NFR or a view, the kind and the owner's name before its
own. DOT renders a ref as ``<prefix>:<part>/<part>`` with each part's ``%``
and ``/`` percent-encoded, every NFR prefixed ``nfr``; Turtle as ``urn:nfrstdo:<prefix>:<part>/<part>`` with each part
percent-encoded, an NFR prefixed by its kind. Table edges take their DOT
label (the relationship name) and Turtle predicate from their
``EDGE_KINDS`` row. DOT edges follow the relationship's direction (a
subcharacteristic points at its parent); Turtle triples keep the stored
orientation, which is why the hierarchy's predicate is
``has_subcharacteristic``. Predicates take the relationship names in
snake_case; type local names take the term names with spaces as underscores.
"""

from __future__ import annotations

import json
from functools import partial

from .model import (
    MODEL_EDGE_KINDS,
    NFR_FIELDS,
    NODE_KINDS,
    VIEW_EDGE_KINDS,
    VIEW_FIELDS,
    Document,
    NfrKind,
    NfrsModelNode,
    NfrsViewModelNode,
    NodeField,
)
from .textformat import quote

# ref prefix of edge targets that live in a Document collection
_COLLECTION_KINDS = {k.collection: k.keyword for k in NODE_KINDS}

# --- canonical JSON -------------------------------------------------------------


def _json_fields(record: dict, fields: tuple[NodeField, ...], node) -> dict:
    """``record`` with each set or required field of ``node`` added: a kind field's value under its keyword,
    any other under its attribute, a pair as a list."""
    for f in fields:
        value = getattr(node, f.attribute)
        if value is None:
            if f.optional:
                continue
        elif f.syntax == "kind":
            record[f.keyword] = value.value
            continue
        elif f.syntax == "pair":
            value = list(value)
        record[f.attribute] = value
    return record


def to_json(doc: Document) -> str:
    """Canonical JSON: sorted keys, name-sorted arrays, compact, LF-terminated."""
    obj: dict = {k.collection: [] for k in NODE_KINDS}
    for kind in NODE_KINDS:
        nodes = getattr(doc, kind.collection)
        for name in sorted(nodes):
            node = nodes[name]
            record = _json_fields({"name": name}, kind.fields, node)
            if kind.members:
                members = getattr(node, kind.members)
                if kind.members == "nfrs":
                    record["nfrs"] = [_json_fields({"kind": nfr.kind.value, "name": nfr.name}, NFR_FIELDS[nfr.kind],
                                                   nfr) for nfr in map(members.__getitem__, sorted(members))]
                else:
                    record["views"] = [_json_fields({"name": view.name}, VIEW_FIELDS, view)
                                       for view in map(members.__getitem__, sorted(members))]
                record.update((k.json_key, sorted(getattr(node, k.field))) for k in kind.edges)  # pairs as arrays
            obj[kind.collection].append(record)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


# --- the graph DOT and Turtle draw -----------------------------------------------

_NODE_SHAPES = {
    "category": "tab",
    "entity": "cylinder",
    "fr": "component",
    "model": "box3d",
    "view_model": "folder",
    NfrKind.CHARACTERISTIC: "box",
    NfrKind.ATTRIBUTE: "ellipse",
    NfrKind.STATEMENT_ITEM: "note",
    "view": "diamond",
}


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)`` and keeps it: each name is rendered once per call."""

    def __init__(self, make) -> None:  # no dict.__init__ call: a memo starts empty
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _nfr_id(render, model: NfrsModelNode | None, model_name: str, name: str) -> str:
    """The id of NFR ``name`` in ``model_name``: its kind leads the ref, or ``nfr`` when it does not resolve."""
    nfr = None if model is None else model.nfrs.get(name)
    return render("nfr" if nfr is None else nfr.kind.value, model_name, name)


def _graph(doc: Document, render, node, edges) -> None:
    """Call ``node`` once per node of ``doc`` and ``edges`` once per edge list, in no particular order.

    ``render(prefix, *name parts)`` turns a ref into the exporter's id. A ref
    is the node kind's keyword and the name, or, for an NFR or a view, its kind
    (``nfr`` when the NFR does not resolve) with the owner's name and its
    own. Each name is rendered once, through a name-keyed memo per
    collection and per owner of NFRs or views. A node comes as (id, name, DOT
    shape, Turtle types, literal fields as (predicate, value or None)). An
    edge list comes as (relationship, Turtle predicate, row, pairs of ids):
    each of an owner's stored lists, with its ``EDGE_KINDS`` row, and, with
    row None, the focus links of a model's NFRs or of a view model's views
    and each category reference field of a collection or of a view model's
    views. The pairs keep the stored orientation, which the Turtle triples
    keep too; ``row.directed`` gives them in the relationship's direction,
    which the DOT edges follow (it differs for the ``of`` rows only). A list
    with row None is stored in its relationship's direction.
    """
    ids = {k.keyword: _Memo(partial(render, k.keyword)) for k in NODE_KINDS}
    nfr_ids = _Memo(lambda owner: _Memo(partial(_nfr_id, render, doc.models.get(owner), owner)))
    categories = ids["category"]

    def references(items, item_ids, fields) -> None:
        """Each category reference field of ``items``' blocks, as one edge list."""
        for f in fields:
            if f.turtle is not None:
                edges(f.dot_label, f.turtle, None, [(item_ids[name], categories[value]) for name, item in items
                                                      if (value := getattr(item, f.attribute)) is not None
                                                      or not f.optional])

    def literals(fields, item) -> list[tuple[str, str | None]]:
        return [(f.keyword, getattr(item, f.attribute)) for f in fields if f.syntax == "text" and f.turtle is None]

    def owner_edges(owner: NfrsModelNode | NfrsViewModelNode, kinds, member_ids: _Memo) -> None:
        for kind in kinds:
            pairs = getattr(owner, kind.field)
            if pairs:  # most lists of a small model are empty
                targets = member_ids if kind.collection is None else ids[_COLLECTION_KINDS[kind.collection]]
                edges(kind.relationship, kind.turtle, kind,
                      [(member_ids[source], targets[target]) for source, target in pairs])

    for kind in NODE_KINDS:
        items, item_ids = getattr(doc, kind.collection).items(), ids[kind.keyword]
        for name, item in items:
            node(item_ids[name], name, _NODE_SHAPES[kind.keyword], (kind.turtle,), literals(kind.fields, item))
        references(items, item_ids, kind.fields)
    for model_name, model in doc.models.items():
        nfr_items, member_ids = model.nfrs.items(), nfr_ids[model_name]
        for name, nfr in nfr_items:
            types = [nfr.kind.value.title()]
            if nfr.is_focus:
                types.append(f"{nfr.focus_kind.value.capitalize()}_Focus")
            node(member_ids[name], name, _NODE_SHAPES[nfr.kind], types, literals(NFR_FIELDS[nfr.kind], nfr))
        model_id = ids["model"][model_name]
        edges("is represented by", "is_represented_by", None,
              [(member_ids[name], model_id) for name, nfr in nfr_items if nfr.is_focus])
        owner_edges(model, MODEL_EDGE_KINDS, member_ids)
    for vm_name, vm in doc.view_models.items():
        view_items = vm.views.items()
        member_ids = _Memo(partial(render, "view", vm_name))
        for name, view in view_items:
            node(member_ids[name], name, _NODE_SHAPES["view"], (f"{view.kind.value.capitalize()}_View",),
                 literals(VIEW_FIELDS, view))
        references(view_items, member_ids, VIEW_FIELDS)
        edges("focus", "has_focus", None,
              [(member_ids[name], nfr_ids[view.focus[0]][view.focus[1]]) for name, view in view_items])
        owner_edges(vm, VIEW_EDGE_KINDS, member_ids)


# --- DOT -------------------------------------------------------------------------

# edge style per relationship; labels carry the relationship names
_EDGE_STYLES = {
    "belongs to": "style=solid, arrowhead=normal",
    "combines": "style=solid, arrowhead=vee",
    "deals with universals": "style=dashed, arrowhead=normal",
    "depends on": "style=dashed, arrowhead=vee",
    "influences": "style=bold, arrowhead=normal",
    "is represented by": "style=dotted, arrowhead=normal",
    "is mapped to": "style=dashed, arrowhead=diamond",
    "refers to particulars": "style=dotted, arrowhead=vee",
    "refers to universals": "style=dotted, arrowhead=diamond",
    "relates with": "style=solid, arrowhead=none",
    "satisfies": "style=bold, arrowhead=vee",
    "sub category of": "style=solid, arrowhead=empty",
    "subcharacteristic of": "style=solid, arrowhead=empty",
    "focus": "style=dashed, arrowhead=dot",
}

# DOT ids name every NFR ``nfr:``, whatever its kind
_DOT_PREFIXES = {kind.value: "nfr" for kind in NfrKind}


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _dot_id(prefix: str, *parts: str) -> str:
    # a part's own % and / are encoded, so that only the joins read as / and no two refs share an id
    path = "/".join(part.replace("%", "%25").replace("/", "%2F") for part in parts)
    return '"' + _dot_escape(f"{_DOT_PREFIXES.get(prefix, prefix)}:{path}") + '"'


def to_dot(doc: Document) -> str:
    """One directed graph with node shapes by kind and one edge style per relationship."""
    nodes: list[str] = []
    lines: list[str] = []

    def node(node_id, name, shape, types, literals) -> None:
        nodes.append(f'  {node_id} [label="{_dot_escape(name)}", shape={shape}];')

    def edges(label, predicate, row, pairs) -> None:
        tail = f' [label="{label}", {_EDGE_STYLES[label]}];'
        lines.extend([f"  {a} -> {b}{tail}" for a, b in (pairs if row is None else row.directed(pairs))])

    _graph(doc, _dot_id, node, edges)
    return "\n".join(["digraph nfrs {", *sorted(nodes), *sorted(lines), "}"]) + "\n"


# --- Turtle ------------------------------------------------------------------------

_PREFIX = "@prefix nfrstdo: <urn:nfrstdo:vocab:> ."
# each byte, read as a Latin-1 character, to itself if RFC 3986 leaves it unreserved, else to its %XX escape
_PERCENT = [chr(b) if chr(b).isascii() and (chr(b).isalnum() or chr(b) in "_.-~") else f"%{b:02X}" for b in range(256)]


def _percent_encode(part: str) -> str:
    """``urllib.parse.quote(part, safe='')``: the UTF-8 bytes of ``part``, each unreserved one kept, the rest %XX."""
    return part.encode("utf-8").decode("latin-1").translate(_PERCENT)


def _urn(prefix: str, *parts: str) -> str:
    return f"<urn:nfrstdo:{prefix}:{'/'.join(_percent_encode(part) for part in parts)}>"


def to_turtle(doc: Document) -> str:
    """RDF Turtle with one sorted triple per line.

    Predicates mirror the relationship catalog (``nfrstdo:belongs_to``,
    ``nfrstdo:refers_to_particulars``, ...); structural links use
    ``nfrstdo:has_subcharacteristic``, ``nfrstdo:is_represented_by``,
    ``nfrstdo:deals_with_universals``, ``nfrstdo:has_focus``, and
    ``nfrstdo:sub_category_of``.
    """
    triples: list[str] = []

    def node(subject, name, shape, types, literals) -> None:
        triples.extend(f"{subject} a nfrstdo:{type_name} ." for type_name in types)
        triples.extend(f"{subject} nfrstdo:{predicate} {quote(value)} ." for predicate, value in literals
                       if value is not None)

    def edges(label, predicate, row, pairs) -> None:
        triples.extend([f"{subject} nfrstdo:{predicate} {obj} ." for subject, obj in pairs])

    _graph(doc, _urn, node, edges)

    if not triples:
        return _PREFIX + "\n"
    return _PREFIX + "\n\n" + "\n".join(sorted(set(triples))) + "\n"
