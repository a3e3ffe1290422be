"""Deterministic document exporters: canonical JSON, DOT, and RDF Turtle.

Ordering rules are fixed (keys sorted, collections name-sorted, edge lists
lexicographic), so exporting the same document twice yields identical bytes.

JSON mirrors the ``model`` tables: each node's name and fields and, for a
model or a view model, its NFRs or views and each stored edge list under its
``EDGE_KINDS`` JSON key; ``_json_fields`` writes the fields of every block.
DOT and Turtle draw one graph: ``_graph`` walks the document and hands each
node (shape, types, literals) and each edge (relationship, predicate) once to
a callback, and ``to_dot`` and ``to_turtle`` are only those callbacks,
formatting one line or triple per record. Both sort their lines, so the
walk's order does not matter. ``_literals`` reads every block's text fields:
a category reference is an edge, any other field a literal.

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

from .model import (
    NFR_FIELDS,
    NODE_KINDS,
    VIEW_FIELDS,
    Document,
    NfrKind,
    NfrsModelNode,
    NfrsViewModelNode,
    NodeField,
    iter_edges,
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


def _pairs(edges: tuple[tuple[str, str], ...]) -> list[list[str]]:
    return [list(pair) for pair in sorted(edges)]


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
                record.update((k.json_key, _pairs(getattr(node, k.field))) for k in kind.edges)
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
    """A dict that fills a missing key with ``make(key)`` and keeps it: each ref is made or rendered once per call."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _nfr_ref(model: NfrsModelNode | None, model_name: str, name: str) -> tuple[str, str, str]:
    """The ref of NFR ``name`` in ``model_name``: its kind leads, or ``nfr`` when it does not resolve."""
    nfr = None if model is None else model.nfrs.get(name)
    return ("nfr" if nfr is None else nfr.kind.value, model_name, name)


def _literals(ref: tuple[str, ...], fields: tuple[NodeField, ...], item, edge) -> list[tuple[str, str | None]]:
    """The literal text fields of ``item`` as (predicate, value or None); each category reference goes to ``edge``."""
    literals = []
    for f in fields:
        if f.syntax == "text":
            value = getattr(item, f.attribute)
            if f.turtle is None:
                literals.append((f.keyword, value))
            elif value is not None or not f.optional:
                edge(ref, f.dot_label, ("category", value), f.turtle, False)
    return literals


def _owner_edges(owner: NfrsModelNode | NfrsViewModelNode, refs: _Memo, edge) -> None:
    """Pass each edge of ``owner``'s lists to ``edge``; ``refs`` maps a name to the ref of its NFR or view."""
    for kind, source, target in iter_edges(owner):
        target_ref = refs[target] if kind.collection is None else (_COLLECTION_KINDS[kind.collection], target)
        edge(refs[source], kind.relationship, target_ref, kind.turtle, kind.arrow == "of")


def _graph(doc: Document, node, edge) -> None:
    """Call ``node`` once per node of ``doc`` and ``edge`` once per edge, in no particular order.

    A ref is ``(prefix, *name parts)``: the node kind's keyword and the name,
    or, for an NFR or a view, its kind (``nfr`` when the NFR does not resolve)
    with the owner's name and its own. A node comes as (ref, DOT shape, Turtle
    types, literal fields as (predicate, value or None)). An edge comes as
    (source ref, relationship, target ref, Turtle predicate, reversed), in the
    relationship's direction; ``reversed`` marks the ``of`` rows, whose
    triples keep the stored orientation. Records go to the callbacks, not
    into lists: held records would add thousands of objects for the garbage
    collector to count and scan on every export.
    """
    for kind in NODE_KINDS:
        for name, item in getattr(doc, kind.collection).items():
            ref = (kind.keyword, name)
            node(ref, _NODE_SHAPES[kind.keyword], (kind.turtle,), _literals(ref, kind.fields, item, edge))
    for model_name, model in doc.models.items():
        nfr_refs = _Memo(lambda name: _nfr_ref(model, model_name, name))
        for name, nfr in model.nfrs.items():
            ref = nfr_refs[name]
            types = [nfr.kind.value.title()]
            if nfr.is_focus:
                types.append(f"{nfr.focus_kind.value.capitalize()}_Focus")
                edge(ref, "is represented by", ("model", model_name), "is_represented_by", False)
            node(ref, _NODE_SHAPES[nfr.kind], types, _literals(ref, NFR_FIELDS[nfr.kind], nfr, edge))
        _owner_edges(model, nfr_refs, edge)
    for vm_name, vm in doc.view_models.items():
        view_refs = _Memo(lambda name: ("view", vm_name, name))
        for name, view in vm.views.items():
            ref = view_refs[name]
            view_type = f"{view.kind.value.capitalize()}_View"
            node(ref, _NODE_SHAPES["view"], (view_type,), _literals(ref, VIEW_FIELDS, view, edge))
            focus_model, focus_name = view.focus
            focus_ref = _nfr_ref(doc.models.get(focus_model), focus_model, focus_name)
            edge(ref, "focus", focus_ref, "has_focus", False)
        _owner_edges(vm, view_refs, edge)


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


def _dot_id(ref: tuple[str, ...]) -> str:
    prefix, *parts = ref
    # a part's own % and / are encoded, so that only the joins read as / and no two refs share an id
    path = "/".join(part.replace("%", "%25").replace("/", "%2F") for part in parts)
    return '"' + _dot_escape(f"{_DOT_PREFIXES.get(prefix, prefix)}:{path}") + '"'


def to_dot(doc: Document) -> str:
    """One directed graph with node shapes by kind and one edge style per relationship."""
    ids = _Memo(_dot_id)
    nodes: list[str] = []
    edges: list[str] = []

    def node(ref, shape, types, literals) -> None:
        nodes.append(f'  {ids[ref]} [label="{_dot_escape(ref[-1])}", shape={shape}];')

    def edge(source, label, target, predicate, reverse) -> None:
        edges.append(f'  {ids[source]} -> {ids[target]} [label="{label}", {_EDGE_STYLES[label]}];')

    _graph(doc, node, edge)
    return "\n".join(["digraph nfrs {", *sorted(nodes), *sorted(edges), "}"]) + "\n"


# --- Turtle ------------------------------------------------------------------------

_PREFIX = "@prefix nfrstdo: <urn:nfrstdo:vocab:> ."
# each byte, read as a Latin-1 character, to itself if RFC 3986 leaves it unreserved, else to its %XX escape
_PERCENT = [chr(b) if chr(b).isascii() and (chr(b).isalnum() or chr(b) in "_.-~") else f"%{b:02X}" for b in range(256)]


def _percent_encode(part: str) -> str:
    """``urllib.parse.quote(part, safe='')``: the UTF-8 bytes of ``part``, each unreserved one kept, the rest %XX."""
    return part.encode("utf-8").decode("latin-1").translate(_PERCENT)


def _urn(ref: tuple[str, ...]) -> str:
    prefix, *parts = ref
    return f"<urn:nfrstdo:{prefix}:{'/'.join(_percent_encode(part) for part in parts)}>"


def to_turtle(doc: Document) -> str:
    """RDF Turtle with one sorted triple per line.

    Predicates mirror the relationship catalog (``nfrstdo:belongs_to``,
    ``nfrstdo:refers_to_particulars``, ...); structural links use
    ``nfrstdo:has_subcharacteristic``, ``nfrstdo:is_represented_by``,
    ``nfrstdo:deals_with_universals``, ``nfrstdo:has_focus``, and
    ``nfrstdo:sub_category_of``.
    """
    urns = _Memo(_urn)
    triples: list[str] = []

    def node(ref, shape, types, literals) -> None:
        subject = urns[ref]
        triples.extend(f"{subject} a nfrstdo:{type_name} ." for type_name in types)
        triples.extend(f"{subject} nfrstdo:{predicate} {quote(value)} ." for predicate, value in literals
                       if value is not None)

    def edge(source, label, target, predicate, reverse) -> None:
        subject, obj = (urns[target], urns[source]) if reverse else (urns[source], urns[target])
        triples.append(f"{subject} nfrstdo:{predicate} {obj} .")

    _graph(doc, node, edge)

    if not triples:
        return _PREFIX + "\n"
    return _PREFIX + "\n\n" + "\n".join(sorted(set(triples))) + "\n"
