"""The DOT and Turtle exporters before the shared graph walk, kept as the oracle for ``export``.

``to_dot`` and ``to_turtle`` are copied verbatim from ``export`` as they
stood when each walked the document on its own, together with the helpers
and tables they read. ``tests/test_export_oracle.py`` requires byte-equal
output from them and from the library on every document of its corpus.
"""

from __future__ import annotations

from urllib.parse import quote as percent_encode

from nfrstdo.model import (
    NODE_KINDS,
    Document,
    FocusKind,
    NfrKind,
    NfrsModelNode,
    NfrsViewModelNode,
    iter_edges,
)

# node kind of the ids and URNs of edge targets that live in a Document collection
_COLLECTION_KINDS = {k.collection: k.keyword for k in NODE_KINDS}


def _present(kind, node):
    """Yield (field, value) for each field of ``node`` that is set or required (the old ``NodeKind.present``)."""
    for f in kind.fields:
        value = getattr(node, f.attribute)
        if value is not None or not f.optional:
            yield f, value

# --- DOT -------------------------------------------------------------------------

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

# (style, arrowhead) per relationship; labels carry the relationship names
_EDGE_STYLES = {
    "belongs to": ("solid", "normal"),
    "combines": ("solid", "vee"),
    "deals with universals": ("dashed", "normal"),
    "depends on": ("dashed", "vee"),
    "influences": ("bold", "normal"),
    "is represented by": ("dotted", "normal"),
    "is mapped to": ("dashed", "diamond"),
    "refers to particulars": ("dotted", "vee"),
    "refers to universals": ("dotted", "diamond"),
    "relates with": ("solid", "none"),
    "satisfies": ("bold", "vee"),
    "sub category of": ("solid", "empty"),
    "subcharacteristic of": ("solid", "empty"),
    "focus": ("dashed", "dot"),
}


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _dot_node(node_id: str, label: str, shape: str) -> str:
    return f'  "{_dot_escape(node_id)}" [label="{_dot_escape(label)}", shape={shape}];'


def _dot_edge(src: str, dst: str, relationship: str) -> str:
    style, arrowhead = _EDGE_STYLES[relationship]
    return (
        f'  "{_dot_escape(src)}" -> "{_dot_escape(dst)}"'
        f' [label="{_dot_escape(relationship)}", style={style}, arrowhead={arrowhead}];'
    )


def _dot_edges(node: NfrsModelNode | NfrsViewModelNode, local_id) -> list[str]:
    """DOT edges of ``node``; ``local_id`` names the owner's NFRs or views."""
    edges = []
    for kind, source, target in iter_edges(node):
        if kind.collection is None:
            target_id = local_id(target)
        else:
            target_id = f"{_COLLECTION_KINDS[kind.collection]}:{target}"
        edges.append(_dot_edge(local_id(source), target_id, kind.relationship))
    return edges


def to_dot(doc: Document) -> str:
    """One directed graph with node shapes by kind and one edge style per relationship."""
    nodes: list[str] = []
    edges: list[str] = []

    for kind in NODE_KINDS:
        for name, node in getattr(doc, kind.collection).items():
            node_id = f"{kind.keyword}:{name}"
            nodes.append(_dot_node(node_id, name, _NODE_SHAPES[kind.keyword]))
            for f, value in _present(kind, node):
                if f.dot_label:
                    edges.append(_dot_edge(node_id, f"category:{value}", f.dot_label))
    for model_name, model in doc.models.items():
        def nfr_id(name: str) -> str:
            return f"nfr:{model_name}/{name}"

        for name, nfr in model.nfrs.items():
            nodes.append(_dot_node(nfr_id(name), name, _NODE_SHAPES[nfr.kind]))
            if nfr.is_focus:
                edges.append(_dot_edge(nfr_id(name), f"model:{model_name}", "is represented by"))
        edges += _dot_edges(model, nfr_id)
    for vm_name, vm in doc.view_models.items():
        def view_id(name: str) -> str:
            return f"view:{vm_name}/{name}"

        for name, view in vm.views.items():
            nodes.append(_dot_node(view_id(name), name, _NODE_SHAPES["view"]))
            edges.append(_dot_edge(view_id(name), f"category:{view.category}", "deals with universals"))
            edges.append(_dot_edge(view_id(name), f"nfr:{view.focus[0]}/{view.focus[1]}", "focus"))
        edges += _dot_edges(vm, view_id)

    lines = ["digraph nfrs {"]
    lines.extend(sorted(nodes))
    lines.extend(sorted(edges))
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- Turtle ------------------------------------------------------------------------

_PREFIX = "@prefix nfrstdo: <urn:nfrstdo:vocab:> ."

_NFR_TYPES = {
    NfrKind.ATTRIBUTE: "Attribute",
    NfrKind.CHARACTERISTIC: "Characteristic",
    NfrKind.STATEMENT_ITEM: "Statement_Item",
}


def _literal(value: str) -> str:
    escaped = (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )
    return f'"{escaped}"'


def to_turtle(doc: Document) -> str:
    """RDF Turtle with one sorted triple per line.

    Predicates mirror the relationship catalog (``nfrstdo:belongs_to``,
    ``nfrstdo:refers_to_particulars``, ...); structural links use
    ``nfrstdo:has_subcharacteristic``, ``nfrstdo:has_focus``, and
    ``nfrstdo:sub_category_of``.
    """
    triples: list[str] = []
    urns: dict[tuple[str, ...], str] = {}

    def urn(kind: str, *name_parts: str) -> str:
        # a name recurs in every edge that touches it: encode each URN once per call
        key = (kind, *name_parts)
        if key not in urns:
            encoded = "/".join(percent_encode(part, safe="") for part in name_parts)
            urns[key] = f"<urn:nfrstdo:{kind}:{encoded}>"
        return urns[key]

    def add(subject: str, predicate: str, obj: str) -> None:
        triples.append(f"{subject} {predicate} {obj} .")

    def add_literal(subject: str, predicate: str, value: str | None) -> None:
        if value is not None:
            add(subject, f"nfrstdo:{predicate}", _literal(value))

    def add_edges(node: NfrsModelNode | NfrsViewModelNode, local_urn) -> None:
        for kind, source, target in iter_edges(node):
            if kind.collection is None:
                target_urn = local_urn(target)
            else:
                target_urn = urn(_COLLECTION_KINDS[kind.collection], target)
            subject, obj = kind.stored(local_urn(source), target_urn)
            add(subject, f"nfrstdo:{kind.turtle}", obj)

    for kind in NODE_KINDS:
        for name, node in getattr(doc, kind.collection).items():
            subject = urn(kind.keyword, name)
            add(subject, "a", f"nfrstdo:{kind.turtle}")
            # the kinds whose fields this walk emitted; a model's specification follows below
            fields = _present(kind, node) if kind.keyword in ("category", "entity", "fr") else ()
            for f, value in fields:
                if f.turtle:
                    add(subject, f"nfrstdo:{f.turtle}", urn("category", value))
                else:
                    add_literal(subject, f.keyword, value)

    for model_name, model in doc.models.items():
        model_subject = urn("model", model_name)
        add_literal(model_subject, "specification", model.specification)

        def nfr_urn(name: str) -> str:
            nfr = model.nfrs.get(name)
            kind = "nfr" if nfr is None else nfr.kind.value
            return urn(kind, model_name, name)

        for name, nfr in model.nfrs.items():
            subject = nfr_urn(name)
            add(subject, "a", f"nfrstdo:{_NFR_TYPES[nfr.kind]}")
            add_literal(subject, "definition", nfr.definition)
            add_literal(subject, "declaration", nfr.declaration)
            add_literal(subject, "statement", nfr.statement)
            if nfr.is_focus and nfr.focus_kind is not None:
                focus_type = "Quality_Focus" if nfr.focus_kind is FocusKind.QUALITY else "Cost_Focus"
                add(subject, "a", f"nfrstdo:{focus_type}")
                add(subject, "nfrstdo:is_represented_by", model_subject)
        add_edges(model, nfr_urn)

    for vm_name, vm in doc.view_models.items():
        add_literal(urn("view_model", vm_name), "specification", vm.specification)

        def view_urn(name: str) -> str:
            return urn("view", vm_name, name)

        for name, view in vm.views.items():
            subject = view_urn(name)
            view_type = "Quality_View" if view.kind is FocusKind.QUALITY else "Cost_View"
            add(subject, "a", f"nfrstdo:{view_type}")
            add_literal(subject, "statement", view.statement)
            add(subject, "nfrstdo:deals_with_universals", urn("category", view.category))
            focus_model, focus_char = view.focus
            focus_nfr = doc.models.get(focus_model)
            kind = "nfr"
            if focus_nfr is not None and focus_char in focus_nfr.nfrs:
                kind = focus_nfr.nfrs[focus_char].kind.value
            add(subject, "nfrstdo:has_focus", urn(kind, focus_model, focus_char))
        add_edges(vm, view_urn)

    if not triples:
        return _PREFIX + "\n"
    return _PREFIX + "\n\n" + "\n".join(sorted(set(triples))) + "\n"
