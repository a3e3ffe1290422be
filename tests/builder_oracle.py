"""The model write path as it stood before the positional copies, kept as the oracle for ``nfrstdo.model``.

``add_node``, ``_append_edge``, ``add_model_edge`` and ``add_view_edge`` are
copied verbatim from ``model``: each call found its owner through
``resolve`` and copied the owner and the document with the keyword
``diagnostics.replace``. The tables, exceptions and helpers they read are the
package's own, but for the ``(owner type, keyword)`` index of edge rows, which
the package has since keyed by keyword alone; it is rebuilt here as it
stood. ``tests/test_model.py`` requires the same document, or the same
exception and message, from both on every call.
"""

from __future__ import annotations

from nfrstdo.diagnostics import replace
from nfrstdo.model import (
    _KINDS_BY_TYPE,
    NODE_KINDS,
    NODE_KINDS_BY_KEYWORD,
    Document,
    DuplicateName,
    EdgeKindError,
    Node,
    NodeKind,
    NotFound,
    edge_kind,
    edge_message,
    resolve,
)

_ROWS_BY_KEYWORD = {(k.type, e.keyword): tuple(r for r in k.edges if r.keyword == e.keyword)
                    for k in NODE_KINDS for e in k.edges}


def add_node(doc: Document, node: Node) -> Document:
    """Return a new document containing ``node``; ``doc`` is unchanged."""
    kind = _KINDS_BY_TYPE[type(node)]
    collection = getattr(doc, kind.collection)
    if node.name in collection:
        raise DuplicateName(f"{kind.keyword.replace('_', ' ')} {node.name!r} already exists")
    return replace(doc, **{kind.collection: {**collection, node.name: node}})



def _append_edge(doc: Document, kind: NodeKind, owner_name: str, keyword: str, source: str, target: str):
    """``doc`` with one more edge on ``kind``'s node ``owner_name``, rejecting bad keywords, endpoints and kinds."""
    owner = resolve(doc, kind.keyword, owner_name)
    rows = _ROWS_BY_KEYWORD.get((kind.type, keyword))
    if rows is None:
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
    updated = replace(owner, **{edge.field: getattr(owner, edge.field) + (edge.stored(source, target),)})
    return replace(doc, **{kind.collection: {**getattr(doc, kind.collection), owner_name: updated}})


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
