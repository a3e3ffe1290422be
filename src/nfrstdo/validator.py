"""Constraint validation over parsed documents.

Every finding carries a stable ``R-###`` code. The catalog distinguishes
unresolved names (R-REF, or the rule owning that reference) from resolved
names of the wrong kind, so one authoring mistake maps to exactly one code.

Two modes reflect two workflows: Model mode validates a reusable
specification that may not name concrete entities yet, Instance mode holds a
document to the full letter of the cardinalities. Model-mode errors are
always a subset of instance-mode errors.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum

from .diagnostics import Diagnostic, Severity, replace, sort_diagnostics
from .model import Document, FocusKind, NfrKind, NfrsModelNode, NfrsViewModelNode, edge_message, iter_edges


class ValidationMode(Enum):
    MODEL = "model"
    INSTANCE = "instance"


def derive_depends_on(vm: NfrsViewModelNode) -> NfrsViewModelNode:
    """Complete a view model's depends_on set with the inverse of influences.

    Explicit depends_on edges are kept; the result is idempotent under
    re-derivation. Explicit edges that mirror no influences edge are the
    contradictions R-006b reports.
    """
    derived = set(vm.depends_on_edges) | {(b, a) for a, b in vm.influences_edges}
    return replace(vm, depends_on_edges=tuple(sorted(derived)))


def depends_contradictions(vm: NfrsViewModelNode) -> list[tuple[str, str]]:
    """Explicit depends_on edges whose mirror influences edge is missing."""
    influences = set(vm.influences_edges)
    return sorted((b, a) for b, a in vm.depends_on_edges if (a, b) not in influences)


class _Sink:
    def __init__(self, doc: Document) -> None:
        self.doc = doc
        self.diagnostics: list[Diagnostic] = []

    def add(self, code: str, severity: Severity, message: str, subject: str, loc_key: tuple | None) -> None:
        location = self.doc.source_locations.get(loc_key)  # None for a None key
        self.diagnostics.append(Diagnostic(code, severity, message, subject, location))

    def error(self, code: str, message: str, subject: str, loc_key: tuple | None) -> None:
        self.add(code, Severity.ERROR, message, subject, loc_key)

    def warning(self, code: str, message: str, subject: str, loc_key: tuple | None) -> None:
        self.add(code, Severity.WARNING, message, subject, loc_key)


def _cycle_groups(edges: list[tuple[str, str]]) -> list[list[str]]:
    """Groups of nodes lying on directed cycles, each group one strongly connected component.

    One iterative pass of Tarjan's algorithm (Tarjan 1972) with an explicit work
    stack, so the cost is O(V + E) and no recursion limit applies. A component
    is a cycle when it has more than one node or its one node has a self-loop.
    Each group is sorted, and the groups are ordered by their smallest node.
    """
    successors: dict[str, list[str]] = {}
    for a, b in edges:
        successors.setdefault(a, []).append(b)

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    work: list[tuple[str, Iterator[str]]] = []  # the depth-first path, each node with its unvisited successors
    groups: list[list[str]] = []

    def enter(node: str) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(successors.get(node, ()))))

    for root in successors:
        if root in index:
            continue
        enter(root)
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    enter(child)
                    break
                if child in on_stack and index[child] < low[node]:
                    low[node] = index[child]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    component = [stack.pop()]
                    while component[-1] != node:
                        component.append(stack.pop())
                    on_stack.difference_update(component)
                    if len(component) > 1 or node in successors.get(node, ()):
                        groups.append(sorted(component))
    groups.sort()  # disjoint sorted groups: this orders them by their smallest node
    return groups


def _check_model(doc: Document, model: NfrsModelNode, mode: ValidationMode, sink: _Sink) -> None:
    m = model.name

    def kind_of(name: str) -> NfrKind | None:
        nfr = model.nfrs.get(name)
        return None if nfr is None else nfr.kind

    # endpoint kinds of every edge, as the relationship table allows them
    for kind, source, target in iter_edges(model):
        separator = f" {kind.arrow} " if kind.arrow == "of" else kind.arrow
        subject = f"model:{m}/{kind.keyword}:{source}{separator}{target}"
        key = ("edge", m, kind.keyword, *kind.stored(source, target))
        source_kind = kind_of(source)
        if source_kind is None:
            sink.error("R-REF", f"unknown NFR {source!r} in model {m!r}", subject, key)
        elif source_kind not in kind.sources:
            sink.error(kind.code, edge_message(kind.source_message, source, source_kind), subject, key)
        if kind.collection is not None:
            if target not in getattr(doc, kind.collection):
                sink.error(kind.code, edge_message(kind.target_message, target), subject, key)
        elif kind.arrow == "<->" and target == source:
            # a self-pair of the symmetric relationship has a single endpoint
            if source_kind is not None:
                sink.warning("R-011", f"NFR {source!r} relates with itself", subject, key)
        else:
            target_kind = kind_of(target)
            if target_kind is None:
                sink.error("R-REF", f"unknown NFR {target!r} in model {m!r}", subject, key)
            elif target_kind not in kind.targets:
                sink.error(kind.code, edge_message(kind.target_message, target, target_kind), subject, key)

    # sub-characteristic hierarchy over the edges whose endpoints are both characteristics
    characteristics = {n for n, nfr in model.nfrs.items() if nfr.kind is NfrKind.CHARACTERISTIC}
    valid_subchar = [(p, c) for p, c in model.subchar_edges if p in characteristics and c in characteristics]
    parents: dict[str, list[str]] = {}
    for parent, child in valid_subchar:
        parents.setdefault(child, []).append(parent)
    for child, parent_list in sorted(parents.items()):
        if len(set(parent_list)) > 1:
            sink.error(
                "R-013",
                f"characteristic {child!r} has {len(set(parent_list))} parents; the hierarchy is a forest",
                f"model:{m}/nfr:{child}",
                ("nfr", m, child),
            )
    for group in _cycle_groups([(child, parent) for parent, child in valid_subchar]):
        sink.error(
            "R-013",
            "sub-characteristic hierarchy contains a cycle: " + " -> ".join(group),
            f"model:{m}/subcharacteristic-cycle:{' -> '.join(group)}",
            None,
        )

    foci = sorted(n.name for n in model.nfrs.values() if n.is_focus)
    if len(foci) > 1:
        sink.error(
            "R-013",
            f"model declares {len(foci)} evaluation foci ({', '.join(foci)}); at most one is allowed",
            f"model:{m}",
            ("model", m),
        )
    for focus in foci:
        if focus in parents:
            sink.error(
                "R-013",
                f"evaluation focus {focus!r} has a parent; the focus is the root of the model",
                f"model:{m}/nfr:{focus}",
                ("nfr", m, focus),
            )

    # every NFR names at least one concrete entity
    with_entity = {source for source, _ in model.refers_to_entity_edges}
    severity = Severity.ERROR if mode is ValidationMode.INSTANCE else Severity.WARNING
    for name in sorted(model.nfrs):
        if name not in with_entity:
            sink.add(
                "R-009",
                severity,
                f"NFR {name!r} refers to no evaluable entity; at least one is required",
                f"model:{m}/nfr:{name}",
                ("nfr", m, name),
            )


def _check_view_model(doc: Document, vm: NfrsViewModelNode, mode: ValidationMode, sink: _Sink) -> None:
    v = vm.name

    for name in sorted(vm.views):
        view = vm.views[name]
        subject = f"view_model:{v}/view:{name}"
        key = ("view", v, name)
        category = doc.categories.get(view.category)
        if category is None:
            sink.error("R-004", f"view deals with unknown category {view.category!r}", subject, key)
        elif category.parent is not None:
            sink.warning(
                "R-015",
                f"view category {view.category!r} has parent {category.parent!r}; a view expects"
                " the super-category at the highest abstraction level",
                subject,
                key,
            )

        focus_model, focus_char = view.focus
        model = doc.models.get(focus_model)
        focus = None if model is None else model.nfrs.get(focus_char)
        if focus is None:
            if mode is ValidationMode.INSTANCE:
                sink.error(
                    "R-007",
                    f"view focus {focus_model!r} . {focus_char!r} is not represented by any model"
                    " in this document",
                    subject,
                    key,
                )
        elif not focus.is_focus:
            sink.error(
                "R-007",
                f"view focus must target a focus-marked characteristic; {focus_char!r} in model"
                f" {focus_model!r} is not marked as one",
                subject,
                key,
            )
        elif focus.focus_kind is not view.kind:
            sink.error(
                "R-014",
                f"{view.kind.value} view targets a {focus.focus_kind.value} focus ({focus_char!r})",
                subject,
                key,
            )

    contradicting = {("depends_on", *edge) for edge in depends_contradictions(vm)}
    views = vm.views
    for kind, source, target in iter_edges(vm):
        source_view, target_view = views.get(source), views.get(target)
        if (source_view is not None and target_view is not None and source_view.kind in kind.sources
                and target_view.kind in kind.targets and (kind.keyword, source, target) not in contradicting):
            continue  # nothing to report, so no subject and no location key are built
        subject = f"view_model:{v}/{kind.keyword}:{source}->{target}"
        key = ("edge", v, kind.keyword, source, target)
        missing = [name for name in dict.fromkeys((source, target)) if name not in views]
        for name in missing:
            sink.error("R-REF", f"unknown view {name!r} in view model {v!r}", subject, key)
        if missing:
            continue
        # one diagnostic names every endpoint of the wrong kind
        wrong = sorted({name for name, allowed in ((source, kind.sources), (target, kind.targets))
                        if views[name].kind not in allowed})
        if wrong:
            sink.error(kind.code, edge_message(kind.target_message, ", ".join(wrong)), subject, key)
        elif (kind.keyword, source, target) in contradicting:
            sink.error(
                "R-006b",
                f"explicit depends_on contradicts influences: no influences {target!r} -> {source!r}"
                " edge exists",
                subject,
                key,
            )

    quality = {name for name, view in vm.views.items() if view.kind is FocusKind.QUALITY}
    resolved_influences = [(s, t) for s, t in vm.influences_edges if s in quality and t in quality]
    for group in _cycle_groups(resolved_influences):
        sink.warning(
            "R-016",
            "influence relationships form a cycle: " + " -> ".join(group),
            f"view_model:{v}/influences-cycle:{' -> '.join(group)}",
            None,
        )


def validate(doc: Document, mode: ValidationMode = ValidationMode.MODEL) -> list[Diagnostic]:
    """Run the full rule catalog; an empty result means the document conforms.

    Diagnostics come back sorted by (code, subject, message), so repeated
    runs render identically.
    """
    sink = _Sink(doc)
    for name in sorted(doc.entities):
        entity = doc.entities[name]
        if entity.category not in doc.categories:
            sink.error(
                "R-001",
                f"entity belongs to unknown category {entity.category!r}; every entity needs"
                " exactly one resolvable category",
                f"entity:{name}",
                ("entity", name),
            )
    for name in sorted(doc.models):
        _check_model(doc, doc.models[name], mode, sink)
    for name in sorted(doc.view_models):
        _check_view_model(doc, doc.view_models[name], mode, sink)
    return sort_diagnostics(sink.diagnostics)


def has_errors(diagnostics: list[Diagnostic], strict: bool = False) -> bool:
    if strict:
        return bool(diagnostics)
    return any(d.severity is Severity.ERROR for d in diagnostics)
