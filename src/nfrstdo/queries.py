"""Read-only analyses over documents.

Closures over view influence, attribute rollups beneath characteristics,
mapping coverage of statement items, and NFR-to-FR satisfaction traces. All
functions are pure, leave the document untouched, and order their results
deterministically (breadth-first with lexicographic ties for closures,
lexicographic elsewhere). The closures walk an integer index of the view
model's graph, kept on the view model itself, so repeated queries on one
document build it once per direction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .diagnostics import Record
from .model import Document, FocusKind, NfrKind, NfrsViewModelNode


class QueryError(LookupError):
    """Base for name-resolution failures raised by query operations."""


class UnknownModel(QueryError):
    pass


class UnknownView(QueryError):
    pass


class UnknownCharacteristic(QueryError):
    pass


class UnknownFunctionalRequirement(QueryError):
    pass


class NotAQualityView(QueryError):
    pass


class ClosureResult(Record):
    origin: str
    reached: tuple[str, ...]


class CoverageReport(Record):
    mapped: tuple[tuple[str, tuple[str, ...]], ...]
    unmapped: tuple[str, ...]
    ratio: Fraction


def _quality_view_model(doc: Document, view_model: str, origin: str) -> NfrsViewModelNode:
    vm = doc.view_models.get(view_model)
    if vm is None:
        raise UnknownModel(f"no view model named {view_model!r}")
    view = vm.views.get(origin)
    if view is None:
        raise UnknownView(f"no view named {origin!r} in view model {view_model!r}")
    if view.kind is not FocusKind.QUALITY:
        raise NotAQualityView(f"{origin!r} is a cost view; closures walk quality views")
    return vm


_Index = tuple[tuple[str, ...], dict[str, int], list[list[int]]]


def _closure_index(edges: tuple, reversed_edges: tuple) -> _Index:
    """The graph of ``edges`` and of ``reversed_edges`` reversed, as ints.

    Returns the sorted names of every endpoint, each name's position in them,
    and each position's successor positions.
    """
    names = tuple(sorted({*chain.from_iterable(edges), *chain.from_iterable(reversed_edges)}))
    position = {name: i for i, name in enumerate(names)}
    successors: list[list[int]] = [[] for _ in names]
    for a, b in edges:
        successors[position[a]].append(position[b])
    for a, b in reversed_edges:
        successors[position[b]].append(position[a])
    return names, position, successors


def _index(vm: NfrsViewModelNode, depends: bool) -> _Index:
    """``vm``'s depends_on or influences index, built on its first query and kept in its private slot.

    A view model is immutable, so a kept index never goes stale; every later
    query shares it, so callers must not mutate it.
    """
    indexes = getattr(vm, "_closure_indexes", None) or [None, None]
    if indexes[depends] is None:
        edges = (vm.depends_on_edges, vm.influences_edges) if depends else (vm.influences_edges, ())
        indexes[depends] = _closure_index(*edges)
        object.__setattr__(vm, "_closure_indexes", indexes)
    return indexes[depends]


def _walk(index: _Index, origin: str, transitive: bool) -> tuple[str, ...]:
    """Breadth-first levels from ``origin``, each in name order; the origin only if a cycle returns to it."""
    names, position, successors = index
    start = position.get(origin)
    if start is None:
        return ()
    seen = bytearray(len(names))
    reached: list[int] = []
    level = [start]
    while level:
        frontier: list[int] = []
        for node in level:
            for s in successors[node]:
                if not seen[s]:
                    seen[s] = 1
                    frontier.append(s)
        frontier.sort()  # positions follow the sorted names, so this is name order
        reached.extend(frontier)
        if not transitive:
            break
        level = frontier
    return tuple([names[i] for i in reached])


def influence_closure(doc: Document, view_model: str, origin: str, *, transitive: bool = True) -> ClosureResult:
    """Every view transitively influenced by ``origin``; only the direct ones unless ``transitive``.

    The origin itself appears only when a cycle leads back to it.
    """
    vm = _quality_view_model(doc, view_model, origin)
    return ClosureResult(origin=origin, reached=_walk(_index(vm, False), origin, transitive))


def depends_closure(doc: Document, view_model: str, origin: str, *, transitive: bool = True) -> ClosureResult:
    """Every view ``origin`` transitively depends on; only the direct ones unless ``transitive``.

    The edges are the derived depends_on set (see ``validator.derive_depends_on``):
    the explicit edges and the reversed influences edges, walked as they are.
    """
    vm = _quality_view_model(doc, view_model, origin)
    return ClosureResult(origin=origin, reached=_walk(_index(vm, True), origin, transitive))


def leaf_attributes(doc: Document, model: str, characteristic: str) -> list[str]:
    """Attributes combined by the characteristic or any transitive sub-characteristic."""
    m = doc.models.get(model)
    if m is None:
        raise UnknownModel(f"no model named {model!r}")
    nfr = m.nfrs.get(characteristic)
    if nfr is None or nfr.kind is not NfrKind.CHARACTERISTIC:
        raise UnknownCharacteristic(f"no characteristic named {characteristic!r} in model {model!r}")

    children: dict[str, list[str]] = {}
    for parent, child in m.subchar_edges:
        children.setdefault(parent, []).append(child)
    combined: dict[str, list[str]] = {}
    for source, target in m.combines_attr_edges:
        combined.setdefault(source, []).append(target)

    attributes: set[str] = set()
    visited: set[str] = set()
    stack = [characteristic]
    while stack:
        node = stack.pop()
        if node in visited:
            continue
        visited.add(node)
        attributes.update(combined.get(node, ()))
        stack.extend(children.get(node, ()))
    return sorted(attributes)


def mapping_coverage(doc: Document, model: str) -> CoverageReport:
    """Partition a model's statement items by whether any maps edge covers them.

    The ratio is mapped over total, and 1 when the model has no statement
    items at all.
    """
    m = doc.models.get(model)
    if m is None:
        raise UnknownModel(f"no model named {model!r}")
    items = sorted(n.name for n in m.nfrs.values() if n.kind is NfrKind.STATEMENT_ITEM)
    targets: dict[str, set[str]] = {}
    for source, target in m.mapped_to_edges:
        targets.setdefault(source, set()).add(target)
    mapped = tuple((item, tuple(sorted(targets[item]))) for item in items if item in targets)
    unmapped = tuple(item for item in items if item not in targets)
    ratio = Fraction(1) if not items else Fraction(len(mapped), len(items))
    return CoverageReport(mapped=mapped, unmapped=unmapped, ratio=ratio)


def trace_satisfies(doc: Document, fr: str) -> list[tuple[str, str]]:
    """All (model, NFR) pairs with a satisfies edge to the functional requirement."""
    if fr not in doc.frs:
        raise UnknownFunctionalRequirement(f"no functional requirement named {fr!r}")
    pairs = [
        (model_name, source)
        for model_name, model in doc.models.items()
        for source, target in model.satisfies_edges
        if target == fr
    ]
    return sorted(set(pairs))
