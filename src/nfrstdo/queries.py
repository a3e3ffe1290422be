"""Read-only analyses over documents.

Closures over view influence, attribute rollups beneath characteristics,
mapping coverage of statement items, and NFR-to-FR satisfaction traces. All
functions are pure, leave the document untouched, and order their results
deterministically (breadth-first with lexicographic ties for closures,
lexicographic elsewhere).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

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


@dataclass(frozen=True, slots=True)
class ClosureResult:
    origin: str
    reached: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class CoverageReport:
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


def _bfs_closure(edges: Iterable[tuple[str, str]], origin: str, transitive: bool = True) -> tuple[str, ...]:
    successors: dict[str, set[str]] = {}
    for a, b in edges:
        successors.setdefault(a, set()).add(b)
    reached: list[str] = []
    discovered: set[str] = set()
    level = [origin]
    while level:
        frontier: set[str] = set()
        for node in level:
            frontier.update(s for s in successors.get(node, ()) if s not in discovered)
        discovered.update(frontier)
        level = sorted(frontier)
        reached.extend(level)
        if not transitive:
            break
    return tuple(reached)


def influence_closure(doc: Document, view_model: str, origin: str, *, transitive: bool = True) -> ClosureResult:
    """Every view transitively influenced by ``origin``; only the direct ones unless ``transitive``.

    The origin itself appears only when a cycle leads back to it.
    """
    vm = _quality_view_model(doc, view_model, origin)
    return ClosureResult(origin=origin, reached=_bfs_closure(vm.influences_edges, origin, transitive))


def depends_closure(doc: Document, view_model: str, origin: str, *, transitive: bool = True) -> ClosureResult:
    """Every view ``origin`` transitively depends on; only the direct ones unless ``transitive``.

    The edges are the derived depends_on set (see ``validator.derive_depends_on``):
    the explicit edges and the reversed influences edges, walked as they are.
    """
    vm = _quality_view_model(doc, view_model, origin)
    edges = chain(vm.depends_on_edges, ((b, a) for a, b in vm.influences_edges))
    return ClosureResult(origin=origin, reached=_bfs_closure(edges, origin, transitive))


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
