"""Query answers computed from the generator's plain structure, by other algorithms than the program's.

Closures use Bellman-Ford-style relaxation of path lengths instead of level
breadth-first search; descendant sets use fixpoint iteration over the edge
list instead of a stack walk.
"""

from __future__ import annotations

from fractions import Fraction

from gen import Model, Plain


def closure(edges: list[tuple[str, str]], origin: str) -> tuple[str, ...]:
    """Nodes reachable from ``origin`` by a path of at least one edge, by (path length, name)."""
    dist = {b: 1 for a, b in edges if a == origin}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            if a in dist and dist[a] + 1 < dist.get(b, len(edges) + 2):
                dist[b] = dist[a] + 1
                changed = True
    return tuple(sorted(dist, key=lambda n: (dist[n], n)))


def _model(p: Plain, name: str) -> Model:
    return next(m for m in p.models if m.name == name)


def answer(p: Plain, query: tuple):
    """The expected result of one query, in the shape the program returns it."""
    kind, *args = query
    if kind in ("influence_closure", "depends_closure"):
        vm_name, origin = args
        vm = next(v for v in p.view_models if v.name == vm_name)
        edges = vm.influences
        if kind == "depends_closure":
            edges = sorted(set(vm.depends_on) | {(b, a) for a, b in vm.influences})
        return (origin, closure(edges, origin))
    if kind == "leaf_attributes":
        m = _model(p, args[0])
        below = {args[1]}
        changed = True
        while changed:
            size = len(below)
            below |= {child for child, parent in m.edges["subcharacteristic"] if parent in below}
            changed = len(below) != size
        kinds = {n[1]: n[0] for n in m.nfrs}
        return sorted({t for s, t in m.edges["combines"] if s in below and kinds[t] == "attribute"})
    if kind == "mapping_coverage":
        m = _model(p, args[0])
        items = sorted(n[1] for n in m.nfrs if n[0] == "statement_item")
        mapped = tuple((i, tuple(sorted({t for s, t in m.edges["maps"] if s == i})))
                       for i in items if any(s == i for s, _ in m.edges["maps"]))
        unmapped = tuple(i for i in items if all(s != i for s, _ in m.edges["maps"]))
        return (mapped, unmapped, Fraction(len(mapped), len(items)) if items else Fraction(1))
    if kind == "trace_satisfies":
        return sorted({(m.name, s) for m in p.models for s, t in m.edges["satisfies"] if t == args[0]})
    raise ValueError(f"unknown query kind {kind!r}")


def normalise(kind: str, result):
    """The program's result in the shape ``answer`` returns."""
    if kind in ("influence_closure", "depends_closure"):
        return (result.origin, tuple(result.reached))
    if kind == "mapping_coverage":
        return (result.mapped, result.unmapped, result.ratio)
    return result
