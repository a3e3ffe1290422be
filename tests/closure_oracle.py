"""The string-set closure walk, kept as the oracle for the indexed closures in ``nfrstdo.queries``.

``_bfs_closure`` is the function as it stood before the cached integer index,
copied verbatim: it rebuilds a successor map from every edge on each call,
then walks it breadth first over names. ``influence_closure`` walked
``vm.influences_edges``; ``depends_closure`` walked ``vm.depends_on_edges``
followed by the reversed influences edges. ``tests/test_queries.py`` compares
the two.
"""

from __future__ import annotations

from collections.abc import Iterable


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
