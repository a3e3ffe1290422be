"""The reach-set cycle finder, kept as the oracle for ``validator._cycle_groups``.

``_cycle_groups`` is the function as it stood before the Tarjan rewrite,
copied verbatim: a walk from every node that has an outgoing edge, then a
pass that groups the nodes lying on a cycle by mutual reachability. It costs
O(V·(V+E)) plus O(V²), so the tests run it on small graphs only.
``tests/test_validator.py`` compares the two.
"""

from __future__ import annotations


def _cycle_groups(edges: list[tuple[str, str]]) -> list[list[str]]:
    """Groups of nodes lying on directed cycles, each group one cycle cluster."""
    successors: dict[str, set[str]] = {}
    for a, b in edges:
        successors.setdefault(a, set()).add(b)

    reach: dict[str, set[str]] = {}
    for start in successors:
        seen: set[str] = set()
        frontier = list(successors.get(start, ()))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(successors.get(node, ()))
        reach[start] = seen

    on_cycle = sorted(n for n in reach if n in reach[n])
    groups: list[list[str]] = []
    assigned: set[str] = set()
    for node in on_cycle:
        if node in assigned:
            continue
        group = sorted(
            m for m in on_cycle if m == node or (m in reach.get(node, ()) and node in reach.get(m, ()))
        )
        assigned.update(group)
        groups.append(group)
    return groups
