"""Seeded random document generation and independent oracles for the tests.

The generator builds documents directly from the node record types (never
via the parser) so round-trip tests exercise serializer and parser against an
independently constructed value. References stay resolvable, which is the
serializer's precondition; semantic validity (focus counts, quality-only
edges) is deliberately not guaranteed.

The oracles use different algorithms than the code under test: reachability
by Bellman-Ford-style relaxation instead of level BFS, descendant sets by
pair-joining closure instead of stack traversal.
"""

from __future__ import annotations

import random
from pathlib import Path

from nfrstdo.model import (
    CategoryNode,
    Document,
    EntityNode,
    FocusKind,
    FunctionalRequirementNode,
    NfrKind,
    NfrNode,
    NfrsModelNode,
    NfrsViewModelNode,
    NfrViewNode,
)
from nfrstdo.textformat import serialize

_WORDS = [
    "Quality",
    "Cost",
    "Response",
    "Load",
    "café",
    "Ωmega",
    'quo"te',
    "back\\slash",
    "dot.name",
    "arrow->x",
    "hash#x",
    "tab\tin",
    "line\nbreak",
    "{brace",
    "two  spaces",
]


def _name(rng: random.Random, used: set[str], prefix: str) -> str:
    name = f"{prefix} {rng.choice(_WORDS)} {rng.randrange(100)}"
    while name in used:
        name += "x"
    used.add(name)
    return name


def _maybe_text(rng: random.Random) -> str | None:
    return rng.choice([None, "", "some text", 'quoted "text"', "uni code é\n\t"])


def _pick_pairs(rng: random.Random, sources: list[str], targets: list[str], most: int) -> list[tuple[str, str]]:
    if not sources or not targets:
        return []
    pairs = [(rng.choice(sources), rng.choice(targets)) for _ in range(rng.randrange(most + 1))]
    if pairs and rng.random() < 0.2:
        pairs.append(pairs[0])  # duplicate edges are legal
    return pairs


def _random_model(rng: random.Random, name: str, entities: list[str], categories: list[str],
                  frs: list[str]) -> NfrsModelNode:
    used: set[str] = set()
    chars = [_name(rng, used, "Char") for _ in range(rng.randrange(4))]
    attrs = [_name(rng, used, "Attr") for _ in range(rng.randrange(4))]
    items = [_name(rng, used, "Item") for _ in range(rng.randrange(3))]

    nfrs: dict[str, NfrNode] = {}
    focus_name = rng.choice(chars) if chars and rng.random() < 0.7 else None
    for n in chars:
        focus_kind = rng.choice([FocusKind.QUALITY, FocusKind.COST]) if n == focus_name else None
        nfrs[n] = NfrNode(
            kind=NfrKind.CHARACTERISTIC,
            name=n,
            definition="def of " + n,
            statement=_maybe_text(rng),
            is_focus=focus_kind is not None,
            focus_kind=focus_kind,
        )
    for n in attrs:
        nfrs[n] = NfrNode(kind=NfrKind.ATTRIBUTE, name=n, definition="def of " + n, statement=_maybe_text(rng))
    for n in items:
        nfrs[n] = NfrNode(
            kind=NfrKind.STATEMENT_ITEM, name=n, declaration="decl of " + n, statement=_maybe_text(rng)
        )

    subchar = []
    for j, child in enumerate(chars):
        if j > 0 and rng.random() < 0.6:
            subchar.append((rng.choice(chars[:j]), child))

    all_nfrs = chars + attrs + items
    return NfrsModelNode(
        name=name,
        specification=_maybe_text(rng),
        nfrs=nfrs,
        subchar_edges=tuple(subchar),
        combines_attr_edges=tuple(_pick_pairs(rng, chars, attrs, 4)),
        combines_item_edges=tuple(_pick_pairs(rng, chars, items, 3)),
        mapped_to_edges=tuple(_pick_pairs(rng, items, attrs, 3)),
        relates_with_edges=tuple(_pick_pairs(rng, all_nfrs, all_nfrs, 2)),
        satisfies_edges=tuple(_pick_pairs(rng, all_nfrs, frs, 2)),
        refers_to_entity_edges=tuple(_pick_pairs(rng, all_nfrs, entities, 3)),
        refers_to_category_edges=tuple(_pick_pairs(rng, all_nfrs, categories, 2)),
    )


def random_document(rng: random.Random) -> Document:
    used: set[str] = set()
    categories: dict[str, CategoryNode] = {}
    for i in range(rng.randrange(4)):
        name = _name(rng, used, "Cat")
        parent = rng.choice(sorted(categories)) if categories and rng.random() < 0.4 else None
        categories[name] = CategoryNode(name=name, description=_maybe_text(rng), parent=parent)

    entities: dict[str, EntityNode] = {}
    if categories:
        for _ in range(rng.randrange(4)):
            name = _name(rng, used, "Ent")
            entities[name] = EntityNode(
                name=name, category=rng.choice(sorted(categories)), description=_maybe_text(rng)
            )

    frs: dict[str, FunctionalRequirementNode] = {}
    for _ in range(rng.randrange(3)):
        name = _name(rng, used, "Fr")
        frs[name] = FunctionalRequirementNode(name=name, statement="stmt " + name, requester="req " + name)

    models: dict[str, NfrsModelNode] = {}
    for _ in range(rng.randrange(3)):
        name = _name(rng, used, "Model")
        models[name] = _random_model(rng, name, sorted(entities), sorted(categories), sorted(frs))

    focus_targets = [
        (model_name, nfr_name) for model_name, m in models.items() for nfr_name in sorted(m.nfrs)
    ]
    view_models: dict[str, NfrsViewModelNode] = {}
    for _ in range(rng.randrange(3)):
        name = _name(rng, used, "Vm")
        views: dict[str, NfrViewNode] = {}
        if categories and focus_targets:
            vused: set[str] = set()
            for _ in range(rng.randrange(4)):
                vname = _name(rng, vused, "View")
                views[vname] = NfrViewNode(
                    name=vname,
                    kind=rng.choice([FocusKind.QUALITY, FocusKind.COST]),
                    category=rng.choice(sorted(categories)),
                    focus=rng.choice(focus_targets),
                    statement=_maybe_text(rng),
                )
        view_names = sorted(views)
        view_models[name] = NfrsViewModelNode(
            name=name,
            specification=_maybe_text(rng),
            views=views,
            influences_edges=tuple(_pick_pairs(rng, view_names, view_names, 3)),
            depends_on_edges=tuple(_pick_pairs(rng, view_names, view_names, 2)),
        )

    return Document(
        categories=categories, entities=entities, frs=frs, models=models, view_models=view_models
    )


def relationship_kinds_present(doc: Document) -> set[str]:
    """Which of the twelve relationship kinds this document instantiates."""
    present = set()
    if doc.entities:
        present.add("belongs to")
    for m in doc.models.values():
        if m.combines_attr_edges:
            present.add("combines/attribute")
        if m.combines_item_edges:
            present.add("combines/statement item")
        if m.mapped_to_edges:
            present.add("is mapped to")
        if m.relates_with_edges:
            present.add("relates with")
        if m.satisfies_edges:
            present.add("satisfies")
        if m.refers_to_entity_edges:
            present.add("refers to particulars")
        if m.refers_to_category_edges:
            present.add("refers to universals")
        if any(n.is_focus for n in m.nfrs.values()):
            present.add("is represented by")
    for vm in doc.view_models.values():
        if vm.views:
            present.add("deals with universals")
        if vm.influences_edges:
            present.add("influences")
        if vm.depends_on_edges:
            present.add("depends on")
    return present


ALL_RELATIONSHIP_KINDS = {
    "belongs to",
    "combines/attribute",
    "combines/statement item",
    "deals with universals",
    "depends on",
    "influences",
    "is represented by",
    "is mapped to",
    "refers to particulars",
    "refers to universals",
    "relates with",
    "satisfies",
}


def node_kinds_present(doc: Document) -> set[str]:
    present = set()
    if doc.categories:
        present.add("category")
    if doc.entities:
        present.add("entity")
    if doc.frs:
        present.add("fr")
    for m in doc.models.values():
        present.add("model")
        present.update(n.kind.value for n in m.nfrs.values())
    for vm in doc.view_models.values():
        present.add("view_model")
        if vm.views:
            present.add("view")
    return present


ALL_NODE_KINDS = {
    "category",
    "entity",
    "fr",
    "model",
    "view_model",
    "attribute",
    "characteristic",
    "statement_item",
    "view",
}


def oracle_reachable(edges: list[tuple[str, str]], origin: str) -> list[str]:
    """Reachability by edge relaxation, ordered by (distance, name).

    Independent of the BFS under test: distances settle by repeated passes
    over the raw edge list.
    """
    dist: dict[str, int] = {}
    for a, b in edges:
        if a == origin:
            dist[b] = 1
    nodes = {x for edge in edges for x in edge}
    for _ in range(len(nodes) + 1):
        for a, b in edges:
            if a in dist and (b not in dist or dist[a] + 1 < dist[b]):
                dist[b] = dist[a] + 1
    return [name for _, name in sorted((d, n) for n, d in dist.items())]


def oracle_leaf_attributes(model: NfrsModelNode, characteristic: str) -> list[str]:
    """Attribute rollup via pair-joining transitive closure of the hierarchy."""
    pairs = set(model.subchar_edges)
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        for p1, c1 in list(closure):
            for p2, c2 in pairs:
                if c1 == p2 and (p1, c2) not in closure:
                    closure.add((p1, c2))
                    changed = True
    descendants = {characteristic} | {c for p, c in closure if p == characteristic}
    return sorted({t for s, t in model.combines_attr_edges if s in descendants})


# What ``mutate_text`` inserts: every token class of the format, the inputs
# that make the lexer fail (a lone quote, bad escapes, stray characters), and
# every line-break spelling, so that line and column bookkeeping is exercised.
_SNIPPETS = ('"', "\\", "\\q", "\\n", "\n", "\r", "\r\n", "#", "# note\n", "-", ">", "<", "->", "<->",
             "{", "}", ":", ".", " ", "\t", "  ", "a", "Z_9", "7", "é", "@", "\x0c", '""', "model")


def mutate_text(rng: random.Random, text: str) -> str:
    """``text`` after one to three seeded edits: insert a snippet, delete a short span, or truncate."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:i] + rng.choice(_SNIPPETS) + text[i:]
        elif edit == 1:
            text = text[:i] + text[i + rng.randint(1, 8):]
        else:
            text = text[:i]
    return text


def lexer_texts(seeds: int = 200) -> list[str]:
    """The ``.nfrs`` fixtures and the serializations of ``random_document`` seeds ``0..seeds-1``."""
    fixtures = sorted((Path(__file__).parent / "fixtures").glob("*.nfrs"))
    return ([p.read_text(encoding="utf-8") for p in fixtures]
            + [serialize(random_document(random.Random(seed))) for seed in range(seeds)])


def mutated_texts(bases: list[str], count: int, first_seed: int = 0) -> list[str]:
    """``count`` seeded mutations; seed ``s`` edits ``bases[s % len(bases)]``."""
    return [mutate_text(random.Random(s), bases[s % len(bases)]) for s in range(first_seed, first_seed + count)]
