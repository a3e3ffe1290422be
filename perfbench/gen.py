"""Seeded generator of ``.nfrs`` benchmark inputs, with the references they are checked against.

A ``Case`` holds the source text the program receives and everything the
benchmark checks its outputs against, all derived by the generator itself:

* ``text``: non-canonical source with comments, varied whitespace and
  indentation, unsorted blocks and declarations, and the occasional CRLF;
* ``plain``: the document as plain tuples, from which ``to_document`` builds
  the expected ``Document`` directly from the model dataclasses;
* ``expect``: per validation mode, how many diagnostics of each
  ``(code, severity)`` the generator planted;
* ``dot_lines`` and ``turtle_lines``: the line counts the DOT and Turtle
  exports must have, counted from the plain structure.

Planted violations are chosen so that their count is known exactly: forest
hierarchies with parents drawn from earlier characteristics (so the only
sub-characteristic cycles are the planted pairs), and influence graphs whose
edges between clusters of consecutive views only point forward (so the
strongly connected components are exactly the clusters closed by a ring). No
reference ever fails to resolve, so ``nfrsctl export`` always succeeds.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

EDGE_KINDS = (
    "subcharacteristic",  # (child, parent), as authored
    "combines",
    "maps",
    "refers_to_entity",
    "refers_to_category",
    "relates",
    "satisfies",
)

_WORDS = (
    "quality", "cost", "response", "latency", "throughput", "usability", "security", "maintainability",
    "portability", "reliability", "accuracy", "coverage", "availability", "recovery", "efficiency",
    "learnability", "operability", "integrity", "capacity", "interoperability", "evaluation", "entity",
    "measure", "indicator", "requirement", "stakeholder", "context", "release", "pipeline", "cluster",
)
_ODD_WORDS = (
    "café", "Ωmega", "Latência", "数据", "naïve", "Zürich", "🚀", 'quo"te', "back\\slash", "tab\tin",
    "line\nbreak", "cr\rret", "hash#x", "{brace}", "arrow->x", "dot.name", "two  spaces", "colon:x",
)
_COMMENTS = ("generated", "TODO review", "see ISO/IEC 25010", "owner: QA team", "revisión pendiente",
             'note "quoted"', "{not a block}", "-> not an edge")
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def quote(value: str) -> str:
    return '"' + "".join(_ESCAPES.get(ch, ch) for ch in value) + '"'


@dataclass
class Model:
    name: str
    specification: str | None
    nfrs: list[tuple]  # (kind, name, definition, declaration, statement, focus kind or None)
    edges: dict[str, list[tuple[str, str]]]
    focus: tuple[str, str] | None = None  # (characteristic, focus kind)


@dataclass
class ViewModel:
    name: str
    specification: str | None
    views: list[tuple]  # (name, kind, category, (model, characteristic), statement)
    influences: list[tuple[str, str]]
    depends_on: list[tuple[str, str]]


@dataclass
class Plain:
    categories: list[tuple] = field(default_factory=list)  # (name, description, parent)
    entities: list[tuple] = field(default_factory=list)  # (name, category, description)
    frs: list[tuple] = field(default_factory=list)  # (name, statement, requester)
    models: list[Model] = field(default_factory=list)
    view_models: list[ViewModel] = field(default_factory=list)


@dataclass
class Case:
    name: str
    text: str
    size: int  # UTF-8 bytes of text
    plain: Plain
    expect: dict[str, Counter]  # mode -> Counter of (code, severity)
    dot_lines: int
    turtle_lines: int
    queries: list[tuple]


@dataclass(frozen=True)
class Rates:
    """Per-item chances of planting each diagnostic."""

    r001: float = 0.0  # entity in an unknown category (error)
    r009: float = 0.0  # NFR that refers to no entity (instance error, model warning)
    r011: float = 0.0  # per model: an NFR relates with itself (warning)
    r013: float = 0.0  # per model: a two-characteristic sub-characteristic cycle (error)
    r007_missing: float = 0.0  # view focus in no model of the document (instance-only error)
    r007_plain: float = 0.0  # view focus on a characteristic not marked as focus (error)
    r014: float = 0.0  # quality view on a cost focus (error)
    r015: float = 0.0  # view category that has a parent (warning)


class _DocGen:
    def __init__(self, rng: random.Random, rates: Rates, words: tuple[int, int], short_names: bool = False) -> None:
        self.rng = rng
        self.rates = rates
        self.words = words  # length range of free texts, in words
        self.short_names = short_names
        self.serial = 0
        self.plain = Plain()
        self.expect = {"model": Counter(), "instance": Counter()}

    def plant(self, code: str, model_severity: str | None, instance_severity: str) -> None:
        if model_severity is not None:
            self.expect["model"][(code, model_severity)] += 1
        self.expect["instance"][(code, instance_severity)] += 1

    def name(self, prefix: str) -> str:
        self.serial += 1
        if self.short_names:
            return f"{prefix[0]}{self.serial}"
        word = self.rng.choice(_ODD_WORDS) if self.rng.random() < 0.25 else self.rng.choice(_WORDS)
        return f"{prefix} {word} {self.serial}"

    def text(self) -> str:
        rng = self.rng
        words = [rng.choice(_ODD_WORDS) if rng.random() < 0.08 else rng.choice(_WORDS)
                 for _ in range(rng.randint(*self.words))]
        return " ".join(words).capitalize()

    def maybe_text(self, chance: float = 0.5) -> str | None:
        roll = self.rng.random()
        if roll < 0.05:
            return ""
        return self.text() if roll < chance else None

    # --- global nodes -----------------------------------------------------------

    def categories(self, top: int, sub: int) -> None:
        tops = []
        for _ in range(top):
            name = self.name("Category")
            tops.append(name)
            self.plain.categories.append((name, self.maybe_text(0.8), None))
        for _ in range(sub):
            self.plain.categories.append((self.name("Subcategory"), self.maybe_text(0.8),
                                          self.rng.choice(tops)))

    def entities(self, count: int) -> None:
        for _ in range(count):
            category = self.rng.choice(self.plain.categories)[0]
            if self.rng.random() < self.rates.r001:
                category = self.name("Unlisted category")
                self.plant("R-001", "error", "error")
            self.plain.entities.append((self.name("Entity"), category, self.maybe_text()))

    def frs(self, count: int) -> None:
        for _ in range(count):
            self.plain.frs.append((self.name("FR"), self.text(), self.text()))

    # --- models -------------------------------------------------------------------

    def model(self, chars: int, attrs: int, items: int, focus_kind: str | None) -> Model:
        rng, rates = self.rng, self.rates
        char_names = [self.name("Char") for _ in range(max(1, chars))]
        attr_names = [self.name("Attr") for _ in range(attrs)]
        item_names = [self.name("Item") for _ in range(items)]
        edges: dict[str, list[tuple[str, str]]] = {k: [] for k in EDGE_KINDS}

        # a forest: every parent precedes its child, and the first characteristic is the focus root
        for i in range(1, len(char_names)):
            if rng.random() < 0.9:
                edges["subcharacteristic"].append((char_names[i], rng.choice(char_names[max(0, i - 3):i])))
        if rng.random() < rates.r013:
            pair = [self.name("Cyclic char"), self.name("Cyclic char")]
            char_names += pair
            edges["subcharacteristic"] += [(pair[0], pair[1]), (pair[1], pair[0])]
            self.plant("R-013", "error", "error")

        nfrs = []
        for i, name in enumerate(char_names):
            focus = focus_kind if i == 0 else None
            nfrs.append(("characteristic", name, self.text(), None, self.maybe_text(), focus))
        for name in attr_names:
            nfrs.append(("attribute", name, self.text(), None, self.maybe_text(), None))
        for name in item_names:
            nfrs.append(("statement_item", name, None, self.text(), self.maybe_text(), None))

        for attr in attr_names:
            for char in rng.sample(char_names, min(len(char_names), rng.choice((1, 1, 2)))):
                edges["combines"].append((char, attr))
        for item in item_names:
            edges["combines"].append((rng.choice(char_names), item))
            if attr_names:
                for attr in rng.sample(attr_names, min(len(attr_names), rng.choice((1, 2)))):
                    edges["maps"].append((item, attr))
        all_names = [n[1] for n in nfrs]
        for name in all_names:
            if rng.random() < rates.r009:
                self.plant("R-009", "warning", "error")
            else:
                edges["refers_to_entity"].append((name, rng.choice(self.plain.entities)[0]))
        for name in char_names:
            if rng.random() < 0.3:
                edges["refers_to_category"].append((name, rng.choice(self.plain.categories)[0]))
            if self.plain.frs and rng.random() < 0.25:
                edges["satisfies"].append((name, rng.choice(self.plain.frs)[0]))
        relates = {tuple(rng.sample(all_names, 2)) for _ in range(len(all_names) // 5)} if len(all_names) > 1 else set()
        edges["relates"] = sorted(relates)
        if rng.random() < rates.r011:
            edges["relates"].append((rng.choice(all_names),) * 2)
            self.plant("R-011", "warning", "warning")
        for kind in EDGE_KINDS:
            rng.shuffle(edges[kind])

        model = Model(self.name("Model"), self.maybe_text(), nfrs, edges,
                      (char_names[0], focus_kind) if focus_kind else None)
        self.plain.models.append(model)
        return model

    # --- view models --------------------------------------------------------------

    def view_model(self, views: int, degree: int, big: int, big_share: float, gadgets: int, contradictions: int,
                   cost_share: float, statements: float = 0.5) -> ViewModel:
        """``big`` strongly connected clusters hold ``big_share`` of the quality views; ``gadgets`` small cycles."""
        rng, rates = self.rng, self.rates
        focused = [m for m in self.plain.models if m.focus]
        quality_models = [m for m in focused if m.focus[1] == "quality"]
        cost_models = [m for m in focused if m.focus[1] == "cost"]
        top_categories = [c[0] for c in self.plain.categories if c[2] is None]
        sub_categories = [c[0] for c in self.plain.categories if c[2] is not None]

        quality: list[str] = []
        entries = []
        for i in range(views):
            name = self.name("View")
            cost = cost_models and i and rng.random() < cost_share
            model = rng.choice(cost_models if cost else quality_models)
            kind = model.focus[1]
            focus = (model.name, model.focus[0])
            if kind == "cost" and quality_models and rng.random() < rates.r014:
                kind = "quality"
                self.plant("R-014", "error", "error")
            elif rng.random() < rates.r007_missing:
                focus = (self.name("Unauthored model"), self.name("Char"))
                self.plant("R-007", None, "error")
            elif rng.random() < rates.r007_plain:
                plain = [n[1] for n in model.nfrs if n[0] == "characteristic" and n[5] is None]
                if plain:
                    focus = (model.name, rng.choice(plain))
                    self.plant("R-007", "error", "error")
            category = rng.choice(top_categories)
            if sub_categories and rng.random() < rates.r015:
                category = rng.choice(sub_categories)
                self.plant("R-015", "warning", "warning")
            entries.append((name, kind, category, focus, self.maybe_text(statements)))
            if kind == "quality":
                quality.append(name)

        # Quality views in order form consecutive clusters: a few large ones and some small planted
        # cycles (a self-loop, two or three views), each closed by a ring, and acyclic singletons.
        # Edges between clusters only point forward, so the strongly connected components, which
        # are R-016's cycle groups, are exactly the closed clusters.
        n = len(quality)
        sizes = [max(2, int(n * big_share / big)) for _ in range(big)] if big else []
        sizes += [g % 3 + 1 for g in range(gadgets)]
        sizes += [0] * max(0, n - sum(sizes))  # 0 marks an acyclic singleton
        rng.shuffle(sizes)
        cluster_of: list[tuple[int, int]] = []  # (first, last) index of each view's cluster
        influences: set[tuple[str, str]] = set()
        for size in sizes:
            first, span = len(cluster_of), max(size, 1)
            if first + span > n:
                continue
            cluster_of += [(first, first + span - 1)] * span
            if size:
                members = quality[first:first + span]
                influences.update(zip(members, members[1:] + members[:1]))
                self.plant("R-016", "warning", "warning")
        cluster_of += [(i, i) for i in range(len(cluster_of), n)]
        forward = []
        for i in range(n):
            first, last = cluster_of[i]
            for _ in range(degree - (last > first)):
                if last > first and rng.random() < 0.5:
                    j = rng.randint(first, last)
                elif last + 1 < n:
                    j = rng.randint(last + 1, n - 1)
                else:
                    continue
                edge = (quality[i], quality[j])
                if j != i and edge not in influences:
                    influences.add(edge)
                    forward.append(edge)
        depends = {(b, a) for a, b in forward if rng.random() < 0.2}
        for _ in range(contradictions if n > 1 else 0):
            a, b = rng.sample(quality, 2)
            if (b, a) not in influences and (a, b) not in depends:
                depends.add((a, b))
                self.plant("R-006b", "error", "error")
        rng.shuffle(entries)
        vm = ViewModel(self.name("View model"), self.maybe_text(), entries,
                       rng.sample(sorted(influences), len(influences)), rng.sample(sorted(depends), len(depends)))
        self.plain.view_models.append(vm)
        return vm


# --- rendering -------------------------------------------------------------------------


class _Writer:
    """Lays tokens out non-canonically: spacing, indentation, comments, CRLF."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.parts: list[str] = []

    def line(self, depth: int, tokens: list[str]) -> None:
        rng = self.rng
        roll = rng.random()
        if roll < 0.03:
            self.parts.append(rng.choice(("", "  ", "\t")) + "# " + rng.choice(_COMMENTS) + "\n")
        indent = rng.choice(("  ", "  ", "    ", "\t", "")) * depth
        sep = rng.choice((" ", " ", " ", "  ", "\t"))
        body = indent + sep.join(tokens)
        if roll > 0.97:
            body += "  # " + rng.choice(_COMMENTS)
        self.parts.append(body + ("\r\n" if rng.random() < 0.02 else "\n"))

    def blank(self) -> None:
        self.parts.append(self.rng.choice(("", "\n", "\n", "\n\n")))

    def take(self) -> str:
        out = "".join(self.parts)
        self.parts = []
        return out


def _fields(pairs: list[tuple[str, str | None]]) -> list[list[str]]:
    return [[f"{k}:", quote(v)] for k, v in pairs if v is not None]


def _render_block(w: _Writer, head: list[str], body: list[list[str]]) -> None:
    """One ``keyword "name" { ... }`` block, on one line or spread over several."""
    if len(body) <= 3 and w.rng.random() < 0.5:
        w.line(0, head + ["{"] + [t for f in body for t in f] + ["}"])
        return
    w.line(0, head + ["{"])
    for tokens in body:
        w.line(1, tokens)
    w.line(0, ["}"])


def _render_model(w: _Writer, m: Model) -> None:
    rng = w.rng
    w.line(0, ["model", quote(m.name), "{"])
    for tokens in _fields([("specification", m.specification)]):
        w.line(1, tokens)
    for kind, name, definition, declaration, statement, focus in rng.sample(m.nfrs, len(m.nfrs)):
        body = _fields([("definition", definition), ("declaration", declaration), ("statement", statement)])
        if focus:
            body.append(["focus:", focus])
        tokens = [kind, quote(name), "{"] + [t for f in body for t in f] + ["}"]
        if rng.random() < 0.7:
            w.line(1, tokens)
        else:
            w.line(1, tokens[:3])
            for f in body:
                w.line(2, f)
            w.line(1, ["}"])
    edges = [(kind, a, b) for kind in EDGE_KINDS for a, b in m.edges[kind]]
    for kind, a, b in rng.sample(edges, len(edges)):
        arrow = {"subcharacteristic": "of", "relates": "<->"}.get(kind, "->")
        w.line(1, [kind, quote(a), arrow, quote(b)])
    w.line(0, ["}"])


def _render_view_model(w: _Writer, vm: ViewModel) -> None:
    w.line(0, ["view_model", quote(vm.name), "{"])
    for tokens in _fields([("specification", vm.specification)]):
        w.line(1, tokens)
    for name, kind, category, (model, char), statement in vm.views:
        dot = w.rng.choice((".", " . ", "  .\t"))
        body = [["kind:", kind], ["category:", quote(category)], ["focus:", quote(model) + dot + quote(char)]]
        body += _fields([("statement", statement)])
        w.line(1, ["view", quote(name), "{"] + [t for f in body for t in f] + ["}"])
    for kind, edges in (("influences", vm.influences), ("depends_on", vm.depends_on)):
        for a, b in edges:
            w.line(1, [kind, quote(a), "->", quote(b)])
    w.line(0, ["}"])


def render(plain: Plain, rng: random.Random) -> str:
    w = _Writer(rng)
    blocks: list[str] = []
    for name, description, parent in plain.categories:
        _render_block(w, ["category", quote(name)], _fields([("description", description), ("parent", parent)]))
        blocks.append(w.take())
    for name, category, description in plain.entities:
        _render_block(w, ["entity", quote(name)], _fields([("description", description), ("belongs_to", category)]))
        blocks.append(w.take())
    for name, statement, requester in plain.frs:
        _render_block(w, ["fr", quote(name)], _fields([("statement", statement), ("requester", requester)]))
        blocks.append(w.take())
    for m in plain.models:
        _render_model(w, m)
        blocks.append(w.take())
    for vm in plain.view_models:
        _render_view_model(w, vm)
        blocks.append(w.take())
    rng.shuffle(blocks)
    for block in blocks:
        w.blank()
        w.parts.append(block)
    return "# benchmark input\n" + w.take()


# --- reference counts ------------------------------------------------------------------


def _line_counts(p: Plain) -> tuple[int, int]:
    """(DOT lines, Turtle lines) the exporters must produce, counted from the plain structure."""
    nodes = len(p.categories) + len(p.entities) + len(p.frs) + len(p.models) + len(p.view_models)
    edges = sum(1 for c in p.categories if c[2] is not None) + len(p.entities)
    triples = (sum(1 + (c[1] is not None) + (c[2] is not None) for c in p.categories)
               + sum(2 + (e[2] is not None) for e in p.entities) + 3 * len(p.frs))
    for m in p.models:
        n_edges = sum(len(v) for v in m.edges.values())
        nodes += len(m.nfrs)
        edges += n_edges + (m.focus is not None)
        triples += 1 + (m.specification is not None) + n_edges
        triples += sum(1 + sum(x is not None for x in n[2:5]) + 2 * (n[5] is not None) for n in m.nfrs)
    for vm in p.view_models:
        n_edges = len(vm.influences) + len(vm.depends_on)
        nodes += len(vm.views)
        edges += 2 * len(vm.views) + n_edges
        triples += 1 + (vm.specification is not None) + n_edges
        triples += sum(3 + (v[4] is not None) for v in vm.views)
    return nodes + edges + 2, (triples + 2 if triples else 1)


def _queries(p: Plain, rng: random.Random, rounds: int) -> list[tuple]:
    """A seeded mix, one of each query kind per group of five."""
    targets = [(vm.name, v[0]) for vm in p.view_models for v in vm.views if v[1] == "quality"]
    chars = [(m.name, n[1]) for m in p.models for n in m.nfrs if n[0] == "characteristic"]
    out = []
    for _ in range(rounds):
        out.append(("influence_closure",) + rng.choice(targets))
        out.append(("depends_closure",) + rng.choice(targets))
        out.append(("leaf_attributes",) + rng.choice(chars))
        out.append(("mapping_coverage", rng.choice(p.models).name))
        out.append(("trace_satisfies", rng.choice(p.frs)[0]))
    return out


def _finish(name: str, b: _DocGen, rng: random.Random) -> Case:
    text = render(b.plain, rng)
    dot_lines, turtle_lines = _line_counts(b.plain)
    return Case(name, text, len(text.encode("utf-8")), b.plain, b.expect, dot_lines, turtle_lines,
                _queries(b.plain, rng, 16))


# --- workload shapes ---------------------------------------------------------------------

_FIXTURE_RATES = Rates(r001=0.05, r009=0.1, r011=0.2, r013=0.1, r007_missing=0.1, r007_plain=0.05,
                       r014=0.3, r015=0.1)
_CATALOG_RATES = Rates(r001=0.01, r009=0.03, r011=0.1, r013=0.05, r007_missing=0.05, r007_plain=0.05,
                       r014=0.2, r015=0.1)
_NETWORK_RATES = Rates(r009=0.05, r011=0.2, r007_missing=0.01, r007_plain=0.01, r014=0.2, r015=0.02)


def fixture_doc(seed: int, target: int) -> Case:
    """Fixture-sized document: a few models and one small view network, about ``target`` bytes."""
    rng = random.Random(seed)
    b = _DocGen(rng, _FIXTURE_RATES, (2, 5))
    b.categories(2, rng.randint(0, 1))
    b.entities(rng.randint(2, 3))
    b.frs(rng.randint(1, 2))
    b.model(rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 1), "quality")
    while len(render(b.plain, random.Random(0)).encode("utf-8")) + 800 < target:
        b.model(rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 2), rng.choice(("quality", "cost")))
    b.view_model(rng.randint(2, 4), 2, 0, 0.0, 1, 1, 0.2, 0.3)
    return _finish(f"fixture-{seed}", b, rng)


def catalog_doc(seed: int, target: int) -> Case:
    """String-heavy catalog: many models with deep characteristic forests, small view models."""
    rng = random.Random(seed)
    b = _DocGen(rng, _CATALOG_RATES, (6, 24))
    b.categories(6 + target // 100_000, 3 + target // 200_000)
    b.entities(10 + target // 10_000)
    b.frs(5 + target // 20_000)
    size = 0
    while size < target * 0.93:
        focus = "cost" if b.plain.models and rng.random() < 0.15 else "quality"
        model = b.model(rng.randint(6, 14), rng.randint(6, 14), rng.randint(2, 6), focus)
        size += sum(len(n[1]) + sum(len(x or "") for x in n[2:5]) + 40 for n in model.nfrs)
        size += sum(len(a) + len(b_) + 24 for edges in model.edges.values() for a, b_ in edges)
    for _ in range(max(1, len(b.plain.models) // 25)):
        b.view_model(rng.randint(3, 6), 1, 0, 0.0, 1, 1, 0.2)
    return _finish(f"catalog-{seed}-{target}", b, rng)


def network_doc(seed: int, views: int) -> Case:
    """A few small models and one large view model joined by about three influences per view.

    Names are short, so that the text stays modest and the graph, not the lexer, sets the cost.
    """
    rng = random.Random(seed)
    b = _DocGen(rng, _NETWORK_RATES, (2, 6), short_names=True)
    b.categories(4, 2)
    b.entities(8)
    b.frs(4)
    for i in range(6):
        b.model(rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 2), "cost" if i == 5 else "quality")
    b.view_model(views, 3, 1, 0.9, max(3, views // 60), max(2, views // 50), 0.05, 0.15)
    return _finish(f"network-{seed}-{views}", b, rng)


# --- the expected document ------------------------------------------------------------------


def to_document(nm, p: Plain):
    """Build the expected ``Document`` directly from the dataclasses of module ``nm`` (``nfrstdo.model``)."""
    fk = {"quality": nm.FocusKind.QUALITY, "cost": nm.FocusKind.COST}
    nk = {"characteristic": nm.NfrKind.CHARACTERISTIC, "attribute": nm.NfrKind.ATTRIBUTE,
          "statement_item": nm.NfrKind.STATEMENT_ITEM}
    models = {}
    for m in p.models:
        kinds = {n[1]: n[0] for n in m.nfrs}
        combines = m.edges["combines"]
        models[m.name] = nm.NfrsModelNode(
            name=m.name,
            specification=m.specification,
            nfrs={n[1]: nm.NfrNode(kind=nk[n[0]], name=n[1], definition=n[2], declaration=n[3], statement=n[4],
                                   is_focus=n[5] is not None, focus_kind=fk.get(n[5])) for n in m.nfrs},
            subchar_edges=tuple((parent, child) for child, parent in m.edges["subcharacteristic"]),
            combines_attr_edges=tuple(e for e in combines if kinds[e[1]] == "attribute"),
            combines_item_edges=tuple(e for e in combines if kinds[e[1]] == "statement_item"),
            mapped_to_edges=tuple(m.edges["maps"]),
            relates_with_edges=tuple(m.edges["relates"]),
            satisfies_edges=tuple(m.edges["satisfies"]),
            refers_to_entity_edges=tuple(m.edges["refers_to_entity"]),
            refers_to_category_edges=tuple(m.edges["refers_to_category"]),
        )
    view_models = {
        vm.name: nm.NfrsViewModelNode(
            name=vm.name,
            specification=vm.specification,
            views={v[0]: nm.NfrViewNode(name=v[0], kind=fk[v[1]], category=v[2], focus=v[3], statement=v[4])
                   for v in vm.views},
            influences_edges=tuple(vm.influences),
            depends_on_edges=tuple(vm.depends_on),
        )
        for vm in p.view_models
    }
    return nm.Document(
        categories={c[0]: nm.CategoryNode(name=c[0], description=c[1], parent=c[2]) for c in p.categories},
        entities={e[0]: nm.EntityNode(name=e[0], category=e[1], description=e[2]) for e in p.entities},
        frs={f[0]: nm.FunctionalRequirementNode(name=f[0], statement=f[1], requester=f[2]) for f in p.frs},
        models=models,
        view_models=view_models,
    )
