"""Golden differential gate: every output of every layer, pinned byte for byte.

``golden_outputs.json`` holds the sha256 of ``serialize``, ``to_json``,
``to_dot``, ``to_turtle`` and the JSON rendering of ``validate`` in both modes
for a fixed document set: the ``.nfrs`` fixtures, 200 seeded random documents,
the same 200 with every edge list reversed and partly dangling, a few
hand-written documents for the node-level rules, the kind spellings in
messages and the category hierarchy, and those with the two ``combines`` lists swapped (a mix-up only a
document built in code can hold). It also holds, in chunks of 100, the
sha256 of what ``parse`` makes of 2,000 seeded mutations of the fixtures and
of the random documents' serializations: every ``ParseError`` (line, column,
expected, found), or the canonical text when the mutation still parses. A
refactor that changes any byte of any output, diagnostic locations included,
fails here.

Regenerate the hashes (only when an output change is intended) from the
repository root with::

    python tests/test_golden.py

Run as a script, the file puts ``src`` on ``sys.path`` first, as
``pyproject.toml`` does for pytest.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import re
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from docgen import lexer_texts, mutated_texts, random_document
from nfrstdo import validator
from nfrstdo.diagnostics import render_json, replace
from nfrstdo.export import to_dot, to_json, to_turtle
from nfrstdo.model import Document
from nfrstdo.textformat import ParseFailure, parse, serialize
from nfrstdo.validator import ValidationMode, validate

HERE = Path(__file__).parent
GOLDEN = HERE / "golden_outputs.json"
SEEDS = range(200)
PARSE_MUTATIONS = 2000
PARSE_CHUNK = 100

OUTPUTS = ("serialize", "json", "dot", "turtle", "validate_model", "validate_instance")

# Node-level rules (R-001, R-004, R-007, R-014, R-015) and every edge-level
# rule once more, this time with source locations attached.
HAND_WRITTEN = {
    "node_rules": """\
category "Top" { }
category "Sub" { parent: "Top" }
entity "Lost" { belongs_to: "Nowhere" }
entity "Kept" { belongs_to: "Top" }
fr "F" { statement: "s" requester: "r" }
model "M" {
  characteristic "Q" { definition: "d" focus: quality }
  characteristic "C" { definition: "d" }
  characteristic "D" { definition: "d" focus: quality }
  attribute "A" { definition: "d" }
  statement_item "S" { declaration: "d" }
  subcharacteristic "A" of "Q"
  subcharacteristic "C" of "Q"
  subcharacteristic "C" of "D"
  subcharacteristic "Q" of "C"
  subcharacteristic "Ghost" of "Q"
  combines "A" -> "A"
  combines "A" -> "S"
  combines "Q" -> "C"
  combines "Q" -> "Ghost"
  maps "A" -> "Q"
  maps "S" -> "S"
  relates "C" <-> "C"
  relates "Ghost" <-> "C"
  satisfies "Q" -> "Nope"
  satisfies "Ghost" -> "F"
  refers_to_entity "Q" -> "Kept"
  refers_to_entity "Q" -> "Ghost"
  refers_to_category "Q" -> "Kept"
  refers_to_category "Q" -> "Top"
}
model "K" {
  characteristic "Cost" { definition: "d" focus: cost }
}
view_model "VM" {
  view "V1" { kind: quality category: "Top" focus: "M" . "Q" }
  view "V2" { kind: quality category: "Sub" focus: "M" . "C" }
  view "V3" { kind: cost category: "Missing" focus: "Nope" . "X" }
  view "V4" { kind: quality category: "Top" focus: "K" . "Cost" }
  view "K1" { kind: cost category: "Top" focus: "K" . "Cost" }
  influences "V1" -> "V2"
  influences "V2" -> "V1"
  influences "V1" -> "K1"
  influences "V1" -> "Ghost"
  influences "V4" -> "V4"
  depends_on "V2" -> "V1"
  depends_on "V1" -> "V4"
  depends_on "K1" -> "V1"
  depends_on "Ghost" -> "Ghost"
}
""",
    "empty_view_model": 'view_model "Empty" { }\n',
    "statement_item_ends": """\
model "M" {
  characteristic "Q" { definition: "d" }
  attribute "A" { definition: "d" }
  statement_item "S" { declaration: "d" }
  subcharacteristic "S" of "Q"
  subcharacteristic "Q" of "S"
  combines "S" -> "A"
  combines "S" -> "S"
  combines "Q" -> "S"
  combines "Q" -> "A"
  maps "S" -> "A"
}
""",
    "category_hierarchy": """\
category "Top" { }
category "Lost" { parent: "Nope" }
category "Self" { parent: "Self" }
category "A" { parent: "B" }
category "B" { parent: "A" }
entity "E" { belongs_to: "A" }
view_model "VM" {
  view "V" { kind: quality category: "Self" focus: "M" . "C" }
}
""",
}


def _mutate_edges(pairs: tuple[tuple[str, str], ...]) -> tuple[tuple[str, str], ...]:
    """Reverse every pair; on every third edge rename one endpoint to a missing name."""
    out = []
    for i, (a, b) in enumerate(pairs):
        a, b = b, a
        if i % 3 == 0:
            if i % 2:
                b += " (missing)"
            else:
                a += " (missing)"
        out.append((a, b))
    return tuple(out)


def _mutate_node(node):
    return replace(node, **{name: _mutate_edges(getattr(node, name)) for name in node._fields
                            if name.endswith("_edges")})


def mutate(doc: Document) -> Document:
    return replace(
        doc,
        models={name: _mutate_node(m) for name, m in doc.models.items()},
        view_models={name: _mutate_node(vm) for name, vm in doc.view_models.items()},
    )


def swap_combines(doc: Document) -> Document:
    return replace(doc, models={name: replace(m, combines_attr_edges=m.combines_item_edges,
                                              combines_item_edges=m.combines_attr_edges)
                                for name, m in doc.models.items()})


def documents() -> list[tuple[str, str, Document]]:
    """(id, path shown in diagnostics, document) for the whole golden set."""
    docs = [(f"fixture:{p.name}", p.name, parse(p.read_text(encoding="utf-8")))
            for p in sorted((HERE / "fixtures").glob("*.nfrs"))]
    randoms = [random_document(random.Random(seed)) for seed in SEEDS]
    docs += [(f"random:{seed}", "doc.nfrs", doc) for seed, doc in zip(SEEDS, randoms)]
    docs += [(f"mutated:{seed}", "doc.nfrs", mutate(doc)) for seed, doc in zip(SEEDS, randoms)]
    hand = [(name, parse(text)) for name, text in HAND_WRITTEN.items()]
    docs += [(f"hand:{name}", f"{name}.nfrs", doc) for name, doc in hand]
    docs += [(f"swapped:{name}", f"{name}.nfrs", swap_combines(doc)) for name, doc in hand]
    return docs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=1)
def run_all() -> tuple[dict[str, list[str]], frozenset[str]]:
    """Hashes per document (in ``OUTPUTS`` order) and every rule code that fired."""
    hashes: dict[str, list[str]] = {}
    fired: set[str] = set()
    for doc_id, path, doc in documents():
        model_diags = validate(doc, ValidationMode.MODEL)
        instance_diags = validate(doc, ValidationMode.INSTANCE)
        fired.update(d.code for d in (*model_diags, *instance_diags))
        rendered = (serialize(doc), to_json(doc), to_dot(doc), to_turtle(doc),
                    render_json(model_diags, path), render_json(instance_diags, path))
        hashes[doc_id] = [_sha(text) for text in rendered]
    return hashes, frozenset(fired)


def parse_outcome(text: str) -> list | str:
    try:
        doc = parse(text)
    except ParseFailure as exc:
        return [[e.location.line, e.location.column, e.expected, e.found] for e in exc.errors]
    return serialize(doc)


def parse_hashes() -> list[str]:
    """One hash per ``PARSE_CHUNK`` mutations over the JSON list of their parse outcomes."""
    texts = mutated_texts(lexer_texts(), PARSE_MUTATIONS)
    return [_sha(json.dumps([parse_outcome(text) for text in texts[i:i + PARSE_CHUNK]]))
            for i in range(0, len(texts), PARSE_CHUNK)]


def test_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["outputs"] == list(OUTPUTS)
    hashes, _ = run_all()
    assert sorted(hashes) == sorted(golden["documents"])
    changed = [f"{doc_id} {output}"
               for doc_id, expected in golden["documents"].items()
               for output, want, got in zip(OUTPUTS, expected, hashes[doc_id]) if want != got]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:10]}"


def test_parse_outcomes_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    hashes = parse_hashes()
    changed = [i * PARSE_CHUNK for i, (want, got) in enumerate(zip(golden["parse"], hashes)) if want != got]
    assert len(hashes) == len(golden["parse"])
    assert not changed, f"parse outcomes changed in the chunks of mutations starting at {changed}"


RULE_CODES = {f"R-{i:03d}" for i in range(1, 19)} | {"R-006b", "R-REF"}


def test_rule_code_catalog_is_complete():
    from nfrstdo.model import EDGE_KINDS  # imported here so that the hashes can be regenerated by older code

    written = set(re.findall(r'"(R-[0-9A-Za-z]+)"', Path(validator.__file__).read_text(encoding="utf-8")))
    assert written | {k.code for k in EDGE_KINDS if k.code} <= RULE_CODES


def test_golden_set_fires_every_rule_code():
    _, fired = run_all()
    assert RULE_CODES <= fired, f"never fired: {sorted(RULE_CODES - fired)}"


if __name__ == "__main__":
    hashes, _ = run_all()
    GOLDEN.write_text(json.dumps({"outputs": list(OUTPUTS), "documents": hashes, "parse": parse_hashes()},
                                 indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} documents x {len(OUTPUTS)} outputs to {GOLDEN}")
