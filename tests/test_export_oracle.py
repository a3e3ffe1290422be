"""Differential test: ``export.to_dot`` and ``export.to_turtle`` against the exporters kept in ``export_oracle``.

The corpus is the ``.nfrs`` fixtures, 200 ``random_document`` serializations
and 2,000 seeded mutations of those texts, with seeds that neither the golden
nor the parser test uses. Every text that parses must give byte-equal DOT and
Turtle from both. The mutations that still parse hold what generated
documents do not: dangling references, odd names, edges between the wrong
kinds.
"""

from __future__ import annotations

import functools

import export_oracle
from docgen import lexer_texts, mutated_texts
from nfrstdo.export import to_dot, to_turtle
from nfrstdo.model import Document
from nfrstdo.textformat import parse

MUTATIONS = 2000
FIRST_SEED = 20_000


@functools.lru_cache(maxsize=1)
def corpus() -> tuple[tuple[str, Document | Exception], ...]:
    """Each text with the document it parses to, or the exception ``parse`` raised."""
    bases = lexer_texts()
    outcomes = []
    for text in (*bases, *mutated_texts(bases, MUTATIONS, FIRST_SEED)):
        try:
            outcomes.append((text, parse(text)))
        except Exception as exc:  # noqa: BLE001 - test_fuzz.py asserts which exceptions occur
            outcomes.append((text, exc))
    return tuple(outcomes)


def documents() -> list[Document]:
    return [outcome for _, outcome in corpus() if isinstance(outcome, Document)]


def test_dot_and_turtle_match_oracle():
    docs = documents()
    assert len(docs) > 400  # the 204 base texts and the mutations that still parse
    mismatched = [doc for doc in docs
                  if to_dot(doc) != export_oracle.to_dot(doc) or to_turtle(doc) != export_oracle.to_turtle(doc)]
    assert not mismatched, f"{len(mismatched)} of {len(docs)} differ, first: {mismatched[0]!r}"
