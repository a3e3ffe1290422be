"""Timing-free linearity gate: no layer makes more calls per unit of input on a large document than on a small one.

Timers on a shared machine swing by 1.5-2x, so a timed slope cannot be a
test; counts of calls are exact. Under ``sys.setprofile`` each layer counts
its Python calls (``call``) and its calls into C (``c_call``) on documents of
``perfbench/gen.py``, loaded read-only, at two sizes of each generator. For
every layer, calls(large) / calls(small) must stay within ``MARGIN`` times
the ratio of the documents' sizes: their bytes, or for the closure queries,
which read the view graph alone, its views and edges. The closure queries run
on the network alone, since a catalog's few small view models do not grow
with it. A Python-level rescan per item makes the count grow with the square
of the size and fails it.

The limit: a call into C counts once, whatever its size, and neither a call
of a type (``tuple(pair)``) nor the items of a list comprehension count at
all. So a copy of a whole collection per item (``{**collection}``) does not
show, nor the n log n of ``sorted``, nor a rescan per item written as a
comprehension over plain values. A rescan through a generator (``any(...)``),
or one that calls a Python function per item, does: planted in the
serializer's edge lines or in the validator's view-edge loop, it fails here.
"""

from __future__ import annotations

import functools
import sys

import pytest

from nfrstdo.export import to_dot, to_json, to_turtle
from nfrstdo.queries import depends_closure, influence_closure
from nfrstdo.textformat import parse, serialize
from nfrstdo.validator import ValidationMode, validate
from test_validator import perfbench_gen  # perfbench/gen.py, loaded read-only

MARGIN = 1.25  # the largest measured: the network's validation, at 1.11 times its byte ratio

SIZES = {  # generator: (small, large)
    "network": (functools.partial(perfbench_gen.network_doc, 7, 100),
                functools.partial(perfbench_gen.network_doc, 7, 400)),
    "catalog": (functools.partial(perfbench_gen.catalog_doc, 7, 50_000),
                functools.partial(perfbench_gen.catalog_doc, 7, 200_000)),
}


def _graph_size(case) -> int:
    return sum(len(vm.views) + len(vm.influences) + len(vm.depends_on) for vm in case.plain.view_models)


def _closures(case, doc):
    """Every closure query of the case, on a document parsed apart, so that its closure indexes are built here."""
    closures = {"influence_closure": influence_closure, "depends_closure": depends_closure}
    for name, *args in case.queries:
        if name in closures:
            closures[name](doc, *args)


LAYERS = {  # name: run(case, doc), with doc parsed from case.text before counting starts
    "parse": lambda case, doc: parse(case.text),
    "validate_model": lambda case, doc: validate(doc, ValidationMode.MODEL),
    "validate_instance": lambda case, doc: validate(doc, ValidationMode.INSTANCE),
    "serialize": lambda case, doc: serialize(doc),
    "json": lambda case, doc: to_json(doc),
    "dot": lambda case, doc: to_dot(doc),
    "turtle": lambda case, doc: to_turtle(doc),
    "closures": _closures,
}


@functools.cache
def _case(generator: str, size: int):
    return SIZES[generator][size]()


def calls(run) -> int:
    """Python calls and calls into C made by ``run()``."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


def test_calls_counts_python_and_c_calls():
    def two():
        len(())
        return abs(-1)

    assert calls(two) - calls(lambda: None) == 2  # len and abs


@pytest.mark.parametrize(("generator", "layer"), [(generator, layer) for generator in sorted(SIZES)
                                                   for layer in sorted(LAYERS)
                                                   if layer != "closures" or generator == "network"])
def test_calls_grow_no_faster_than_the_input(generator, layer):
    small, large = _case(generator, 0), _case(generator, 1)
    run = LAYERS[layer]
    run(small, parse(small.text))  # one-time work, such as a pattern compile, falls outside the counts
    counts = [calls(functools.partial(run, case, parse(case.text))) for case in (small, large)]
    size = _graph_size if layer == "closures" else lambda case: case.size
    size_ratio = size(large) / size(small)
    assert counts[1] / counts[0] <= MARGIN * size_ratio, (counts, size_ratio)
