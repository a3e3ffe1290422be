"""The summary step of ``tools/bench_pairs.py``, on canned perfbench result lines; no benchmark runs here."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "build_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pipeline_mb_per_s", "unit": "MB/s", "better": "higher", "bound": 0.25},
    {"name": "query_p75_us", "unit": "us", "better": "lower", "bound": 0.25},
]


def _line(build: float, pipeline: float, failed: int = 0) -> str:
    result = {"correct": failed == 0, "attempted": 1000, "failed": failed,
              "metrics": {"build_s": {"value": build, "unit": "s"},
                          "pipeline_mb_per_s": {"value": pipeline, "unit": "MB/s"}}}
    return f"build_s    {build}  s  p75\nfailed_ops  0  ratio\n{json.dumps(result)}\n"


def test_result_of_reads_the_last_line():
    assert bench_pairs.result_of(_line(0.016, 2.5))["metrics"]["build_s"]["value"] == 0.016
    with pytest.raises(ValueError):
        bench_pairs.result_of("\n")


def test_quartiles_inclusive_and_single_value():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_of_canned_pairs():
    parent = [_line(b, p) for b, p in ((0.016, 2.0), (0.014, 2.4), (0.018, 2.2), (0.015, 2.6), (0.017, 2.8))]
    change = [_line(*run) for run in ((0.012, 2.1), (0.0135, 2.3), (0.0155, 2.9), (0.011, 2.6, 2), (0.012, 2.7))]
    pairs = [(bench_pairs.result_of(p), bench_pairs.result_of(c)) for p, c in zip(parent, change)]
    lines = bench_pairs.summarize(pairs, METRICS)
    assert lines[0].split() == ["metric", "parent", "median", "[q1,", "q3]", "change", "change", "%", "won", "beyond"]
    # build_s: parent median 0.016 [0.015, 0.017]; change median 0.012, -25%; every pair won; 4 below q1 (not 0.0155)
    assert lines[1].split() == ["build_s", "0.016", "[0.015,", "0.017]", "0.012", "-25.0%", "5/5", "4/5"]
    # pipeline: parent median 2.4 [2.2, 2.6]; change median 2.6, +8.3%; 2 pairs won; 2 above q3
    assert lines[2].split() == ["pipeline_mb_per_s", "2.4", "[2.2,", "2.6]", "2.6", "+8.3%", "2/5", "2/5"]
    assert lines[3].split() == ["query_p75_us", "missing"]
    assert lines[4] == "failed_ops parent: 0 of 5000 operations; 5/5 runs correct"
    assert lines[5] == "failed_ops change: 2 of 5000 operations; 4/5 runs correct"


PER_LAYER = [
    {"name": "textformat.parse_s", "unit": "s", "better": "lower"},
    {"name": "validator.validate_instance_s", "unit": "s", "better": "lower"},
    {"name": "validator.validate_instance_calls", "unit": "count", "better": "higher"},
]


def _traced_line(parse: float, validate: float, calls: int) -> str:
    """A ``--trace 1`` run's output: its per-layer rows, the failed_ops row, the split report and the result."""
    result = {"correct": True, "attempted": 24, "failed": 0,
              "metrics": {"textformat.parse_s": {"value": parse, "unit": "s"},
                          "validator.validate_instance_s": {"value": validate, "unit": "s"},
                          "validator.validate_instance_calls": {"value": calls, "unit": "count"}}}
    return (f"textformat.parse_s  {parse}  s  median, n={calls}\nfailed_ops  0  ratio\n"
            f"view-network: parse leads\n{json.dumps(result)}\n")


def test_traced_runs_pass_trace_1():
    args = bench_pairs.run_args(["python3", "perfbench/run.py"], "view-network", 7, 30, True)
    assert args[-2:] == ["--trace", "1"]
    assert bench_pairs.run_args(["python3", "perfbench/run.py"], "view-network", 7, 30, False)[-2:] == ["--trace", "0"]


def test_summary_of_canned_traced_pairs():
    parent = [_traced_line(p, v, 9) for p, v in ((0.030, 0.0080), (0.028, 0.0079), (0.032, 0.0084), (0.029, 0.0081))]
    change = [_traced_line(p, v, 9) for p, v in ((0.026, 0.0042), (0.027, 0.0040), (0.025, 0.0039), (0.030, 0.0041))]
    pairs = [(bench_pairs.result_of(p), bench_pairs.result_of(c)) for p, c in zip(parent, change)]
    lines = bench_pairs.summarize(pairs, PER_LAYER)
    # the name column widens to the longest name, so every row still splits into its fields
    assert lines[0].index("parent") == len("validator.validate_instance_calls") + 1
    # parse: parent median 0.0295 [0.02875, 0.0305]; change median 0.0265, -10.2%; 3 pairs won; 3 below q1
    assert lines[1].split() == ["textformat.parse_s", "0.0295", "[0.02875,", "0.0305]", "0.0265", "-10.2%", "3/4",
                                "3/4"]
    # validate: parent median 0.00805 [0.007975, 0.008175]; change median 0.00405, -49.7%; all won and below q1
    assert lines[2].split() == ["validator.validate_instance_s", "0.00805", "[0.007975,", "0.008175]", "0.00405",
                                "-49.7%", "4/4", "4/4"]
    # a count that does not change wins no pair
    assert lines[3].split() == ["validator.validate_instance_calls", "9", "[9,", "9]", "9", "+0.0%", "0/4", "0/4"]
    assert lines[4] == "failed_ops parent: 0 of 96 operations; 4/4 runs correct"
