"""``tools/bench_pairs.py`` on canned perfbench result lines and canned child commands; no benchmark runs here."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
import time
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
    assert lines[0].split() == ["metric", "parent", "median", "[q1,", "q3]", "change", "change", "%", "won", "beyond",
                                "gain", "bound"]
    # build_s: parent median 0.016 [0.015, 0.017]; change median 0.012, -25%; every pair won; 4 below q1 (not
    # 0.0155); a gain, since the medians lie 0.004 apart, more than the parent's IQR of 0.002
    assert lines[1].split() == ["build_s", "0.016", "[0.015,", "0.017]", "0.012", "-25.0%", "5/5", "4/5", "yes", "25%",
                                "ok"]
    # pipeline: parent median 2.4 [2.2, 2.6]; change median 2.6, +8.3%; 2 pairs won; 2 above q3; no gain
    assert lines[2].split() == ["pipeline_mb_per_s", "2.4", "[2.2,", "2.6]", "2.6", "+8.3%", "2/5", "2/5", "no", "25%",
                                "ok"]
    assert lines[3].split() == ["query_p75_us", "missing"]
    assert lines[4] == "failed_ops parent: 0 of 5000 operations; 5/5 runs correct"
    assert lines[5] == "failed_ops change: 2 of 5000 operations; 4/5 runs correct"


def test_summary_marks_a_median_worse_than_its_bound():
    metrics = [*METRICS[:2], {"name": "cli_peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]

    def result(build: float, pipeline: float, rss: float) -> dict:
        line = json.loads(_line(build, pipeline).splitlines()[-1])
        line["metrics"]["cli_peak_rss_mb"] = {"value": rss, "unit": "MB"}
        return line

    # build_s 0.0126 is 26% over the parent's 0.01; pipeline 1.5 is 25% under its 2.0, the bound itself;
    # rss 22.2 is 11% over the parent's 20.0, beyond that metric's 10%
    pairs = [(result(0.01, 2.0, 20.0), result(0.0126, 1.5, 22.2))] * 3
    lines = bench_pairs.summarize(pairs, metrics)
    assert [line.split()[-2:] for line in lines[1:4]] == [["25%", "WORSE"], ["25%", "ok"], ["10%", "WORSE"]]
    # a metric without a bound, as the per-layer ones are, has no bound column
    assert bench_pairs.summarize(pairs, [{"name": "build_s", "better": "lower"}])[1].split()[-2:] == ["0/3", "no"]



def _ten_pairs(parent: list[float], change: list[float]) -> list[tuple[dict, dict]]:
    return [(bench_pairs.result_of(_line(0.01, p)), bench_pairs.result_of(_line(0.01, c)))
            for p, c in zip(parent, change)]


def test_gain_needs_nine_of_ten_pairs_won_and_medians_beyond_the_parent_iqr():
    parent = [2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9]  # median 2.45, IQR 2.225 to 2.675, 0.45 wide
    metric = [METRICS[1]]

    def gain(change: list[float]) -> tuple[int, bool]:
        row = bench_pairs.compare(_ten_pairs(parent, change), metric)[0]
        return row["won"], row["gain"]

    # 9 of 10 won (the last pair ties), median 3.35, 0.9 above the parent's: a gain
    assert gain([p + 1.0 for p in parent[:9]] + [2.9]) == (9, True)
    # 8 of 10 won, two ties, which count for neither side: no gain, however large
    assert gain([p + 1.0 for p in parent[:8]] + parent[8:]) == (8, False)
    # every pair won, by 0.4 each: the medians lie 0.4 apart, within the parent's IQR of 0.45
    assert gain([p + 0.4 for p in parent]) == (10, False)
    # a lower-is-better metric gains downwards
    row = bench_pairs.compare([(bench_pairs.result_of(_line(b, 2.0)), bench_pairs.result_of(_line(b / 2, 2.0)))
                               for b in (0.010, 0.011, 0.012, 0.013)], [METRICS[0]])[0]
    assert (row["won"], row["gain"]) == (4, True)


def test_verdict_is_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # build_s, lower is better: parent median 0.19, IQR 0.145 to 0.235, 47% of the median against a 25% bound
    parent = [0.10, 0.12, 0.14, 0.16, 0.18, 0.20, 0.22, 0.24, 0.26, 0.28]

    def verdict(change: list[float], metric: dict = METRICS[0]) -> str:
        pairs = [(bench_pairs.result_of(_line(p, 2.0)), bench_pairs.result_of(_line(c, 2.0)))
                 for p, c in zip(parent, change)]
        return bench_pairs.compare(pairs, [metric])[0]["verdict"]

    # 10% worse, within the bound, but the parent's own runs cannot tell that from no change
    assert verdict([p * 1.1 for p in parent]) == "unresolved"
    # so is 10% better, while some change run is no better than some parent run
    assert verdict([p * 0.9 for p in parent]) == "unresolved"
    # every change run better than every parent run
    assert verdict([p / 10 for p in parent]) == "ok"
    # worse than the bound stays WORSE
    assert verdict([p * 1.3 for p in parent]) == "WORSE"
    # the same runs against a 50% bound, wider than the parent's spread
    assert verdict([p * 1.1 for p in parent], {**METRICS[0], "bound": 0.5}) == "ok"
    # a higher-is-better metric, pipeline_mb_per_s, reads the same way
    pairs = [(bench_pairs.result_of(_line(0.01, p)), bench_pairs.result_of(_line(0.01, c)))
             for p, c in zip(parent, [p * 1.1 for p in parent])]
    lines = bench_pairs.summarize(pairs, [METRICS[1]])
    assert lines[1].split()[-2:] == ["25%", "unresolved"]
    summary = json.loads(json.dumps(bench_pairs.record(pairs, [METRICS[1]], {"parent": "a", "change": "b"},
                                                       "small-docs", 1, 30, False)))
    assert summary["metrics"][0]["verdict"] == "unresolved"
    clear = [(bench_pairs.result_of(_line(0.01, p)), bench_pairs.result_of(_line(0.01, p + 1.0))) for p in parent]
    assert bench_pairs.compare(clear, [METRICS[1]])[0]["verdict"] == "ok"


def test_record_holds_what_the_summary_prints(tmp_path):
    parent = [_line(b, p) for b, p in ((0.016, 2.0), (0.014, 2.4), (0.018, 2.2), (0.015, 2.6), (0.017, 2.8))]
    change = [_line(*run) for run in ((0.012, 2.1), (0.0135, 2.3), (0.0155, 2.9), (0.011, 2.6, 2), (0.012, 2.7))]
    pairs = [(bench_pairs.result_of(p), bench_pairs.result_of(c)) for p, c in zip(parent, change)]
    summary = bench_pairs.record(pairs, METRICS, {"parent": "aaa1111", "change": "bbb2222"}, "nfr-catalog", 7, 30,
                                 False)
    summary = json.loads(json.dumps(summary))  # as --record writes it
    assert {k: summary[k] for k in ("parent", "change", "workload", "seeds", "pairs", "seconds", "trace")} == {
        "parent": "aaa1111", "change": "bbb2222", "workload": "nfr-catalog", "seeds": [7, 8, 9, 10, 11], "pairs": 5,
        "seconds": 30, "trace": False}
    build, pipeline, query = summary["metrics"]
    assert build == {"name": "build_s", "better": "lower", "runs": [[0.016, 0.012], [0.014, 0.0135],
                                                                    [0.018, 0.0155], [0.015, 0.011], [0.017, 0.012]],
                     "parent_q1": 0.015, "parent_median": 0.016, "parent_q3": 0.017, "change_median": 0.012,
                     "change_percent": pytest.approx(-25.0), "won": 5, "beyond": 4, "gain": True, "bound": 0.25,
                     "verdict": "ok"}
    assert (pipeline["won"], pipeline["beyond"], pipeline["gain"], pipeline["verdict"]) == (2, 2, False, "ok")
    assert query == {"name": "query_p75_us", "missing": True}
    assert summary["paired"] == json.loads(json.dumps(bench_pairs.paired(pairs, METRICS)))
    assert summary["failed_ops"] == {"parent": {"failed": 0, "attempted": 5000, "correct_runs": 5, "runs": 5},
                                     "change": {"failed": 2, "attempted": 5000, "correct_runs": 4, "runs": 5}}

def test_paired_statistic_and_sign_test_interval_on_canned_pairs():
    parent = [0.010 + 0.001 * i for i in range(10)]
    ratios = [0.79 - 0.01 * i for i in range(10)]  # change / parent of each pair, 0.70 to 0.79
    pairs = [(bench_pairs.result_of(_line(p, 2.0)), bench_pairs.result_of(_line(p * r, 2.0)))
             for p, r in zip(parent, ratios)]
    build, pipeline, query = bench_pairs.paired(pairs, METRICS)
    # the median of the ten log ratios lies between the 5th and 6th, 0.74 and 0.75; for ten pairs the sign test
    # takes the 2nd and 9th ordered ratios, which cover 1 - 2 (1 + 10) / 1024 of the distribution
    assert build == {"name": "build_s", "pairs": 10,
                     "median_log_ratio": pytest.approx((math.log(0.74) + math.log(0.75)) / 2),
                     "low_log_ratio": pytest.approx(math.log(0.71)), "high_log_ratio": pytest.approx(math.log(0.78)),
                     "coverage": pytest.approx(1 - 22 / 1024)}
    assert (pipeline["median_log_ratio"], pipeline["low_log_ratio"], pipeline["high_log_ratio"]) == (0, 0, 0)
    assert query == {"name": "query_p75_us", "missing": True}
    lines = bench_pairs.summarize(pairs, METRICS)
    assert lines[6].split()[:2] == ["paired", "median"]
    assert lines[7].split() == ["build_s", "-25.5%", "[-29.0%,", "-22.0%]", "97.9%", "10"]
    assert lines[8].split() == ["pipeline_mb_per_s", "+0.0%", "[+0.0%,", "+0.0%]", "97.9%", "10"]
    assert lines[9].split() == ["query_p75_us", "n/a"]


def test_sign_interval_takes_the_widest_k_that_keeps_the_coverage():
    # five pairs: no k reaches 95%, so the extremes, with 1 - 2 / 32
    assert bench_pairs.sign_interval([3.0, 1.0, 2.0, 5.0, 4.0]) == (1.0, 5.0, pytest.approx(1 - 2 / 32))
    # twenty pairs: k = 6 covers 1 - 2 * 21700 / 2**20, about 95.9%, and k = 7 only about 88.5%
    low, high, coverage = bench_pairs.sign_interval([float(v) for v in range(20, 0, -1)])
    assert (low, high, coverage) == (6.0, 15.0, pytest.approx(1 - 2 * 21700 / 2 ** 20))
    assert bench_pairs.sign_interval([0.5]) == (0.5, 0.5, 0.0)


def test_the_seed_places_the_revisions_in_neutral_trees():
    workloads = ("small-docs", "nfr-catalog", "view-network")
    for workload in workloads:
        layouts = [bench_pairs.layout(seed, workload) for seed in range(1, 21)]
        assert layouts == [bench_pairs.layout(seed, workload) for seed in range(1, 21)]
        assert all(sorted((lay["parent"], lay["change"])) == ["a", "b"] for lay in layouts)
        assert {lay["parent"] for lay in layouts} == {"a", "b"}
        assert {lay["first"] for lay in layouts} == {"parent", "change"}
    # the workload name takes part in the draw: one seed does not give every workload one arrangement
    assert len({tuple(sorted(bench_pairs.layout(1, workload).items())) for workload in workloads}) > 1
    summary = bench_pairs.record([], METRICS, {"parent": "a1", "change": "b2"}, "small-docs", 5, 30, False,
                                 bench_pairs.layout(5, "small-docs"))
    assert summary["slots"] == bench_pairs.layout(5, "small-docs")


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
                                "3/4", "no"]
    # validate: parent median 0.00805 [0.007975, 0.008175]; change median 0.00405, -49.7%; all won and below q1
    assert lines[2].split() == ["validator.validate_instance_s", "0.00805", "[0.007975,", "0.008175]", "0.00405",
                                "-49.7%", "4/4", "4/4", "yes"]
    # a count that does not change wins no pair
    assert lines[3].split() == ["validator.validate_instance_calls", "9", "[9,", "9]", "9", "+0.0%", "0/4", "0/4",
                                "no"]
    assert lines[4] == "failed_ops parent: 0 of 96 operations; 4/4 runs correct"


def test_a_run_without_a_result_line_names_the_command_and_its_output(tmp_path):
    command = [sys.executable, "-c", "import sys; print('not json'); print('warned', file=sys.stderr)"]
    with pytest.raises(SystemExit) as raised:
        bench_pairs.run_once(command, tmp_path, "small-docs", 3, 1, False)
    message = str(raised.value)
    assert message.startswith(f"bench_pairs: {' '.join(command)} --workload small-docs --seed 3")
    assert f"in {tmp_path} printed no result" in message
    assert "not json" in message and "warned" in message


# The canned benchmark of the SIGTERM test: it starts a grandchild, as perfbench starts nfrsctl, writes both
# process ids to the file named by BENCH_PIDS, and sleeps.
SLEEPER = ("import os, subprocess, sys, time; "
           "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(120)']); "
           "open(os.environ['BENCH_PIDS'], 'w').write(f'{os.getpid()} {child.pid}'); time.sleep(120)")


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie waiting to be reaped is not)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


def test_sigterm_ends_the_run_with_its_processes_and_removes_the_trees(tmp_path):
    repo, tmp, pids = tmp_path / "repo", tmp_path / "tmp", tmp_path / "pids"
    (repo / "tools").mkdir(parents=True)
    tmp.mkdir()
    (repo / "tools" / "bench_pairs.py").write_bytes(_PATH.read_bytes())
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "-c", SLEEPER], "run_seconds": 1,
        "workloads": [{"name": "sleep"}], "end_to_end": [], "per_layer": []}))
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "canned"]):
        subprocess.run([*git, *args], check=True, capture_output=True)

    env = {**os.environ, "TMPDIR": str(tmp), "BENCH_PIDS": str(pids)}
    runner = subprocess.Popen([sys.executable, str(repo / "tools" / "bench_pairs.py"), "HEAD", "HEAD",
                               "--workload", "sleep", "--pairs", "1"], env=env, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not (pids.exists() and len(pids.read_text().split()) == 2):
            assert runner.poll() is None and time.monotonic() < deadline, "the canned run never started"
            time.sleep(0.05)
        started = [int(pid) for pid in pids.read_text().split()]
        assert [p.name for p in tmp.iterdir()][0].startswith("bench_pairs-")
        runner.send_signal(signal.SIGTERM)
        _, stderr = runner.communicate(timeout=60)
    finally:
        if runner.poll() is None:
            runner.kill()
            runner.wait()
    assert runner.returncode == 1 and "stopped by signal 15" in stderr
    assert list(tmp.iterdir()) == []
    deadline = time.monotonic() + 10
    while any(_running(pid) for pid in started) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_running(pid) for pid in started)
