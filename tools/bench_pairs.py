"""Compare two revisions on one perfbench workload, in alternating pairs of runs.

Run from the root of a checkout::

    python3 tools/bench_pairs.py PARENT CHANGE --workload nfr-catalog --pairs 10 [--trace] [--record FILE]

Each revision is unpacked with ``git archive`` into its own temporary
directory, named ``a`` or ``b`` whichever it holds, and ``perfbench/run.py
--trace 0`` runs there, as the command in ``BENCHMARK.json`` names it, for the
``run_seconds`` it sets. Pair ``i`` runs both sides on seed ``--seed + i``; the
side that runs first alternates from pair to pair. ``--seed`` and the workload
name together decide which revision goes in tree ``a`` and which side runs
first in the first pair, so that one ``--seed`` gives the workloads different
arrangements.
Each run's result line is printed as it ends. The summary then gives, for each
end-to-end metric of ``BENCHMARK.json``: the parent's median and quartiles, the
change's median, the change in percent, the pairs the change won, and how many
of the change's runs lie beyond the parent's better quartile (below the first
for a lower-is-better metric, above the third otherwise), and, for a metric
with a ``bound``, that bound and a verdict, the bound read as a fraction of the
parent's median: ``WORSE`` when the change's median is worse than the parent's
by more than the bound; otherwise ``unresolved`` when the parent's own
interquartile range is wider than the bound, so that its runs cannot tell a
change within the bound from none, and not every run of the change is better
than every run of the parent; otherwise ``ok``. Then each side's failed
operations. The ``gain`` column reads ``yes`` when the change won at least 9 of
10 pairs (ties count for neither) and its median is better than the parent's by
more than the parent's interquartile range (q3 - q1), the rule for claiming a
gain; otherwise ``no``. A second table gives the paired statistic of each
metric: the median over the pairs of log(change / parent), printed as a
percent, with a distribution-free sign-test interval, the k-th smallest and
k-th largest ratio for the largest k whose coverage is still 95%, and that
coverage (for 10 pairs the 2nd and 9th ratios, about 98%). ``--record FILE``
also writes the summary to FILE as JSON: both revisions, the workload, the
seeds, the number of pairs, ``--trace``, ``slots`` (the tree of each revision
and the side that ran first), one row per metric with its pair-by-pair values,
the paired statistic of each metric, and the failed operations of each side.
With ``--trace`` the runs are ``--trace 1`` runs, and the summary covers the
``per_layer`` metrics of ``BENCHMARK.json`` instead, such as
``textformat.parse_s``. Nothing is fetched and no ``perfbench/`` file is
written. On SIGTERM or Ctrl-C the running benchmark, with every process it
started, is killed and the temporary directory is removed.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def result_of(stdout: str) -> dict:
    """The result object a perfbench run prints as the last line of its standard output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method; one value is all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric declaration over (parent result, change result) pairs; a metric no pair has reads
    ``{"name": ..., "missing": True}``.

    A row holds the parent's quartiles, the change's median and percent, the
    pairs the change won (ties count for neither), its runs beyond the
    parent's better quartile, the bound and its verdict (``WORSE``,
    ``unresolved`` or ``ok``) for a metric with a ``bound``, and ``gain``:
    whether the change won at least 9 of 10 pairs and its median is better
    than the parent's by more than the parent's interquartile range.
    """
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        runs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
                if name in p["metrics"] and name in c["metrics"]]
        if not runs:
            rows.append({"name": name, "missing": True})
            continue
        q1, parent, q3 = quartiles([p for p, _ in runs])
        change = statistics.median(c for _, c in runs)
        won = sum(c < p if lower else c > p for p, c in runs)
        row = {"name": name, "better": metric["better"], "runs": runs, "parent_q1": q1, "parent_median": parent,
               "parent_q3": q3, "change_median": change,
               "change_percent": 100 * (change - parent) / parent if parent else None, "won": won,
               "beyond": sum(c < q1 if lower else c > q3 for _, c in runs),
               "gain": 10 * won >= 9 * len(runs) and (parent - change if lower else change - parent) > q3 - q1}
        if "bound" in metric:
            bound = row["bound"] = metric["bound"]
            worse = change > parent * (1 + bound) if lower else change < parent * (1 - bound)
            parents, changes = [p for p, _ in runs], [c for _, c in runs]
            clear = max(changes) < min(parents) if lower else min(changes) > max(parents)
            unresolved = q3 - q1 > bound * abs(parent) and not clear
            row["verdict"] = "WORSE" if worse else "unresolved" if unresolved else "ok"
        rows.append(row)
    return rows


def sign_interval(ratios: list[float], level: float = 0.95) -> tuple[float, float, float]:
    """(low, high, coverage): the k-th smallest and k-th largest of ``ratios`` for the largest k whose sign-test
    coverage, 1 - 2 P(Binomial(n, 1/2) < k), is at least ``level``, and that coverage (k = 1 when none is)."""
    n, ordered = len(ratios), sorted(ratios)

    def coverage(k: int) -> float:
        return 1 - 2 * sum(math.comb(n, i) for i in range(k)) / 2 ** n

    k = 1
    while 2 * (k + 1) <= n and coverage(k + 1) >= level:
        k += 1
    return ordered[k - 1], ordered[n - k], coverage(k)


def paired(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric: the median of the per-pair log(change / parent), over the pairs where both values are
    positive, with its ``sign_interval``; a metric with no such pair reads ``{"name": ..., "missing": True}``."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        ratios = [math.log(c["metrics"][name]["value"] / p["metrics"][name]["value"]) for p, c in pairs
                  if name in p["metrics"] and name in c["metrics"]
                  and p["metrics"][name]["value"] > 0 and c["metrics"][name]["value"] > 0]
        if not ratios:
            rows.append({"name": name, "missing": True})
            continue
        low, high, coverage = sign_interval(ratios)
        rows.append({"name": name, "pairs": len(ratios), "median_log_ratio": statistics.median(ratios),
                     "low_log_ratio": low, "high_log_ratio": high, "coverage": coverage})
    return rows


def failures(pairs: list[tuple[dict, dict]]) -> dict:
    """Each side's failed and attempted operations and its correct runs."""
    return {side: {"failed": sum(pair[index]["failed"] for pair in pairs),
                   "attempted": sum(pair[index]["attempted"] for pair in pairs),
                   "correct_runs": sum(bool(pair[index]["correct"]) for pair in pairs), "runs": len(pairs)}
            for side, index in (("parent", 0), ("change", 1))}


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """Summary lines for (parent result, change result) pairs over the given metric declarations."""
    width = max(28, *(len(metric["name"]) for metric in metrics))
    lines = [f"{'metric':{width}} {'parent median [q1, q3]':40} {'change':>10} {'change %':>9} {'won':>7} "
             f"{'beyond':>7} {'gain':>4}" + (f" {'bound':>14}" if any("bound" in metric for metric in metrics) else "")]
    for row in compare(pairs, metrics):
        if row.get("missing"):
            lines.append(f"{row['name']:{width}} missing")
            continue
        n = len(row["runs"])
        won, beyond, gain = f"{row['won']}/{n}", f"{row['beyond']}/{n}", "yes" if row["gain"] else "no"
        percent = "n/a" if row["change_percent"] is None else f"{row['change_percent']:+.1f}%"
        spread = f"{row['parent_median']:.6g} [{row['parent_q1']:.6g}, {row['parent_q3']:.6g}]"
        line = (f"{row['name']:{width}} {spread:40} {row['change_median']:10.6g} {percent:>9} {won:>7} "
                f"{beyond:>7} {gain:>4}")
        if "bound" in row:
            verdict = f"{row['bound']:.0%} {row['verdict']}"
            line += f" {verdict:>14}"
        lines.append(line)
    for side, counts in failures(pairs).items():
        lines.append(f"failed_ops {side}: {counts['failed']} of {counts['attempted']} operations; "
                     f"{counts['correct_runs']}/{counts['runs']} runs correct")
    lines.append(f"{'paired':{width}} {'median change/parent - 1 [sign-test interval]':46} {'coverage':>8} "
                 f"{'pairs':>5}")
    for row in paired(pairs, metrics):
        if row.get("missing"):
            lines.append(f"{row['name']:{width}} n/a")
            continue
        low, median, high = (f"{math.expm1(row[k]):+.1%}" for k in ("low_log_ratio", "median_log_ratio",
                                                                    "high_log_ratio"))
        lines.append(f"{row['name']:{width}} {f'{median} [{low}, {high}]':46} {row['coverage']:8.1%} "
                     f"{row['pairs']:5}")
    return lines


def record(pairs: list[tuple[dict, dict]], metrics: list[dict], names: dict[str, str], workload: str,
           first_seed: int, seconds: float, trace: bool, slots: dict | None = None) -> dict:
    """What the summary prints, as one JSON object: the run's settings, ``slots`` (the ``layout`` of the run), a
    ``compare`` row per metric (each with its (parent, change) values, pair by pair), a ``paired`` row per metric
    and each side's failed operations."""
    return {"parent": names["parent"], "change": names["change"], "workload": workload,
            "seeds": list(range(first_seed, first_seed + len(pairs))), "pairs": len(pairs), "seconds": seconds,
            "trace": trace, "slots": slots, "metrics": compare(pairs, metrics), "paired": paired(pairs, metrics),
            "failed_ops": failures(pairs)}


def layout(seed: int, workload: str) -> dict:
    """Which tree, ``a`` or ``b``, holds each revision, and which side runs first in the first pair, drawn from
    ``seed`` and ``workload``, so that neither revision always sits in one tree or runs first, on any workload."""
    draw = random.Random(f"{seed}:{workload}")
    trees = ("a", "b") if draw.random() < 0.5 else ("b", "a")
    return {"parent": trees[0], "change": trees[1], "first": draw.choice(("parent", "change"))}


def unpack(revision: str, directory: Path) -> str:
    """Unpack ``revision`` of this repository into ``directory``; return its short hash."""
    short = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", revision],
                           check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision], check=True, capture_output=True).stdout
    directory.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return short


def run_args(command: list[str], workload: str, seed: int, seconds: float, trace: bool) -> list[str]:
    """The benchmark command line of one run."""
    return [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]


def run_once(command: list[str], directory: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    args = run_args(command, workload, seed, seconds, trace)
    # in a process group of its own, so that the run and every process it started can be ended together
    with subprocess.Popen(args, cwd=directory, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as run:
        try:
            stdout, stderr = run.communicate()
        finally:
            if run.returncode is None:  # interrupted: end the whole group before the pipes are closed
                os.killpg(run.pid, signal.SIGKILL)
                run.wait()
    if run.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(args)} in {directory} exited {run.returncode}:\n{stderr}")
    try:
        return result_of(stdout)
    except ValueError as error:
        raise SystemExit(f"bench_pairs: {' '.join(args)} in {directory} printed no result ({error}):\n"
                         f"stdout ends:\n{stdout[-2000:]}\nstderr ends:\n{stderr[-2000:]}") from None


def stop(signum: int, frame) -> None:
    """Turn a termination signal into an exception, so that the running pair ends and its trees are removed."""
    raise SystemExit(f"bench_pairs: stopped by signal {signum}")


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    parser.add_argument("--trace", action="store_true", help="run --trace 1 and summarise the per-layer metrics")
    parser.add_argument("--record", metavar="FILE", help="also write the summary to FILE as JSON")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, stop)
    pairs, slots = [], layout(args.seed, args.workload)
    first, second = slots["first"], "change" if slots["first"] == "parent" else "parent"
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / slots[side] for side in ("parent", "change")}
        names = {side: unpack(getattr(args, side), trees[side]) for side in sorted(trees, key=slots.get)}
        for i in range(args.pairs):
            seed = args.seed + i
            order = (first, second) if i % 2 == 0 else (second, first)
            results = {}
            for side in order:
                results[side] = run_once(benchmark["command"], trees[side], args.workload, seed,
                                         benchmark["run_seconds"], args.trace)
                print(f"pair {i + 1} seed {seed} {side} {names[side]}: {json.dumps(results[side])}", flush=True)
            pairs.append((results["parent"], results["change"]))
    print(f"{args.workload}: parent {names['parent']} (tree {slots['parent']}) vs change {names['change']} "
          f"(tree {slots['change']}), {slots['first']} first, {len(pairs)} pairs, "
          f"--seconds {benchmark['run_seconds']:g}, --trace {int(args.trace)}")
    metrics = benchmark["per_layer" if args.trace else "end_to_end"]
    print("\n".join(summarize(pairs, metrics)))
    if args.record:
        summary = record(pairs, metrics, names, args.workload, args.seed, benchmark["run_seconds"], args.trace,
                         slots)
        Path(args.record).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
