"""Compare two revisions on one perfbench workload, in alternating pairs of runs.

Run from the root of a checkout::

    python3 tools/bench_pairs.py PARENT CHANGE --workload nfr-catalog --pairs 10 [--trace]

Each revision is unpacked with ``git archive`` into its own temporary
directory, and ``perfbench/run.py --trace 0`` runs there, as the command in
``BENCHMARK.json`` names it, for the ``run_seconds`` it sets. Pair ``i`` runs
both sides on seed ``--seed + i``; the side that runs first alternates from
pair to pair. Each run's result line is printed as it ends. The summary then
gives, for each end-to-end metric of ``BENCHMARK.json``: the parent's median
and quartiles, the change's median, the change in percent, the pairs the
change won, and how many of the change's runs lie beyond the parent's better
quartile (below the first for a lower-is-better metric, above the third
otherwise); and each side's failed operations. With ``--trace`` the runs are
``--trace 1`` runs, and the summary covers the ``per_layer`` metrics of
``BENCHMARK.json`` instead, such as ``textformat.parse_s``. Nothing is
fetched and no ``perfbench/`` file is written.
"""

from __future__ import annotations

import argparse
import io
import json
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


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """Summary lines for (parent result, change result) pairs over the given end-to-end metric declarations."""
    width = max(28, *(len(metric["name"]) for metric in metrics))
    lines = [f"{'metric':{width}} {'parent median [q1, q3]':40} {'change':>10} {'change %':>9} {'won':>7} "
             f"{'beyond':>7}"]
    n = len(pairs)
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        runs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
                if name in p["metrics"] and name in c["metrics"]]
        if not runs:
            lines.append(f"{name:{width}} missing")
            continue
        q1, parent, q3 = quartiles([p for p, _ in runs])
        change = statistics.median(c for _, c in runs)
        won = sum(c < p if lower else c > p for p, c in runs)
        beyond = sum(c < q1 if lower else c > q3 for _, c in runs)
        percent = f"{100 * (change - parent) / parent:+.1f}%" if parent else "n/a"
        spread = f"{parent:.6g} [{q1:.6g}, {q3:.6g}]"
        lines.append(f"{name:{width}} {spread:40} {change:10.6g} {percent:>9} {f'{won}/{len(runs)}':>7} "
                     f"{f'{beyond}/{len(runs)}':>7}")
    for side, index in (("parent", 0), ("change", 1)):
        failed = sum(pair[index]["failed"] for pair in pairs)
        attempted = sum(pair[index]["attempted"] for pair in pairs)
        correct = sum(bool(pair[index]["correct"]) for pair in pairs)
        lines.append(f"failed_ops {side}: {failed} of {attempted} operations; {correct}/{n} runs correct")
    return lines


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
    done = subprocess.run(args, cwd=directory, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(args)} in {directory} exited {done.returncode}:\n{done.stderr}")
    return result_of(done.stdout)


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    parser.add_argument("--trace", action="store_true", help="run --trace 1 and summarise the per-layer metrics")
    args = parser.parse_args()
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        names = {side: unpack(getattr(args, side), trees[side]) for side in trees}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            results = {}
            for side in order:
                results[side] = run_once(benchmark["command"], trees[side], args.workload, seed,
                                         benchmark["run_seconds"], args.trace)
                print(f"pair {i + 1} seed {seed} {side} {names[side]}: {json.dumps(results[side])}", flush=True)
            pairs.append((results["parent"], results["change"]))
    print(f"{args.workload}: parent {names['parent']} vs change {names['change']}, {len(pairs)} pairs, "
          f"--seconds {benchmark['run_seconds']:g}, --trace {int(args.trace)}")
    print("\n".join(summarize(pairs, benchmark["per_layer" if args.trace else "end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
