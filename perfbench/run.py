"""Benchmark of the nfrstdo toolkit and its ``nfrsctl`` command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload small-docs --seed 1 --seconds 30 --trace 0

The load is one closed-loop client: this process runs one operation at a time,
round-robin over the workload's operation kinds, with at most one ``nfrsctl``
child alive. A run measures for ``--seconds`` and then until each CLI kind has
at least 40 samples, within 150 seconds in all. The CLI runs as ``<this interpreter> -m nfrstdo`` with the
checkout's ``src`` first on ``PYTHONPATH``, so the working tree is measured.

``--trace 0`` reports the end-to-end metrics: CLI ``validate`` and ``export``
process wall time, the peak RSS of those processes, in-process throughput of
parse, validate, serialize and the three exporters, query latency, and the
time to build a document through the ``model`` write path. Latencies are
reported as the 75th percentile (see ``percentile``) and as the tail: the
highest percentile, up to the 95th, with at least 10 samples beyond it (see
``percentile_tail``). ``--trace 1`` is a
separate run that records a span around every call into a layer's public
functions and reports per-layer busy time, call counts, self time per layer,
log-log slopes of time against input size, and the tracing overhead.

Every output is checked against a reference that does not come from the code
under test (see ``gen.py`` and ``oracle.py``). The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import io
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import gen
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
MIN_TAIL_SAMPLES = 40  # the tail is then at or above the 75th percentile
TAIL_CAP = 95.0  # see percentile_tail
HARD_LIMIT_S = 150.0
QUERY_BATCH = 10
MB = 1e6
LAYERS = ("cli", "kernel", "textformat", "model", "validator", "queries", "export", "diagnostics")


@dataclass(frozen=True)
class Workload:
    timed: Callable[[int], list[gen.Case]]  # seed -> the cases the timed operations drive
    sweep: Callable[[int], list[gen.Case]]  # seed -> three cases of growing size, for the traced run's slopes
    repeats: dict[str, int] = field(default_factory=dict)  # operations of a kind per round, where more than one


# Each workload stresses different layers, and each is the control for the others: a start-up
# change should show only on small-docs, a lexer or exporter change mostly on nfr-catalog, and a
# cycle-detection or closure change only on view-network.
WORKLOADS = {
    # fixture-sized documents, each its own nfrsctl process: interpreter start-up and import dominate
    "small-docs": Workload(
        lambda seed: [gen.fixture_doc(seed * 1000 + i, size) for i, size in enumerate(range(1000, 4000, 125))],
        lambda seed: [gen.fixture_doc(seed * 1000 + 900 + i, size) for i, size in enumerate((1000, 3000, 6000))],
        # the in-process operations take milliseconds against the CLI's 0.4 s a round: run more of them
        {"pipeline": 4, "query": 8, "build": 8},
    ),
    # large string-heavy catalogs: lexer, parser, serializer, exporters and the model write path dominate
    "nfr-catalog": Workload(
        lambda seed: [gen.catalog_doc(seed * 1000 + i, 200_000) for i in range(3)],
        lambda seed: [gen.catalog_doc(seed * 1000 + 900 + i, size)
                      for i, size in enumerate((250_000, 600_000, 1_500_000))],
    ),
    # one large view network with big planted cycles: validator cycle detection and closures dominate
    "view-network": Workload(
        lambda seed: [gen.network_doc(seed * 1000 + i, 400) for i in range(3)],
        lambda seed: [gen.network_doc(seed * 1000 + 900 + i, views) for i, views in enumerate((250, 500, 1000))],
    ),
}

TIMED_KINDS = ("cli_validate", "cli_export", "pipeline", "query", "build")
TRACE_KINDS = TIMED_KINDS + ("probe", "sweep", "overhead")
QUERY_KINDS = ("influence_closure", "depends_closure", "leaf_attributes", "mapping_coverage", "trace_satisfies")


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# --- tracing ----------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: (id, parent id, operation id, name, start ns, end ns).

    A disabled tracer hands functions back unwrapped, so the untraced run pays nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list = []
        self.ops: list[tuple[str, int]] = []  # operation id -> (kind, input bytes)
        self.current = -1

    def wrap(self, name: str, fn):
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        parent, sid = self.current, len(self.spans)
        self.spans.append(None)
        self.current = sid
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.current = parent
            self.spans[sid] = (sid, parent, len(self.ops) - 1, name, start, end)

    @contextlib.contextmanager
    def operation(self, kind: str, size: int):
        """The root span of one operation; the checks of its outputs run inside it."""
        if not self.enabled:
            yield
            return
        self.ops.append((kind, size))
        with self.span(f"bench.{kind}"):
            yield

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, op, name, start, end in self.spans:
                kind, size = self.ops[op]
                out.write(json.dumps({"id": sid, "parent": parent, "op": op, "op_kind": kind, "bytes": size,
                                      "name": name, "start_ns": start, "end_ns": end}) + "\n")


# --- the program under test -------------------------------------------------------------------


def load_program() -> SimpleNamespace:
    """Import the package fresh from ``src``, as a new process would."""
    for name in [m for m in sys.modules if m == "nfrstdo" or m.startswith("nfrstdo.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(**{layer: importlib.import_module(f"nfrstdo.{layer}") for layer in LAYERS})


def make_api(m: SimpleNamespace, tracer: Tracer, spawn, run_main) -> SimpleNamespace:
    w = tracer.wrap
    modes = m.validator.ValidationMode
    api = SimpleNamespace(
        parse=w("textformat.parse", m.textformat.parse),
        serialize=w("textformat.serialize", m.textformat.serialize),
        validate_model=w("validator.validate_model", functools.partial(m.validator.validate, mode=modes.MODEL)),
        validate_instance=w("validator.validate_instance",
                            functools.partial(m.validator.validate, mode=modes.INSTANCE)),
        to_json=w("export.to_json", m.export.to_json),
        to_dot=w("export.to_dot", m.export.to_dot),
        to_turtle=w("export.to_turtle", m.export.to_turtle),
        render_json=w("diagnostics.render_json", m.diagnostics.render_json),
        builtin_schema=w("kernel.builtin_schema", m.kernel.builtin_schema),
        add_node=w("model.add_node", m.model.add_node),
        add_model_edge=w("model.add_model_edge", m.model.add_model_edge),
        add_view_edge=w("model.add_view_edge", m.model.add_view_edge),
        cli_process=w("cli.process", spawn),
        interpreter=w("cli.interpreter", spawn),
        import_process=w("cli.import_process", spawn),
        main=w("cli.main", run_main),
        main_export=w("cli.main_export", run_main),
    )
    for kind in QUERY_KINDS:
        setattr(api, kind, w(f"queries.{kind}", getattr(m.queries, kind)))
    api.build = w("bench.build", functools.partial(_build, m, api))
    return api


def _build(m: SimpleNamespace, api: SimpleNamespace, script: list) -> object:
    calls = (api.add_node, api.add_model_edge, api.add_view_edge)
    doc = m.model.Document()
    for k, args in script:
        doc = calls[k](doc, *args)
    return doc


def build_script(m: SimpleNamespace, case: gen.Case) -> list:
    """The ``add_node``/``add_model_edge``/``add_view_edge`` calls that build the case's document."""
    nm, expected = m.model, gen.to_document(m.model, case.plain)
    script = [(0, (node,)) for coll in (expected.categories, expected.entities, expected.frs) for node in coll.values()]
    for model in case.plain.models:
        script.append((0, (nm.NfrsModelNode(name=model.name, specification=model.specification,
                                            nfrs=expected.models[model.name].nfrs),)))
        script += [(1, (model.name, kind, a, b)) for kind in gen.EDGE_KINDS for a, b in model.edges[kind]]
    for vm in case.plain.view_models:
        script.append((0, (nm.NfrsViewModelNode(name=vm.name, specification=vm.specification,
                                                views=expected.view_models[vm.name].views),)))
        script += [(2, (vm.name, "influences", a, b)) for a, b in vm.influences]
        script += [(2, (vm.name, "depends_on", a, b)) for a, b in vm.depends_on]
    return script


# --- references -------------------------------------------------------------------------------


@dataclass
class Ref:
    """A case's outputs, each verified once against the generator before it is used as a reference."""

    path: str
    expected: object
    doc: object
    diags: dict
    canon: str
    exports: dict
    rendered: str
    validate_exit: int
    script: list
    answers: list


def _diag_errors(diags) -> set:
    return {(d.code, d.subject, d.message) for d in diags if d.severity.value == "error"}


def make_ref(m: SimpleNamespace, case: gen.Case, path: str) -> Ref:
    expected = gen.to_document(m.model, case.plain)
    doc = m.textformat.parse(case.text)
    check(doc == expected, "parse(text) differs from the generated document")
    modes = m.validator.ValidationMode
    diags = {mode: m.validator.validate(doc, modes(mode)) for mode in ("model", "instance")}
    for mode, found in diags.items():
        got = Counter((d.code, d.severity.value) for d in found)
        check(got == case.expect[mode], f"{mode}-mode diagnostics {dict(got)} != planted {dict(case.expect[mode])}")
    check(_diag_errors(diags["model"]) <= _diag_errors(diags["instance"]), "model-mode errors not in instance mode")
    canon = m.textformat.serialize(doc)
    check(m.textformat.parse(canon) == doc, "parse(serialize(doc)) != doc")
    exports = {name: getattr(m.export, name)(doc) for name in ("to_json", "to_dot", "to_turtle")}
    for name, text in exports.items():
        check(getattr(m.export, name)(doc) == text, f"{name} is not deterministic")
    check(exports["to_dot"].count("\n") == case.dot_lines, "DOT line count differs from the generator's")
    check(exports["to_turtle"].count("\n") == case.turtle_lines, "Turtle line count differs from the generator's")
    obj = json.loads(exports["to_json"])
    counts = [len(obj[k]) for k in ("categories", "entities", "frs", "models", "view_models")]
    counts += [sum(len(x["nfrs"]) for x in obj["models"]), sum(len(x["views"]) for x in obj["view_models"])]
    p = case.plain
    check(counts == [len(p.categories), len(p.entities), len(p.frs), len(p.models), len(p.view_models),
                     sum(len(x.nfrs) for x in p.models), sum(len(x.views) for x in p.view_models)],
          "JSON export node counts differ from the generator's")
    rendered = m.diagnostics.render_json(diags["instance"], path)
    check([r["code"] for r in json.loads(rendered)] == [d.code for d in diags["instance"]],
          "render_json records differ from the diagnostics")
    validate_exit = int(any(sev == "error" for _, sev in case.expect["instance"]))
    answers = [oracle.answer(case.plain, q) for q in case.queries]
    return Ref(path, expected, doc, diags, canon, exports, rendered, validate_exit, build_script(m, case), answers)


# --- the benchmark ------------------------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile.

    The typical figures are the 75th percentile of durations (the 25th of
    throughputs) rather than the median. On a shared virtual machine the CPU
    can alternate between a fast and a slow state, 1.5x to 2x apart, many
    times a run; the median sits between the two modes and jumps with their
    shares, while the 75th percentile stays inside the slow mode.
    """
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile, up to ``TAIL_CAP``, with at least 10 samples beyond it.

    The cap binds on the query samples, which number in the hundreds to
    thousands; CLI samples number under a hundred. Most queries last
    microseconds, so the last ten of thousands of samples are the host's
    interrupts and preemptions (a 2 us query read 60 us), not the program, and
    they spread two to three times as much from seed to seed as the 95th
    percentile does.
    """
    ordered = sorted(values)
    rank = min(len(ordered) - 10, math.floor(TAIL_CAP / 100 * len(ordered)))
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(bytes)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool, tmp: Path) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.tmp = tmp
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, NFRSCTL_NO_COLOR="1",
                        PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.peak_rss_kb = 0
        self.cursor: Counter = Counter()
        self.failures: Counter = Counter()

    # set-up

    def setup(self) -> float:
        """Generate the inputs, write them, import the program and warm up; returns seconds taken."""
        start = time.perf_counter()
        self.m = load_program()
        self.cases = self.workload.timed(self.seed)
        self.sweep = sorted(self.workload.sweep(self.seed), key=lambda c: c.size) if self.trace else []
        self.paths = {}
        for case in self.cases + self.sweep:
            path = self.tmp / f"{case.name}.nfrs"
            path.write_bytes(case.text.encode("utf-8"))
            self.paths[case.name] = str(path)
        self.tracer = Tracer(self.trace)
        self.plain_api = make_api(self.m, Tracer(False), self.spawn, self.run_main)
        self.api = make_api(self.m, self.tracer, self.spawn, self.run_main)
        warm = self.cases[0]
        self.spawn(self._validate_argv(warm))
        self.plain_api.validate_instance(self.plain_api.parse(warm.text))
        return time.perf_counter() - start

    def prepare(self) -> None:
        """Verify every reference once, outside the timed loop."""
        self.refs: dict[str, Ref | CheckFailed] = {}
        for case in self.cases + self.sweep:
            try:
                self.refs[case.name] = make_ref(self.m, case, self.paths[case.name])
            except CheckFailed as exc:
                self.refs[case.name] = exc
        gc.collect()
        gc.freeze()

    # child processes

    def spawn(self, argv: list[str]) -> tuple[float, int, bytes, bytes]:
        out, err = self.tmp / "child.out", self.tmp / "child.err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, str(self.tmp / "child.in"), os.O_RDONLY | os.O_CREAT, 0o600),
                   (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o600),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o600)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + argv, self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        elapsed = time.perf_counter() - start
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return elapsed, os.waitstatus_to_exitcode(status), out.read_bytes(), err.read_bytes()

    def run_main(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.m.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _validate_argv(self, case: gen.Case) -> list[str]:
        return ["-m", "nfrstdo", "validate", self.paths[case.name], "--mode", "instance", "--format", "json"]

    def _export_argv(self, case: gen.Case) -> list[str]:
        return ["-m", "nfrstdo", "export", self.paths[case.name], "turtle", "-o", str(self.tmp / "out.ttl")]

    # operations

    def next_case(self, kind: str, cases: list[gen.Case]) -> tuple[gen.Case, Ref]:
        case = cases[self.cursor[kind] % len(cases)]
        self.cursor[kind] += 1
        ref = self.refs[case.name]
        if isinstance(ref, CheckFailed):
            raise ref
        return case, ref

    def op_cli_validate(self, api, case: gen.Case, ref: Ref) -> None:
        elapsed, code, out, err = api.cli_process(self._validate_argv(case))
        self.samples["cli_validate"].append(elapsed)
        check(code == ref.validate_exit, f"validate exited {code}, expected {ref.validate_exit}: {err[-300:]!r}")
        check(out.decode("utf-8") == ref.rendered + "\n", "CLI JSON diagnostics differ from render_json")
        check(err == b"", f"validate wrote to stderr: {err[-300:]!r}")

    def op_cli_export(self, api, case: gen.Case, ref: Ref) -> None:
        target = self.tmp / "out.ttl"
        target.unlink(missing_ok=True)
        elapsed, code, out, err = api.cli_process(self._export_argv(case))
        self.samples["cli_export"].append(elapsed)
        check(code == 0 and out == b"" and err == b"", f"export exited {code}: {err[-300:]!r}")
        check(target.read_bytes() == ref.exports["to_turtle"].encode("utf-8"), "exported Turtle differs")

    def op_pipeline(self, api, case: gen.Case, ref: Ref) -> None:
        start = time.perf_counter()
        doc = api.parse(case.text)
        diags = api.validate_instance(doc)
        canon = api.serialize(doc)
        exports = {"to_json": api.to_json(doc), "to_dot": api.to_dot(doc), "to_turtle": api.to_turtle(doc)}
        elapsed = time.perf_counter() - start
        self.samples["pipeline"].append(case.size / MB / elapsed)
        check(doc == ref.expected, "parse(text) differs from the generated document")
        check(diags == ref.diags["instance"], "instance-mode diagnostics differ")
        check(canon == ref.canon, "serialize output differs")
        check(exports == ref.exports, "exports differ between runs")

    def op_query(self, api, case: gen.Case, ref: Ref) -> None:
        for _ in range(QUERY_BATCH):
            i = self.cursor[f"query:{case.name}"] % len(case.queries)
            self.cursor[f"query:{case.name}"] += 1
            kind, *args = case.queries[i]
            fn = getattr(api, kind)
            start = time.perf_counter()
            result = fn(ref.doc, *args)
            self.samples["query"].append(time.perf_counter() - start)
            check(oracle.normalise(kind, result) == ref.answers[i], f"{kind}{tuple(args)!r} differs from the oracle")

    def op_build(self, api, case: gen.Case, ref: Ref) -> None:
        start = time.perf_counter()
        doc = api.build(ref.script)
        self.samples["build"].append(time.perf_counter() - start)
        check(doc == ref.expected, "built document differs from the generated one")

    def op_probe(self, api, case: gen.Case, ref: Ref) -> None:
        """Trace only: start-up, in-process CLI and the layers the timed operations reach only in children."""
        api.interpreter(["-c", "pass"])
        _, code, _, err = api.import_process(["-c", "import nfrstdo.cli"])
        check(code == 0, f"import failed: {err[-300:]!r}")
        code, out, _ = api.main(self._validate_argv(case)[2:])
        check(code == ref.validate_exit and out == ref.rendered + "\n", "in-process validate output differs")
        target = self.tmp / "out.ttl"
        code, _, _ = api.main_export(self._export_argv(case)[2:])
        check(code == 0 and target.read_bytes() == ref.exports["to_turtle"].encode("utf-8"),
              "in-process export output differs")
        schema = api.builtin_schema("1.2")
        counts = (len(schema.terms), sum(len(t.properties) for t in schema.terms.values()), len(schema.relationships))
        check(counts == (15, 18, 12), f"NFRsTDO v1.2 has 15 terms, 18 properties, 12 relationships, not {counts}")
        check(api.validate_model(ref.doc) == ref.diags["model"], "model-mode diagnostics differ")
        check(api.render_json(ref.diags["instance"], ref.path) == ref.rendered, "render_json differs")

    def op_sweep(self, api, case: gen.Case, ref: Ref) -> None:
        """Trace only: every layer once on one of three sizes, for the slopes."""
        self.op_pipeline(api, case, ref)
        check(api.validate_model(ref.doc) == ref.diags["model"], "model-mode diagnostics differ")
        check(api.render_json(ref.diags["instance"], ref.path) == ref.rendered, "render_json differs")
        check(api.build(ref.script) == ref.expected, "built document differs from the generated one")
        kind, *args = case.queries[0]
        check(oracle.normalise(kind, getattr(api, kind)(ref.doc, *args)) == ref.answers[0],
              f"{kind}{tuple(args)!r} differs from the oracle")
        code, out, _ = api.main(self._validate_argv(case)[2:])
        check(code == ref.validate_exit and out == ref.rendered + "\n", "in-process validate output differs")

    def op_overhead(self, api, case: gen.Case, ref: Ref) -> None:
        """Trace only: the same pipeline and build untraced and traced, in alternating order."""
        times = {}
        order = (self.plain_api, api) if self.cursor["overhead"] % 2 else (api, self.plain_api)
        for which in order:
            start = time.perf_counter()
            self.op_pipeline(which, case, ref)
            self.op_build(which, case, ref)
            times[which is api] = time.perf_counter() - start
        self.samples["trace_overhead"].append(times[True] - times[False])

    def run_op(self, kind: str) -> None:
        cases = self.sweep if kind == "sweep" else self.cases
        self.attempted += 1
        try:
            case, ref = self.next_case(kind, cases)
            with self.tracer.operation(kind, case.size):
                getattr(self, f"op_{kind}")(self.api, case, ref)
        except CheckFailed as exc:
            self.fail(kind, str(exc))
        except Exception:  # a crash in the program is a failed operation, not a failed benchmark
            self.fail(kind, traceback.format_exc(limit=3))

    def fail(self, kind: str, why: str) -> None:
        self.failed += 1
        self.failures[kind] += 1
        if self.failures[kind] <= 3:
            print(f"FAILED {kind}: {why}", file=sys.stderr)

    def loop(self, seconds: float, started: float) -> int:
        kinds = TRACE_KINDS if self.trace else TIMED_KINDS
        deadline = time.monotonic() + seconds
        rounds = 0
        while time.monotonic() < started + HARD_LIMIT_S:
            if time.monotonic() >= deadline and self.enough():
                break
            for kind in kinds:
                for _ in range(self.workload.repeats.get(kind, 1)):
                    self.run_op(kind)
            rounds += 1
        return rounds

    def enough(self) -> bool:
        if self.trace:
            return self.cursor["sweep"] >= len(self.sweep)
        return min(len(self.samples["cli_validate"]), len(self.samples["cli_export"])) >= MIN_TAIL_SAMPLES


# --- reports -------------------------------------------------------------------------------------


def end_to_end(bench: Bench, setups: list[float]) -> dict:
    s = bench.samples
    metrics = {"setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups")}
    for name, scale, unit in (("cli_validate", 1, "s"), ("cli_export", 1, "s"), ("query", 1e6, "us")):
        tail, pct = percentile_tail(s[name])
        n = len(s[name])
        metrics[f"{name}_p75_{unit}"] = (percentile(s[name], 75) * scale, unit, f"n={n}")
        metrics[f"{name}_tail_{unit}"] = (tail * scale, unit, f"p{pct:.1f}, n={n}")
    n_cli = len(s["cli_validate"]) + len(s["cli_export"])
    metrics["cli_peak_rss_mb"] = (bench.peak_rss_kb / 1024, "MB", f"max of n={n_cli}")
    metrics["pipeline_mb_per_s"] = (percentile(s["pipeline"], 25), "MB/s", f"p25 of n={len(s['pipeline'])}")
    metrics["build_s"] = (percentile(s["build"], 75), "s", f"p75 of n={len(s['build'])}")
    return metrics


def per_layer(bench: Bench, rounds: int) -> dict:
    tracer = bench.tracer
    regular = defaultdict(list)  # span name -> durations (s) in the timed kinds and probes
    builds = defaultdict(Counter)  # build operation id -> span name -> busy seconds, and its edit calls
    sized = defaultdict(lambda: defaultdict(list))  # span name -> input bytes -> durations, in sweeps
    parse_rates = []
    children = Counter()
    for sid, parent, op, name, start, end in tracer.spans:
        children[parent] += end - start
    self_ns = Counter()
    for sid, parent, op, name, start, end in tracer.spans:
        self_ns[name.split(".")[0]] += end - start - children[sid]
        kind, size = tracer.ops[op]
        seconds = (end - start) / 1e9
        if kind == "sweep":
            sized[name][size].append(seconds)
        elif kind != "overhead":
            regular[name].append(seconds)
        if kind == "build":
            builds[op][name] += seconds
            builds[op]["calls"] += name.startswith("model.")
        elif kind == "pipeline" and name == "textformat.parse":
            parse_rates.append(size / MB / seconds)

    def med(name: str) -> float:
        return statistics.median(regular[name])

    metrics = {}

    def busy(metric: str, name: str, scale: float = 1.0, unit: str = "s") -> None:
        metrics[metric] = (med(name) * scale, unit, f"median, n={len(regular[name])}")
        metrics[metric.rsplit("_", 1)[0] + "_calls"] = (len(regular[name]), "count", "")

    busy("cli.interpreter_s", "cli.interpreter")
    metrics["cli.import_s"] = (med("cli.import_process") - med("cli.interpreter"), "s",
                               f"median import process minus median interpreter, n={len(regular['cli.import_process'])}")
    busy("cli.main_s", "cli.main")
    busy("cli.main_export_s", "cli.main_export")
    busy("kernel.builtin_schema_s", "kernel.builtin_schema")
    busy("textformat.parse_s", "textformat.parse")
    metrics["textformat.parse_mb_per_s"] = (statistics.median(parse_rates), "MB/s", f"median, n={len(parse_rates)}")
    busy("textformat.serialize_s", "textformat.serialize")
    for name in ("add_node", "add_model_edge", "add_view_edge"):
        metrics[f"model.{name}_s"] = (statistics.median(b[f"model.{name}"] for b in builds.values()), "s",
                                      f"busy time per build, n={len(builds)}")
    metrics["model.edit_calls"] = (statistics.median(b["calls"] for b in builds.values()), "count", "calls per build")
    busy("validator.validate_model_s", "validator.validate_model")
    busy("validator.validate_instance_s", "validator.validate_instance")
    diag_counts = [len(bench.refs[c.name].diags["instance"]) for c in bench.cases if isinstance(bench.refs[c.name], Ref)]
    metrics["validator.diagnostics"] = (statistics.median(diag_counts), "count", "per document, instance mode")
    for kind in QUERY_KINDS:
        busy(f"queries.{kind}_us", f"queries.{kind}", 1e6, "us")
    for name in ("to_json", "to_dot", "to_turtle"):
        busy(f"export.{name}_s", f"export.{name}")
    out_bytes = [sum(len(t.encode("utf-8")) for t in bench.refs[c.name].exports.values())
                 for c in bench.cases if isinstance(bench.refs[c.name], Ref)]
    metrics["export.bytes_out"] = (statistics.median(out_bytes), "bytes", "JSON+DOT+Turtle per document")
    busy("diagnostics.render_json_s", "diagnostics.render_json")
    for metric, name in (("textformat.parse_slope", "textformat.parse"),
                         ("textformat.serialize_slope", "textformat.serialize"),
                         ("model.build_slope", "bench.build"),
                         ("validator.validate_slope", "validator.validate_instance"),
                         ("queries.closure_slope", "queries.influence_closure"),
                         ("export.to_json_slope", "export.to_json"),
                         ("export.to_dot_slope", "export.to_dot"),
                         ("export.to_turtle_slope", "export.to_turtle"),
                         ("diagnostics.render_json_slope", "diagnostics.render_json"),
                         ("cli.main_slope", "cli.main")):
        points = sorted((size, statistics.median(d)) for size, d in sized[name].items())
        metrics[metric] = (slope(points), "1", "log-log over " + ", ".join(f"{size}B" for size, _ in points))
    for layer in LAYERS + ("bench",):
        metrics[f"{layer}.self_s"] = (self_ns[layer] / 1e9 / rounds, "s", f"self time per round, {rounds} rounds")
    overhead = bench.samples["trace_overhead"]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s",
                                   f"traced minus untraced pipeline+build, median, n={len(overhead)}")
    return metrics


def split_report(workload: str, metrics: dict) -> str:
    """Which layer the traced run shows dominating, against what the workload was chosen to stress."""
    v = {k: val for k, (val, _, _) in metrics.items()}
    startup = v["cli.interpreter_s"] + v["cli.import_s"]
    work = {"textformat.parse_s": v["textformat.parse_s"], "textformat.serialize_s": v["textformat.serialize_s"],
            "validator.validate_instance_s": v["validator.validate_instance_s"],
            "validator.validate_model_s": v["validator.validate_model_s"],
            "export.to_turtle_s": v["export.to_turtle_s"], "diagnostics.render_json_s": v["diagnostics.render_json_s"]}
    top = max(work, key=work.get)
    if workload == "small-docs":
        ok = startup > v["cli.main_s"]
        claim = f"cli.interpreter_s + cli.import_s = {startup:.4f} s vs cli.main_s = {v['cli.main_s']:.4f} s"
    elif workload == "nfr-catalog":
        ok = top == "textformat.parse_s"
        claim = f"largest in-process layer call: {top} = {work[top]:.4f} s"
    else:
        ok = top.startswith("validator.validate_")
        claim = f"largest in-process layer call: {top} = {work[top]:.4f} s"
    return f"split {workload}: {claim} -> prediction {'confirmed' if ok else 'NOT confirmed'}"


# --- entry point ---------------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if not (SRC / "nfrstdo" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'nfrstdo'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    TMP.mkdir(exist_ok=True)
    tmp = TMP / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir()
    try:
        bench = Bench(args.workload, args.seed, bool(args.trace), tmp)
        setups = [bench.setup() for _ in range(SETUP_REPEATS)]
        bench.prepare()
        rounds = bench.loop(args.seconds, started)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        metrics = per_layer(bench, rounds)
        OUT.mkdir(exist_ok=True)
        bench.tracer.write(OUT / f"trace-{args.workload}.jsonl")
    else:
        metrics = end_to_end(bench, setups)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:34} {value:14.6g} {unit:6} {note}")
    print(f"{'failed_ops':34} {bench.failed / max(1, bench.attempted):14.6g} {'ratio':6} "
          f"{bench.failed} of {bench.attempted} operations")
    if args.trace:
        print(split_report(args.workload, metrics))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
