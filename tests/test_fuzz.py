"""Mutation fuzz of the library and the CLI, at a size that runs in a few seconds.

The library properties run on the corpus of ``test_export_oracle``: the
``.nfrs`` fixtures, 200 ``random_document`` serializations and 2,000 seeded
mutations of those texts, parsed once. The CLI runs in-process on 100 seeded
random byte strings, the first 8 of those texts (the fixtures among them, whose
views let the closure queries succeed) and 150 of the mutations, half of which
parse. Every subcommand that reads a document, each query and an export to a
file among them, must end in a documented exit code. The ``schema``
subcommands run on 200 seeded argument lists of built-in and random versions
and terms, and must end in success or a usage error. Every 25th CLI input
also runs in a child process whose standard output is closed: a command that
writes to it must end in a usage error with one line on stderr, any other in
its own code, and no traceback.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

from nfrstdo import cli
from nfrstdo.export import to_dot, to_json, to_turtle
from nfrstdo.kernel import builtin_schema
from nfrstdo.model import Document, NfrKind
from nfrstdo.textformat import ParseFailure, parse, serialize
from nfrstdo.validator import ValidationMode, validate
from test_cli import child_env
from test_export_oracle import MUTATIONS, corpus, documents

RANDOM_INPUTS = 100
BASE_INPUTS = 8
MUTATED_INPUTS = 75  # of each outcome: parsed and failed
# .nfrs punctuation, letters, escapes and bytes that are not UTF-8 on their own
BYTE_ALPHABET = b'{}":.-<># \n\r\t\\abcdefilmnoqrstuvwy_MV\x00\xc3\xa9\xff'
CLOSED_STDOUT_EVERY = 25  # every 25th CLI input also runs with standard output closed
SCHEMA_RUNS = 200
# letters, digits, blanks, dots and non-ASCII; no "-", since a word that starts with one is an option for argparse
STRING_ALPHABET = "abcdeilmnorstuvAFNQ0129 ._\té\u00a0"


def test_parse_raises_only_parse_failure():
    unexpected = [(text, exc) for text, exc in corpus()
                  if isinstance(exc, Exception) and not isinstance(exc, ParseFailure)]
    assert not unexpected, f"{len(unexpected)} texts raised otherwise, first: {unexpected[0]!r}"


def test_outputs_never_raise_on_a_parsed_document():
    for doc in documents():
        for output in (serialize, to_json, to_dot, to_turtle):
            output(doc)


def test_resolved_documents_round_trip():
    resolved = [doc for doc in documents()
                if all(d.code != "R-REF" for d in validate(doc, ValidationMode.INSTANCE))]
    assert len(resolved) > 300
    differing = [doc for doc in resolved if parse(serialize(doc)) != doc]
    assert not differing, f"{len(differing)} of {len(resolved)} do not round-trip, first: {differing[0]!r}"


def cli_inputs() -> list[bytes]:
    rng = random.Random(0)
    randoms = [bytes(rng.choice(BYTE_ALPHABET) for _ in range(rng.randrange(120))) for _ in range(RANDOM_INPUTS)]
    bases = [text for text, _ in corpus()[:BASE_INPUTS]]
    mutations = corpus()[-MUTATIONS:]
    parsed = [text for text, outcome in mutations if isinstance(outcome, Document)][:MUTATED_INPUTS]
    failed = [text for text, outcome in mutations if not isinstance(outcome, Document)][:MUTATED_INPUTS]
    return randoms + [text.encode("utf-8") for text in bases + parsed + failed]


def query_names(data: bytes) -> tuple[str, str, str, str, str]:
    """A view model, one of its views, a model, one of its characteristics and an FR of the input where it has
    them, so that queries can succeed."""
    try:
        doc = parse(data.decode("utf-8"))
    except (UnicodeDecodeError, ParseFailure):
        return "VM", "V", "M", "C", "FR"
    vm = next(iter(doc.view_models.values()), None)
    view_model, view = ("VM", "V") if vm is None else (vm.name, next(iter(vm.views), "V"))
    model = next(iter(doc.models.values()), None)
    chars = [] if model is None else [n.name for n in model.nfrs.values() if n.kind is NfrKind.CHARACTERISTIC]
    return view_model, view, "M" if model is None else model.name, next(iter(chars), "C"), next(iter(doc.frs), "FR")


def test_cli_ends_in_a_documented_exit_code(tmp_path, capsys):
    path, output = tmp_path / "input.nfrs", tmp_path / "output.ttl"
    outcomes = []
    for data in cli_inputs():
        path.write_bytes(data)
        view_model, view, model, characteristic, fr = query_names(data)
        for argv in (
            ["validate", str(path)],
            ["validate", str(path), "--format", "json", "--mode", "instance"],
            ["export", str(path), "json"],
            ["export", str(path), "dot"],
            ["export", str(path), "turtle"],
            ["export", str(path), "turtle", "-o", str(output)],
            ["lint-arch", str(path)],
            ["query", "influences", str(path), "--view-model", view_model, "--from", view],
            ["query", "depends", str(path), "--view-model", view_model, "--from", view, "--transitive"],
            ["query", "coverage", str(path), "--model", model],
            ["query", "leaf-attributes", str(path), "--model", model, "--characteristic", characteristic],
            ["query", "trace-fr", str(path), "--name", fr],
        ):
            command = " ".join(argv[:2]) if argv[0] == "query" else argv[0]
            try:
                outcomes.append((data, command, cli.main(argv)))
            except (Exception, SystemExit) as exc:  # noqa: BLE001 - any escape is the failure looked for
                outcomes.append((data, command, repr(exc)))
            capsys.readouterr()
    assert len(outcomes) == 3096
    undocumented = [outcome for outcome in outcomes if outcome[2] not in (0, 1, 2, 3)]
    assert not undocumented, f"{len(undocumented)} runs, first: {undocumented[0]!r}"
    succeeded = {command for _, command, code in outcomes if code == 0}
    assert succeeded >= {"validate", "export", "query influences", "query depends", "query coverage",
                         "query leaf-attributes", "query trace-fr"}
    assert {(command, code) for _, command, code in outcomes} >= {("validate", 1), ("export", 2)}
    assert output.is_file()
    assert {code for _, _, code in outcomes} == {0, 1, 2, 3}


def schema_argvs() -> list[list[str]]:
    """``schema counts|dump|diff|stereotypes`` argument lists, in turn, with versions and terms that are built-in
    or random."""
    rng = random.Random(0)
    terms = sorted({term for version in ("1.1", "1.2") for term in builtin_schema(version).terms})

    def random_string() -> str:
        return "".join(rng.choice(STRING_ALPHABET) for _ in range(rng.randrange(1, 16)))

    def version() -> str:
        return rng.choice(["1.1", "1.2", "", random_string()])

    def term() -> str:
        return rng.choice(terms) if rng.random() < 0.5 else random_string()

    argvs = []
    for i in range(SCHEMA_RUNS):
        command = ("counts", "dump", "diff", "stereotypes")[i % 4]
        if command == "diff":
            argvs.append(["schema", "diff", version(), version(), "--format", rng.choice(["text", "json"])])
        elif command == "stereotypes":
            argvs.append(["schema", "stereotypes", term(), "--version", version()])
        else:
            argvs.append(["schema", command, "--version", version()])
    return argvs


def test_schema_ends_in_success_or_usage_error(capsys):
    outcomes = []
    for argv in schema_argvs():
        try:
            outcomes.append((argv, cli.main(argv)))
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - any escape is the failure looked for
            outcomes.append((argv, repr(exc)))
        capsys.readouterr()
    assert len(outcomes) == SCHEMA_RUNS
    undocumented = [outcome for outcome in outcomes if outcome[1] not in (0, 3)]
    assert not undocumented, f"{len(undocumented)} runs, first: {undocumented[0]!r}"
    assert {code for _, code in outcomes} == {0, 3}
    assert {argv[1] for argv, code in outcomes if code == 0} == {"counts", "dump", "diff", "stereotypes"}
    assert {argv[-1] for argv, code in outcomes if code == 0 and argv[1] == "diff"} == {"text", "json"}


# Runs each argument list of argv[1] (JSON) with a fresh standard output whose descriptor is closed, and writes
# the exit codes to stderr as JSON.
CLOSED_STDOUT = """
import json, os, sys
from nfrstdo.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    sys.stdout = open(os.open(os.devnull, os.O_WRONLY), "w", encoding="utf-8", closefd=False)
    os.close(sys.stdout.fileno())
    codes.append(main(argv))
print(json.dumps(codes), file=sys.stderr)
"""


def test_cli_with_stdout_closed_ends_in_a_documented_exit_code(tmp_path, capsys):
    argvs, expected = [], []
    for i, data in enumerate(cli_inputs()[::CLOSED_STDOUT_EVERY]):
        path = tmp_path / f"input{i}.nfrs"
        path.write_bytes(data)
        for argv in (["validate", str(path)], ["validate", str(path), "--format", "json", "--mode", "instance"],
                     ["export", str(path), "dot"], ["export", str(path), "json", "-o", str(tmp_path / "out.json")]):
            code = cli.main(argv)
            expected.append(3 if capsys.readouterr().out else code)  # a command that writes stdout fails on it
            argvs.append(argv)
    result = subprocess.run([sys.executable, "-c", CLOSED_STDOUT, json.dumps(argvs)], stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, env=child_env(), timeout=300)
    *messages, codes = result.stderr.splitlines()
    assert result.returncode == 0
    assert json.loads(codes) == expected
    assert len(expected) == 44 and set(expected) == {0, 1, 2, 3}
    lost = "nfrsctl: error: cannot write standard output: Bad file descriptor"
    assert messages.count(lost) == expected.count(3)
    assert not any("Traceback" in line or "Exception ignored" in line for line in messages)
