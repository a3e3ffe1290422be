from __future__ import annotations

import codecs
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import nfrstdo
from conftest import fixture_path
from nfrstdo.cli import main

CHAIN = str(fixture_path("quality_views_chain.nfrs"))
PRODUCT = str(fixture_path("software_product_quality.nfrs"))
CHECKLIST = str(fixture_path("heuristic_checklist.nfrs"))
TRACE = str(fixture_path("satisfies_trace.nfrs"))
ARCH = str(fixture_path("fcd_ontoarch.arch"))


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate -------------------------------------------------------------------


def test_validate_clean_fixture(capsys):
    code, out, err = run(capsys, "validate", CHAIN)
    assert code == 0
    assert out == ""


def test_validate_undecodable_input_is_parse_failure(capsys, tmp_path):
    bad = tmp_path / "bad.nfrs"
    bad.write_bytes(b'category "A" { }\r\ncat\xffegory\n')
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"{bad}:2:4: error: invalid UTF-8 byte 0xff\n"
    for prefix in (b"", codecs.BOM_UTF8):  # a skipped byte-order mark moves no column
        bad.write_bytes(prefix + b'cat\xffegory "A" { }\n')
        assert run(capsys, "validate", str(bad)) == (2, "", f"{bad}:1:4: error: invalid UTF-8 byte 0xff\n")


@pytest.mark.parametrize(("command", "text"), [
    ("validate", Path(CHAIN).read_text(encoding="utf-8")),
    ("validate", 'entity "JIRA" { belongs_to: "Nope" }\n'),
    ("lint-arch", Path(ARCH).read_text(encoding="utf-8")),
    ("lint-arch", "component SituationCO level Core\n"),
], ids=["validate-clean", "validate-r001", "lint-arch-clean", "lint-arch-l001"])
def test_leading_byte_order_mark_is_skipped(capsys, tmp_path, command, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    for fmt in ("text", "json"):
        expected = run(capsys, command, str(plain), "--format", fmt)
        code, out, err = run(capsys, command, str(marked), "--format", fmt)
        assert (code, out.replace(str(marked), str(plain)), err) == expected


@pytest.mark.parametrize(("data", "column", "found"), [
    ('category "A" {\u200b }\n'.encode("utf-8"), 15, r"'\u200b'"),
    (codecs.BOM_UTF8 * 2 + b'category "A" { }\n', 1, r"'\ufeff'"),
    (b'category "A" "tab\\there" { }\n', 14, r'string "tab\there"'),
], ids=["zero-width-space", "second-byte-order-mark", "tab-in-string"])
def test_parse_error_names_invisible_characters_by_escape(capsys, tmp_path, data, column, found):
    bad = tmp_path / "bad.nfrs"
    bad.write_bytes(data)
    code, out, err = run(capsys, "validate", str(bad))
    expected = "'{'" if found.startswith("string") else "a declaration"
    assert (code, out, err) == (2, "", f"{bad}:1:{column}: error: expected {expected}, found {found}\n")


def test_validate_reports_r001(capsys, tmp_path):
    bad = tmp_path / "bad.nfrs"
    bad.write_text('entity "JIRA" { belongs_to: "Nope" }\n', encoding="utf-8")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1
    assert "error R-001:" in lines[0]
    assert lines[0].startswith(f"{bad}:1:1:")


def test_validate_parse_failure_exits_2(capsys, tmp_path):
    broken = tmp_path / "broken.nfrs"
    broken.write_text('category "X" {\n', encoding="utf-8")
    code, out, err = run(capsys, "validate", str(broken))
    assert code == 2
    assert "error: expected" in err
    assert f"{broken}:" in err


def test_validate_warnings_exit_zero_unless_strict(capsys, tmp_path):
    warned = tmp_path / "warned.nfrs"
    warned.write_text('model "M" { attribute "A" { definition: "d" } }\n', encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(warned))
    assert code == 0
    assert "warning R-009:" in out
    code, out, _ = run(capsys, "validate", str(warned), "--strict")
    assert code == 1
    assert "warning R-009:" in out  # severity is printed unchanged


def test_validate_instance_mode(capsys, tmp_path):
    warned = tmp_path / "warned.nfrs"
    warned.write_text('model "M" { attribute "A" { definition: "d" } }\n', encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(warned), "--mode", "instance")
    assert code == 1
    assert "error R-009:" in out


def test_validate_json_format(capsys, tmp_path):
    bad = tmp_path / "bad.nfrs"
    bad.write_text('entity "JIRA" { belongs_to: "Nope" }\n', encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(bad), "--format", "json")
    assert code == 1
    records = json.loads(out)
    assert [r["code"] for r in records] == ["R-001"]
    assert records[0]["severity"] == "error"
    assert records[0]["line"] == 1
    assert records[0]["subject"] == "entity:JIRA"


def test_validate_json_empty_array_for_clean(capsys):
    code, out, _ = run(capsys, "validate", CHAIN, "--format", "json")
    assert code == 0
    assert json.loads(out) == []


@pytest.mark.parametrize(("data", "errors"), [
    (b'model "M" {\n  characteristic "x" : 7\n}\n', [(2, 24, "expected a declaration, found '7'")]),
    (b'category "A" { }\r\ncat\xffegory\n', [(2, 4, "invalid UTF-8 byte 0xff")]),
    (b'category "B" { y }\ncategory "A" { x }\n', [(1, 16, "expected '}', found 'y'"),
                                                   (2, 16, "expected '}', found 'x'")]),
], ids=["stray-character", "not-utf-8", "two-errors-in-source-order"])
def test_validate_json_writes_parse_failures_as_diagnostics(capsys, tmp_path, data, errors):
    bad = tmp_path / "bad.nfrs"
    bad.write_bytes(data)
    code, out, err = run(capsys, "validate", str(bad), "--format", "json")
    assert code == 2
    assert err == "".join(f"{bad}:{line}:{column}: error: {message}\n" for line, column, message in errors)
    records = [{"code": "parse", "column": column, "file": str(bad), "line": line, "message": message,
                "severity": "error", "subject": None} for line, column, message in errors]
    assert out == json.dumps(records, sort_keys=True, separators=(",", ":")) + "\n"


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.nfrs")
    assert code == 3
    assert "cannot read" in err


# --- export ---------------------------------------------------------------------


def test_export_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "export", CHAIN, "json")
    code2, out2, _ = run(capsys, "export", CHAIN, "json")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["view_models"][0]["name"] == "Organization Quality Views"


def test_export_empty_json(capsys, tmp_path):
    empty = tmp_path / "empty.nfrs"
    empty.write_text("", encoding="utf-8")
    code, out, _ = run(capsys, "export", str(empty), "json")
    assert code == 0
    assert out == '{"categories":[],"entities":[],"frs":[],"models":[],"view_models":[]}\n'


def test_export_dot_chain(capsys):
    code, out, _ = run(capsys, "export", CHAIN, "dot")
    assert code == 0
    assert out.count('label="influences"') == 4


def test_export_turtle(capsys):
    code, out, _ = run(capsys, "export", CHAIN, "turtle")
    assert code == 0
    assert out.startswith("@prefix nfrstdo:")


def test_export_to_file(capsys, tmp_path):
    out_path = tmp_path / "chain.json"
    out_path.write_text("old output, longer than nothing", encoding="utf-8")
    code, out, _ = run(capsys, "export", CHAIN, "json", "-o", str(out_path))
    assert code == 0
    assert out == ""
    written = out_path.read_text(encoding="utf-8")
    assert written.startswith('{"categories":')
    assert written.endswith("\n")
    assert os.listdir(tmp_path) == ["chain.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_export_to_fifo_writes_through_it(capsys, tmp_path):
    _, expected, _ = run(capsys, "export", CHAIN, "json")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received: list[str] = []

    def drain() -> None:
        with open(fifo, encoding="utf-8") as handle:
            received.append(handle.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    code, out, _ = run(capsys, "export", CHAIN, "json", "-o", str(fifo))
    reader.join(timeout=10)
    assert code == 0
    assert out == ""
    assert not reader.is_alive()
    assert received == [expected]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symbolic links")
def test_export_to_symlink_writes_through_it(capsys, tmp_path):
    real = tmp_path / "real.json"
    real.write_text("old output", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    code, _, _ = run(capsys, "export", CHAIN, "json", "-o", str(link))
    assert code == 0
    assert link.is_symlink()
    written = real.read_text(encoding="utf-8")
    assert written.startswith('{"categories":')
    assert written.endswith("\n")
    assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]


def test_export_to_directory_is_usage_error_and_leaves_no_file(capsys, tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    code, out, err = run(capsys, "export", CHAIN, "json", "-o", str(target))
    assert code == 3
    assert out == ""
    assert err.startswith(f"nfrsctl: error: cannot write {target}:")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == ["out"]
    assert os.listdir(target) == []


def test_export_blocked_by_referential_errors(capsys, tmp_path):
    bad = tmp_path / "bad.nfrs"
    bad.write_text(
        'model "M" {\n  attribute "A" { definition: "d" }\n  relates "A" <-> "Ghost"\n}\n',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "export", str(bad), "json")
    assert code == 1
    assert out == ""
    assert "R-REF" in err


def test_export_unwritable_output_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing_dir" / "x.json"
    code, out, err = run(capsys, "export", CHAIN, "json", "-o", str(target))
    assert code == 3
    assert out == ""
    assert err.startswith(f"nfrsctl: error: cannot write {target}:")
    assert not target.parent.exists()


def test_export_unknown_format_is_usage_error(capsys):
    code, _, err = run(capsys, "export", CHAIN, "yaml")
    assert code == 3


# --- schema ---------------------------------------------------------------------


def test_schema_counts(capsys):
    code, out, _ = run(capsys, "schema", "counts", "--version", "1.2")
    assert code == 0
    assert out == "terms=15 properties=18 relationships=12\n"


def test_schema_counts_v11(capsys):
    code, out, _ = run(capsys, "schema", "counts", "--version", "1.1")
    assert code == 0
    assert out == "terms=14 properties=15 relationships=9\n"


def test_schema_counts_unknown_version(capsys):
    code, _, err = run(capsys, "schema", "counts", "--version", "3.0")
    assert code == 3


def test_schema_dump_parses_as_json(capsys):
    code, out, _ = run(capsys, "schema", "dump", "--version", "1.2")
    assert code == 0
    assert len(json.loads(out)["terms"]) == 15


def test_schema_stereotypes(capsys):
    code, out, _ = run(capsys, "schema", "stereotypes", "NFRs Model")
    assert code == 0
    assert out == "ProcessCO:Artifact\n"


def test_schema_stereotypes_unknown_term(capsys):
    code, _, err = run(capsys, "schema", "stereotypes", "Nope")
    assert code == 3


def test_schema_diff_text(capsys):
    code, out, _ = run(capsys, "schema", "diff", "1.1", "1.2")
    assert code == 0
    assert out == "".join(f"{line}\n" for line in [
        "added term: Functional Requirement",
        "added relationship: is mapped to (Statement Item -> Attribute)",
        "added relationship: relates with (Non-Functional Requirement -> Non-Functional Requirement)",
        "added relationship: satisfies (Non-Functional Requirement -> Functional Requirement)",
        "renamed relationship: refers to -> refers to particulars (Non-Functional Requirement -> Evaluable Entity)",
        "renamed relationship: refers to -> refers to universals"
        " (Non-Functional Requirement -> Evaluable Entity Category)",
        "stereotype removed: Evaluable Entity Category: ThingFO:Thing Category",
        "stereotype added: Evaluable Entity Category: SituationCO:Context Category",
        "stereotype added: Evaluable Entity Category: SituationCO:Entity Category",
        "stereotype removed: Non-Functional Requirement: ThingFO:Quantity-related Assertion",
    ])


def test_schema_diff_json(capsys):
    code, out, _ = run(capsys, "schema", "diff", "1.1", "1.2", "--format", "json")
    assert code == 0
    assert out == (
        '{"added_relationships":[["is mapped to","Statement Item","Attribute"],'
        '["relates with","Non-Functional Requirement","Non-Functional Requirement"],'
        '["satisfies","Non-Functional Requirement","Functional Requirement"]],'
        '"added_terms":["Functional Requirement"],"removed_relationships":[],"removed_terms":[],'
        '"renamed_relationships":[["refers to","refers to particulars","Non-Functional Requirement","Evaluable Entity"],'
        '["refers to","refers to universals","Non-Functional Requirement","Evaluable Entity Category"]],'
        '"stereotype_changes":['
        '{"change":"removed","component":"ThingFO","stereotype":"Thing Category","term":"Evaluable Entity Category"},'
        '{"change":"added","component":"SituationCO","stereotype":"Context Category",'
        '"term":"Evaluable Entity Category"},'
        '{"change":"added","component":"SituationCO","stereotype":"Entity Category","term":"Evaluable Entity Category"},'
        '{"change":"removed","component":"ThingFO","stereotype":"Quantity-related Assertion",'
        '"term":"Non-Functional Requirement"}]}\n'
    )


# --- query ----------------------------------------------------------------------


def test_query_influences_transitive(capsys):
    code, out, _ = run(
        capsys,
        "query",
        "influences",
        CHAIN,
        "--view-model",
        "Organization Quality Views",
        "--from",
        "Resource Quality View",
        "--transitive",
    )
    assert code == 0
    assert out.splitlines() == [
        "Process Quality View",
        "Software Product Quality View",
        "System Quality View",
        "System-in-Use Quality View",
    ]


def test_query_influences_direct_only(capsys):
    code, out, _ = run(
        capsys,
        "query",
        "influences",
        CHAIN,
        "--view-model",
        "Organization Quality Views",
        "--from",
        "Resource Quality View",
    )
    assert code == 0
    assert out.splitlines() == ["Process Quality View"]


def test_query_depends_transitive_json(capsys):
    code, out, _ = run(
        capsys,
        "query",
        "depends",
        CHAIN,
        "--view-model",
        "Organization Quality Views",
        "--from",
        "System-in-Use Quality View",
        "--transitive",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["reached"] == [
        "System Quality View",
        "Software Product Quality View",
        "Process Quality View",
        "Resource Quality View",
    ]


def test_query_unknown_view_is_usage_error(capsys):
    code, _, err = run(
        capsys, "query", "influences", CHAIN, "--view-model", "Organization Quality Views", "--from", "Nope"
    )
    assert code == 3


def test_query_leaf_attributes(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "query",
        "leaf-attributes",
        PRODUCT,
        "--model",
        "Software Product Quality Model",
        "--characteristic",
        "Usability",
    )
    assert code == 0
    assert out.splitlines() == ["Help availability", "Task success ratio"]
    lone = tmp_path / "lone.nfrs"
    lone.write_text('model "M" { characteristic "C" { definition: "d" } }\n', encoding="utf-8")
    code, out, err = run(capsys, "query", "leaf-attributes", str(lone), "--model", "M", "--characteristic", "C")
    assert (code, out, err) == (0, "", "")


def test_query_coverage(capsys):
    code, out, _ = run(capsys, "query", "coverage", CHECKLIST, "--model", "Usability Heuristic Checklist")
    assert code == 0
    assert out == (
        "mapped 'Progress for long operations' -> Status visibility\n"
        "mapped 'Recovery hints in errors' -> Status visibility\n"
        "mapped 'Undoable destructive actions' -> Undo availability\n"
        "unmapped 'Searchable help'\n"
        "ratio 0.75\n"
    )


def test_query_coverage_empty_model(capsys, tmp_path):
    empty_model = tmp_path / "empty_model.nfrs"
    empty_model.write_text('model "M" { }\n', encoding="utf-8")
    code, out, _ = run(capsys, "query", "coverage", str(empty_model), "--model", "M")
    assert code == 0
    assert "ratio 1.0" in out


def test_query_trace_fr(capsys, tmp_path):
    code, out, _ = run(capsys, "query", "trace-fr", TRACE, "--name", "User login")
    assert code == 0
    assert out.splitlines() == [
        "Performance Requirements: Login response time",
        "Security Requirements: Authentication strength",
    ]
    unsatisfied = tmp_path / "unsatisfied.nfrs"
    unsatisfied.write_text('fr "Logout" { statement: "s" requester: "r" }\n', encoding="utf-8")
    code, out, err = run(capsys, "query", "trace-fr", str(unsatisfied), "--name", "Logout")
    assert (code, out, err) == (0, "", "")


def test_query_leaf_attributes_json_bytes(capsys, tmp_path):
    code, out, _ = run(capsys, "query", "leaf-attributes", PRODUCT, "--model", "Software Product Quality Model",
                       "--characteristic", "Usability", "--format", "json")
    assert (code, out) == (0, '["Help availability","Task success ratio"]\n')
    doc = tmp_path / "umlaut.nfrs"
    doc.write_text('model "M" {\n  characteristic "C" { definition: "d" }\n  attribute "Größe" { definition: "d" }\n'
                   '  combines "C" -> "Größe"\n}\n', encoding="utf-8")
    code, out, _ = run(capsys, "query", "leaf-attributes", str(doc), "--model", "M", "--characteristic", "C",
                       "--format", "json")
    assert (code, out) == (0, '["Größe"]\n')


def test_query_coverage_json_bytes(capsys):
    code, out, _ = run(capsys, "query", "coverage", CHECKLIST, "--model", "Usability Heuristic Checklist",
                       "--format", "json")
    assert code == 0
    assert out == (
        '{"mapped":[["Progress for long operations",["Status visibility"]],'
        '["Recovery hints in errors",["Status visibility"]],["Undoable destructive actions",["Undo availability"]]],'
        '"ratio":0.75,"unmapped":["Searchable help"]}\n'
    )


def test_query_trace_fr_json_bytes(capsys):
    code, out, _ = run(capsys, "query", "trace-fr", TRACE, "--name", "User login", "--format", "json")
    assert code == 0
    assert out == ('[["Performance Requirements","Login response time"],'
                   '["Security Requirements","Authentication strength"]]\n')


def test_query_refuses_invalid_document(capsys, tmp_path):
    bad = tmp_path / "bad.nfrs"
    bad.write_text('entity "E" { belongs_to: "Nope" }\n', encoding="utf-8")
    code, _, err = run(capsys, "query", "coverage", str(bad), "--model", "M")
    assert code == 1
    assert "R-001" in err


# three quality views with a self-loop on Q2, and one cost view outside the influences graph
CLOSURE_DOC = (
    'category "C" { }\n'
    'model "M1" { characteristic "F1" { definition: "d" focus: quality } }\n'
    'model "MC" { characteristic "FC" { definition: "d" focus: cost } }\n'
    'view_model "VM" {\n'
    '  view "Q1" { kind: quality category: "C" focus: "M1" . "F1" }\n'
    '  view "Q2" { kind: quality category: "C" focus: "M1" . "F1" }\n'
    '  view "Q3" { kind: quality category: "C" focus: "M1" . "F1" }\n'
    '  view "K" { kind: cost category: "C" focus: "MC" . "FC" }\n'
    '  influences "Q1" -> "Q2"\n'
    '  influences "Q2" -> "Q2"\n'
    '  influences "Q2" -> "Q3"\n'
    '  depends_on "Q3" -> "Q2"\n'
    "}\n"
)


@pytest.fixture
def closure_doc(tmp_path) -> str:
    doc = tmp_path / "closure.nfrs"
    doc.write_text(CLOSURE_DOC, encoding="utf-8")
    return str(doc)


@pytest.mark.parametrize("transitive", [(), ("--transitive",)], ids=["direct", "transitive"])
@pytest.mark.parametrize("command", ["influences", "depends"])
@pytest.mark.parametrize(("view_model", "origin", "message"), [
    ("Nope", "Q1", "no view model named 'Nope'"),
    ("VM", "Nope", "no view named 'Nope' in view model 'VM'"),
    ("VM", "K", "'K' is a cost view; closures walk quality views"),
], ids=["unknown-view-model", "unknown-origin", "cost-origin"])
def test_query_closure_name_errors_bytes(capsys, closure_doc, transitive, command, view_model, origin, message):
    code, out, err = run(capsys, "query", command, closure_doc, "--view-model", view_model, "--from", origin,
                         *transitive)
    assert (code, out, err) == (3, "", f"nfrsctl: error: {message}\n")


@pytest.mark.parametrize(("command", "origin", "direct", "transitive"), [
    ("influences", "Q1", ["Q2"], ["Q2", "Q3"]),
    ("influences", "Q2", ["Q2", "Q3"], ["Q2", "Q3"]),
    ("influences", "Q3", [], []),
    ("depends", "Q1", [], []),
    ("depends", "Q2", ["Q1", "Q2"], ["Q1", "Q2"]),
    ("depends", "Q3", ["Q2"], ["Q2", "Q1"]),
])
def test_query_closure_direct_and_transitive_bytes(capsys, closure_doc, command, origin, direct, transitive):
    for flags, reached in (((), direct), (("--transitive",), transitive)):
        code, out, err = run(capsys, "query", command, closure_doc, "--view-model", "VM", "--from", origin,
                             *flags, "--format", "json")
        names = ",".join(f'"{name}"' for name in reached)
        assert (code, out, err) == (0, f'{{"origin":"{origin}","reached":[{names}]}}\n', "")
        code, out, err = run(capsys, "query", command, closure_doc, "--view-model", "VM", "--from", origin, *flags)
        assert (code, out, err) == (0, "".join(f"{name}\n" for name in reached), "")


_QUERIES = [
    ("influences", "--view-model", "VM", "--from", "Q1"),
    ("depends", "--view-model", "VM", "--from", "Q1", "--transitive"),
    ("leaf-attributes", "--model", "M", "--characteristic", "C"),
    ("coverage", "--model", "M"),
    ("trace-fr", "--name", "F"),
]


@pytest.mark.parametrize("query", _QUERIES, ids=[q[0] for q in _QUERIES])
def test_query_json_writes_failures_to_stdout_as_diagnostics(capsys, tmp_path, query):
    command, *flags = query
    unparsable, invalid = tmp_path / "unparsable.nfrs", tmp_path / "invalid.nfrs"
    unparsable.write_text('category "B" { y }\ncategory "A" { x }\n', encoding="utf-8")
    invalid.write_text('entity "JIRA" { belongs_to: "Nope" }\nentity "Wiki" { belongs_to: "Nope" }\n',
                       encoding="utf-8")
    outputs = {}
    for path, code in ((unparsable, 2), (invalid, 1)):
        # exit code and stderr as in text mode; stdout gets what validate --format json writes
        text_code, text_out, text_err = run(capsys, "query", command, str(path), *flags)
        assert (text_code, text_out) == (code, "") and text_err
        _, validate_out, _ = run(capsys, "validate", str(path), "--format", "json")
        assert run(capsys, "query", command, str(path), *flags, "--format", "json") == (code, validate_out, text_err)
        outputs[code] = [(r["code"], r["line"], r["column"], r["subject"]) for r in json.loads(validate_out)]
    assert outputs == {2: [("parse", 1, 16, None), ("parse", 2, 16, None)],
                       1: [("R-001", 1, 1, "entity:JIRA"), ("R-001", 2, 1, "entity:Wiki")]}


# --- lint-arch ------------------------------------------------------------------


def test_lint_arch_reference_clean(capsys):
    code, out, _ = run(capsys, "lint-arch", ARCH)
    assert code == 0
    assert out == ""
    code, out, _ = run(capsys, "lint-arch", ARCH, "--format", "json")
    assert (code, out) == (0, "[]\n")


def test_lint_arch_l002(capsys, tmp_path):
    arch = tmp_path / "bad.arch"
    arch.write_text(
        "component ThingFO level Foundational\n"
        "component SituationCO level Core\n"
        "component MetricsLDO level LowDomain\n"
        "enriches SituationCO <- MetricsLDO\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "lint-arch", str(arch))
    assert code == 1
    assert "L-002" in out


def test_lint_arch_missing_thingfo(capsys, tmp_path):
    arch = tmp_path / "no_thingfo.arch"
    arch.write_text("component SituationCO level Core\n", encoding="utf-8")
    code, out, _ = run(capsys, "lint-arch", str(arch))
    assert code == 1
    assert "L-001" in out


def test_lint_arch_parse_failure(capsys, tmp_path):
    arch = tmp_path / "broken.arch"
    arch.write_text("component X level Bogus\n", encoding="utf-8")
    code, _, err = run(capsys, "lint-arch", str(arch))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(("text", "line", "message"), [
    ("component X level Bogus\n", 1, "unknown level 'Bogus'"),
    ("component ThingFO level Foundational\n\npeer ThingFO\n", 3, "expected 'peer <A> <B>'"),
    ("enriches A <- B\ncomponent A level Core\n", 1, "enrichment edge names undeclared component: A <- B"),
    # only \r\n, \r and \n end a line; other characters str.splitlines breaks at do not
    ("component ThingFO level Foundational\x0c# note\nbogus x\n", 2, "unknown directive 'bogus'"),
    ("component ThingFO level Foundational\n\u2028bogus x\n", 2, "unknown directive 'bogus'"),
    ("\x1c\x1d\x1e\x85\u2029\x0b\nbogus x\n", 2, "unknown directive 'bogus'"),
    ("\r\n\r\n\rbogus x", 4, "unknown directive 'bogus'"),
], ids=["bad-level", "third-line", "undeclared-after-reading", "form-feed", "line-separator", "other-separators",
        "crlf-and-cr"])
def test_lint_arch_json_writes_parse_failure_as_one_diagnostic(capsys, tmp_path, text, line, message):
    arch = tmp_path / "broken.arch"
    arch.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "lint-arch", str(arch))
    assert (code, out) == (2, "")
    assert err.startswith(f"{arch}: error: line {line}: ")
    record = {"code": "parse", "column": 1, "file": str(arch), "line": line, "message": err.split(": ", 3)[3][:-1],
              "severity": "error", "subject": None}
    assert run(capsys, "lint-arch", str(arch), "--format", "json") == (
        2, json.dumps([record], sort_keys=True, separators=(",", ":")) + "\n", err)
    assert message in record["message"]


def test_lint_arch_json_writes_undecodable_input_as_diagnostic(capsys, tmp_path):
    arch = tmp_path / "broken.arch"
    arch.write_bytes(b"component ThingFO level Foundational\ncomp\xffonent\n")
    code, out, err = run(capsys, "lint-arch", str(arch), "--format", "json")
    assert (code, err) == (2, f"{arch}:2:5: error: invalid UTF-8 byte 0xff\n")
    assert json.loads(out) == [{"code": "parse", "column": 5, "file": str(arch), "line": 2,
                                "message": "invalid UTF-8 byte 0xff", "severity": "error", "subject": None}]


# --- global behavior --------------------------------------------------------------


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 3


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", CHAIN, "--bogus")
    assert code == 3


def test_no_color_env(monkeypatch, capsys):
    monkeypatch.setenv("NFRSCTL_NO_COLOR", "1")
    _, out, _ = run(capsys, "schema", "counts")
    assert "\x1b[" not in out


def test_console_entry_point_via_module():
    # the child imports the package this process is testing, installed or not
    package_root = str(Path(nfrstdo.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "nfrstdo", "schema", "counts", "--version", "1.2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0
    assert result.stdout == "terms=15 properties=18 relationships=12\n"


def test_help_is_a_short_user_facing_description(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["-h"])
    out = capsys.readouterr().out
    assert exit_info.value.code == 0
    assert out.startswith("usage: nfrsctl ")
    assert "``" not in out
    assert "tmp" not in out and "temporary" not in out
    assert "exit codes: 0 success, 1 validation errors, 2 parse failure, 3 usage error" in out
