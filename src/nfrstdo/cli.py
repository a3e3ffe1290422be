"""``nfrsctl``: validate, export, query, and inspect the built-in schemas.

Input is read as UTF-8; one leading byte-order mark is skipped. Exit codes: 0
success, 1 validation errors (warnings too under ``--strict``), 2 parse failure
(input that is not UTF-8 included), 3 usage error (an unreadable input, an
unwritable ``-o`` file, and a standard output that is full, closed or otherwise
fails when the command writes to it included, ``-h`` too). A closed pipe on
standard output, as from ``| head``, ends the run with 3 and no message; any
other failure of standard output prints ``nfrsctl: error: cannot write standard
output: …`` on stderr. A standard error that fails ends the run with 3 as well,
with no message. An interrupt (Ctrl-C) ends the run with 3 and ``nfrsctl:
error: interrupted`` on stderr, not a traceback. Query results and ``schema
diff`` share one printer: one line per item, or compact, key-sorted JSON under
``--format json``. Under ``--format json``, parse failures and the validation
errors that stop a query also go to stdout as one diagnostic array; stderr
keeps the text. ``-o`` onto a new or regular file writes a sibling temporary
file and renames it onto the target, so the target holds either the old or the
whole new output; any other target (a symlink, a FIFO, a device) is written
directly. Set ``NFRSCTL_NO_COLOR`` to disable ANSI styling of severities.
"""

from __future__ import annotations

import argparse
import codecs
import errno
import io
import json
import os
import stat
import sys
from enum import IntEnum
from functools import cache

from .diagnostics import Diagnostic, Severity, SourceLocation, render_json, render_text
from .model import Document
from .textformat import ParseFailure, parse
from .validator import RULES, ValidationMode, has_errors, validate


class ExitCode(IntEnum):
    SUCCESS = 0
    VALIDATION_ERRORS = 1
    PARSE_FAILURE = 2
    USAGE_ERROR = 3


class UsageError(Exception):
    pass


class _Fail(Exception):
    def __init__(self, code: ExitCode) -> None:
        self.code = code


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise UsageError(message)

    def print_help(self, file=None) -> None:
        """Write and flush the help, so that a failure reaches ``main``: argparse's own printer ignores a failed
        write, and ``-h`` then exits before ``main`` flushes."""
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


def _color_enabled() -> bool:
    if os.environ.get("NFRSCTL_NO_COLOR"):
        return False
    return sys.stdout.isatty()


def _parse_failed(path: str, errors: list[tuple[SourceLocation, str]], fmt: str) -> _Fail:
    """Report (location, message) parse errors on stderr, and under ``--format json`` also on stdout as diagnostics."""
    for loc, message in errors:
        print(f"{path}:{loc.line}:{loc.column}: error: {message}", file=sys.stderr)
    if fmt == "json":
        diagnostics = [Diagnostic("parse", Severity.ERROR, message, None, loc) for loc, message in errors]
        print(render_json(diagnostics, path))
    return _Fail(ExitCode.PARSE_FAILURE)


def _read_text(path: str, fmt: str) -> str:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    # not the utf-8-sig codec: its error offsets count from after the mark, which would misplace a bad byte
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # locate the first bad byte, counting lines as the parser does
        before = data[: exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        line, column = before.count("\n") + 1, len(before) - before.rfind("\n")
        message = f"invalid UTF-8 byte 0x{data[exc.start]:02x}"
        raise _parse_failed(path, [(SourceLocation(line, column), message)], fmt) from None


def _load_document(path: str, fmt: str) -> Document:
    try:
        return parse(_read_text(path, fmt))
    except ParseFailure as failure:
        raise _parse_failed(path, [(e.location, e.message) for e in failure.errors], fmt) from None


def _print_diagnostics(diagnostics: list[Diagnostic], path: str, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "json":
        print(render_json(diagnostics, path), file=stream)
        return
    color = _color_enabled() and stream is sys.stdout
    for diagnostic in diagnostics:
        print(render_text(diagnostic, path, color=color), file=stream)


def _print_result(fmt: str, obj, lines) -> None:
    """Print ``obj`` as compact, key-sorted JSON under ``--format json``, and otherwise each of ``lines``."""
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":")))
        return
    for line in lines:
        print(line)


def _write_output(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
        return
    try:
        regular = stat.S_ISREG(os.lstat(out).st_mode)
    except OSError:
        regular = True  # missing: the rename creates it; any other fault shows on open
    # a new or regular target gets a sibling file renamed onto it, so that it is
    # either the old file or the whole new output (the pid keeps concurrent
    # writers apart without the start-up cost of importing tempfile); anything
    # else (a symlink, a FIFO, a device, a directory) is opened directly, since
    # the rename would replace it
    temporary = f"{out}.{os.getpid()}.tmp" if regular else out
    try:
        with open(temporary, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(payload)
        if regular:
            os.replace(temporary, out)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from None
    finally:
        if regular:
            try:
                os.remove(temporary)
            except OSError:
                pass  # renamed onto the target, or never created


# --- commands -----------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> ExitCode:
    doc = _load_document(args.file, args.format)
    diagnostics = validate(doc, ValidationMode(args.mode))
    _print_diagnostics(diagnostics, args.file, args.format)
    if has_errors(diagnostics, strict=args.strict):
        return ExitCode.VALIDATION_ERRORS
    return ExitCode.SUCCESS


def cmd_export(args: argparse.Namespace) -> ExitCode:
    from . import export

    doc = _load_document(args.file, "text")
    refused = [d for d in validate(doc, ValidationMode.MODEL) if RULES[d.code].export]
    if refused:
        _print_diagnostics(refused, args.file, "text", stream=sys.stderr)
        return ExitCode.VALIDATION_ERRORS
    renderers = {"json": export.to_json, "dot": export.to_dot, "turtle": export.to_turtle}
    _write_output(renderers[args.to](doc), args.output)
    return ExitCode.SUCCESS


def _schema(version: str):
    from . import kernel

    try:
        return kernel.builtin_schema(version)
    except kernel.UnknownVersion as exc:
        raise UsageError(str(exc)) from None


def cmd_schema(args: argparse.Namespace) -> ExitCode:
    from . import kernel

    if args.schema_command == "counts":
        terms, properties, relationships = kernel.schema_counts(_schema(args.version))
        print(f"terms={terms} properties={properties} relationships={relationships}")
    elif args.schema_command == "dump":
        sys.stdout.write(kernel.schema_to_json(_schema(args.version)))
    elif args.schema_command == "stereotypes":
        try:
            chain = kernel.stereotype_chain(_schema(args.version), args.term)
        except kernel.UnknownTerm as exc:
            raise UsageError(str(exc)) from None
        for ref in chain:
            print(f"{ref.component.name}:{ref.term}")
    else:  # diff
        diff = kernel.diff_schemas(_schema(args.old), _schema(args.new))
        _print_result(args.format, _diff_object(diff), _diff_lines(diff))
    return ExitCode.SUCCESS


def _diff_lines(diff) -> list[str]:
    lines = []
    lines += [f"removed term: {t}" for t in diff.removed_terms]
    lines += [f"added term: {t}" for t in diff.added_terms]
    lines += [f"removed relationship: {n} ({s} -> {t})" for n, s, t in diff.removed_relationships]
    lines += [f"added relationship: {n} ({s} -> {t})" for n, s, t in diff.added_relationships]
    lines += [
        f"renamed relationship: {old} -> {new} ({s} -> {t})"
        for old, new, s, t in diff.renamed_relationships
    ]
    lines += [
        f"stereotype {c.change}: {c.term}: {c.stereotype.component.name}:{c.stereotype.term}"
        for c in diff.stereotype_changes
    ]
    return lines


def _diff_object(diff) -> dict:
    obj = {name: getattr(diff, name) for name in diff._fields}  # json writes the tuples as arrays
    obj["stereotype_changes"] = [
        {
            "change": c.change,
            "component": c.stereotype.component.name,
            "stereotype": c.stereotype.term,
            "term": c.term,
        }
        for c in diff.stereotype_changes
    ]
    return obj


def _validated_document(path: str, fmt: str) -> Document:
    doc = _load_document(path, fmt)
    diagnostics = validate(doc, ValidationMode.MODEL)
    if has_errors(diagnostics):
        _print_diagnostics(diagnostics, path, "text", stream=sys.stderr)
        if fmt == "json":
            _print_diagnostics(diagnostics, path, fmt)
        raise _Fail(ExitCode.VALIDATION_ERRORS)
    return doc


def cmd_query(args: argparse.Namespace) -> ExitCode:
    from . import queries

    doc = _validated_document(args.file, args.format)
    command = args.query_command
    try:
        if command in ("influences", "depends"):
            run = queries.influence_closure if command == "influences" else queries.depends_closure
            lines = run(doc, args.view_model, args.origin, transitive=args.transitive).reached
            obj = {"origin": args.origin, "reached": lines}
        elif command == "leaf-attributes":
            obj = lines = queries.leaf_attributes(doc, args.model, args.characteristic)
        elif command == "coverage":
            report = queries.mapping_coverage(doc, args.model)
            obj = {"mapped": report.mapped, "ratio": float(report.ratio), "unmapped": report.unmapped}
            lines = [f"mapped {item!r} -> " + ", ".join(attrs) for item, attrs in report.mapped]
            lines += [f"unmapped {item!r}" for item in report.unmapped]
            lines.append(f"ratio {obj['ratio']}")
        else:  # trace-fr
            obj = queries.trace_satisfies(doc, args.name)
            lines = [f"{model_name}: {nfr_name}" for model_name, nfr_name in obj]
    except queries.QueryError as exc:
        raise UsageError(str(exc)) from None
    _print_result(args.format, obj, lines)
    return ExitCode.SUCCESS


def cmd_lint_arch(args: argparse.Namespace) -> ExitCode:
    from . import kernel

    text = _read_text(args.file, args.format)
    try:
        spec = kernel.parse_arch(text)
    except kernel.ArchParseError as exc:
        print(f"{args.file}: error: {exc}", file=sys.stderr)
        if args.format == "json":
            message = str(exc).removeprefix(f"line {exc.line_no}: ")
            _print_diagnostics([Diagnostic("parse", Severity.ERROR, message, None, SourceLocation(exc.line_no, 1))],
                               args.file, args.format)
        return ExitCode.PARSE_FAILURE
    diagnostics = kernel.lint_architecture(spec)
    _print_diagnostics(diagnostics, args.file, args.format)
    return ExitCode.VALIDATION_ERRORS if diagnostics else ExitCode.SUCCESS


# --- argument wiring -------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: ``main`` only reads it."""
    parser = _ArgumentParser(
        prog="nfrsctl",
        description="Validate, export and query NFRsTDO .nfrs documents, and inspect the built-in schemas.",
        epilog="exit codes: 0 success, 1 validation errors, 2 parse failure, 3 usage error (an unreadable input, "
        "an unwritable output, standard output or standard error included; a closed pipe ends quietly with 3; "
        "an interrupt ends with 3 too)",
    )
    commands = parser.add_subparsers(dest="command")

    p = commands.add_parser("validate", help="parse and validate a .nfrs file")
    p.add_argument("file")
    p.add_argument("--mode", choices=["model", "instance"], default="model")
    p.add_argument("--strict", action="store_true", help="warnings also fail the exit code")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_validate)

    p = commands.add_parser("export", help="export a .nfrs file deterministically")
    p.add_argument("file")
    p.add_argument("to", choices=["json", "dot", "turtle"])
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_export)

    p = commands.add_parser("schema", help="inspect the built-in ontology schemas")
    schema_commands = p.add_subparsers(dest="schema_command", required=True)
    sp = schema_commands.add_parser("counts")
    sp.add_argument("--version", default="1.2")
    sp = schema_commands.add_parser("dump")
    sp.add_argument("--version", default="1.2")
    sp = schema_commands.add_parser("diff")
    sp.add_argument("old")
    sp.add_argument("new")
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp = schema_commands.add_parser("stereotypes")
    sp.add_argument("term")
    sp.add_argument("--version", default="1.2")
    p.set_defaults(func=cmd_schema)

    p = commands.add_parser("query", help="run read-only analyses over a validated file")
    query_commands = p.add_subparsers(dest="query_command", required=True)
    for name in ("influences", "depends"):
        qp = query_commands.add_parser(name)
        qp.add_argument("file")
        qp.add_argument("--view-model", required=True)
        qp.add_argument("--from", dest="origin", required=True)
        qp.add_argument("--transitive", action="store_true")
        qp.add_argument("--format", choices=["text", "json"], default="text")
    qp = query_commands.add_parser("leaf-attributes")
    qp.add_argument("file")
    qp.add_argument("--model", required=True)
    qp.add_argument("--characteristic", required=True)
    qp.add_argument("--format", choices=["text", "json"], default="text")
    qp = query_commands.add_parser("coverage")
    qp.add_argument("file")
    qp.add_argument("--model", required=True)
    qp.add_argument("--format", choices=["text", "json"], default="text")
    qp = query_commands.add_parser("trace-fr")
    qp.add_argument("file")
    qp.add_argument("--name", required=True)
    qp.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_query)

    p = commands.add_parser("lint-arch", help="check an architecture file against the tier rules")
    p.add_argument("file")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_lint_arch)

    return parser


class _ClosedStdout(io.TextIOBase):
    """Standard output of a process started with descriptor 1 closed: a write fails as one to that descriptor
    would, and a command that writes nothing runs as usual."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


def _stdout_failed(exc: OSError) -> int:
    """Report a failed standard output or error, unless it is a closed pipe or stderr itself, and point stdout's
    descriptor at ``os.devnull``, so that the flush at interpreter exit does not fail again."""
    if not isinstance(exc, BrokenPipeError):
        try:
            print(f"nfrsctl: error: cannot write standard output: {exc.strerror or exc}", file=sys.stderr)
        except OSError:  # standard error fails too, or failed first: the exit code alone reports it
            pass
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # no descriptor (a _ClosedStdout, or a stream in memory): nothing to flush
        return int(ExitCode.USAGE_ERROR)
    devnull = os.open(os.devnull, os.O_WRONLY)
    if devnull != fd:  # when fd was closed, os.open took its number, and fd already is os.devnull
        os.dup2(devnull, fd)
        os.close(devnull)
    return int(ExitCode.USAGE_ERROR)


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:
        sys.stdout = _ClosedStdout()
    # every read and every -o write reports its own OSError, so one that reaches here is standard output's or error's
    try:
        try:
            parser = build_parser()
            args = parser.parse_args(argv)
            if getattr(args, "func", None) is None:
                parser.print_usage(sys.stderr)
                return int(ExitCode.USAGE_ERROR)
            code = args.func(args)
        except UsageError as exc:
            print(f"nfrsctl: error: {exc}", file=sys.stderr)
            code = ExitCode.USAGE_ERROR
        except _Fail as fail:
            code = fail.code
        except KeyboardInterrupt:
            print("nfrsctl: error: interrupted", file=sys.stderr)
            code = ExitCode.USAGE_ERROR
        sys.stdout.flush()
    except OSError as exc:
        return _stdout_failed(exc)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
