"""The package entry: lazy public names, the layers each ``nfrsctl`` subcommand loads, what the sources need
to run (the standard library only, and Python 3.10), and a README synopsis that names every option."""

from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nfrstdo
from conftest import fixture_path
from nfrstdo import cli

CHAIN = str(fixture_path("quality_views_chain.nfrs"))
SOURCES = sorted(Path(nfrstdo.__file__).resolve().parent.glob("*.py"))
VALIDATE_MODULES = {"nfrstdo", "nfrstdo.cli", "nfrstdo.diagnostics", "nfrstdo.model", "nfrstdo.textformat",
                    "nfrstdo.validator"}


def imported_modules(*argv: str, flags: tuple[str, ...] = ()) -> set[str]:
    """The modules a fresh ``python FLAGS -m nfrstdo ARGV`` imports, read from ``-X importtime``.

    ``-m`` runs ``nfrstdo/__main__.py`` as ``__main__``, which importtime does not list.
    """
    package_root = str(Path(nfrstdo.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *flags, "-X", "importtime", "-m", "nfrstdo", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0, result.stderr[-500:]
    return {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines() if line.startswith("import time:")}


def loaded_modules(*argv: str) -> set[str]:
    """The ``nfrstdo`` modules among ``imported_modules(*argv)``."""
    return {name for name in imported_modules(*argv) if name.split(".")[0] == "nfrstdo"}


def test_validate_loads_only_the_layers_it_runs():
    assert loaded_modules("validate", CHAIN) == VALIDATE_MODULES


def test_export_adds_only_the_exporter(tmp_path):
    out = str(tmp_path / "out.ttl")
    assert loaded_modules("export", CHAIN, "turtle", "-o", out) == VALIDATE_MODULES | {"nfrstdo.export"}


@pytest.mark.parametrize("command", ["validate", "export"])
def test_start_up_imports_no_introspection_modules(command, tmp_path):
    # dataclasses pulls in inspect, ast and dis; the records are built without them
    argv = ["validate", CHAIN] if command == "validate" else ["export", CHAIN, "turtle", "-o", str(tmp_path / "o.ttl")]
    assert imported_modules(*argv) & {"dataclasses", "inspect", "ast", "dis"} == set()


def test_turtle_export_imports_no_urllib(tmp_path):
    # without site (-S), since a .pth file that site runs may import urllib itself
    argv = ["export", CHAIN, "turtle", "-o", str(tmp_path / "o.ttl")]
    modules = imported_modules(*argv, flags=("-S",))
    assert "nfrstdo.export" in modules
    assert {name for name in modules if name.split(".")[0] == "urllib"} == set()


def test_public_names_are_their_modules_objects():
    assert len(nfrstdo.__all__) == 46
    for name in nfrstdo.__all__:
        value = getattr(nfrstdo, name)
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from nfrstdo import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(nfrstdo.__all__)
    assert set(dir(nfrstdo)) >= set(nfrstdo.__all__)


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nfrstdo.no_such_name  # noqa: B018 - the lookup is the test


def test_modules_import_only_the_standard_library():
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert {"argparse", "enum", "json", "re"} <= imported
    assert imported - sys.stdlib_module_names == set()


def test_modules_parse_as_python_3_10():
    # pyproject.toml requires Python >= 3.10; the grammar check stands in for running an older interpreter
    assert len(SOURCES) == 10
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_readme_cli_synopsis_lists_every_option():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    synopsis = [line.split() for line in block.splitlines()]

    def leaves(parser: argparse.ArgumentParser, path: tuple[str, ...]):
        branches = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not branches:
            yield path, parser
        for action in branches:
            for name, subparser in action.choices.items():
                yield from leaves(subparser, (*path, name))

    commands = list(leaves(cli.build_parser(), ()))
    assert len(commands) == 12
    for path, parser in commands:
        # a synopsis line names its subcommand path after "nfrsctl", alternatives joined by "|"
        lines = [" ".join(words) for words in synopsis
                 if len(words) > len(path) and all(name in words[i + 1].split("|") for i, name in enumerate(path))]
        assert len(lines) == 1, path
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            for option in action.option_strings:
                assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", lines[0]), (path, option)
