"""Shared diagnostic types: severities, source locations, and coded findings.

Rule codes follow two catalogs: ``R-###`` for instance-document rules and
``L-###`` for ontological-architecture layering rules.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import partial
from operator import attrgetter


class factory(partial):
    """A field default made anew for each record: ``nfrs: dict[str, NfrNode] = factory(dict)``."""


class _RecordType(type):
    """Gives each record class ``__slots__``, ``_fields``, ``_positions`` and an ``__init__`` built from its fields.

    ``__init__`` turns ``self`` into a private writable twin of its type (whose
    ``__setattr__`` and ``__delattr__`` are ``object``'s), stores each field with
    a plain slot store, turns it back and only then runs ``__post_init__``; so a
    subclass of a record type with fields must declare its own.
    """

    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        if len(fields) == 1:  # attrgetter would return the bare value, so the hash would not be the tuple's
            raise TypeError(f"record {name} needs two or more fields")
        if not fields and any(getattr(base, "_fields", ()) for base in bases):
            raise TypeError(f"record {name} must declare its own fields")
        defaults = {f: namespace.pop(f) for f in fields if f in namespace}
        namespace["__slots__"] = (*fields, *namespace.get("__slots__", ()))
        cls = super().__new__(mcls, name, bases, namespace)
        if fields:
            cls._fields, cls._key = fields, attrgetter(*fields)
            cls._positions = {f: i for i, f in enumerate(fields)}
            # with both hooks object's, each store below is a specialised slot store, not a call
            twin = type.__new__(mcls, name, (cls,), {"__slots__": (), "__setattr__": object.__setattr__,
                                                     "__delattr__": object.__delattr__})
            lines = [f"def __init__(self, {', '.join(f'{f}=_d[{f!r}]' if f in defaults else f for f in fields)}):"]
            lines += [f" if {f} is _d[{f!r}]: {f} = {f}()" for f in fields if isinstance(defaults.get(f), factory)]
            lines += [" _set(self, '__class__', _twin)", *(f" self.{f} = {f}" for f in fields), " self.__class__ = _c"]
            if hasattr(cls, "__post_init__"):
                lines.append(" self.__post_init__()")
            exec("\n".join(lines), {"_d": defaults, "_set": object.__setattr__, "_twin": twin, "_c": cls},
                 made := {})
            cls.__init__ = made["__init__"]
        return cls


class Record(metaclass=_RecordType):
    """Base of the package's immutable records, declared as for ``dataclasses``: annotated fields, then defaults.

    ``_fields`` names the fields in order. Records of one type compare and
    hash as the tuple of their fields; a subclass that defines ``__eq__`` is
    unhashable. ``replace`` copies a record with some fields changed.
    """

    def __eq__(self, other):
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild by position, since __setattr__ refuses
        return self.__class__, tuple([getattr(self, f) for f in self._fields])


def replace(record, /, **changes):
    """A copy of ``record`` with ``changes`` applied to its fields, like ``dataclasses.replace``."""
    for name in record._fields:
        if name not in changes:
            changes[name] = getattr(record, name)
    return record.__class__(**changes)


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class SourceLocation(Record):
    """1-based line/column position in an input file."""

    line: int
    column: int

    def __post_init__(self) -> None:
        if self.line < 1 or self.column < 1:
            raise ValueError("line and column are 1-based")


class Diagnostic(Record):
    """One validation finding, identified by a stable rule code."""

    code: str
    severity: Severity
    message: str
    subject: str
    location: SourceLocation | None = None

    def sort_key(self) -> tuple[str, str, str]:
        return (self.code, self.subject, self.message)


def sort_diagnostics(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(diagnostics, key=Diagnostic.sort_key)


def render_text(diagnostic: Diagnostic, path: str, color: bool = False) -> str:
    """Render as ``<file>:<line>:<col>: <severity> <code>: <message> [<subject>]``."""
    severity = diagnostic.severity.value
    if color:
        tint = "\x1b[31m" if diagnostic.severity is Severity.ERROR else "\x1b[33m"
        severity = f"{tint}{severity}\x1b[0m"
    prefix = path
    if diagnostic.location is not None:
        prefix = f"{path}:{diagnostic.location.line}:{diagnostic.location.column}"
    return f"{prefix}: {severity} {diagnostic.code}: {diagnostic.message} [{diagnostic.subject}]"


def render_json(diagnostics: list[Diagnostic], path: str) -> str:
    """Render a diagnostic array, in the order given, as one compact JSON document."""
    records = []
    for d in diagnostics:
        records.append(
            {
                "code": d.code,
                "column": d.location.column if d.location else None,
                "file": path,
                "line": d.location.line if d.location else None,
                "message": d.message,
                "severity": d.severity.value,
                "subject": d.subject,
            }
        )
    return json.dumps(records, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
