"""The view-model checks as they stood before the edge loop built an edge's subject only when reporting it.

``_Sink``, ``_check_view_model`` and ``validate`` are copied verbatim from
that version: every view edge gets its subject string, its location key, its
missing-endpoint list and its wrong-kind set, reported or not. ``validate``
runs the library's entity and model checks, which did not change, with this
``_check_view_model``. ``tests/test_validator.py`` compares the diagnostic
lists of the two.
"""

from __future__ import annotations

from nfrstdo.diagnostics import Diagnostic, Severity, SourceLocation, sort_diagnostics
from nfrstdo.model import Document, FocusKind, NfrsViewModelNode, edge_message, iter_edges
from nfrstdo.validator import ValidationMode, _check_model, _cycle_groups, depends_contradictions


class _Sink:
    def __init__(self, doc: Document) -> None:
        self.doc = doc
        self.diagnostics: list[Diagnostic] = []

    def add(self, code: str, severity: Severity, message: str, subject: str, loc_key: tuple | None) -> None:
        location: SourceLocation | None = None
        if loc_key is not None:
            location = self.doc.source_locations.get(loc_key)
        self.diagnostics.append(Diagnostic(code, severity, message, subject, location))

    def error(self, code: str, message: str, subject: str, loc_key: tuple | None) -> None:
        self.add(code, Severity.ERROR, message, subject, loc_key)

    def warning(self, code: str, message: str, subject: str, loc_key: tuple | None) -> None:
        self.add(code, Severity.WARNING, message, subject, loc_key)


def _check_view_model(doc: Document, vm: NfrsViewModelNode, mode: ValidationMode, sink: _Sink) -> None:
    v = vm.name

    for name in sorted(vm.views):
        view = vm.views[name]
        subject = f"view_model:{v}/view:{name}"
        key = ("view", v, name)
        category = doc.categories.get(view.category)
        if category is None:
            sink.error("R-004", f"view deals with unknown category {view.category!r}", subject, key)
        elif category.parent is not None:
            sink.warning(
                "R-015",
                f"view category {view.category!r} has parent {category.parent!r}; a view expects"
                " the super-category at the highest abstraction level",
                subject,
                key,
            )

        focus_model, focus_char = view.focus
        model = doc.models.get(focus_model)
        focus = None if model is None else model.nfrs.get(focus_char)
        if focus is None:
            if mode is ValidationMode.INSTANCE:
                sink.error(
                    "R-007",
                    f"view focus {focus_model!r} . {focus_char!r} is not represented by any model"
                    " in this document",
                    subject,
                    key,
                )
        elif not focus.is_focus:
            sink.error(
                "R-007",
                f"view focus must target a focus-marked characteristic; {focus_char!r} in model"
                f" {focus_model!r} is not marked as one",
                subject,
                key,
            )
        elif focus.focus_kind is not view.kind:
            sink.error(
                "R-014",
                f"{view.kind.value} view targets a {focus.focus_kind.value} focus ({focus_char!r})",
                subject,
                key,
            )

    contradicting = {("depends_on", *edge) for edge in depends_contradictions(vm)}
    for kind, source, target in iter_edges(vm):
        subject = f"view_model:{v}/{kind.keyword}:{source}->{target}"
        key = ("edge", v, kind.keyword, source, target)
        missing = [name for name in dict.fromkeys((source, target)) if name not in vm.views]
        for name in missing:
            sink.error("R-REF", f"unknown view {name!r} in view model {v!r}", subject, key)
        if missing:
            continue
        # one diagnostic names every endpoint of the wrong kind
        wrong = sorted({name for name, allowed in ((source, kind.sources), (target, kind.targets))
                        if vm.views[name].kind not in allowed})
        if wrong:
            sink.error(kind.code, edge_message(kind.target_message, ", ".join(wrong)), subject, key)
        elif (kind.keyword, source, target) in contradicting:
            sink.error(
                "R-006b",
                f"explicit depends_on contradicts influences: no influences {target!r} -> {source!r}"
                " edge exists",
                subject,
                key,
            )

    quality = {name for name, view in vm.views.items() if view.kind is FocusKind.QUALITY}
    resolved_influences = [(s, t) for s, t in vm.influences_edges if s in quality and t in quality]
    for group in _cycle_groups(resolved_influences):
        sink.warning(
            "R-016",
            "influence relationships form a cycle: " + " -> ".join(group),
            f"view_model:{v}/influences-cycle:{' -> '.join(group)}",
            None,
        )


def validate(doc: Document, mode: ValidationMode = ValidationMode.MODEL) -> list[Diagnostic]:
    """Run the full rule catalog; an empty result means the document conforms.

    Diagnostics come back sorted by (code, subject, message), so repeated
    runs render identically.
    """
    sink = _Sink(doc)
    for name in sorted(doc.entities):
        entity = doc.entities[name]
        if entity.category not in doc.categories:
            sink.error(
                "R-001",
                f"entity belongs to unknown category {entity.category!r}; every entity needs"
                " exactly one resolvable category",
                f"entity:{name}",
                ("entity", name),
            )
    for name in sorted(doc.models):
        _check_model(doc, doc.models[name], mode, sink)
    for name in sorted(doc.view_models):
        _check_view_model(doc, doc.view_models[name], mode, sink)
    return sort_diagnostics(sink.diagnostics)
