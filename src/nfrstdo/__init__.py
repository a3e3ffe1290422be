"""Executable NFRsTDO ontology toolkit.

A schema kernel for the built-in term/property/relationship registry, the
``.nfrs`` authoring format, a coded-rule validator, read-only graph queries,
and deterministic JSON/DOT/Turtle exporters, all surfaced by the ``nfrsctl``
command.

Each public name loads its module on first use (PEP 562), so importing the
package, or running one ``nfrsctl`` subcommand, loads only the layers used.
"""

# each module and the public names it provides
_EXPORTS = {
    "diagnostics": ("Diagnostic", "Severity", "SourceLocation"),
    "kernel": (
        "ArchSpec", "ComponentRef", "OntologySchema", "OntoLevel", "RelationshipDef", "SchemaDiff",
        "StereotypeRef", "TermDef", "builtin_schema", "diff_schemas", "lint_architecture", "parse_arch",
        "schema_counts", "schema_to_json", "stereotype_chain",
    ),
    "model": (
        "CategoryNode", "Document", "EntityNode", "FocusKind", "FunctionalRequirementNode", "NfrKind", "NfrNode",
        "NfrsModelNode", "NfrsViewModelNode", "NfrViewNode", "add_model_edge", "add_node", "add_view_edge",
        "resolve",
    ),
    "queries": (
        "ClosureResult", "CoverageReport", "depends_closure", "influence_closure", "leaf_attributes",
        "mapping_coverage", "trace_satisfies",
    ),
    "textformat": ("ParseError", "ParseFailure", "parse", "serialize"),
    "validator": ("ValidationMode", "derive_depends_on", "validate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # here, so that it does not become an attribute of the package

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
