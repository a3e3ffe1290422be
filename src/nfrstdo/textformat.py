"""Parser and canonical serializer for the ``.nfrs`` authoring format.

The format instantiates the ontology: categories, entities, functional
requirements, NFRs models with their requirement nodes and edges, and view
models. Parsing is purely syntactic; whether names resolve is the
validator's concern. Serialization is canonical, so two documents that are
structurally equal serialize to identical bytes regardless of how they were
built.

Both directions read the blocks from ``model.NODE_KINDS``: a kind's fields in
table order, then, for a model or a view model, its NFRs or views and its edge
statements in ``EDGE_KINDS`` order.

The lexer turns the text, its line breaks made ``\\n``, into flat ``(kind,
value, offset)`` tuples. The parser walks them by index. Only where it keeps a
location (a declaration or an edge in ``Document.source_locations``, or a
``ParseError``) does it turn an offset into a line and column, by a bisect
over the offsets where lines start.

Grammar sketch (names and texts are double-quoted strings, ``#`` comments)::

    category "X" { description: "..." parent: "Y" }
    entity "E" { description: "..." belongs_to: "X" }
    fr "F" { statement: "..." requester: "..." }
    model "M" {
      specification: "..."
      characteristic "C" { definition: "..." statement: "..." focus: quality }
      attribute "A" { definition: "..." }
      statement_item "S" { declaration: "..." }
      subcharacteristic "C2" of "C"
      combines "C" -> "A"
      maps "S" -> "A"
      refers_to_entity "C" -> "E"
      refers_to_category "C" -> "X"
      relates "C" <-> "A"
      satisfies "C" -> "F"
    }
    view_model "VM" {
      specification: "..."
      view "V" { kind: quality category: "X" focus: "M" . "C" statement: "..." }
      influences "V" -> "V2"
      depends_on "V2" -> "V"
    }
"""

from __future__ import annotations

import re
from bisect import bisect_right

from .diagnostics import Record, SourceLocation
from .model import (
    MODEL_EDGE_KINDS,
    NODE_KINDS,
    NODE_KINDS_BY_KEYWORD,
    VIEW_EDGE_KINDS,
    Document,
    FocusKind,
    NfrKind,
    NfrNode,
    NfrsModelNode,
    NfrsViewModelNode,
    NfrViewNode,
    NodeKind,
    article,
    edge_kind,
    iter_edges,
)

_DECLARATION = f"a declaration ({', '.join(NODE_KINDS_BY_KEYWORD)})"
_NFR_KEYWORDS = {k.value: k for k in NfrKind}
_FOCUS_KINDS = {k.value: k for k in FocusKind}
_MODEL_EDGE_ARROWS = {k.keyword: k.arrow for k in MODEL_EDGE_KINDS}
_VIEW_EDGE_KINDS = {k.keyword: k for k in VIEW_EDGE_KINDS}
# error recovery resumes at EOF or at one of these (kind, value) tokens: a declaration at the top level, and
# a member, an edge or the closing brace inside a model or a view model
_TOP_LEVEL_STOPS = frozenset(("word", k) for k in NODE_KINDS_BY_KEYWORD)
_MODEL_STOPS = frozenset([("punct", "}"), *(("word", k) for k in (*_NFR_KEYWORDS, *_MODEL_EDGE_ARROWS))])
_VIEW_MODEL_STOPS = frozenset([("punct", "}"), ("word", "view"), *(("word", k) for k in _VIEW_EDGE_KINDS)])
# what the second name of a model edge is expected to be, by syntax
_MODEL_EDGE_TARGETS = {"of": "a characteristic name", "<->": "an NFR name", "->": "a target name"}

_MAX_ERRORS = 50


class ParseError(Record):
    location: SourceLocation
    expected: str
    found: str

    @property
    def message(self) -> str:
        return f"expected {self.expected}, found {self.found}"


class ParseFailure(ValueError):
    """Raised when parsing produced one or more errors."""

    def __init__(self, errors: list[ParseError]) -> None:
        self.errors = sorted(errors, key=lambda e: (e.location.line, e.location.column))
        first = self.errors[0]
        suffix = f" (+{len(self.errors) - 1} more)" if len(self.errors) > 1 else ""
        super().__init__(
            f"{first.location.line}:{first.location.column}: {first.message}{suffix}"
        )


# --- lexer --------------------------------------------------------------------

_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}

# A string up to, not including, its closing quote: anything but a quote, a
# backslash or a line break, and the five escapes.
_OPEN_STRING = r'"[^"\\\n]*(?:\\[\\"ntr][^"\\\n]*)*'
# One token per match: blanks and line breaks, then a complete string (group 1), punctuation (2), a word (3),
# the end of input (4; tried before a comment, so that a trailing comment does not move it), a comment (no
# group), or any other character (5), which is a lexical error.
_TOKEN_RE = re.compile(
    rf'[ \t\n]*(?:({_OPEN_STRING}")|(<->|->|[{{}}:.])|([A-Za-z_][A-Za-z0-9_]*)|()(?:#[^\n]*)?\Z|#[^\n]*|(.))'
)
_KINDS = (None, "string", "punct", "word", "eof")  # token kind by group number
_OPEN_STRING_RE = re.compile(_OPEN_STRING)
_ESCAPE_RE = re.compile(r"\\(.)")

# A token is a flat (kind, value, offset) record: kind is word, string, punct or eof, a string's value is
# unescaped, and offset is where the token starts in the text with its line breaks made "\n".
_Record = tuple[str, str, int]


def _printable(text: str) -> str:
    """``text`` with each non-printable character, such as a zero-width space, written as its escape (``\\u200b``)."""
    return "".join(c if c.isprintable() else c.encode("unicode_escape").decode("ascii") for c in text)


def _describe(token: _Record) -> str:
    """How a parse error names the token it found."""
    kind, value = token[0], token[1]
    if kind == "eof":
        return "end of input"
    if kind == "string":
        text = value if len(value) <= 20 else value[:17] + "..."
        return f'string "{_printable(text)}"'
    return f"'{_printable(value)}'"


def _line_starts(text: str) -> list[int]:
    """The offset of each line's first character in ``text``, whose line breaks are all ``\\n``."""
    return [0, *(match.end() for match in re.finditer("\n", text))]


def _locate(starts: list[int], offset: int) -> SourceLocation:
    """The line and column of ``offset``, given the ``_line_starts`` of its text."""
    line = bisect_right(starts, offset)
    return SourceLocation(line, offset - starts[line - 1] + 1)


def _unescape(match: re.Match) -> str:
    return _UNESCAPES[match[1]]


def _tokenize(text: str) -> list[_Record]:
    """The tokens of ``text`` (``\\n`` line breaks only) up to EOF; raises ParseFailure at the first lexical error."""
    tokens: list[_Record] = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(text):
        group = match.lastindex
        if group is None:  # a comment
            continue
        start = match.start(group)
        if group == 1:
            value = match[1][1:-1]
            if "\\" in value:
                value = _ESCAPE_RE.sub(_unescape, value)
            append(("string", value, start))
        elif group < 4:
            append((_KINDS[group], match[group], start))
        elif group == 4:
            # place EOF on the last line's end-of-line cursor, never past the input
            append(("eof", "", start - 1 if start and text[start - 1] == "\n" else start))
            break
        else:
            value = match[5]
            if value != '"':
                expected, found = "a declaration", f"'{_printable(value)}'"
            else:
                end = _OPEN_STRING_RE.match(text, start).end()
                if text.startswith("\\", end):
                    start, expected, found = end, "a valid escape", f"'\\{_printable(text[end + 1:end + 2])}'"
                else:
                    expected, found = "closing '\"'", "end of line or input"
            raise ParseFailure([ParseError(_locate(_line_starts(text), start), expected, found)])
    return tokens


def quote(value: str) -> str:
    """Render a string in the format's double-quoted, backslash-escaped form, which is also a Turtle literal."""
    # backslash first; chained replaces beat str.translate several times over on names that need no escape
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    escaped = escaped.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    return f'"{escaped}"'


# --- parser -------------------------------------------------------------------


class _SyntaxError(Exception):
    def __init__(self, error: ParseError) -> None:
        self.error = error


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.starts = _line_starts(text)
        self.pos = 0
        self.errors: list[ParseError] = []
        self.collections: dict[str, dict] = {k.collection: {} for k in NODE_KINDS}
        self.locations: dict[tuple, SourceLocation] = {}

    # token plumbing: ``self.tokens[self.pos]`` is the next token; no method
    # advances past the closing EOF, since each advances only over a token it
    # has seen to be something else

    def at_word(self, value: str) -> bool:
        t = self.tokens[self.pos]
        return t[1] == value and t[0] == "word"

    def at_punct(self, value: str) -> bool:
        t = self.tokens[self.pos]
        return t[1] == value and t[0] == "punct"

    def error_at(self, token: _Record, expected: str) -> ParseError:
        return ParseError(_locate(self.starts, token[2]), expected, _describe(token))

    def fail(self, expected: str) -> None:
        raise _SyntaxError(self.error_at(self.tokens[self.pos], expected))

    def expect_punct(self, value: str) -> None:
        t = self.tokens[self.pos]
        if t[1] != value or t[0] != "punct":
            self.fail(f"'{value}'")
        self.pos += 1

    def expect_word(self, value: str, expected: str = "'{}'") -> None:
        """Step over the word ``value``, or fail expecting ``expected.format(value)``."""
        t = self.tokens[self.pos]
        if t[1] != value or t[0] != "word":
            self.fail(expected.format(value))
        self.pos += 1

    def expect_name(self, expected: str = "a name") -> str:
        t = self.tokens[self.pos]
        if t[0] != "string":
            self.fail(expected)
        self.pos += 1
        if not t[1]:
            raise _SyntaxError(ParseError(_locate(self.starts, t[2]), "a non-empty name", "an empty string"))
        return t[1]

    def field_value(self, keyword: str) -> str:
        self.expect_word(keyword, "field '{}'")
        self.expect_punct(":")
        t = self.tokens[self.pos]
        if t[0] != "string":
            self.fail(f"text for field '{keyword}'")
        self.pos += 1
        return t[1]

    def opt_field(self, keyword: str) -> str | None:
        return self.field_value(keyword) if self.at_word(keyword) else None

    def record_error(self, error: ParseError) -> None:
        if len(self.errors) < _MAX_ERRORS:
            self.errors.append(error)

    def focus_kind(self) -> FocusKind:
        """The ``quality`` or ``cost`` after a ``focus`` or ``kind`` field keyword."""
        self.expect_punct(":")
        t = self.tokens[self.pos]
        kind = _FOCUS_KINDS.get(t[1]) if t[0] == "word" else None
        if kind is None:
            self.fail("'quality' or 'cost'")
        self.pos += 1
        return kind

    # error recovery

    def skip_block_rest(self) -> None:
        """Consume up to and including the closing brace of the current block."""
        depth = 0
        while True:
            kind, value = self.tokens[self.pos][:2]
            if kind == "eof":
                return
            self.pos += 1
            if kind == "punct" and value == "{":
                depth += 1
            elif kind == "punct" and value == "}":
                if depth == 0:
                    return
                depth -= 1

    def sync(self, stops: frozenset[tuple[str, str]]) -> None:
        """Consume tokens up to EOF or a ``(kind, value)`` token in ``stops``."""
        while True:
            kind, value = self.tokens[self.pos][:2]
            if kind == "eof" or (kind, value) in stops:
                return
            self.pos += 1
            if kind == "punct" and value == "{":
                # skip the whole block so nested keywords do not look like stops
                self.skip_block_rest()

    # node declarations

    def parse_document(self) -> None:
        while True:
            t = self.tokens[self.pos]
            if t[0] == "eof":
                return
            kind = NODE_KINDS_BY_KEYWORD.get(t[1]) if t[0] == "word" else None
            if kind is None:
                self.record_error(self.error_at(t, _DECLARATION))
                self.pos += 1
                self.sync(_TOP_LEVEL_STOPS)
                continue
            self.pos += 1
            try:
                name = self.expect_name(f"{article(kind.words)} {kind.words} name")
                self.expect_punct("{")
                node = self.parse_fields(kind, name)
                self.declare(self.collections[kind.collection], (t[1], name), node, t,
                             f"a unique {kind.words} name")
            except _SyntaxError as exc:
                self.record_error(exc.error)
                self.sync(_TOP_LEVEL_STOPS)

    def declare(self, collection: dict, key: tuple, node, token: _Record, expected: str) -> None:
        """Store ``node``, at the location of the ``token`` that opens it, unless its name is taken."""
        if node.name in collection:
            self.record_error(ParseError(_locate(self.starts, token[2]), expected, f"duplicate {node.name!r}"))
            return
        collection[node.name] = node
        self.locations[key] = _locate(self.starts, token[2])

    def parse_fields(self, kind: NodeKind, name: str):
        """The rest of a node block: its fields in table order, an owner's members and edges, then '}'."""
        values = {f.attribute: self.opt_field(f.keyword) if f.optional else self.field_value(f.keyword)
                  for f in kind.fields}
        if kind.members:
            values.update(getattr(self, f"parse_{kind.keyword}")(name))
        self.expect_punct("}")
        return kind.type(name=name, **values)

    def parse_nfr(self, kind: NfrKind, token: _Record, model_name: str, nfrs: dict[str, NfrNode]) -> None:
        name = self.expect_name(f"{article(kind.value)} {kind.value.replace('_', ' ')} name")
        self.expect_punct("{")
        definition = declaration = None
        if kind is NfrKind.STATEMENT_ITEM:
            declaration = self.field_value("declaration")
        else:
            definition = self.field_value("definition")
        statement = self.opt_field("statement")
        focus_kind = None
        if kind is NfrKind.CHARACTERISTIC and self.at_word("focus"):
            self.pos += 1
            focus_kind = self.focus_kind()
        self.expect_punct("}")
        node = NfrNode(
            kind=kind,
            name=name,
            statement=statement,
            definition=definition,
            declaration=declaration,
            is_focus=focus_kind is not None,
            focus_kind=focus_kind,
        )
        self.declare(nfrs, ("nfr", model_name, name), node, token, f"a unique NFR name in model {model_name!r}")

    def parse_model(self, name: str) -> dict:
        """The NFRs and edge lists of model ``name``, as its attributes; stops at the closing '}'."""
        nfrs: dict[str, NfrNode] = {}
        edges: list[tuple[str, str, str, _Record]] = []  # keyword, source, target, keyword token

        seen_edge = False
        while not self.at_punct("}"):
            t = self.tokens[self.pos]
            if t[0] == "word" and t[1] in _NFR_KEYWORDS:
                if seen_edge:
                    self.record_error(self.error_at(t, "a model edge or '}' (NFR declarations precede edges)"))
                self.pos += 1
                try:
                    self.parse_nfr(_NFR_KEYWORDS[t[1]], t, name, nfrs)
                except _SyntaxError as exc:
                    self.record_error(exc.error)
                    self.skip_block_rest()
            elif t[0] == "word" and t[1] in _MODEL_EDGE_ARROWS:
                seen_edge = True
                self.pos += 1
                arrow = _MODEL_EDGE_ARROWS[t[1]]
                try:
                    source, target = self.parse_edge(arrow, "an NFR name", _MODEL_EDGE_TARGETS[arrow])
                except _SyntaxError as exc:
                    self.record_error(exc.error)
                    self.sync(_MODEL_STOPS)
                else:
                    edges.append((t[1], source, target, t))
            elif t[0] == "eof":
                self.fail("'}'")
            else:
                expected = "a model edge or '}'" if seen_edge else "an NFR declaration, a model edge, or '}'"
                self.record_error(self.error_at(t, expected))
                self.pos += 1
                self.sync(_MODEL_STOPS)

        stored: dict[str, list[tuple[str, str]]] = {k.field: [] for k in MODEL_EDGE_KINDS}
        for keyword, source, target, token in edges:
            nfr = nfrs.get(target)
            kind = edge_kind(NfrsModelNode, keyword, None if nfr is None else nfr.kind)
            edge = kind.stored(source, target)
            stored[kind.field].append(edge)
            self.locations[("edge", name, keyword, *edge)] = _locate(self.starts, token[2])
        return {"nfrs": nfrs, **{f: tuple(e) for f, e in stored.items()}}

    def parse_edge(self, arrow: str, source_what: str, target_what: str) -> tuple[str, str]:
        """The two names of an edge statement after its keyword, in the order written."""
        source = self.expect_name(source_what)
        if arrow == "of":
            self.expect_word("of")
        else:
            self.expect_punct(arrow)
        return source, self.expect_name(target_what)

    def parse_view(self, token: _Record, vm_name: str, views: dict[str, NfrViewNode]) -> None:
        name = self.expect_name("a view name")
        self.expect_punct("{")
        self.expect_word("kind", "field '{}'")
        kind = self.focus_kind()
        category = self.field_value("category")
        self.expect_word("focus", "field '{}'")
        self.expect_punct(":")
        focus_model = self.expect_name("a model name")
        self.expect_punct(".")
        focus_char = self.expect_name("a characteristic name")
        statement = self.opt_field("statement")
        self.expect_punct("}")
        node = NfrViewNode(name=name, kind=kind, category=category, focus=(focus_model, focus_char),
                           statement=statement)
        self.declare(views, ("view", vm_name, name), node, token, f"a unique view name in {vm_name!r}")

    def parse_view_model(self, name: str) -> dict:
        """The views and edge lists of view model ``name``, as its attributes; stops at the closing '}'."""
        views: dict[str, NfrViewNode] = {}
        edges: dict[str, list[tuple[str, str]]] = {k.field: [] for k in VIEW_EDGE_KINDS}

        stage = "view"  # views, then influences, then depends_on
        while not self.at_punct("}"):
            t = self.tokens[self.pos]
            if t[0] == "eof":
                self.fail("'}'")
            if t[:2] not in _VIEW_MODEL_STOPS:  # the loop has stopped at '}' already
                self.record_error(self.error_at(t, "a view, an edge, or '}'"))
                self.pos += 1
                self.sync(_VIEW_MODEL_STOPS)
                continue
            keyword = t[1]
            if keyword == "view":
                if stage != "view":
                    self.record_error(self.error_at(t, "an edge or '}' (views precede edges)"))
                self.pos += 1
                try:
                    self.parse_view(t, name, views)
                except _SyntaxError as exc:
                    self.record_error(exc.error)
                    self.skip_block_rest()
                continue
            if keyword == "influences":
                if stage == "depends_on":
                    self.record_error(self.error_at(t, "'depends_on' or '}' (influences precede depends_on)"))
                else:
                    stage = "influences"
            else:
                stage = "depends_on"
            self.pos += 1
            kind = _VIEW_EDGE_KINDS[keyword]
            try:
                source, target = self.parse_edge(kind.arrow, "a view name", "a view name")
            except _SyntaxError as exc:
                self.record_error(exc.error)
                self.sync(_VIEW_MODEL_STOPS)
                continue
            edges[kind.field].append((source, target))
            self.locations[("edge", name, keyword, source, target)] = _locate(self.starts, t[2])
        return {"views": views, **{f: tuple(e) for f, e in edges.items()}}


def parse(text: str) -> Document:
    """Parse ``.nfrs`` source into a document.

    Raises ParseFailure carrying every collected ParseError; the document is
    produced only when the input is error-free.
    """
    parser = _Parser(text.replace("\r\n", "\n").replace("\r", "\n"))
    parser.parse_document()
    if parser.errors:
        raise ParseFailure(parser.errors)
    return Document(**parser.collections, source_locations=parser.locations)


# --- serializer ----------------------------------------------------------------


def _field_line(indent: str, keyword: str, value: str | None) -> list[str]:
    if value is None:
        return []
    return [f"{indent}{keyword}: {quote(value)}"]


def _nfr_block(nfr: NfrNode) -> list[str]:
    lines = [f'  {nfr.kind.value} {quote(nfr.name)} {{']
    if nfr.kind is NfrKind.STATEMENT_ITEM:
        lines += _field_line("    ", "declaration", nfr.declaration)
    else:
        lines += _field_line("    ", "definition", nfr.definition)
    lines += _field_line("    ", "statement", nfr.statement)
    if nfr.is_focus and nfr.focus_kind is not None:
        lines.append(f"    focus: {nfr.focus_kind.value}")
    lines.append("  }")
    return lines


def _view_block(view: NfrViewNode) -> list[str]:
    lines = [f"  view {quote(view.name)} {{"]
    lines.append(f"    kind: {view.kind.value}")
    lines.append(f"    category: {quote(view.category)}")
    lines.append(f"    focus: {quote(view.focus[0])} . {quote(view.focus[1])}")
    lines += _field_line("    ", "statement", view.statement)
    lines.append("  }")
    return lines


_MEMBER_BLOCKS = {"nfrs": _nfr_block, "views": _view_block}


def _edge_lines(node: NfrsModelNode | NfrsViewModelNode) -> list[str]:
    """Edge statements grouped by keyword in table order, sorted within each group."""
    groups: dict[str, list[str]] = {}
    for kind, source, target in iter_edges(node):
        line = f"  {kind.keyword} {quote(source)} {kind.arrow} {quote(target)}"
        groups.setdefault(kind.keyword, []).append(line)
    return [line for group in groups.values() for line in sorted(group)]


def serialize(doc: Document) -> str:
    """Emit the canonical form: fixed block order, names sorted, LF endings.

    A document that resolves referentially, and whose ``combines`` edges each
    sit in the list of their target's kind (``combines_attr_edges`` for an
    attribute, ``combines_item_edges`` for a statement item), round-trips:
    ``parse(serialize(doc)) == doc``. An edge in the other list comes back in
    the right one, since the text has one ``combines`` keyword.
    """
    blocks: list[str] = []
    for kind in NODE_KINDS:
        nodes = getattr(doc, kind.collection)
        for name in sorted(nodes):
            node = nodes[name]
            lines = [f"{kind.keyword} {quote(name)} {{"]
            for f, value in kind.present(node):
                lines += _field_line("  ", f.keyword, value)
            if kind.members:
                members = getattr(node, kind.members)
                block = _MEMBER_BLOCKS[kind.members]
                for member in sorted(members):
                    lines += block(members[member])
                lines += _edge_lines(node)
            lines.append("}")
            blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"
