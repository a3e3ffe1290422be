"""The ``.nfrs`` lexer and parser before flat token records, kept as the oracle for ``textformat``.

``_Token``, ``_tokenize``, ``_SyntaxError`` and ``_Parser`` are copied
verbatim from ``textformat`` as they stood when every token was a frozen
``_Token`` holding a ``SourceLocation``, together with the constants they
read. ``parse`` drives them as ``textformat.parse`` does. One later change
rides along: a ``found`` text writes each non-printable character as its
escape (``_printable``), as the library's does. ``tests/test_parser.py``
compares the documents, source locations and errors they produce with the
library's, and ``tests/lexer_oracle.py`` builds its tokens from this ``_Token``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from nfrstdo.diagnostics import SourceLocation
from nfrstdo.model import (
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
)
from nfrstdo.textformat import ParseError, ParseFailure

_DECLARATION = f"a declaration ({', '.join(NODE_KINDS_BY_KEYWORD)})"
_NFR_KEYWORDS = {"characteristic": NfrKind.CHARACTERISTIC, "attribute": NfrKind.ATTRIBUTE,
                 "statement_item": NfrKind.STATEMENT_ITEM}
_MODEL_EDGE_ARROWS = {k.keyword: k.arrow for k in MODEL_EDGE_KINDS}
_VIEW_EDGE_KEYWORDS = {k.keyword for k in VIEW_EDGE_KINDS}
# what the second name of a model edge is expected to be, by syntax
_MODEL_EDGE_TARGETS = {"of": "a characteristic name", "<->": "an NFR name", "->": "a target name"}

_MAX_ERRORS = 50

_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}

# A string up to, not including, its closing quote: anything but a quote, a
# backslash or a line break, and the five escapes.
_OPEN_STRING = r'"[^"\\\n]*(?:\\[\\"ntr][^"\\\n]*)*'
# One token per match: blanks, then a complete string, punctuation, a word, a
# line break, the end of input (tried before a comment, so that a trailing
# comment does not move the EOF column), a comment, or any other character,
# which is a lexical error.
_TOKEN_RE = re.compile(
    rf'[ \t]*(?:(?P<string>{_OPEN_STRING}")|(?P<punct><->|->|[{{}}:.])|(?P<word>[A-Za-z_][A-Za-z0-9_]*)'
    r"|(?P<newline>\n)|(?P<eof>)(?:#[^\n]*)?\Z|(?P<comment>#[^\n]*)|(?P<other>.))"
)
_OPEN_STRING_RE = re.compile(_OPEN_STRING)
_ESCAPE_RE = re.compile(r"\\(.)")


def _printable(text: str) -> str:
    """``text`` with each non-printable character written as ``repr`` writes it (``\\u200b``)."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # word, string, punct, eof
    value: str
    location: SourceLocation

    def describe(self) -> str:
        if self.kind == "eof":
            return "end of input"
        if self.kind == "string":
            text = self.value if len(self.value) <= 20 else self.value[:17] + "..."
            return f'string "{_printable(text)}"'
        return f"'{_printable(self.value)}'"


def _unescape(match: re.Match) -> str:
    return _UNESCAPES[match[1]]


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text``, ending with EOF; raises ParseFailure with the first lexical error."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "newline":
            line, line_start = line + 1, match.end()
            continue
        if kind == "comment":
            continue
        start = match.start(kind)
        location = SourceLocation(line, start - line_start + 1)
        value = match[kind]
        if kind == "string":
            value = _ESCAPE_RE.sub(_unescape, value[1:-1])
        elif kind == "eof" and start == line_start and line > 1:
            # place EOF on the last line's end-of-line cursor, never past the input
            location = SourceLocation(line - 1, line_start - text.rfind("\n", 0, line_start - 1) - 1)
        elif kind == "other":
            if value != '"':
                error = ParseError(location, "a declaration", f"'{_printable(value)}'")
            else:
                end = _OPEN_STRING_RE.match(text, start).end()
                if text.startswith("\\", end):
                    error = ParseError(SourceLocation(line, end - line_start + 1), "a valid escape",
                                       f"'\\{_printable(text[end + 1:end + 2])}'")
                else:
                    error = ParseError(location, "closing '\"'", "end of line or input")
            raise ParseFailure([error])
        tokens.append(_Token(kind, value, location))
        if kind == "eof":
            break
    return tokens


class _SyntaxError(Exception):
    def __init__(self, error: ParseError) -> None:
        self.error = error


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.errors: list[ParseError] = []
        self.collections: dict[str, dict] = {k.collection: {} for k in NODE_KINDS}
        self.locations: dict[tuple, SourceLocation] = {}

    # token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def at_word(self, *words: str) -> bool:
        t = self.peek()
        return t.kind == "word" and t.value in words

    def fail(self, expected: str) -> None:
        raise _SyntaxError(ParseError(self.peek().location, expected, self.peek().describe()))

    def expect_punct(self, value: str) -> _Token:
        t = self.peek()
        if t.kind != "punct" or t.value != value:
            self.fail(f"'{value}'")
        return self.advance()

    def expect_word(self, value: str, expected: str | None = None) -> _Token:
        t = self.peek()
        if t.kind != "word" or t.value != value:
            self.fail(expected or f"'{value}'")
        return self.advance()

    def expect_string(self, expected: str = "a string") -> str:
        t = self.peek()
        if t.kind != "string":
            self.fail(expected)
        return self.advance().value

    def expect_name(self, expected: str = "a name") -> str:
        t = self.peek()
        value = self.expect_string(expected)
        if not value:
            raise _SyntaxError(ParseError(t.location, "a non-empty name", "an empty string"))
        return value

    def field_value(self, keyword: str) -> str:
        self.expect_word(keyword, f"field '{keyword}'")
        self.expect_punct(":")
        return self.expect_string(f"text for field '{keyword}'")

    def opt_field(self, keyword: str) -> str | None:
        if self.at_word(keyword):
            return self.field_value(keyword)
        return None

    def record_error(self, error: ParseError) -> None:
        if len(self.errors) < _MAX_ERRORS:
            self.errors.append(error)

    # error recovery

    def skip_block_rest(self) -> None:
        """Consume up to and including the closing brace of the current block."""
        depth = 0
        while True:
            t = self.peek()
            if t.kind == "eof":
                return
            self.advance()
            if t.kind == "punct" and t.value == "{":
                depth += 1
            elif t.kind == "punct" and t.value == "}":
                if depth == 0:
                    return
                depth -= 1

    def skip_to_top_level(self) -> None:
        while True:
            t = self.peek()
            if t.kind == "eof" or (t.kind == "word" and t.value in NODE_KINDS_BY_KEYWORD):
                return
            self.advance()
            if t.kind == "punct" and t.value == "{":
                # skip the whole block so nested keywords do not look top-level
                self.skip_block_rest()

    def sync_inside_block(self, keywords: set[str]) -> None:
        while True:
            t = self.peek()
            if t.kind == "eof" or (t.kind == "punct" and t.value == "}"):
                return
            if t.kind == "word" and t.value in keywords:
                return
            self.advance()
            if t.kind == "punct" and t.value == "{":
                self.skip_block_rest()

    # node declarations

    def parse_document(self) -> None:
        while True:
            t = self.peek()
            if t.kind == "eof":
                return
            kind = NODE_KINDS_BY_KEYWORD.get(t.value) if t.kind == "word" else None
            if kind is None:
                self.record_error(ParseError(t.location, _DECLARATION, t.describe()))
                self.advance()
                self.skip_to_top_level()
                continue
            self.advance()
            try:
                name = self.expect_name(f"{article(kind.words)} {kind.words} name")
                self.expect_punct("{")
                if kind.keyword in ("model", "view_model"):
                    node = getattr(self, f"parse_{t.value}")(name)
                else:
                    node = self.parse_fields(kind, name)
                self.declare(self.collections[kind.collection], (t.value, name), node, t.location,
                             f"a unique {kind.words} name")
            except _SyntaxError as exc:
                self.record_error(exc.error)
                self.skip_to_top_level()

    def declare(self, collection: dict, key: tuple, node, location: SourceLocation, expected: str) -> None:
        if node.name in collection:
            self.record_error(ParseError(location, expected, f"duplicate {node.name!r}"))
            return
        collection[node.name] = node
        self.locations[key] = location

    def parse_fields(self, kind: NodeKind, name: str):
        """The rest of a plain node block: its fields in table order, then '}'."""
        values = {f.attribute: self.opt_field(f.keyword) if f.optional else self.field_value(f.keyword)
                  for f in kind.fields}
        self.expect_punct("}")
        return kind.type(name=name, **values)

    def parse_nfr(self, kind: NfrKind, loc: SourceLocation, model_name: str, nfrs: dict[str, NfrNode]) -> None:
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
            self.advance()
            self.expect_punct(":")
            if not self.at_word("quality", "cost"):
                self.fail("'quality' or 'cost'")
            focus_kind = FocusKind(self.advance().value)
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
        self.declare(nfrs, ("nfr", model_name, name), node, loc, f"a unique NFR name in model {model_name!r}")

    def parse_model(self, name: str) -> NfrsModelNode:
        specification = self.opt_field("specification")
        nfrs: dict[str, NfrNode] = {}
        edges: list[tuple[str, str, str, SourceLocation]] = []  # keyword, source, target, location

        sync = set(_NFR_KEYWORDS) | set(_MODEL_EDGE_ARROWS)
        seen_edge = False
        while not (self.peek().kind == "punct" and self.peek().value == "}"):
            t = self.peek()
            if t.kind == "word" and t.value in _NFR_KEYWORDS:
                if seen_edge:
                    self.record_error(
                        ParseError(t.location, "a model edge or '}' (NFR declarations precede edges)", t.describe())
                    )
                self.advance()
                try:
                    self.parse_nfr(_NFR_KEYWORDS[t.value], t.location, name, nfrs)
                except _SyntaxError as exc:
                    self.record_error(exc.error)
                    self.skip_block_rest()
            elif t.kind == "word" and t.value in _MODEL_EDGE_ARROWS:
                seen_edge = True
                self.advance()
                arrow = _MODEL_EDGE_ARROWS[t.value]
                try:
                    source, target = self.parse_edge(arrow, "an NFR name", _MODEL_EDGE_TARGETS[arrow])
                except _SyntaxError as exc:
                    self.record_error(exc.error)
                    self.sync_inside_block(sync)
                else:
                    edges.append((t.value, source, target, t.location))
            elif t.kind == "eof":
                self.fail("'}'")
            else:
                expected = "a model edge or '}'" if seen_edge else "an NFR declaration, a model edge, or '}'"
                self.record_error(ParseError(t.location, expected, t.describe()))
                self.advance()
                self.sync_inside_block(sync)
        self.expect_punct("}")

        stored: dict[str, list[tuple[str, str]]] = {k.field: [] for k in MODEL_EDGE_KINDS}
        for keyword, source, target, edge_loc in edges:
            nfr = nfrs.get(target)
            kind = edge_kind(NfrsModelNode, keyword, None if nfr is None else nfr.kind)
            edge = kind.stored(source, target)
            stored[kind.field].append(edge)
            self.locations[("edge", name, keyword, *edge)] = edge_loc
        return NfrsModelNode(
            name=name, specification=specification, nfrs=nfrs, **{f: tuple(e) for f, e in stored.items()}
        )

    def parse_edge(self, arrow: str, source_what: str, target_what: str) -> tuple[str, str]:
        """The two names of an edge statement after its keyword, in the order written."""
        source = self.expect_name(source_what)
        if arrow == "of":
            self.expect_word("of")
        else:
            self.expect_punct(arrow)
        return source, self.expect_name(target_what)

    def parse_view(self, loc: SourceLocation, vm_name: str, views: dict[str, NfrViewNode]) -> None:
        name = self.expect_name("a view name")
        self.expect_punct("{")
        self.expect_word("kind", "field 'kind'")
        self.expect_punct(":")
        if not self.at_word("quality", "cost"):
            self.fail("'quality' or 'cost'")
        kind = FocusKind(self.advance().value)
        category = self.field_value("category")
        self.expect_word("focus", "field 'focus'")
        self.expect_punct(":")
        focus_model = self.expect_name("a model name")
        self.expect_punct(".")
        focus_char = self.expect_name("a characteristic name")
        statement = self.opt_field("statement")
        self.expect_punct("}")
        node = NfrViewNode(name=name, kind=kind, category=category, focus=(focus_model, focus_char),
                           statement=statement)
        self.declare(views, ("view", vm_name, name), node, loc, f"a unique view name in {vm_name!r}")

    def parse_view_model(self, name: str) -> NfrsViewModelNode:
        specification = self.opt_field("specification")
        views: dict[str, NfrViewNode] = {}
        edges: dict[str, list[tuple[str, str]]] = {k.field: [] for k in VIEW_EDGE_KINDS}

        stage = "view"  # views, then influences, then depends_on
        sync = {"view"} | _VIEW_EDGE_KEYWORDS
        while not (self.peek().kind == "punct" and self.peek().value == "}"):
            t = self.peek()
            if t.kind == "eof":
                self.fail("'}'")
            if not (t.kind == "word" and t.value in sync):
                self.record_error(ParseError(t.location, "a view, an edge, or '}'", t.describe()))
                self.advance()
                self.sync_inside_block(sync)
                continue
            if t.value == "view":
                if stage != "view":
                    self.record_error(ParseError(t.location, "an edge or '}' (views precede edges)", t.describe()))
                self.advance()
                try:
                    self.parse_view(t.location, name, views)
                except _SyntaxError as exc:
                    self.record_error(exc.error)
                    self.skip_block_rest()
                continue
            if t.value == "influences":
                if stage == "depends_on":
                    self.record_error(
                        ParseError(t.location, "'depends_on' or '}' (influences precede depends_on)", t.describe())
                    )
                else:
                    stage = "influences"
            else:
                stage = "depends_on"
            self.advance()
            kind = edge_kind(NfrsViewModelNode, t.value)
            try:
                source, target = self.parse_edge(kind.arrow, "a view name", "a view name")
            except _SyntaxError as exc:
                self.record_error(exc.error)
                self.sync_inside_block(sync)
                continue
            edges[kind.field].append((source, target))
            self.locations[("edge", name, t.value, source, target)] = t.location
        self.expect_punct("}")

        return NfrsViewModelNode(
            name=name, specification=specification, views=views, **{f: tuple(e) for f, e in edges.items()}
        )


def parse(text: str) -> Document:
    parser = _Parser(_tokenize(text))
    parser.parse_document()
    if parser.errors:
        raise ParseFailure(parser.errors)
    return Document(**parser.collections, source_locations=parser.locations)
