"""Parser and canonical serializer for the ``.nfrs`` authoring format.

The format instantiates the ontology: categories, entities, functional
requirements, NFRs models with their requirement nodes and edges, and view
models. Parsing is purely syntactic; whether names resolve is the
validator's concern. Serialization is canonical, so two documents that are
structurally equal serialize to identical bytes regardless of how they were
built.

Both directions read the blocks from the ``model`` tables: a kind's
``NODE_KINDS`` fields in order, then, for a model or a view model, its NFRs
or views with their ``NFR_FIELDS`` or ``VIEW_FIELDS``, and its edge
statements in ``EDGE_KINDS`` order. One field reader (``field_value``) and
one block writer (``_block``) handle every block, each field in its syntax.
One loop (``parse_body``) reads the body of either owner: its members and
edge statements, in the order of stages that ``_BODIES`` gives each word
that opens a statement, with the owner's error expectations.

The lexer turns the text, its line breaks made ``\\n``, into flat ``(kind,
value, offset)`` tuples. A whole edge statement or view block with no comment
and no escape inside is one statement token: the word token of its keyword,
with the names and texts after it as a fourth item, which the body loop takes
in one step. The view branch is built from ``VIEW_FIELDS``, and ``member``
reads the token through the same table, so ``model`` alone decides a view
block's layout. Any other statement, such as one with an empty name or a wrong
arrow, comes as plain tokens and is parsed one token at a time, so its error
locations and messages are those of the plain path. The parser walks the
tokens by index. Only for a ``ParseError`` does it turn an offset into a line
and column, by a bisect over the offsets where lines start. For a declaration
or an edge it stores the offset in ``Document.source_locations``, a
``_Locations`` dict that keeps the line starts of the text, taken at parse
time, and builds each ``SourceLocation`` only when it is read.

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
    EDGE_KINDS,
    EDGE_ROWS_BY_KEYWORD,
    MODEL_EDGE_KINDS,
    NFR_FIELDS,
    NODE_KINDS,
    NODE_KINDS_BY_KEYWORD,
    VIEW_EDGE_KINDS,
    VIEW_FIELDS,
    Document,
    EdgeKind,
    FocusKind,
    NfrKind,
    NfrNode,
    NfrsModelNode,
    NfrsViewModelNode,
    NfrViewNode,
    NodeField,
    NodeKind,
    article,
    edge_kind,
)

_DECLARATION = f"a declaration ({', '.join(NODE_KINDS_BY_KEYWORD)})"
_NFR_KEYWORDS = {k.value: k for k in NfrKind}
# what the name after each declaration, NFR or view keyword is expected to be
_NAMES = {**{k.keyword: f"{article(k.words)} {k.words} name" for k in NODE_KINDS},
          **{k.value: f"{article(k.value)} {k.value.replace('_', ' ')} name" for k in NfrKind}, "view": "a view name"}
# what a duplicate name was expected to be, by the kind of its location key; filled in from the key's owner
_UNIQUE = {**{k.keyword: f"a unique {k.words} name" for k in NODE_KINDS},
           "nfr": "a unique NFR name in model {!r}", "view": "a unique view name in {!r}"}
_FOCUS_KINDS = {k.value: k for k in FocusKind}
# How _Parser.parse_body reads each owner's body: the kind of its members' location keys, the stage of each word
# that opens a statement (members 0, then edges; model edges share one stage, so they come in any order, while a
# view model's influences precede its depends_on), what any other token was expected to be at each stage, and
# what the two names of an edge are expected to be, by arrow.
_BODIES = {
    "model": ("nfr", {**dict.fromkeys(_NFR_KEYWORDS, 0), **dict.fromkeys((k.keyword for k in MODEL_EDGE_KINDS), 1)},
              ("an NFR declaration, a model edge, or '}'", "a model edge or '}'"),
              {"of": ("an NFR name", "a characteristic name"), "<->": ("an NFR name", "an NFR name"),
               "->": ("an NFR name", "a target name")}),
    "view_model": ("view", {"view": 0, **{k.keyword: i for i, k in enumerate(VIEW_EDGE_KINDS, 1)}},
                   ("a view, an edge, or '}'",) * 3, {"->": ("a view name", "a view name")}),
}
# what a word that opens a statement of an earlier stage than the one before it was expected to be
_PRECEDE = {**dict.fromkeys(_NFR_KEYWORDS, "a model edge or '}' (NFR declarations precede edges)"),
            "view": "an edge or '}' (views precede edges)",
            "influences": "'depends_on' or '}' (influences precede depends_on)"}
# error recovery resumes at EOF or at one of these (kind, value) tokens: a declaration at the top level, and in
# an owner's body a word that opens a statement or the closing brace
_TOP_LEVEL_STOPS = frozenset(("word", k) for k in NODE_KINDS_BY_KEYWORD)
_BODY_STOPS = {owner: frozenset([("punct", "}"), *(("word", w) for w in body[1])]) for owner, body in _BODIES.items()}

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
_S = "[ \t\n]*"


def _keywords(arrow: str) -> str:
    """The edge keywords written with ``arrow``, as alternatives of a pattern."""
    return "|".join(dict.fromkeys(k.keyword for k in EDGE_KINDS if k.arrow == arrow))


# A name or a text with no escape, captured without its quotes (a name is not empty), and the value of a field
# line in each ``NodeField.syntax``, with one plain group per value: a pair has two.
_NAME = r'"([^"\\\n]+)"'
_VALUES = {"text": r'"([^"\\\n]*)"', "kind": rf'({"|".join(_FOCUS_KINDS)})(?![A-Za-z0-9_])',
           "pair": rf"{_NAME}{_S}\.{_S}{_NAME}"}


def _block_pattern(keyword: str, fields: tuple[NodeField, ...]) -> str:
    """A whole ``keyword "name" { … }`` block with no escape in its strings, with plain groups for its name and then
    for each field's values, in table order; the groups of an optional line that is left out read None."""
    lines = (f"{f.keyword}{_S}:{_S}{_VALUES[f.syntax]}{_S}" for f in fields)
    body = "".join(f"(?:{line})?" if f.optional else line for f, line in zip(fields, lines))
    return rf"{keyword}{_S}{_NAME}{_S}\{{{_S}{body}\}}"


# One token per match, dispatched on the name of its outermost group. The statement branches come first: a whole edge
# statement (edge), with the arrow of its keyword, or a whole view block (view), each with no escape in its strings,
# so that a value, in a plain group, is the text between its quotes. Anything else, such as a statement with an
# escape, a comment, an empty name or a field out of place, takes the plain branches: blanks and line breaks, then a
# complete string, punctuation, a word, the end of input (eof; tried before a comment, so that a trailing comment does
# not move it), a comment (no group), or any other character, a lexical error (other).
_TOKEN_RE = re.compile(
    rf'{_S}(?:(?P<edge>(?P<keyword>(?P<of>{_keywords("of")})|(?P<sym>{_keywords("<->")})|{_keywords("->")})'
    rf'{_S}{_NAME}{_S}(?(of)of|(?(sym)<->|->)){_S}{_NAME})|(?P<view>{_block_pattern("view", VIEW_FIELDS)})'
    rf'|(?P<string>{_OPEN_STRING}")|(?P<punct><->|->|[{{}}:.])|(?P<word>[A-Za-z_][A-Za-z0-9_]*)'
    rf'|(?P<eof>)(?:#[^\n]*)?\Z|#[^\n]*|(?P<other>.))'
)
_GROUPS = _TOKEN_RE.groupindex  # a statement token carries its branch's plain groups, the ones with no name
_EDGE_VALUES, _VIEW_VALUES = ([n for n in range(_GROUPS[branch], _GROUPS[end]) if n not in _GROUPS.values()]
                              for branch, end in (("edge", "view"), ("view", "string")))
_OPEN_STRING_RE = re.compile(_OPEN_STRING)
_ESCAPE_RE = re.compile(r"\\(.)")

# A token is a flat (kind, value, offset) record: kind is word, string, punct or eof, a string's value is
# unescaped, and offset is where the token starts in the text with its line breaks made "\n". A statement
# token is a word token, its keyword, with a fourth item: the values the parser would read from the plain
# tokens after it, (source, target) for an edge, and for a view its name and then each of ``VIEW_FIELDS``'
# values in table order (a kind as its word, a pair as two names), None for an optional field left out.
_Record = tuple


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


class _Locations(dict):
    """``Document.source_locations`` of a parsed document: the parser stores each key's token offset, an ``int``,
    and a read turns it into a ``SourceLocation`` through the line starts of its text, kept instead of the text.

    Every read path gives what a plain dict of the same locations gives:
    ``[]``, ``get``, ``items``, ``values``, ``pop``, ``popitem``,
    ``setdefault``, comparison, ``repr``, and ``dict(…)``, ``{**…}``, ``|``
    and ``copy()``, which read through ``__getitem__`` because ``__iter__`` is
    overridden. ``copy.copy``, ``copy.deepcopy`` and ``pickle`` give a plain
    dict of locations. A value stored by a caller reads back as stored,
    unless it is an ``int``, which reads as an offset.
    """

    __slots__ = ("starts",)

    def __init__(self, starts: list[int]) -> None:
        super().__init__()
        self.starts = starts

    def _read(self, value):
        return _locate(self.starts, value) if value.__class__ is int else value

    def __getitem__(self, key):
        value = dict.__getitem__(self, key)
        return _locate(self.starts, value) if value.__class__ is int else value

    def get(self, key, default=None):
        value = dict.get(self, key, default)  # a default comes back as given, even an int
        return _locate(self.starts, value) if value.__class__ is int and key in self else value

    def pop(self, key, *default):
        return self._read(dict.pop(self, key, *default)) if key in self else dict.pop(self, key, *default)

    def popitem(self):
        key, value = dict.popitem(self)
        return key, self._read(value)

    def setdefault(self, key, default=None):
        return self[key] if key in self else dict.setdefault(self, key, default)

    def __iter__(self):
        return dict.__iter__(self)

    def _plain(self) -> dict:
        return {key: self[key] for key in dict.__iter__(self)}

    def items(self):
        return self._plain().items()

    def values(self):
        return self._plain().values()

    def __eq__(self, other):
        return self._plain() == other

    def __ne__(self, other):
        return self._plain() != other

    def __repr__(self) -> str:
        return repr(self._plain())

    def __reduce__(self):  # copy, deepcopy and pickle make a plain dict
        return dict, (self._plain(),)


def _unescape(match: re.Match) -> str:
    return _UNESCAPES[match[1]]


def _tokenize(text: str) -> list[_Record]:
    """The tokens of ``text`` (``\\n`` line breaks only) up to EOF; raises ParseFailure at the first lexical error."""
    tokens: list[_Record] = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(text):
        group = match.lastgroup
        if group is None:  # a comment
            continue
        start = match.start(group)
        if group == "string":
            value = match[group][1:-1]
            if "\\" in value:
                value = _ESCAPE_RE.sub(_unescape, value)
            append(("string", value, start))
        elif group == "word" or group == "punct":
            append((group, match[group], start))
        elif group == "edge":
            append(("word", match["keyword"], start, match.group(*_EDGE_VALUES)))
        elif group == "view":
            append(("word", "view", start, match.group(*_VIEW_VALUES)))
        elif group == "eof":
            # place EOF on the last line's end-of-line cursor, never past the input
            append(("eof", "", start - 1 if start and text[start - 1] == "\n" else start))
            break
        else:
            value = match[group]
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
        self.locations = _Locations(self.starts)

    # token plumbing: ``self.tokens[self.pos]`` is the next token; no method
    # advances past the closing EOF, since each advances only over a token it
    # has seen to be something else

    def at_word(self, value: str) -> bool:
        t = self.tokens[self.pos]
        return t[1] == value and t[0] == "word"

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

    def field_value(self, f: NodeField):
        """The value of the field line ``f``, read in its syntax."""
        self.expect_word(f.keyword, "field '{}'")
        self.expect_punct(":")
        if f.syntax == "pair":
            model = self.expect_name("a model name")
            self.expect_punct(".")
            return model, self.expect_name("a characteristic name")
        t = self.tokens[self.pos]
        if f.syntax == "kind":
            value = _FOCUS_KINDS.get(t[1]) if t[0] == "word" else None
            if value is None:
                self.fail("'quality' or 'cost'")
        elif t[0] == "string":
            value = t[1]
        else:
            self.fail(f"text for field '{f.keyword}'")
        self.pos += 1
        return value

    def block_fields(self, fields: tuple[NodeField, ...]) -> dict:
        """The values of a block's ``fields`` by attribute, in order; an absent optional field reads None."""
        values = {}
        for f in fields:
            values[f.attribute] = None if f.optional and not self.at_word(f.keyword) else self.field_value(f)
        return values

    def record_error(self, error: ParseError) -> None:
        if len(self.errors) < _MAX_ERRORS:
            self.errors.append(error)

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
                name = self.expect_name(_NAMES[t[1]])
                self.expect_punct("{")
                node = self.parse_fields(kind, name)
                self.declare(self.collections[kind.collection], (t[1], name), node, t)
            except _SyntaxError as exc:
                self.record_error(exc.error)
                self.sync(_TOP_LEVEL_STOPS)

    def declare(self, collection: dict, key: tuple, node, token: _Record) -> None:
        """Store ``node`` under location ``key``, at the ``token`` that opens it, unless its name is taken."""
        if node.name in collection:
            expected = _UNIQUE[key[0]].format(*key[1:-1])
            self.record_error(ParseError(_locate(self.starts, token[2]), expected, f"duplicate {node.name!r}"))
            return
        collection[node.name] = node
        self.locations[key] = token[2]

    def parse_fields(self, kind: NodeKind, name: str):
        """The rest of a node block: its fields in table order, an owner's body, then '}'."""
        values = self.block_fields(kind.fields)
        if kind.members:
            values.update(self.parse_body(kind, name))
        self.expect_punct("}")
        return kind.type(name=name, **values)

    def parse_body(self, kind: NodeKind, name: str) -> dict:
        """The members and edge lists of ``kind``'s owner ``name``, as its attributes; stops at the closing '}'."""
        member_key, stages, expected, names = _BODIES[kind.keyword]
        stops = _BODY_STOPS[kind.keyword]
        members: dict = {}
        edges: dict[str, list[tuple[str, str]]] = {k.field: [] for k in kind.edges}
        tokens = self.tokens
        stage = 0
        while True:
            t = tokens[self.pos]
            word = stages.get(t[1]) if t[0] == "word" else None
            if word is None:
                if t[1] == "}" and t[0] == "punct":
                    break
                if t[0] == "eof":
                    self.fail("'}'")
                self.record_error(self.error_at(t, expected[stage]))
                self.pos += 1
                self.sync(stops)
                continue
            if word < stage:
                self.record_error(self.error_at(t, _PRECEDE[t[1]]))
            elif word > stage:
                stage = word
            self.pos += 1
            if not word:
                try:
                    node = self.member(t)
                except _SyntaxError as exc:
                    self.record_error(exc.error)
                    self.skip_block_rest()
                else:
                    self.declare(members, (member_key, name, node.name), node, t)
                continue
            rows = EDGE_ROWS_BY_KEYWORD[t[1]]
            edge = rows[0]
            try:
                source, target = t[3] if len(t) == 4 else self.parse_edge(edge.arrow, *names[edge.arrow])
            except _SyntaxError as exc:
                self.record_error(exc.error)
                self.sync(stops)
                continue
            if len(rows) > 1:  # combines: members precede edges, so a target member is known here
                target_node = members.get(target)
                edge = edge_kind(kind.type, t[1], None if target_node is None else target_node.kind)
            pair = edge.stored(source, target)
            edges[edge.field].append(pair)
            self.locations[("edge", name, t[1], *pair)] = t[2]
        return {kind.members: members, **{f: tuple(e) for f, e in edges.items()}}

    def member(self, token: _Record) -> NfrNode | NfrViewNode:
        """The NFR or view whose block ``token`` opens, read through its closing '}'."""
        nfr_kind = _NFR_KEYWORDS.get(token[1])
        fields = VIEW_FIELDS if nfr_kind is None else NFR_FIELDS[nfr_kind]
        if len(token) == 4:  # a statement token: the name, then each field's values in table order
            rest = iter(token[3])
            name, values = next(rest), {}
            for f in fields:  # a pair takes two values, any other field one
                values[f.attribute] = ((next(rest), next(rest)) if f.syntax == "pair" else
                                       _FOCUS_KINDS.get(next(rest)) if f.syntax == "kind" else next(rest))
        else:
            name = self.expect_name(_NAMES[token[1]])
            self.expect_punct("{")
            values = self.block_fields(fields)
            self.expect_punct("}")
        if nfr_kind is None:
            return NfrViewNode(name, **values)
        return NfrNode(nfr_kind, name, is_focus=values.get("focus_kind") is not None, **values)

    def parse_edge(self, arrow: str, source_what: str, target_what: str) -> tuple[str, str]:
        """The two names of an edge statement after its keyword, in the order written."""
        source = self.expect_name(source_what)
        if arrow == "of":
            self.expect_word("of")
        else:
            self.expect_punct(arrow)
        return source, self.expect_name(target_what)


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


def _block(lines: list[str], indent: str, keyword: str, name: str, fields: tuple[NodeField, ...], node,
           body=()) -> None:
    """Append ``node``'s block to ``lines``: ``keyword "name" {``, each set field in its syntax, ``body``, ``}``."""
    lines.append(f"{indent}{keyword} {quote(name)} {{")
    for f in fields:
        value = getattr(node, f.attribute)
        if value is None:
            continue
        if f.syntax == "text":
            value = quote(value)
        elif f.syntax == "kind":
            value = value.value
        else:
            value = f"{quote(value[0])} . {quote(value[1])}"
        lines.append(f"{indent}  {f.keyword}: {value}")
    lines += body
    lines.append(indent + "}")


def _edge_lines(node: NfrsModelNode | NfrsViewModelNode, kinds: tuple[EdgeKind, ...]) -> list[str]:
    """The edge statements of ``node``'s lists ``kinds``, grouped by keyword in table order, sorted within each
    group; each name is quoted once."""
    lists = [(kind, pairs) for kind in kinds if (pairs := getattr(node, kind.field))]
    quoted = {name: quote(name) for name in {name for _, pairs in lists for pair in pairs for name in pair}}
    groups: dict[str, list[str]] = {}
    for kind, pairs in lists:
        head, arrow = f"  {kind.keyword} ", f" {kind.arrow} "
        groups.setdefault(kind.keyword, []).extend(
            [f"{head}{quoted[source]}{arrow}{quoted[target]}" for source, target in kind.directed(pairs)])
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
            body: list[str] = []
            if kind.members:
                members = getattr(node, kind.members)
                for member in map(members.__getitem__, sorted(members)):
                    if kind.members == "nfrs":
                        _block(body, "  ", member.kind.value, member.name, NFR_FIELDS[member.kind], member)
                    else:
                        _block(body, "  ", "view", member.name, VIEW_FIELDS, member)
                body += _edge_lines(node, kind.edges)
            lines: list[str] = []
            _block(lines, "", kind.keyword, name, kind.fields, node, body)
            blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"
