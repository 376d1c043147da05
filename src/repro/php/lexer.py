"""Table-driven lexer for the PHP subset.

The paper's WebSSARI uses a SableCC-generated LALR(1) lexer/parser pair
(Figure 8); this reproduction uses one compiled master regular expression
plus a recursive-descent parser, which covers the same language surface
while staying dependency-free.  The master regex recognizes whitespace,
comments, variables, identifiers, numbers, plain strings, close tags and
every operator in a single ``match`` per token (the alternation order
encodes maximal munch: ``?>`` before ``?``, ``<<<`` before ``<<``, ``.5``
before ``.``, ``(int)`` before ``(``).  Line and column numbers are
derived from the matched text, never from a per-character loop.
Names, variables, operators, line comments and plain strings are
handled inside the loop; numbers, casts, block comments, close tags,
heredocs, interpolated strings and malformed input go to small
dedicated routines.

Notable PHP-isms handled here:

* ``<?php ... ?>`` tags — text outside tags is INLINE_HTML (the parser
  turns it into implicit output, which matters for XSS policies).
* Double-quoted strings interpolate variables (``"$x"``, ``"{$x}"``,
  ``"$row[name]"``, ``"$obj->prop"``) — emitted as TEMPLATE_STRING whose
  value is a list of ``("text", s)`` / ``("var", name)`` /
  ``("index", name, key)`` / ``("prop", name, prop)`` parts.  Taint flows
  through interpolation exactly like through concatenation.
* Heredoc (``<<<EOT``) with the same interpolation rules, and nowdoc
  (``<<<'EOT'``); the line ending before the closing label (LF or CRLF)
  is not part of the value.
* Single-quoted strings are literal (only ``\\'`` and ``\\\\`` escape).
* ``#``, ``//`` and ``/* */`` comments; ``//`` comments end at ``?>``
  like in real PHP.
* Case-insensitive keywords; ``(int)``-style casts.
"""

from __future__ import annotations

import re

from repro.php.errors import LexError
from repro.php.span import Position, Span
from repro.php.tokens import CASTS, KEYWORDS, Token, TokenKind

__all__ = ["Lexer", "tokenize"]


_SIMPLE_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "v": "\v",
    "f": "\f",
    "e": "\x1b",
    "\\": "\\",
    "$": "$",
    '"': '"',
    "0": "\0",
}

#: Operator text → kind: every punctuation kind's value is its text.
_OPERATORS = {kind.value: kind for kind in TokenKind if not kind.value[0].isalpha()}
_OPERATORS["<>"] = TokenKind.NEQ

# Master-regex groups, numbered as ``match.lastindex`` reports them: group
# 1 is the whitespace before the token, and every alternative after it is
# exactly one capturing group with no groups inside.
_WS, _IDENT, _VAR, _OP, _LINE_COMMENT, _BLOCK_COMMENT, _CLOSE_TAG = range(1, 8)
_SQ_STRING, _DQ_STRING, _HEX, _OCTAL, _DECIMAL, _CAST, _HEREDOC = range(8, 15)
_LATE_OP, _OTHER = 15, 16

_PHP = re.compile(
    r"(\s*)(?:"
    + "|".join(
        f"({alternative})"
        for alternative in (
            # ASCII-led names only; other letters take the slow path,
            # which applies str.isalpha() to the first character.
            r"[A-Za-z_]\w*",
            r"\$[A-Za-z_]\w*",
            # Operators that no other token starts with.
            r"===|!==|<>|==|!=|>>|>=|&&|\|\||\+\+|--|\+=|-=|\*=|%=|&=|\|=|\^=|->|=>|::"
            r"|[){}\[\];,:@=+\-*%!&|\^~>]",
            r"(?:\#|//)[^\n?]*(?:\?(?!>)[^\n?]*)*",
            # An unterminated comment matches just its opener.
            r"/\*(?:[^*]*\*+(?:[^/*][^*]*\*+)*/)?",
            r"\?>\n?",
            r"'[^'\\]*(?:\\[\s\S][^'\\]*)*'",
            r'"[^"\\$]*"',
            r"0[xX][0-9a-fA-F]*",
            r"0[0-7]+(?![0-9.eE])",
            r"(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?",
            r"\([ \t]*[A-Za-z]+[ \t]*\)",
            r"<<<",
            # Operators that a comment, close tag, number, heredoc or
            # cast above may start with.
            r"\.=|/=|<<|<=|[?./<(]",
            r"\S",
        )
    )
    + ")"
)

_SQ_ESCAPE = re.compile(r"\\(['\\])")
_IDENT_RUN = re.compile(r"\w*")
_DQ_TEXT = re.compile(r'[^"\\${]+')
_HEREDOC_TEXT = re.compile(r"[^\\${\n]+")
_HEREDOC_HEADER = re.compile(r"""<<<(['"]?)(\w*)""")

#: Calling a NamedTuple class runs its Python-level ``__new__``;
#: ``tuple.__new__`` builds the same value in C, once per token field.
_new = tuple.__new__


def _skip(source: str, pos: int, end: int, line: int, line_start: int) -> tuple[int, int, int]:
    """(end, line, line_start) after the text from ``pos`` to ``end``."""
    newlines = source.count("\n", pos, end)
    if newlines:
        line += newlines
        line_start = source.rfind("\n", pos, end) + 1
    return end, line, line_start


def _position_at(source: str, offset: int) -> Position:
    line_start = source.rfind("\n", 0, offset) + 1
    return Position(offset, source.count("\n", 0, offset) + 1, offset - line_start + 1)


class Lexer:
    """Tokenizes one PHP source file."""

    def __init__(self, source: str, filename: str = "<string>") -> None:
        self.source = source
        self.filename = filename

    def _error(self, message: str, start: int, end: int | None = None) -> LexError:
        """An error spanning ``[start, end)``, or the point ``start``."""
        first = _position_at(self.source, start)
        last = first if end is None else _position_at(self.source, end)
        return LexError(message, Span(self.filename, first, last))

    # -- top level ---------------------------------------------------------

    def tokens(self) -> list[Token]:
        source = self.source
        filename = self.filename
        size = len(source)
        out: list[Token] = []
        append = out.append
        match = _PHP.match
        count = source.count
        rfind = source.rfind
        keywords = KEYWORDS
        operators = _OPERATORS
        new = _new
        kind_ident = TokenKind.IDENTIFIER
        kind_keyword = TokenKind.KEYWORD
        kind_var = TokenKind.VARIABLE
        kind_string = TokenKind.STRING
        pos = 0
        line = 1
        line_start = 0  # offset of the first character of ``line``
        # Adjacent tokens share the Position between them.
        last_end = -1
        last_position = None
        in_php = False
        while pos < size:
            if not in_php:
                pos, line, line_start = self._html(pos, line, line_start, append)
                in_php = True
                continue
            m = match(source, pos)
            if m is None:  # only whitespace is left
                pos, line, line_start = _skip(source, pos, size, line, line_start)
                break
            start = m.end(_WS)
            if start != pos:
                newlines = count("\n", pos, start)
                if newlines:
                    line += newlines
                    line_start = rfind("\n", pos, start) + 1
                pos = start
            group = m.lastindex
            end = m.end()
            column = pos - line_start + 1
            if group == _IDENT:
                text = m.group(_IDENT)
                lowered = text.lower()
                if lowered in keywords:
                    kind, value = kind_keyword, lowered
                else:
                    kind, value = kind_ident, text
            elif group == _VAR:
                kind, value = kind_var, m.group(_VAR)[1:]
            elif group == _OP or group == _LATE_OP:
                value = m.group(group)
                kind = operators[value]
            elif group == _LINE_COMMENT:
                pos = end
                continue
            else:
                # Everything else may span lines.
                if group == _SQ_STRING or group == _DQ_STRING:
                    kind, value = kind_string, m.group(group)[1:-1]
                    if group == _SQ_STRING and "\\" in value:
                        value = _SQ_ESCAPE.sub(r"\1", value)
                else:
                    kind, value, end = self._slow(m, group)
                    if kind is TokenKind.CLOSE_TAG:
                        in_php = False
                if kind is None or "\n" in source[pos:end]:
                    first = new(Position, (pos, line, column))
                    pos, line, line_start = _skip(source, pos, end, line, line_start)
                    if kind is not None:  # not a block comment
                        last = new(Position, (end, line, end - line_start + 1))
                        append(new(Token, (kind, value, new(Span, (filename, first, last)))))
                    continue
            first = last_position if pos == last_end else new(Position, (pos, line, column))
            last_position = new(Position, (end, line, column + end - pos))
            last_end = pos = end
            append(new(Token, (kind, value, new(Span, (filename, first, last_position)))))
        append(Token(TokenKind.EOF, None, Span.point(filename, pos, line, pos - line_start + 1)))
        return out

    def _html(self, pos: int, line: int, line_start: int, append) -> tuple[int, int, int]:
        """Inline HTML up to the next open tag, and the tag itself."""
        source = self.source
        open_idx = source.find("<?", pos)
        stop = len(source) if open_idx == -1 else open_idx
        if stop > pos:
            first = Position(pos, line, pos - line_start + 1)
            _, line, line_start = _skip(source, pos, stop, line, line_start)
            last = Position(stop, line, stop - line_start + 1)
            span = Span(self.filename, first, last)
            append(Token(TokenKind.INLINE_HTML, source[pos:stop], span))
        if open_idx == -1:
            return stop, line, line_start
        column = stop - line_start + 1
        if source.startswith("<?php", stop):
            return stop + 5, line, line_start
        if source.startswith("<?=", stop):
            # `<?= expr ?>` is shorthand for `<?php echo expr ?>`; emit an
            # echo keyword so the parser needs no special case.
            span = Span(
                self.filename,
                Position(stop, line, column),
                Position(stop + 3, line, column + 3),
            )
            append(Token(TokenKind.KEYWORD, "echo", span))
            return stop + 3, line, line_start
        return stop + 2, line, line_start  # bare `<?`

    def _slow(self, m: re.Match, group: int) -> tuple[TokenKind | None, object, int]:
        """(kind, value, end) of a comment, close tag, number, cast,
        heredoc, interpolated string or malformed token; kind None for a
        block comment.  Raises :class:`LexError` on malformed input."""
        source = self.source
        start, end = m.span(group)
        text = m.group(group)
        if group == _BLOCK_COMMENT:
            if len(text) == 2:
                raise self._error("unterminated block comment", start, len(source))
            return None, None, end
        if group == _CLOSE_TAG:
            # PHP swallows a single newline right after `?>`.
            return TokenKind.CLOSE_TAG, "?>", end
        if group == _HEX:
            if len(text) == 2:
                raise self._error(f"malformed hexadecimal literal {text!r}", start, end)
            return TokenKind.INT, int(text, 16), end
        if group == _OCTAL:
            return TokenKind.INT, int(text, 8), end
        if group == _DECIMAL:
            if "." in text or "e" in text or "E" in text:
                return TokenKind.FLOAT, float(text), end
            try:
                return TokenKind.INT, int(text), end
            except ValueError:  # longer than int()'s digit limit
                raise self._error(f"malformed number {text[:20]!r}...", start, end) from None
        if group == _CAST:
            name = text[1:-1].strip(" \t").lower()
            if name in CASTS:
                return TokenKind.CAST, name, end
            return TokenKind.LPAREN, "(", start + 1
        if group == _HEREDOC:
            return self._heredoc(start)
        # _OTHER: one character that starts a long or malformed token.
        if text == '"':
            parts, end = self._interpolated(start + 1, start, heredoc_label=None)
            return (*_string_value(parts), end + 1)
        if text == "'":
            raise self._error("unterminated string", start, len(source))
        if text == "$":
            # A variable whose name starts with a non-ASCII letter.
            if not source[start + 1 : start + 2].isalpha():
                raise self._error("expected variable name after '$'", start, start + 1)
            name_end = _IDENT_RUN.match(source, start + 2).end()
            return TokenKind.VARIABLE, source[start + 1 : name_end], name_end
        if text.isalpha():
            # A name led by a non-ASCII letter.
            name_end = _IDENT_RUN.match(source, start + 1).end()
            name = source[start:name_end]
            lowered = name.lower()
            if lowered in KEYWORDS:
                return TokenKind.KEYWORD, lowered, name_end
            return TokenKind.IDENTIFIER, name, name_end
        raise self._error(f"unexpected character {text!r}", start)

    # -- strings ----------------------------------------------------------------

    def _heredoc(self, start: int) -> tuple[TokenKind, object, int]:
        source = self.source
        header = _HEREDOC_HEADER.match(source, start)
        quote, label = header.group(1), header.group(2)
        pos = header.end()
        if not label:
            raise self._error("expected heredoc label", start, pos)
        if quote:
            if not source.startswith(quote, pos):
                raise self._error("unterminated heredoc label quote", start, pos)
            pos += 1
        if source.startswith("\r", pos):
            pos += 1
        if not source.startswith("\n", pos):
            raise self._error("expected newline after heredoc label", start, pos)
        pos += 1
        if quote == "'":
            # Nowdoc: literal text, no interpolation.
            closing = re.compile(r"(?<=\n)" + re.escape(label) + r"(?![^\n\r;])")
            found = closing.search(source, pos)
            if found is None:
                raise self._error("unterminated heredoc", start, len(source))
            value = source[pos : found.start()].rstrip("\r\n")
            return TokenKind.STRING, value, found.end()
        parts, pos = self._interpolated(pos, start, heredoc_label=label)
        # Trim the line ending before the terminator label.
        if parts and parts[-1][0] == "text":
            parts[-1] = ("text", parts[-1][1].rstrip("\r\n"))
            if not parts[-1][1]:
                parts.pop()
        kind, value = _string_value(parts)
        return kind, value, pos + len(label)

    def _interpolated(
        self, pos: int, start: int, heredoc_label: str | None
    ) -> tuple[list[tuple], int]:
        """Parts of a double-quoted string or heredoc body from ``pos`` to
        its terminator, and the terminator's offset.

        A heredoc ends at its label at the start of a line, followed by a
        line ending, ``;`` or the end of input; a string ends at ``"``.
        """
        source = self.source
        size = len(source)
        text_run = _DQ_TEXT.match if heredoc_label is None else _HEREDOC_TEXT.match
        parts: list[tuple] = []
        text: list[str] = []

        def flush() -> None:
            if text:
                parts.append(("text", "".join(text)))
                text.clear()

        def ident_end(at: int) -> int:
            return _IDENT_RUN.match(source, at).end()

        while True:
            if pos >= size:
                raise self._error("unterminated string", start, size)
            if heredoc_label is None:
                if source[pos] == '"':
                    flush()
                    return parts, pos
            elif (
                (pos == 0 or source[pos - 1] == "\n")
                and source.startswith(heredoc_label, pos)
                and source[pos + len(heredoc_label) : pos + len(heredoc_label) + 1]
                in ("", "\n", "\r", ";")
            ):
                flush()
                return parts, pos
            run = text_run(source, pos)
            if run is not None:
                text.append(run.group())
                pos = run.end()
                continue
            ch = source[pos]
            nxt = source[pos + 1 : pos + 2]
            if ch == "\\":
                if nxt and nxt in _SIMPLE_ESCAPES:
                    text.append(_SIMPLE_ESCAPES[nxt])
                    pos += 2
                else:
                    text.append("\\")
                    pos += 1
                continue
            if ch == "$" and (nxt.isalpha() or nxt == "_"):
                name_end = ident_end(pos + 2)
                name = source[pos + 1 : name_end]
                pos = name_end
                if source.startswith("[", pos):
                    # "$row[key]" / "$row['key']" / "$row[0]"
                    key, pos = self._subscript(pos + 1, start)
                    flush()
                    parts.append(("index", name, key))
                    continue
                after = source[pos + 2 : pos + 3]
                if source.startswith("->", pos) and (after.isalpha() or after == "_"):
                    prop_end = ident_end(pos + 3)
                    prop = source[pos + 2 : prop_end]
                    pos = prop_end
                    flush()
                    parts.append(("prop", name, prop))
                    continue
                flush()
                parts.append(("var", name))
                continue
            if ch == "{" and nxt == "$":
                # "{$expr}" complex interpolation: support variable,
                # variable[...] and variable->prop forms.
                name_end = ident_end(pos + 2)
                name = source[pos + 2 : name_end]
                pos = name_end
                if not name:
                    raise self._error("malformed {$...} interpolation", start, pos)
                if source.startswith("[", pos):
                    key, pos = self._subscript(pos + 1, start)
                    part: tuple = ("index", name, key)
                elif source.startswith("->", pos):
                    prop_end = ident_end(pos + 2)
                    part = ("prop", name, source[pos + 2 : prop_end])
                    pos = prop_end
                else:
                    part = ("var", name)
                if not source.startswith("}", pos):
                    raise self._error("malformed {$...} interpolation", start, pos)
                pos += 1
                flush()
                parts.append(part)
                continue
            text.append(ch)
            pos += 1

    def _subscript(self, pos: int, start: int) -> tuple[str | int, int]:
        """The key inside "$arr[...]" interpolation starting at ``pos``,
        and the offset after its ']'."""
        source = self.source
        quote = source[pos : pos + 1]
        if quote in ("'", '"'):
            close = source.find(quote, pos + 1)
            if close == -1:
                raise self._error("unterminated subscript in interpolation", start, len(source))
            if not source.startswith("]", close + 1):
                raise self._error("expected ']' in interpolation", start, close + 1)
            return source[pos + 1 : close], close + 2
        close = source.find("]", pos)
        if close == -1:
            raise self._error("expected ']' in interpolation", start, len(source))
        key = source[pos:close]
        if key and all(c in "0123456789" for c in key):
            return int(key), close + 1
        return key, close + 1


def _string_value(parts: list[tuple]) -> tuple[TokenKind, object]:
    if all(part[0] == "text" for part in parts):
        return TokenKind.STRING, "".join(part[1] for part in parts)
    return TokenKind.TEMPLATE_STRING, parts


def tokenize(source: str, filename: str = "<string>") -> list[Token]:
    """Tokenize PHP source text into a token list ending with EOF."""
    return Lexer(source, filename).tokens()
