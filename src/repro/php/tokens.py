"""Token kinds and the token record produced by the lexer."""

from __future__ import annotations

import enum
from typing import Any, NamedTuple

from repro.php.span import Span

__all__ = ["TokenKind", "Token", "KEYWORDS", "CASTS"]


class TokenKind(enum.Enum):
    # Structure
    INLINE_HTML = "inline_html"  # text outside <?php ... ?>
    OPEN_TAG = "open_tag"
    CLOSE_TAG = "close_tag"
    EOF = "eof"

    # Atoms
    VARIABLE = "variable"  # $name (value excludes the $)
    IDENTIFIER = "identifier"
    INT = "int"
    FLOAT = "float"
    STRING = "string"  # single-quoted or non-interpolated double-quoted
    TEMPLATE_STRING = "template_string"  # double-quoted with interpolation

    # Keywords
    KEYWORD = "keyword"

    # Punctuation / operators
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMICOLON = ";"
    COMMA = ","
    ARROW = "->"
    DOUBLE_ARROW = "=>"
    DOUBLE_COLON = "::"
    QUESTION = "?"
    COLON = ":"
    AT = "@"
    DOT = "."
    ASSIGN = "="
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    MUL_ASSIGN = "*="
    DIV_ASSIGN = "/="
    MOD_ASSIGN = "%="
    DOT_ASSIGN = ".="
    AND_ASSIGN = "&="
    OR_ASSIGN = "|="
    XOR_ASSIGN = "^="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    INCREMENT = "++"
    DECREMENT = "--"
    EQ = "=="
    IDENTICAL = "==="
    NEQ = "!="
    NOT_IDENTICAL = "!=="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    BOOL_AND = "&&"
    BOOL_OR = "||"
    NOT = "!"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    TILDE = "~"
    SHIFT_LEFT = "<<"
    SHIFT_RIGHT = ">>"
    CAST = "cast"  # (int), (string), ...

    def __repr__(self) -> str:
        return f"TokenKind.{self.name}"

    # Members are singletons: identity hashing keeps dict lookups keyed
    # on kinds in C instead of Enum's Python-level ``hash(self._name_)``.
    __hash__ = object.__hash__


#: Reserved words recognized by the lexer (lower-cased comparison; PHP
#: keywords are case-insensitive).
KEYWORDS = frozenset(
    {
        "if",
        "else",
        "elseif",
        "while",
        "do",
        "for",
        "foreach",
        "as",
        "switch",
        "case",
        "default",
        "break",
        "continue",
        "function",
        "return",
        "echo",
        "print",
        "include",
        "include_once",
        "require",
        "require_once",
        "true",
        "false",
        "null",
        "array",
        "list",
        "new",
        "global",
        "static",
        "isset",
        "empty",
        "unset",
        "class",
        "extends",
        "var",
        "public",
        "private",
        "protected",
        # Alternative (template) syntax terminators.
        "endif",
        "endwhile",
        "endfor",
        "endforeach",
        "endswitch",
        "exit",
        "die",
        "and",
        "or",
        "xor",
        "not",
    }
)

#: Cast type names accepted inside ``( )``.
CASTS = frozenset({"int", "integer", "bool", "boolean", "float", "double", "real", "string", "array", "object"})


class Token(NamedTuple):
    """A single lexical token.

    ``value`` depends on the kind: the variable name (without ``$``) for
    VARIABLE, the decoded text for STRING, the list of string parts for
    TEMPLATE_STRING, the numeric value for INT/FLOAT, the lower-cased
    keyword for KEYWORD, the raw identifier for IDENTIFIER, and the cast
    type for CAST.
    """

    kind: TokenKind
    value: Any
    span: Span

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.value == word

    def __str__(self) -> str:
        return f"{self.kind.name}({self.value!r})"
