"""PHP-subset frontend: lexer, parser, AST, and include resolution.

This is the reproduction's "code walker" (paper §4, Figure 8): the lexer
and parser replace the SableCC-generated LALR(1) pair, and
:func:`resolve_includes` handles external file inclusions.
"""

from repro.php import ast_nodes as ast
from repro.php.errors import FrontendError, IncludeError, LexError, ParseError
from repro.php.includes import (
    IncludeResolution,
    IncludeScan,
    SourceProject,
    TreeProject,
    resolve_includes,
    scan_includes,
)
from repro.php.lexer import Lexer, tokenize
from repro.php.parsecache import IncludeGraph, ParseCache
from repro.php.parser import Parser, parse
from repro.php.span import Position, Span
from repro.php.tokens import Token, TokenKind

__all__ = [
    "ast",
    "FrontendError",
    "IncludeError",
    "LexError",
    "ParseError",
    "IncludeResolution",
    "IncludeScan",
    "IncludeGraph",
    "ParseCache",
    "SourceProject",
    "TreeProject",
    "resolve_includes",
    "scan_includes",
    "Lexer",
    "tokenize",
    "Parser",
    "parse",
    "Position",
    "Span",
    "Token",
    "TokenKind",
]
