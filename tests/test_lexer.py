"""Whole-corpus lexer contracts: a pinned token-stream digest, positions
that agree with offsets, and the malformed-number and CRLF-heredoc
regressions."""

import bisect
import hashlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.corpus import FIGURE_10, generate_catalog_project, generate_corpus
from repro.php import LexError, TokenKind, tokenize

REPO = Path(__file__).resolve().parent.parent

#: SHA-256 over (kind, value, span) of every token of :func:`corpus_sources`.
#: Any change to what the lexer emits, or where, moves it.
PINNED_TOKEN_DIGEST = "1b72901bca4757b04156658e93637a71a431f0eebe980602ca41426395e7d94a"


def corpus_sources():
    """(filename, text) of the seed-2004 Figure 10 trees, the 2% section 5
    corpus and the example PHP files, in a fixed order."""
    for entry in FIGURE_10:
        project = generate_catalog_project(entry, seed=2004).project
        for path in sorted(project.paths()):
            yield path, project.source(path)
    for generated in generate_corpus(scale=0.02, seed=2004):
        project = generated.project
        for path in sorted(project.paths()):
            yield path, project.source(path)
    for path in sorted((REPO / "examples").rglob("*.php")):
        yield path.relative_to(REPO).as_posix(), path.read_text()


@pytest.fixture(scope="module")
def lexed():
    return [(text, tokenize(text, filename)) for filename, text in corpus_sources()]


def test_token_stream_digest_is_pinned(lexed):
    digest = hashlib.sha256()
    for _, tokens in lexed:
        for token in tokens:
            start, end = token.span.start, token.span.end
            digest.update(repr((
                token.kind.name, token.value, token.span.filename,
                start.offset, start.line, start.column,
                end.offset, end.line, end.column,
            )).encode())
    assert digest.hexdigest() == PINNED_TOKEN_DIGEST


def test_line_and_column_follow_from_the_offset(lexed):
    for text, tokens in lexed:
        newlines = [i for i, ch in enumerate(text) if ch == "\n"]
        for token in tokens:
            for position in (token.span.start, token.span.end):
                before = bisect.bisect_left(newlines, position.offset)
                line_start = newlines[before - 1] + 1 if before else 0
                assert (position.line, position.column) == (
                    before + 1, position.offset - line_start + 1
                ), (token, position)


class TestMalformedHexLiteral:
    def test_raises_lex_error_with_span(self):
        with pytest.raises(LexError) as failure:
            tokenize("<?php\n$a = 0x;\n", "hex.php")
        span = failure.value.span
        assert (span.filename, span.start.line, span.start.column) == ("hex.php", 2, 6)
        assert span.end.offset - span.start.offset == 2

    def test_verify_reports_a_frontend_error_and_exits_two(self, tmp_path, capsys):
        path = tmp_path / "hex.php"
        path.write_text("<?php $a = 0x;\n")
        assert main(["verify", str(path)]) == 2
        assert "frontend error" in capsys.readouterr().err


class TestCrlfHeredoc:
    def test_heredoc_value_drops_the_crlf_before_the_label(self):
        tokens = tokenize("<?php $a = <<<EOT\r\nhello\r\nEOT;\r\n")
        assert tokens[2].kind is TokenKind.STRING and tokens[2].value == "hello"

    def test_nowdoc_value_drops_the_crlf_before_the_label(self):
        tokens = tokenize("<?php $a = <<<'EOT'\r\nhello\r\nEOT;\r\n")
        assert tokens[2].kind is TokenKind.STRING and tokens[2].value == "hello"

    def test_interpolated_heredoc_keeps_inner_crlf(self):
        tokens = tokenize('<?php $a = <<<"EOT"\r\nhi\r\n$x\r\nEOT;\r\n')
        assert tokens[2].kind is TokenKind.TEMPLATE_STRING
        assert tokens[2].value == [("text", "hi\r\n"), ("var", "x")]
