"""Recursive-descent parser for the PHP subset.

Expression parsing uses precedence climbing with PHP's operator table
(including the low-precedence ``and``/``or``/``xor`` word operators and
right-associative assignment).  Statement parsing covers everything the
information-flow filter consumes: assignments, calls, echo/print,
if/elseif/else, the four loop forms, switch, functions, includes,
global/static declarations, exit/die, and inline HTML.
"""

from __future__ import annotations

from repro.php import ast_nodes as ast
from repro.php.errors import ParseError
from repro.php.lexer import tokenize
from repro.php.span import Span
from repro.php.tokens import Token, TokenKind

__all__ = ["Parser", "parse"]


# Binary operator precedence (higher binds tighter), mirroring PHP.
_BINARY_PRECEDENCE: dict[str, int] = {
    "or": 1,
    "xor": 2,
    "and": 3,
    # assignment handled separately at precedence 4
    "||": 6,
    "&&": 7,
    "|": 8,
    "^": 9,
    "&": 10,
    "==": 11,
    "!=": 11,
    "===": 11,
    "!==": 11,
    "<": 12,
    "<=": 12,
    ">": 12,
    ">=": 12,
    "<<": 13,
    ">>": 13,
    "+": 14,
    "-": 14,
    ".": 14,
    "*": 15,
    "/": 15,
    "%": 15,
}

_TERNARY_PRECEDENCE = 5
_ASSIGN_PRECEDENCE = 4

_ASSIGN_KINDS = {
    TokenKind.ASSIGN: "",
    TokenKind.PLUS_ASSIGN: "+",
    TokenKind.MINUS_ASSIGN: "-",
    TokenKind.MUL_ASSIGN: "*",
    TokenKind.DIV_ASSIGN: "/",
    TokenKind.MOD_ASSIGN: "%",
    TokenKind.DOT_ASSIGN: ".",
    TokenKind.AND_ASSIGN: "&",
    TokenKind.OR_ASSIGN: "|",
    TokenKind.XOR_ASSIGN: "^",
}

_BINARY_TOKEN_KINDS = {
    TokenKind.BOOL_OR: "||",
    TokenKind.BOOL_AND: "&&",
    TokenKind.PIPE: "|",
    TokenKind.CARET: "^",
    TokenKind.AMP: "&",
    TokenKind.EQ: "==",
    TokenKind.NEQ: "!=",
    TokenKind.IDENTICAL: "===",
    TokenKind.NOT_IDENTICAL: "!==",
    TokenKind.LT: "<",
    TokenKind.LE: "<=",
    TokenKind.GT: ">",
    TokenKind.GE: ">=",
    TokenKind.SHIFT_LEFT: "<<",
    TokenKind.SHIFT_RIGHT: ">>",
    TokenKind.PLUS: "+",
    TokenKind.MINUS: "-",
    TokenKind.DOT: ".",
    TokenKind.STAR: "*",
    TokenKind.SLASH: "/",
    TokenKind.PERCENT: "%",
}

_INCLUDE_KEYWORDS = ("include", "include_once", "require", "require_once")

_EOF = TokenKind.EOF
_KEYWORD = TokenKind.KEYWORD


class Parser:
    """Parses one token stream into a :class:`repro.php.ast_nodes.Program`."""

    def __init__(self, tokens: list[Token], filename: str = "<string>") -> None:
        self._tokens = tokens
        self._pos = 0
        self._filename = filename

    # -- token helpers ------------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        # ``_advance`` never moves past EOF, so only a look-ahead can run
        # off the end; it sees the EOF token again.
        if ahead:
            index = self._pos + ahead
            tokens = self._tokens
            return tokens[index] if index < len(tokens) else tokens[-1]
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not _EOF:
            self._pos += 1
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self._tokens[self._pos].kind is kind

    def _check_keyword(self, *words: str) -> bool:
        token = self._tokens[self._pos]
        return token.kind is _KEYWORD and token.value in words

    def _accept(self, kind: TokenKind) -> Token | None:
        token = self._tokens[self._pos]
        if token.kind is not kind:
            return None
        if kind is not _EOF:
            self._pos += 1
        return token

    def _accept_keyword(self, *words: str) -> Token | None:
        token = self._tokens[self._pos]
        if token.kind is _KEYWORD and token.value in words:
            self._pos += 1
            return token
        return None

    def _expect(self, kind: TokenKind, context: str) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r} {context}, found {token}", token.span
            )
        if kind is not _EOF:
            self._pos += 1
        return token

    def _expect_keyword(self, word: str, context: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise ParseError(
                f"expected {word!r} {context}, found {token}", token.span
            )
        return self._advance()

    def _expect_semicolon(self) -> None:
        # A close tag also terminates a statement in PHP.
        if self._accept(TokenKind.SEMICOLON):
            return
        if self._check(TokenKind.CLOSE_TAG) or self._check(TokenKind.EOF):
            return
        token = self._peek()
        raise ParseError(f"expected ';', found {token}", token.span)

    # -- entry point ----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        statements: list[ast.Statement] = []
        start = self._peek().span
        while not self._check(TokenKind.EOF):
            stmt = self._parse_statement()
            if stmt is not None:
                statements.append(stmt)
        span = start.merge(self._peek().span) if statements else start
        return ast.Program(span, tuple(statements))

    # -- statements -------------------------------------------------------------

    def _parse_statement(self) -> ast.Statement | None:
        token = self._peek()
        if token.kind is TokenKind.INLINE_HTML:
            self._advance()
            return ast.InlineHTML(token.span, token.value)
        if token.kind is TokenKind.CLOSE_TAG:
            self._advance()
            return None
        if token.kind is TokenKind.SEMICOLON:
            self._advance()
            return None
        if token.kind is TokenKind.LBRACE:
            return self._parse_block()
        if token.kind is TokenKind.KEYWORD:
            word = token.value
            if word == "if":
                return self._parse_if()
            if word == "while":
                return self._parse_while()
            if word == "do":
                return self._parse_do_while()
            if word == "for":
                return self._parse_for()
            if word == "foreach":
                return self._parse_foreach()
            if word == "switch":
                return self._parse_switch()
            if word == "break":
                return self._parse_break_continue(ast.Break)
            if word == "continue":
                return self._parse_break_continue(ast.Continue)
            if word == "return":
                return self._parse_return()
            if word == "function":
                return self._parse_function()
            if word == "class":
                return self._parse_class()
            if word == "echo":
                return self._parse_echo()
            if word == "global":
                return self._parse_global()
            if word == "static" and self._peek(1).kind is TokenKind.VARIABLE:
                return self._parse_static()
            if word == "unset":
                return self._parse_unset()
        # Fallback: expression statement.
        expr = self._parse_expression()
        self._expect_semicolon()
        return ast.ExpressionStatement(expr.span, expr)

    def _parse_block(self) -> ast.Block:
        open_brace = self._expect(TokenKind.LBRACE, "to open a block")
        statements: list[ast.Statement] = []
        while not self._check(TokenKind.RBRACE):
            if self._check(TokenKind.EOF):
                raise ParseError("unterminated block", open_brace.span)
            stmt = self._parse_statement()
            if stmt is not None:
                statements.append(stmt)
        close = self._advance()
        return ast.Block(open_brace.span.merge(close.span), tuple(statements))

    def _parse_body(self) -> ast.Statement:
        """A loop/branch body: either a block or a single statement."""
        if self._check(TokenKind.LBRACE):
            return self._parse_block()
        stmt = self._parse_statement()
        if stmt is None:
            return ast.Block(self._peek().span, ())
        return stmt

    def _parse_alt_block(self, *stop_words: str) -> ast.Block:
        """Alternative-syntax body: statements after ':' until a stop
        keyword (``endif``, ``else``, …) — the keyword is not consumed."""
        colon = self._expect(TokenKind.COLON, "to open alternative-syntax body")
        statements: list[ast.Statement] = []
        while not self._check_keyword(*stop_words):
            if self._check(TokenKind.EOF):
                raise ParseError(
                    f"unterminated alternative-syntax block (expected one of {stop_words})",
                    colon.span,
                )
            stmt = self._parse_statement()
            if stmt is not None:
                statements.append(stmt)
        end = self._peek()
        return ast.Block(colon.span.merge(end.span), tuple(statements))

    def _parse_if(self) -> ast.If:
        kw = self._expect_keyword("if", "")
        self._expect(TokenKind.LPAREN, "after 'if'")
        condition = self._parse_expression()
        self._expect(TokenKind.RPAREN, "after if condition")
        if self._check(TokenKind.COLON):
            return self._parse_if_alternative(kw, condition)
        then = self._parse_body()
        elseifs: list[ast.ElseIfClause] = []
        orelse: ast.Statement | None = None
        while True:
            if self._check_keyword("elseif"):
                clause_kw = self._advance()
                self._expect(TokenKind.LPAREN, "after 'elseif'")
                cond = self._parse_expression()
                self._expect(TokenKind.RPAREN, "after elseif condition")
                body = self._parse_body()
                elseifs.append(ast.ElseIfClause(clause_kw.span.merge(body.span), cond, body))
                continue
            if self._check_keyword("else") and self._peek(1).is_keyword("if"):
                clause_kw = self._advance()
                self._advance()  # 'if'
                self._expect(TokenKind.LPAREN, "after 'else if'")
                cond = self._parse_expression()
                self._expect(TokenKind.RPAREN, "after else-if condition")
                body = self._parse_body()
                elseifs.append(ast.ElseIfClause(clause_kw.span.merge(body.span), cond, body))
                continue
            if self._check_keyword("else"):
                self._advance()
                orelse = self._parse_body()
            break
        end = orelse or (elseifs[-1] if elseifs else then)
        return ast.If(kw.span.merge(end.span), condition, then, tuple(elseifs), orelse)

    def _parse_if_alternative(self, kw: Token, condition: ast.Expression) -> ast.If:
        """``if (c): ... elseif (c2): ... else: ... endif;``"""
        then = self._parse_alt_block("elseif", "else", "endif")
        elseifs: list[ast.ElseIfClause] = []
        orelse: ast.Statement | None = None
        while self._check_keyword("elseif"):
            clause_kw = self._advance()
            self._expect(TokenKind.LPAREN, "after 'elseif'")
            cond = self._parse_expression()
            self._expect(TokenKind.RPAREN, "after elseif condition")
            body = self._parse_alt_block("elseif", "else", "endif")
            elseifs.append(ast.ElseIfClause(clause_kw.span.merge(body.span), cond, body))
        if self._accept_keyword("else"):
            orelse = self._parse_alt_block("endif")
        end = self._expect_keyword("endif", "to close alternative-syntax if")
        self._expect_semicolon()
        return ast.If(kw.span.merge(end.span), condition, then, tuple(elseifs), orelse)

    def _parse_while(self) -> ast.While:
        kw = self._expect_keyword("while", "")
        self._expect(TokenKind.LPAREN, "after 'while'")
        condition = self._parse_expression()
        self._expect(TokenKind.RPAREN, "after while condition")
        if self._check(TokenKind.COLON):
            body = self._parse_alt_block("endwhile")
            self._expect_keyword("endwhile", "to close alternative-syntax while")
            self._expect_semicolon()
        else:
            body = self._parse_body()
        return ast.While(kw.span.merge(body.span), condition, body)

    def _parse_do_while(self) -> ast.DoWhile:
        kw = self._expect_keyword("do", "")
        body = self._parse_body()
        self._expect_keyword("while", "after do-while body")
        self._expect(TokenKind.LPAREN, "after 'while'")
        condition = self._parse_expression()
        close = self._expect(TokenKind.RPAREN, "after do-while condition")
        self._expect_semicolon()
        return ast.DoWhile(kw.span.merge(close.span), body, condition)

    def _parse_for(self) -> ast.For:
        kw = self._expect_keyword("for", "")
        self._expect(TokenKind.LPAREN, "after 'for'")
        init = self._parse_expression_list_until(TokenKind.SEMICOLON)
        self._expect(TokenKind.SEMICOLON, "after for-init")
        condition = self._parse_expression_list_until(TokenKind.SEMICOLON)
        self._expect(TokenKind.SEMICOLON, "after for-condition")
        update = self._parse_expression_list_until(TokenKind.RPAREN)
        self._expect(TokenKind.RPAREN, "after for-update")
        if self._check(TokenKind.COLON):
            body: ast.Statement = self._parse_alt_block("endfor")
            self._expect_keyword("endfor", "to close alternative-syntax for")
            self._expect_semicolon()
        else:
            body = self._parse_body()
        return ast.For(kw.span.merge(body.span), init, condition, update, body)

    def _parse_expression_list_until(self, terminator: TokenKind) -> tuple[ast.Expression, ...]:
        if self._check(terminator):
            return ()
        exprs = [self._parse_expression()]
        while self._accept(TokenKind.COMMA):
            exprs.append(self._parse_expression())
        return tuple(exprs)

    def _parse_foreach(self) -> ast.Foreach:
        kw = self._expect_keyword("foreach", "")
        self._expect(TokenKind.LPAREN, "after 'foreach'")
        subject = self._parse_expression()
        self._expect_keyword("as", "in foreach")
        by_reference = bool(self._accept(TokenKind.AMP))
        first = self._parse_lvalue()
        key_var: ast.Expression | None = None
        value_var = first
        if self._accept(TokenKind.DOUBLE_ARROW):
            key_var = first
            by_reference = bool(self._accept(TokenKind.AMP))
            value_var = self._parse_lvalue()
        self._expect(TokenKind.RPAREN, "after foreach clause")
        if self._check(TokenKind.COLON):
            body: ast.Statement = self._parse_alt_block("endforeach")
            self._expect_keyword("endforeach", "to close alternative-syntax foreach")
            self._expect_semicolon()
        else:
            body = self._parse_body()
        return ast.Foreach(kw.span.merge(body.span), subject, key_var, value_var, body, by_reference)

    def _parse_switch(self) -> ast.Switch:
        kw = self._expect_keyword("switch", "")
        self._expect(TokenKind.LPAREN, "after 'switch'")
        subject = self._parse_expression()
        self._expect(TokenKind.RPAREN, "after switch subject")
        alternative = bool(self._accept(TokenKind.COLON))
        if not alternative:
            self._expect(TokenKind.LBRACE, "to open switch body")

        def at_end() -> bool:
            if alternative:
                return self._check_keyword("endswitch")
            return self._check(TokenKind.RBRACE)

        cases: list[ast.SwitchCase] = []
        while not at_end():
            if self._check(TokenKind.EOF):
                raise ParseError("unterminated switch", kw.span)
            case_kw = self._peek()
            test: ast.Expression | None
            if self._accept_keyword("case"):
                test = self._parse_expression()
            elif self._accept_keyword("default"):
                test = None
            else:
                raise ParseError(f"expected 'case' or 'default', found {case_kw}", case_kw.span)
            if not self._accept(TokenKind.COLON):
                self._expect(TokenKind.SEMICOLON, "after case label")
            body: list[ast.Statement] = []
            while not (
                at_end()
                or self._check_keyword("case", "default")
                or self._check(TokenKind.EOF)
            ):
                stmt = self._parse_statement()
                if stmt is not None:
                    body.append(stmt)
            cases.append(ast.SwitchCase(case_kw.span, test, tuple(body)))
        close = self._advance()
        if alternative:
            self._expect_semicolon()
        return ast.Switch(kw.span.merge(close.span), subject, tuple(cases))

    def _parse_break_continue(self, cls):
        kw = self._advance()
        level = 1
        if self._check(TokenKind.INT):
            level = self._advance().value
        self._expect_semicolon()
        return cls(kw.span, level)

    def _parse_return(self) -> ast.Return:
        kw = self._expect_keyword("return", "")
        value: ast.Expression | None = None
        if not (
            self._check(TokenKind.SEMICOLON)
            or self._check(TokenKind.CLOSE_TAG)
            or self._check(TokenKind.EOF)
        ):
            value = self._parse_expression()
        self._expect_semicolon()
        return ast.Return(kw.span, value)

    def _parse_function(self) -> ast.FunctionDecl:
        kw = self._expect_keyword("function", "")
        self._accept(TokenKind.AMP)  # return-by-reference marker
        name_token = self._expect(TokenKind.IDENTIFIER, "as function name")
        self._expect(TokenKind.LPAREN, "after function name")
        parameters: list[ast.Parameter] = []
        if not self._check(TokenKind.RPAREN):
            while True:
                by_reference = bool(self._accept(TokenKind.AMP))
                param_token = self._expect(TokenKind.VARIABLE, "as parameter name")
                default: ast.Expression | None = None
                if self._accept(TokenKind.ASSIGN):
                    default = self._parse_expression()
                parameters.append(
                    ast.Parameter(param_token.span, param_token.value, default, by_reference)
                )
                if not self._accept(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN, "after parameter list")
        body = self._parse_block()
        return ast.FunctionDecl(
            kw.span.merge(body.span), name_token.value, tuple(parameters), body
        )

    def _parse_class(self) -> ast.ClassDecl:
        kw = self._expect_keyword("class", "")
        name_token = self._expect(TokenKind.IDENTIFIER, "as class name")
        parent: str | None = None
        if self._accept_keyword("extends"):
            parent = self._expect(TokenKind.IDENTIFIER, "as parent class name").value
        self._expect(TokenKind.LBRACE, "to open class body")
        properties: list[ast.PropertyDecl] = []
        methods: list[ast.FunctionDecl] = []
        while not self._check(TokenKind.RBRACE):
            token = self._peek()
            if token.kind is TokenKind.EOF:
                raise ParseError("unterminated class body", kw.span)
            if self._check_keyword("var", "public", "private", "protected"):
                visibility_token = self._advance()
                visibility = (
                    "public" if visibility_token.value == "var" else visibility_token.value
                )
                if self._check_keyword("function"):
                    methods.append(self._parse_function())
                    continue
                if self._check_keyword("static"):
                    self._advance()
                while True:
                    prop = self._expect(TokenKind.VARIABLE, "as property name")
                    default: ast.Expression | None = None
                    if self._accept(TokenKind.ASSIGN):
                        default = self._parse_expression()
                    properties.append(
                        ast.PropertyDecl(prop.span, prop.value, default, visibility)
                    )
                    if not self._accept(TokenKind.COMMA):
                        break
                self._expect_semicolon()
                continue
            if self._check_keyword("function"):
                methods.append(self._parse_function())
                continue
            raise ParseError(
                f"expected property or method in class body, found {token}", token.span
            )
        close = self._advance()
        return ast.ClassDecl(
            kw.span.merge(close.span),
            name_token.value,
            parent,
            tuple(properties),
            tuple(methods),
        )

    def _parse_echo(self) -> ast.Echo:
        kw = self._expect_keyword("echo", "")
        args = [self._parse_expression()]
        while self._accept(TokenKind.COMMA):
            args.append(self._parse_expression())
        self._expect_semicolon()
        return ast.Echo(kw.span.merge(args[-1].span), tuple(args))

    def _parse_global(self) -> ast.GlobalStatement:
        kw = self._expect_keyword("global", "")
        names = [self._expect(TokenKind.VARIABLE, "after 'global'").value]
        while self._accept(TokenKind.COMMA):
            names.append(self._expect(TokenKind.VARIABLE, "in global list").value)
        self._expect_semicolon()
        return ast.GlobalStatement(kw.span, tuple(names))

    def _parse_static(self) -> ast.StaticStatement:
        kw = self._expect_keyword("static", "")
        variables: list[ast.StaticVar] = []
        while True:
            var_token = self._expect(TokenKind.VARIABLE, "after 'static'")
            default: ast.Expression | None = None
            if self._accept(TokenKind.ASSIGN):
                default = self._parse_expression()
            variables.append(ast.StaticVar(var_token.span, var_token.value, default))
            if not self._accept(TokenKind.COMMA):
                break
        self._expect_semicolon()
        return ast.StaticStatement(kw.span, tuple(variables))

    def _parse_unset(self) -> ast.UnsetStatement:
        kw = self._expect_keyword("unset", "")
        self._expect(TokenKind.LPAREN, "after 'unset'")
        operands = [self._parse_expression()]
        while self._accept(TokenKind.COMMA):
            operands.append(self._parse_expression())
        self._expect(TokenKind.RPAREN, "after unset arguments")
        self._expect_semicolon()
        return ast.UnsetStatement(kw.span, tuple(operands))

    # -- expressions --------------------------------------------------------------

    def _parse_expression(self) -> ast.Expression:
        return self._parse_binary(0)

    def _parse_lvalue(self) -> ast.Expression:
        """An assignable expression (variable / array dim / property)."""
        expr = self._parse_postfix(self._parse_primary())
        if not isinstance(
            expr, (ast.Variable, ast.ArrayDim, ast.PropertyFetch, ast.StaticPropertyFetch)
        ):
            raise ParseError("expected an assignable expression", expr.span)
        return expr

    def _parse_binary(self, min_precedence: int) -> ast.Expression:
        left = self._parse_assignment_or_unary(min_precedence)
        while True:
            token = self._peek()
            op: str | None = None
            if token.kind in _BINARY_TOKEN_KINDS:
                op = _BINARY_TOKEN_KINDS[token.kind]
            elif token.kind is TokenKind.KEYWORD and token.value in ("and", "or", "xor"):
                op = token.value
            if op is None:
                break
            precedence = _BINARY_PRECEDENCE[op]
            if precedence < min_precedence:
                break
            self._advance()
            right = self._parse_binary(precedence + 1)
            left = ast.Binary(left.span.merge(right.span), op, left, right)
            continue
        # Ternary at its own precedence level.
        if min_precedence <= _TERNARY_PRECEDENCE and self._check(TokenKind.QUESTION):
            self._advance()
            then: ast.Expression | None = None
            if not self._check(TokenKind.COLON):
                then = self._parse_expression()
            self._expect(TokenKind.COLON, "in ternary expression")
            orelse = self._parse_binary(_TERNARY_PRECEDENCE)
            left = ast.Ternary(left.span.merge(orelse.span), left, then, orelse)
        return left

    def _parse_assignment_or_unary(self, min_precedence: int) -> ast.Expression:
        expr = self._parse_unary()
        token = self._peek()
        if (
            min_precedence <= _ASSIGN_PRECEDENCE
            and token.kind in _ASSIGN_KINDS
            and isinstance(
                expr,
                (ast.Variable, ast.ArrayDim, ast.PropertyFetch, ast.StaticPropertyFetch),
            )
        ):
            self._advance()
            by_reference = False
            if token.kind is TokenKind.ASSIGN and self._accept(TokenKind.AMP):
                by_reference = True
            value = self._parse_binary(_ASSIGN_PRECEDENCE)  # right-associative
            return ast.Assign(
                expr.span.merge(value.span), expr, _ASSIGN_KINDS[token.kind], value, by_reference
            )
        return expr

    def _parse_unary(self) -> ast.Expression:
        token = self._peek()
        if token.kind is TokenKind.NOT:
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(token.span.merge(operand.span), "!", operand)
        if token.kind is TokenKind.MINUS:
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(token.span.merge(operand.span), "-", operand)
        if token.kind is TokenKind.PLUS:
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(token.span.merge(operand.span), "+", operand)
        if token.kind is TokenKind.TILDE:
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(token.span.merge(operand.span), "~", operand)
        if token.kind is TokenKind.AT:
            self._advance()
            operand = self._parse_unary()
            return ast.ErrorSuppress(token.span.merge(operand.span), operand)
        if token.kind is TokenKind.CAST:
            self._advance()
            operand = self._parse_unary()
            return ast.Cast(token.span.merge(operand.span), token.value, operand)
        if token.kind is TokenKind.INCREMENT or token.kind is TokenKind.DECREMENT:
            self._advance()
            target = self._parse_unary()
            return ast.IncDec(token.span.merge(target.span), token.value, target, prefix=True)
        if token.kind is TokenKind.KEYWORD:
            if token.value in _INCLUDE_KEYWORDS:
                self._advance()
                path = self._parse_expression()
                return ast.IncludeExpr(token.span.merge(path.span), token.value, path)
            if token.value == "print":
                self._advance()
                argument = self._parse_expression()
                return ast.PrintExpr(token.span.merge(argument.span), argument)
            if token.value == "new":
                self._advance()
                name_token = self._expect(TokenKind.IDENTIFIER, "after 'new'")
                args: tuple[ast.Expression, ...] = ()
                if self._check(TokenKind.LPAREN):
                    args = self._parse_arguments()
                return ast.New(token.span, name_token.value, args)
        return self._parse_postfix(self._parse_primary())

    def _parse_postfix(self, expr: ast.Expression) -> ast.Expression:
        while True:
            token = self._peek()
            if token.kind is TokenKind.LBRACKET:
                self._advance()
                index: ast.Expression | None = None
                if not self._check(TokenKind.RBRACKET):
                    index = self._parse_expression()
                close = self._expect(TokenKind.RBRACKET, "after array index")
                expr = ast.ArrayDim(expr.span.merge(close.span), expr, index)
                continue
            if token.kind is TokenKind.LBRACE and isinstance(expr, (ast.Variable, ast.ArrayDim)):
                # Legacy string/array offset syntax: $s{0}
                self._advance()
                index = self._parse_expression()
                close = self._expect(TokenKind.RBRACE, "after brace index")
                expr = ast.ArrayDim(expr.span.merge(close.span), expr, index)
                continue
            if token.kind is TokenKind.ARROW:
                self._advance()
                prop = self._expect(TokenKind.IDENTIFIER, "after '->'")
                if self._check(TokenKind.LPAREN):
                    args = self._parse_arguments()
                    expr = ast.MethodCall(expr.span.merge(prop.span), expr, prop.value, args)
                else:
                    expr = ast.PropertyFetch(expr.span.merge(prop.span), expr, prop.value)
                continue
            if token.kind is TokenKind.INCREMENT or token.kind is TokenKind.DECREMENT:
                self._advance()
                expr = ast.IncDec(expr.span.merge(token.span), token.value, expr, prefix=False)
                continue
            break
        return expr

    def _parse_arguments(self) -> tuple[ast.Expression, ...]:
        self._expect(TokenKind.LPAREN, "to open argument list")
        args: list[ast.Expression] = []
        if not self._check(TokenKind.RPAREN):
            while True:
                self._accept(TokenKind.AMP)  # by-reference argument marker
                args.append(self._parse_expression())
                if not self._accept(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN, "to close argument list")
        return tuple(args)

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        if token.kind is TokenKind.VARIABLE:
            self._advance()
            return ast.Variable(token.span, token.value)
        if token.kind is TokenKind.INT or token.kind is TokenKind.FLOAT:
            self._advance()
            return ast.Literal(token.span, token.value)
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.Literal(token.span, token.value)
        if token.kind is TokenKind.TEMPLATE_STRING:
            self._advance()
            return self._interpolated_from_parts(token)
        if token.kind is TokenKind.LPAREN:
            self._advance()
            expr = self._parse_expression()
            self._expect(TokenKind.RPAREN, "to close parenthesized expression")
            return self._parse_postfix(expr)
        if token.kind is TokenKind.KEYWORD:
            word = token.value
            if word in ("true", "false"):
                self._advance()
                return ast.Literal(token.span, word == "true")
            if word == "null":
                self._advance()
                return ast.Literal(token.span, None)
            if word == "array":
                return self._parse_array_literal()
            if word == "list":
                return self._parse_list_assign()
            if word == "isset":
                self._advance()
                self._expect(TokenKind.LPAREN, "after 'isset'")
                operands = [self._parse_expression()]
                while self._accept(TokenKind.COMMA):
                    operands.append(self._parse_expression())
                close = self._expect(TokenKind.RPAREN, "after isset arguments")
                return ast.IssetExpr(token.span.merge(close.span), tuple(operands))
            if word == "empty":
                self._advance()
                self._expect(TokenKind.LPAREN, "after 'empty'")
                operand = self._parse_expression()
                close = self._expect(TokenKind.RPAREN, "after empty argument")
                return ast.EmptyExpr(token.span.merge(close.span), operand)
            if word in ("exit", "die"):
                self._advance()
                argument: ast.Expression | None = None
                if self._accept(TokenKind.LPAREN):
                    if not self._check(TokenKind.RPAREN):
                        argument = self._parse_expression()
                    self._expect(TokenKind.RPAREN, "after exit argument")
                return ast.ExitExpr(token.span, argument)
        if token.kind is TokenKind.IDENTIFIER:
            self._advance()
            if self._check(TokenKind.DOUBLE_COLON):
                self._advance()
                if self._check(TokenKind.VARIABLE):
                    prop = self._advance()
                    return ast.StaticPropertyFetch(
                        token.span.merge(prop.span), token.value, prop.value
                    )
                method = self._expect(TokenKind.IDENTIFIER, "after '::'")
                args = self._parse_arguments()
                return ast.StaticCall(token.span, token.value, method.value, args)
            if self._check(TokenKind.LPAREN):
                args = self._parse_arguments()
                return ast.FunctionCall(token.span, token.value, args)
            # Bare identifier: PHP constant — treat as an (untainted) literal.
            return ast.Literal(token.span, token.value)
        raise ParseError(f"unexpected token {token}", token.span)

    def _parse_array_literal(self) -> ast.ArrayLiteral:
        kw = self._expect_keyword("array", "")
        self._expect(TokenKind.LPAREN, "after 'array'")
        items: list[ast.ArrayItem] = []
        while not self._check(TokenKind.RPAREN):
            first = self._parse_expression()
            if self._accept(TokenKind.DOUBLE_ARROW):
                value = self._parse_expression()
                items.append(ast.ArrayItem(first.span.merge(value.span), first, value))
            else:
                items.append(ast.ArrayItem(first.span, None, first))
            if not self._accept(TokenKind.COMMA):
                break
        close = self._expect(TokenKind.RPAREN, "to close array literal")
        return ast.ArrayLiteral(kw.span.merge(close.span), tuple(items))

    def _parse_list_assign(self) -> ast.ListAssign:
        kw = self._expect_keyword("list", "")
        self._expect(TokenKind.LPAREN, "after 'list'")
        targets: list[ast.Expression | None] = []
        while not self._check(TokenKind.RPAREN):
            if self._check(TokenKind.COMMA):
                targets.append(None)
            else:
                targets.append(self._parse_lvalue())
            if not self._accept(TokenKind.COMMA):
                break
        self._expect(TokenKind.RPAREN, "to close list()")
        self._expect(TokenKind.ASSIGN, "after list()")
        value = self._parse_expression()
        return ast.ListAssign(kw.span.merge(value.span), tuple(targets), value)

    def _interpolated_from_parts(self, token: Token) -> ast.Expression:
        parts: list[object] = []
        for part in token.value:
            kind = part[0]
            if kind == "text":
                parts.append(part[1])
            elif kind == "var":
                parts.append(ast.Variable(token.span, part[1]))
            elif kind == "index":
                base = ast.Variable(token.span, part[1])
                key = ast.Literal(token.span, part[2])
                parts.append(ast.ArrayDim(token.span, base, key))
            elif kind == "prop":
                base = ast.Variable(token.span, part[1])
                parts.append(ast.PropertyFetch(token.span, base, part[2]))
            else:  # pragma: no cover - lexer emits only the kinds above
                raise ParseError(f"unknown interpolation part {kind!r}", token.span)
        return ast.InterpolatedString(token.span, tuple(parts))


def parse(source: str, filename: str = "<string>") -> ast.Program:
    """Parse PHP source text into an AST."""
    return Parser(tokenize(source, filename), filename).parse_program()
