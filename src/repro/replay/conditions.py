"""Mapping SAT branch decisions back onto concrete request inputs.

F(p) replaces every branch condition with a nondeterministic boolean, so
a counterexample model only says "``b3`` was true".  The renamer now
records the *source span* of the statement behind each branch variable
(:attr:`RenamedProgram.branch_spans`); this module closes the loop by

1. re-parsing the source and indexing branch-bearing statements by span,
   mirroring exactly how the IR filter assigns spans (if/elseif clauses,
   while/do-while/for/foreach headers, switch cases), and
2. statically solving the simple condition shapes of the subset —
   superglobal truthiness, ``isset``/``empty``, negation, boolean
   connectives, (in)equality against literals — into request-field
   assignments.

Conditions outside this fragment (computed locals, DB cursors, …)
solve to ``None``; the replayer then relies on optimistic confirmation:
a sentinel that still reaches the sink confirms the witness regardless,
and only the refutation verdict requires every deciding branch solved.
"""

from __future__ import annotations

from repro.php import ast_nodes as ast
from repro.php.span import Span
from repro.replay.sentinel import SENTINEL

__all__ = [
    "ABSENT",
    "Constraints",
    "index_conditions",
    "collect_input_keys",
    "solve_condition",
    "merge_constraints",
]

#: Sentinel value meaning "this request field must be missing".
ABSENT = None

#: channel → superglobal names feeding it.
_CHANNELS = {
    "get": ("_GET", "HTTP_GET_VARS", "_REQUEST"),
    "post": ("_POST", "HTTP_POST_VARS"),
    "cookie": ("_COOKIE",),
}
_SUPERGLOBAL_CHANNEL = {
    name: channel for channel, names in _CHANNELS.items() for name in names
}

#: (channel, key) → required value; value ``ABSENT`` means absent.
#: ``referer``/``user_agent`` use the empty key.
Constraints = dict[tuple[str, str], "str | None"]


# -- condition indexing ------------------------------------------------------


def index_conditions(program: ast.Program) -> dict[Span, "ast.Expression | None"]:
    """Span → branch condition, following the IR filter's span choices.

    A ``None`` condition marks a span whose branch has no statically
    solvable condition by construction (foreach iteration, ``default``
    switch cases, for-loops without a test).
    """
    table: dict[Span, ast.Expression | None] = {}

    def walk_stmt(stmt) -> None:
        if isinstance(stmt, (ast.Program, ast.Block)):
            for child in stmt.statements:
                walk_stmt(child)
        elif isinstance(stmt, ast.If):
            table[stmt.span] = stmt.condition
            walk_stmt(stmt.then)
            for clause in stmt.elseifs:
                table[clause.span] = clause.condition
                walk_stmt(clause.body)
            if stmt.orelse is not None:
                walk_stmt(stmt.orelse)
        elif isinstance(stmt, (ast.While, ast.DoWhile)):
            table[stmt.span] = stmt.condition
            walk_stmt(stmt.body)
        elif isinstance(stmt, ast.For):
            table[stmt.span] = stmt.condition[-1] if stmt.condition else None
            walk_stmt(stmt.body)
        elif isinstance(stmt, ast.Foreach):
            table[stmt.span] = None
            walk_stmt(stmt.body)
        elif isinstance(stmt, ast.Switch):
            for case in stmt.cases:
                if case.test is not None:
                    table[case.span] = ast.Binary(
                        case.span, "==", stmt.subject, case.test
                    )
                else:
                    table[case.span] = None
                for child in case.body:
                    walk_stmt(child)
        elif isinstance(stmt, ast.FunctionDecl):
            walk_stmt(stmt.body)
        elif isinstance(stmt, ast.ClassDecl):
            for method in stmt.methods:
                walk_stmt(method.body)

    walk_stmt(program)
    return table


# -- input discovery ---------------------------------------------------------


def _input_slot(expr) -> "tuple[str, str] | None":
    """(channel, key) when ``expr`` reads one attacker-controlled input."""
    if isinstance(expr, ast.ArrayDim) and isinstance(expr.base, ast.Variable):
        if not isinstance(expr.index, ast.Literal) or not isinstance(
            expr.index.value, str
        ):
            return None
        channel = _SUPERGLOBAL_CHANNEL.get(expr.base.name)
        if channel is not None:
            return (channel, expr.index.value)
        if expr.base.name == "_SERVER":
            if expr.index.value == "HTTP_REFERER":
                return ("referer", "")
            if expr.index.value == "HTTP_USER_AGENT":
                return ("user_agent", "")
        return None
    if isinstance(expr, ast.Variable):
        if expr.name == "HTTP_REFERER":
            return ("referer", "")
        if expr.name == "HTTP_USER_AGENT":
            return ("user_agent", "")
    return None


def collect_input_keys(program: ast.Program) -> list[tuple[str, str]]:
    """Every (channel, key) the program can read, in first-seen order
    (a pre-order walk of the tree)."""
    seen: dict[tuple[str, str], None] = {}
    stack: list = [program]
    push, pop = stack.append, stack.pop
    while stack:
        node = pop()
        node_type = type(node)
        if node_type is ast.ArrayDim or node_type is ast.Variable:
            slot = _input_slot(node)
            if slot is not None:
                seen.setdefault(slot, None)
        # Push the children last-first, so they pop in source order.  A
        # child field holds a node, None or a tuple (whose items may also
        # be None or, in an interpolated string, text).
        for name in reversed(ast.child_fields(node_type)):
            value = getattr(node, name)
            if type(value) is tuple:
                for item in reversed(value):
                    if isinstance(item, ast.Node):
                        push(item)
            elif value is not None:
                push(value)
    return list(seen)


# -- condition solving -------------------------------------------------------


def merge_constraints(base: Constraints, extra: Constraints) -> "Constraints | None":
    """Union two constraint sets; ``None`` on conflicting requirements."""
    merged = dict(base)
    for slot, value in extra.items():
        if slot in merged and merged[slot] != value:
            return None
        merged[slot] = value
    return merged


def _php_truthy(value) -> bool:
    if value is None or value is False:
        return False
    if value is True:
        return True
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        return value not in ("", "0")
    return bool(value)


def _literal_text(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "1"
    if value is False:
        return ""
    return str(value)


def solve_condition(expr, want: bool) -> "Constraints | None":
    """Request constraints making ``expr`` evaluate with truthiness
    ``want``, or ``None`` when the shape is outside the solvable
    fragment."""
    slot = _input_slot(expr)
    if slot is not None:
        # Plain truthiness test on an input: the sentinel is truthy,
        # absence reads as null/'' which is falsy.
        return {slot: SENTINEL if want else ABSENT}
    if isinstance(expr, ast.Literal):
        return {} if _php_truthy(expr.value) == want else None
    if isinstance(expr, ast.Unary) and expr.op == "!":
        return solve_condition(expr.operand, not want)
    if isinstance(expr, ast.IssetExpr):
        slots = [_input_slot(op) for op in expr.operands]
        if any(s is None for s in slots):
            return None
        if want:
            constraints: Constraints = {}
            for s in slots:
                assert s is not None
                merged = merge_constraints(constraints, {s: SENTINEL})
                if merged is None:
                    return None
                constraints = merged
            return constraints
        return {slots[0]: ABSENT}  # one missing operand falsifies isset
    if isinstance(expr, ast.EmptyExpr):
        return solve_condition(expr.operand, not want)
    if isinstance(expr, ast.Binary):
        return _solve_binary(expr, want)
    return None


def _solve_binary(expr: ast.Binary, want: bool) -> "Constraints | None":
    op = expr.op.lower()
    if op in ("&&", "and"):
        if want:
            left = solve_condition(expr.left, True)
            right = solve_condition(expr.right, True)
            if left is None or right is None:
                return None
            return merge_constraints(left, right)
        left = solve_condition(expr.left, False)
        if left is not None:
            return left
        return solve_condition(expr.right, False)
    if op in ("||", "or"):
        if want:
            left = solve_condition(expr.left, True)
            if left is not None:
                return left
            return solve_condition(expr.right, True)
        left = solve_condition(expr.left, False)
        right = solve_condition(expr.right, False)
        if left is None or right is None:
            return None
        return merge_constraints(left, right)
    if op in ("==", "===", "!=", "!==", "<>"):
        negated = op in ("!=", "!==", "<>")
        return _solve_equality(expr.left, expr.right, want != negated)
    return None


def _solve_equality(left, right, want_equal: bool) -> "Constraints | None":
    slot, literal = _input_slot(left), right
    if slot is None:
        slot, literal = _input_slot(right), left
    if slot is None or not isinstance(literal, ast.Literal):
        return None
    text = _literal_text(literal.value)
    if want_equal:
        return {slot: text}
    # Any value different from the literal works; the sentinel keeps the
    # input attacker-marked, unless the literal *is* sentinel-shaped.
    return {slot: SENTINEL if text != SENTINEL else ABSENT}
