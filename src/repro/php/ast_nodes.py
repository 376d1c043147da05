"""AST node definitions for the PHP subset.

Nodes are plain frozen dataclasses, each carrying its :class:`Span`.  The
tree deliberately mirrors PHP's statement/expression split; the filter in
:mod:`repro.ir` consumes this tree and keeps only what matters for
information flow (paper §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache

from repro.php.span import Span

__all__ = [
    "Node",
    "Expression",
    "Statement",
    # expressions
    "Literal",
    "Variable",
    "ArrayDim",
    "PropertyFetch",
    "StaticPropertyFetch",
    "InterpolatedString",
    "ArrayLiteral",
    "ArrayItem",
    "Binary",
    "Unary",
    "Cast",
    "Ternary",
    "Assign",
    "ListAssign",
    "IncDec",
    "FunctionCall",
    "MethodCall",
    "StaticCall",
    "New",
    "IssetExpr",
    "EmptyExpr",
    "ErrorSuppress",
    "IncludeExpr",
    "ExitExpr",
    "PrintExpr",
    # statements
    "Program",
    "Block",
    "InlineHTML",
    "ExpressionStatement",
    "Echo",
    "If",
    "ElseIfClause",
    "While",
    "DoWhile",
    "For",
    "Foreach",
    "Switch",
    "SwitchCase",
    "Break",
    "Continue",
    "Return",
    "FunctionDecl",
    "Parameter",
    "ClassDecl",
    "PropertyDecl",
    "GlobalStatement",
    "StaticStatement",
    "StaticVar",
    "UnsetStatement",
    "child_fields",
]


@dataclass(frozen=True, slots=True)
class Node:
    span: Span


class Expression(Node):
    pass


class Statement(Node):
    pass


# -- Expressions ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Literal(Expression):
    """Integer, float, string, bool, or null constant."""

    value: object


@dataclass(frozen=True, slots=True)
class Variable(Expression):
    """``$name`` — name stored without the dollar sign."""

    name: str


@dataclass(frozen=True, slots=True)
class ArrayDim(Expression):
    """``base[index]``; ``index`` is None for the push form ``$a[] = ...``."""

    base: Expression
    index: Expression | None


@dataclass(frozen=True, slots=True)
class PropertyFetch(Expression):
    """``$obj->prop``."""

    object: Expression
    property: str


@dataclass(frozen=True, slots=True)
class StaticPropertyFetch(Expression):
    """``ClassName::$prop``."""

    class_name: str
    property: str


@dataclass(frozen=True, slots=True)
class InterpolatedString(Expression):
    """Double-quoted string with embedded expressions.

    ``parts`` alternates literal strings and expressions in source order.
    """

    parts: tuple[object, ...]  # str | Expression


@dataclass(frozen=True, slots=True)
class ArrayItem(Node):
    key: Expression | None
    value: Expression


@dataclass(frozen=True, slots=True)
class ArrayLiteral(Expression):
    """``array(k => v, ...)``."""

    items: tuple[ArrayItem, ...]


@dataclass(frozen=True, slots=True)
class Binary(Expression):
    """Binary operation; ``op`` is the surface operator text (``.``, ``+``, …)."""

    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Unary(Expression):
    op: str
    operand: Expression


@dataclass(frozen=True, slots=True)
class Cast(Expression):
    """``(int)$x`` — target is the normalized cast name."""

    target: str
    operand: Expression


@dataclass(frozen=True, slots=True)
class Ternary(Expression):
    """``cond ? then : orelse``; ``then`` is None for the short form ``?:``."""

    condition: Expression
    then: Expression | None
    orelse: Expression


@dataclass(frozen=True, slots=True)
class Assign(Expression):
    """``target op= value``; ``op`` is '' for plain ``=``, else '.', '+', …

    ``by_reference`` records ``=&`` assignments (treated like value
    assignments by the flow analysis)."""

    target: Expression
    op: str
    value: Expression
    by_reference: bool = False


@dataclass(frozen=True, slots=True)
class ListAssign(Expression):
    """``list($a, $b) = expr``."""

    targets: tuple[Expression | None, ...]
    value: Expression


@dataclass(frozen=True, slots=True)
class IncDec(Expression):
    """``++$x`` / ``$x--``."""

    op: str  # '++' or '--'
    target: Expression
    prefix: bool


@dataclass(frozen=True, slots=True)
class FunctionCall(Expression):
    """``name(args)``; the callee is a plain identifier in our subset."""

    name: str
    args: tuple[Expression, ...]


@dataclass(frozen=True, slots=True)
class MethodCall(Expression):
    object: Expression
    method: str
    args: tuple[Expression, ...]


@dataclass(frozen=True, slots=True)
class StaticCall(Expression):
    class_name: str
    method: str
    args: tuple[Expression, ...]


@dataclass(frozen=True, slots=True)
class New(Expression):
    class_name: str
    args: tuple[Expression, ...]


@dataclass(frozen=True, slots=True)
class IssetExpr(Expression):
    operands: tuple[Expression, ...]


@dataclass(frozen=True, slots=True)
class EmptyExpr(Expression):
    operand: Expression


@dataclass(frozen=True, slots=True)
class ErrorSuppress(Expression):
    """``@expr`` — PHP's error-silencing operator (Figure 1 uses it)."""

    operand: Expression


@dataclass(frozen=True, slots=True)
class IncludeExpr(Expression):
    """``include/require[_once] path`` used in expression position."""

    kind: str  # include | include_once | require | require_once
    path: Expression


@dataclass(frozen=True, slots=True)
class ExitExpr(Expression):
    """``exit`` / ``die`` — maps to the `stop` command of F(p)."""

    argument: Expression | None


@dataclass(frozen=True, slots=True)
class PrintExpr(Expression):
    """``print expr`` (an expression in PHP, unlike ``echo``)."""

    argument: Expression


# -- Statements -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Program(Node):
    statements: tuple[Statement, ...]


@dataclass(frozen=True, slots=True)
class Block(Statement):
    statements: tuple[Statement, ...]


@dataclass(frozen=True, slots=True)
class InlineHTML(Statement):
    """Raw text outside PHP tags — implicit trusted output."""

    text: str


@dataclass(frozen=True, slots=True)
class ExpressionStatement(Statement):
    expression: Expression


@dataclass(frozen=True, slots=True)
class Echo(Statement):
    """``echo e1, e2, ...`` — a sensitive output channel."""

    arguments: tuple[Expression, ...]


@dataclass(frozen=True, slots=True)
class ElseIfClause(Node):
    condition: Expression
    body: Statement


@dataclass(frozen=True, slots=True)
class If(Statement):
    condition: Expression
    then: Statement
    elseifs: tuple[ElseIfClause, ...] = ()
    orelse: Statement | None = None


@dataclass(frozen=True, slots=True)
class While(Statement):
    condition: Expression
    body: Statement


@dataclass(frozen=True, slots=True)
class DoWhile(Statement):
    body: Statement
    condition: Expression


@dataclass(frozen=True, slots=True)
class For(Statement):
    init: tuple[Expression, ...]
    condition: tuple[Expression, ...]
    update: tuple[Expression, ...]
    body: Statement


@dataclass(frozen=True, slots=True)
class Foreach(Statement):
    subject: Expression
    key_var: Expression | None
    value_var: Expression
    body: Statement
    by_reference: bool = False


@dataclass(frozen=True, slots=True)
class SwitchCase(Node):
    test: Expression | None  # None == default
    body: tuple[Statement, ...]


@dataclass(frozen=True, slots=True)
class Switch(Statement):
    subject: Expression
    cases: tuple[SwitchCase, ...]


@dataclass(frozen=True, slots=True)
class Break(Statement):
    level: int = 1


@dataclass(frozen=True, slots=True)
class Continue(Statement):
    level: int = 1


@dataclass(frozen=True, slots=True)
class Return(Statement):
    value: Expression | None


@dataclass(frozen=True, slots=True)
class Parameter(Node):
    name: str
    default: Expression | None = None
    by_reference: bool = False


@dataclass(frozen=True, slots=True)
class FunctionDecl(Statement):
    name: str
    parameters: tuple[Parameter, ...]
    body: Block


@dataclass(frozen=True, slots=True)
class PropertyDecl(Node):
    """``var $name = default;`` / ``public $name;`` inside a class."""

    name: str
    default: Expression | None = None
    visibility: str = "public"


@dataclass(frozen=True, slots=True)
class ClassDecl(Statement):
    """``class Name extends Parent { properties; methods }`` (PHP4 style:
    the constructor is the method named like the class)."""

    name: str
    parent: str | None
    properties: tuple[PropertyDecl, ...]
    methods: tuple[FunctionDecl, ...]

    def method(self, name: str) -> FunctionDecl | None:
        lowered = name.lower()
        for method in self.methods:
            if method.name.lower() == lowered:
                return method
        return None

    @property
    def constructor(self) -> FunctionDecl | None:
        # PHP4: constructor shares the class name; PHP5 added __construct.
        return self.method(self.name) or self.method("__construct")


@dataclass(frozen=True, slots=True)
class GlobalStatement(Statement):
    names: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class StaticVar(Node):
    name: str
    default: Expression | None


@dataclass(frozen=True, slots=True)
class StaticStatement(Statement):
    variables: tuple[StaticVar, ...]


@dataclass(frozen=True, slots=True)
class UnsetStatement(Statement):
    operands: tuple[Expression, ...]


#: Field annotations that never hold a node.
_LEAF_TYPES = frozenset(
    {"Span", "bool", "int", "object", "str", "str | None", "tuple[str, ...]"}
)


@cache
def child_fields(node_type: type) -> tuple[str, ...]:
    """The fields of ``node_type`` that can hold nodes, in declaration
    order: each holds a node, ``None`` or a tuple whose items may be
    nodes.  Tree walks read this table instead of every field."""
    return tuple(f.name for f in fields(node_type) if f.type not in _LEAF_TYPES)
