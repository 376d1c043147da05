"""Tree-walking interpreter for the PHP subset.

This is the runtime half of WebSSARI's story: it executes original and
instrumented code against simulated HTTP requests, so the examples and
tests can demonstrate *behaviour* — an XSS payload surviving into the
response body of the vulnerable script and being neutralized in the
patched one, a smuggled ``DROP TABLE`` reaching (or not reaching) the
mock database.

Covered: all statements the parser produces, user functions (including
by-reference parameters and ``global``), the common string/array builtin
library, the ``mysql_*`` functions against :class:`MockDatabase`, and
``__webssari_sanitize`` (the runtime guard).  Execution is bounded by a
step budget so accidental infinite loops fail loudly.

Programs come from a ``parse_hook`` — any callable with the
:func:`repro.php.parser.parse` signature, as for
:func:`repro.php.includes.resolve_includes`.  The interpreter never reads
spans and never mutates the (frozen) AST, so a caller that runs the same
sources many times can hand it memoized programs.
"""

from __future__ import annotations

from repro.instrument.guards import html_escape, sanitize_value, sql_escape
from repro.interp.environment import ExecutionEnvironment, HttpRequest, QueryResult
from repro.interp.values import (
    PhpArray,
    PhpObject,
    loose_equals,
    to_bool,
    to_number,
    to_string,
)
from repro.php import ast_nodes as ast
from repro.php.includes import ParseHook
from repro.php.parser import parse

__all__ = ["Interpreter", "PhpRuntimeError", "PhpFatalError", "run_php"]


class PhpRuntimeError(Exception):
    """Interpreter-level failure (step budget, unsupported construct)."""


class PhpFatalError(PhpRuntimeError):
    """PHP fatal error (missing require, undefined function, ...)."""


class _ExitSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: object) -> None:
        self.value = value


class _BreakSignal(Exception):
    def __init__(self, level: int) -> None:
        self.level = level


class _ContinueSignal(Exception):
    def __init__(self, level: int) -> None:
        self.level = level


class Interpreter:
    def __init__(
        self,
        environment: ExecutionEnvironment | None = None,
        max_steps: int = 1_000_000,
        files: dict[str, str] | None = None,
        parse_hook: ParseHook | None = None,
    ) -> None:
        self.env = environment if environment is not None else ExecutionEnvironment()
        self.max_steps = max_steps
        self.files = files or {}
        self.parse = parse_hook if parse_hook is not None else parse
        self._steps = 0
        self.globals: dict[str, object] = dict(self.env.request.superglobals())
        self.functions: dict[str, ast.FunctionDecl] = {}
        self.classes: dict[str, ast.ClassDecl] = {}
        self._included: set[str] = set()

    # -- top level ----------------------------------------------------------

    def run(self, source: str, filename: str = "<string>") -> ExecutionEnvironment:
        program = self.parse(source, filename)
        self._hoist_functions(program.statements)
        try:
            self._exec_all(program.statements, self.globals)
        except _ExitSignal:
            pass
        self._persist_session()
        return self.env

    def _persist_session(self) -> None:
        """Write $_SESSION changes back into the shared session store."""
        session = self.globals.get("_SESSION")
        if isinstance(session, PhpArray):
            self.env.session_store.clear()
            self.env.session_store.update(dict(session.items()))

    def _hoist_functions(self, statements) -> None:
        for stmt in statements:
            if isinstance(stmt, ast.FunctionDecl):
                self.functions.setdefault(stmt.name.lower(), stmt)
            elif isinstance(stmt, ast.ClassDecl):
                self.classes.setdefault(stmt.name.lower(), stmt)

    # -- class helpers ---------------------------------------------------

    def _class_chain(self, class_name: str) -> list[ast.ClassDecl]:
        """The class and its ancestors, most-derived first."""
        chain: list[ast.ClassDecl] = []
        seen: set[str] = set()
        current = self.classes.get(class_name.lower())
        while current is not None and current.name.lower() not in seen:
            seen.add(current.name.lower())
            chain.append(current)
            current = (
                self.classes.get(current.parent.lower()) if current.parent else None
            )
        return chain

    def _resolve_method(self, class_name: str, method: str) -> ast.FunctionDecl | None:
        for decl in self._class_chain(class_name):
            found = decl.method(method)
            if found is not None:
                return found
        return None

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise PhpRuntimeError(f"step budget of {self.max_steps} exceeded")

    # -- statements ------------------------------------------------------------

    def _exec_all(self, statements, scope: dict) -> None:
        for stmt in statements:
            self._exec(stmt, scope)

    def _exec(self, stmt: ast.Statement, scope: dict) -> None:
        self._tick()
        if isinstance(stmt, ast.InlineHTML):
            self.env.write(stmt.text)
            return
        if isinstance(stmt, ast.ExpressionStatement):
            self._eval(stmt.expression, scope)
            return
        if isinstance(stmt, ast.Echo):
            for arg in stmt.arguments:
                self.env.write(to_string(self._eval(arg, scope)))
            return
        if isinstance(stmt, ast.Block):
            self._exec_all(stmt.statements, scope)
            return
        if isinstance(stmt, ast.If):
            if to_bool(self._eval(stmt.condition, scope)):
                self._exec(stmt.then, scope)
                return
            for clause in stmt.elseifs:
                if to_bool(self._eval(clause.condition, scope)):
                    self._exec(clause.body, scope)
                    return
            if stmt.orelse is not None:
                self._exec(stmt.orelse, scope)
            return
        if isinstance(stmt, ast.While):
            while to_bool(self._eval(stmt.condition, scope)):
                self._tick()
                try:
                    self._exec(stmt.body, scope)
                except _BreakSignal as signal:
                    if signal.level > 1:
                        raise _BreakSignal(signal.level - 1)
                    break
                except _ContinueSignal as signal:
                    if signal.level > 1:
                        raise _ContinueSignal(signal.level - 1)
            return
        if isinstance(stmt, ast.DoWhile):
            while True:
                self._tick()
                try:
                    self._exec(stmt.body, scope)
                except _BreakSignal as signal:
                    if signal.level > 1:
                        raise _BreakSignal(signal.level - 1)
                    break
                except _ContinueSignal as signal:
                    if signal.level > 1:
                        raise _ContinueSignal(signal.level - 1)
                if not to_bool(self._eval(stmt.condition, scope)):
                    break
            return
        if isinstance(stmt, ast.For):
            for expr in stmt.init:
                self._eval(expr, scope)
            while all(to_bool(self._eval(c, scope)) for c in stmt.condition) or not stmt.condition:
                self._tick()
                try:
                    self._exec(stmt.body, scope)
                except _BreakSignal as signal:
                    if signal.level > 1:
                        raise _BreakSignal(signal.level - 1)
                    break
                except _ContinueSignal as signal:
                    if signal.level > 1:
                        raise _ContinueSignal(signal.level - 1)
                for expr in stmt.update:
                    self._eval(expr, scope)
            return
        if isinstance(stmt, ast.Foreach):
            subject = self._eval(stmt.subject, scope)
            items = subject.items() if isinstance(subject, PhpArray) else []
            for key, value in items:
                self._tick()
                if stmt.key_var is not None:
                    self._assign_to(stmt.key_var, key, scope)
                self._assign_to(stmt.value_var, value, scope)
                try:
                    self._exec(stmt.body, scope)
                except _BreakSignal as signal:
                    if signal.level > 1:
                        raise _BreakSignal(signal.level - 1)
                    break
                except _ContinueSignal as signal:
                    if signal.level > 1:
                        raise _ContinueSignal(signal.level - 1)
            return
        if isinstance(stmt, ast.Switch):
            subject = self._eval(stmt.subject, scope)
            matched = False
            try:
                for case in stmt.cases:
                    if not matched:
                        if case.test is None:
                            matched = True
                        elif loose_equals(subject, self._eval(case.test, scope)):
                            matched = True
                    if matched:
                        self._exec_all(case.body, scope)
            except _BreakSignal as signal:
                if signal.level > 1:
                    raise _BreakSignal(signal.level - 1)
            return
        if isinstance(stmt, ast.Break):
            raise _BreakSignal(stmt.level)
        if isinstance(stmt, ast.Continue):
            raise _ContinueSignal(stmt.level)
        if isinstance(stmt, ast.Return):
            value = self._eval(stmt.value, scope) if stmt.value is not None else None
            raise _ReturnSignal(value)
        if isinstance(stmt, ast.FunctionDecl):
            self.functions.setdefault(stmt.name.lower(), stmt)
            return
        if isinstance(stmt, ast.ClassDecl):
            self.classes.setdefault(stmt.name.lower(), stmt)
            return
        if isinstance(stmt, ast.GlobalStatement):
            marks = scope.setdefault("__globals__", set())
            for name in stmt.names:
                marks.add(name)
            return
        if isinstance(stmt, ast.StaticStatement):
            for var in stmt.variables:
                if var.name not in scope and var.default is not None:
                    scope[var.name] = self._eval(var.default, scope)
            return
        if isinstance(stmt, ast.UnsetStatement):
            for operand in stmt.operands:
                self._unset(operand, scope)
            return
        raise PhpRuntimeError(f"unsupported statement {type(stmt).__name__}")

    # -- variable plumbing --------------------------------------------------------

    def _scope_for(self, name: str, scope: dict) -> dict:
        if scope is self.globals:
            return self.globals
        if name in scope.get("__globals__", ()):
            return self.globals
        return scope

    def _read_var(self, name: str, scope: dict) -> object:
        return self._scope_for(name, scope).get(name)

    def _assign_to(self, target: ast.Expression, value: object, scope: dict) -> object:
        if isinstance(target, ast.Variable):
            self._scope_for(target.name, scope)[target.name] = value
            return value
        if isinstance(target, ast.ArrayDim):
            container = self._container_for(target.base, scope)
            key = self._eval(target.index, scope) if target.index is not None else None
            container.set(key, value)
            return value
        if isinstance(target, ast.PropertyFetch):
            obj = self._eval(target.object, scope)
            if not isinstance(obj, PhpObject):
                obj = PhpObject("stdClass")
                self._assign_to(target.object, obj, scope)
            obj.properties[target.property] = value
            return value
        raise PhpRuntimeError(f"cannot assign to {type(target).__name__}")

    def _container_for(self, base: ast.Expression, scope: dict) -> PhpArray:
        """Resolve (auto-vivifying) the array a subscript write targets."""
        if isinstance(base, ast.Variable):
            holder = self._scope_for(base.name, scope)
            current = holder.get(base.name)
            if not isinstance(current, PhpArray):
                current = PhpArray()
                holder[base.name] = current
            return current
        if isinstance(base, ast.ArrayDim):
            outer = self._container_for(base.base, scope)
            key = self._eval(base.index, scope) if base.index is not None else None
            current = outer.get(key)
            if not isinstance(current, PhpArray):
                current = PhpArray()
                outer.set(key, current)
            return current
        raise PhpRuntimeError(f"cannot subscript {type(base).__name__}")

    def _unset(self, operand: ast.Expression, scope: dict) -> None:
        if isinstance(operand, ast.Variable):
            self._scope_for(operand.name, scope).pop(operand.name, None)
        elif isinstance(operand, ast.ArrayDim):
            base = self._eval(operand.base, scope)
            if isinstance(base, PhpArray) and operand.index is not None:
                base.unset(self._eval(operand.index, scope))

    # -- expressions -----------------------------------------------------------

    def _eval(self, expr: ast.Expression, scope: dict) -> object:
        self._tick()
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Variable):
            return self._read_var(expr.name, scope)
        if isinstance(expr, ast.ArrayDim):
            base = self._eval(expr.base, scope)
            if isinstance(base, PhpArray):
                if expr.index is None:
                    return None
                return base.get(self._eval(expr.index, scope))
            if isinstance(base, str) and expr.index is not None:
                index = int(to_number(self._eval(expr.index, scope)))
                return base[index] if 0 <= index < len(base) else ""
            return None
        if isinstance(expr, ast.PropertyFetch):
            obj = self._eval(expr.object, scope)
            if isinstance(obj, PhpObject):
                return obj.properties.get(expr.property)
            return None
        if isinstance(expr, ast.StaticPropertyFetch):
            return self.globals.get(f"{expr.class_name}::{expr.property}")
        if isinstance(expr, ast.InterpolatedString):
            parts = []
            for part in expr.parts:
                if isinstance(part, str):
                    parts.append(part)
                else:
                    parts.append(to_string(self._eval(part, scope)))
            return "".join(parts)
        if isinstance(expr, ast.ArrayLiteral):
            array = PhpArray()
            for item in expr.items:
                key = self._eval(item.key, scope) if item.key is not None else None
                array.set(key, self._eval(item.value, scope))
            return array
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, scope)
        if isinstance(expr, ast.Unary):
            operand = self._eval(expr.operand, scope)
            if expr.op == "!":
                return not to_bool(operand)
            if expr.op == "-":
                return -to_number(operand)
            if expr.op == "+":
                return to_number(operand)
            if expr.op == "~":
                return ~int(to_number(operand))
            raise PhpRuntimeError(f"unsupported unary {expr.op}")
        if isinstance(expr, ast.Cast):
            operand = self._eval(expr.operand, scope)
            if expr.target in ("int", "integer"):
                return int(to_number(operand))
            if expr.target in ("float", "double", "real"):
                return float(to_number(operand))
            if expr.target in ("bool", "boolean"):
                return to_bool(operand)
            if expr.target == "string":
                return to_string(operand)
            if expr.target == "array":
                return operand if isinstance(operand, PhpArray) else PhpArray({0: operand})
            return operand
        if isinstance(expr, ast.Ternary):
            condition = self._eval(expr.condition, scope)
            if to_bool(condition):
                return condition if expr.then is None else self._eval(expr.then, scope)
            return self._eval(expr.orelse, scope)
        if isinstance(expr, ast.Assign):
            value = self._eval(expr.value, scope)
            if expr.op:
                old = self._eval(expr.target, scope)
                value = self._apply_binary(expr.op, old, value)
            return self._assign_to(expr.target, value, scope)
        if isinstance(expr, ast.ListAssign):
            value = self._eval(expr.value, scope)
            if isinstance(value, PhpArray):
                for index, target in enumerate(expr.targets):
                    if target is not None:
                        self._assign_to(target, value.get(index), scope)
            return value
        if isinstance(expr, ast.IncDec):
            old = to_number(self._eval(expr.target, scope) or 0)
            new = old + 1 if expr.op == "++" else old - 1
            self._assign_to(expr.target, new, scope)
            return new if expr.prefix else old
        if isinstance(expr, ast.FunctionCall):
            return self._call_function(expr, scope)
        if isinstance(expr, ast.MethodCall):
            obj = self._eval(expr.object, scope)
            if isinstance(obj, PhpObject):
                method = self._resolve_method(obj.class_name, expr.method)
                if method is not None:
                    return self._call_method(obj, method, expr.args, scope)
            # Objects without a declared class are data-only; method calls
            # on a mock "db" object route to the database for realism.
            args = [self._eval(a, scope) for a in expr.args]
            if expr.method.lower() in ("query", "execute") and args:
                sql = to_string(args[0])
                self.env.sink_log.append((f"->{expr.method}", (sql,)))
                return self.env.database.execute(sql)
            return None
        if isinstance(expr, ast.StaticCall):
            method = self._resolve_method(expr.class_name, expr.method)
            if method is not None:
                receiver = PhpObject(expr.class_name)
                return self._call_method(receiver, method, expr.args, scope)
            for arg in expr.args:
                self._eval(arg, scope)
            return None
        if isinstance(expr, ast.New):
            obj = PhpObject(expr.class_name)
            chain = self._class_chain(expr.class_name)
            for decl in reversed(chain):  # parents first
                for prop in decl.properties:
                    obj.properties[prop.name] = (
                        self._eval(prop.default, scope) if prop.default is not None else None
                    )
            constructor = None
            if chain:
                constructor = self._resolve_method(
                    expr.class_name, chain[0].name
                ) or self._resolve_method(expr.class_name, "__construct")
            if constructor is not None:
                self._call_method(obj, constructor, expr.args, scope)
            else:
                for arg in expr.args:
                    self._eval(arg, scope)
            return obj
        if isinstance(expr, ast.IssetExpr):
            return all(self._isset(op, scope) for op in expr.operands)
        if isinstance(expr, ast.EmptyExpr):
            return not to_bool(self._eval(expr.operand, scope))
        if isinstance(expr, ast.ErrorSuppress):
            try:
                return self._eval(expr.operand, scope)
            except PhpFatalError:
                raise
            except PhpRuntimeError:
                return None
        if isinstance(expr, ast.IncludeExpr):
            return self._include(expr, scope)
        if isinstance(expr, ast.ExitExpr):
            if expr.argument is not None:
                value = self._eval(expr.argument, scope)
                if isinstance(value, str):
                    self.env.write(value)
            raise _ExitSignal()
        if isinstance(expr, ast.PrintExpr):
            self.env.write(to_string(self._eval(expr.argument, scope)))
            return 1
        raise PhpRuntimeError(f"unsupported expression {type(expr).__name__}")

    def _isset(self, operand: ast.Expression, scope: dict) -> bool:
        if isinstance(operand, ast.Variable):
            holder = self._scope_for(operand.name, scope)
            return holder.get(operand.name) is not None
        if isinstance(operand, ast.ArrayDim):
            base = self._eval(operand.base, scope)
            if isinstance(base, PhpArray) and operand.index is not None:
                return base.get(self._eval(operand.index, scope)) is not None
            return False
        try:
            return self._eval(operand, scope) is not None
        except PhpRuntimeError:
            return False

    def _eval_binary(self, expr: ast.Binary, scope: dict) -> object:
        op = expr.op
        if op in ("&&", "and"):
            return to_bool(self._eval(expr.left, scope)) and to_bool(self._eval(expr.right, scope))
        if op in ("||", "or"):
            return to_bool(self._eval(expr.left, scope)) or to_bool(self._eval(expr.right, scope))
        if op == "xor":
            return to_bool(self._eval(expr.left, scope)) != to_bool(self._eval(expr.right, scope))
        left = self._eval(expr.left, scope)
        right = self._eval(expr.right, scope)
        return self._apply_binary(op, left, right)

    def _apply_binary(self, op: str, left: object, right: object) -> object:
        if op == ".":
            return to_string(left) + to_string(right)
        if op == "+":
            if isinstance(left, PhpArray) and isinstance(right, PhpArray):
                merged = right.copy()
                for key, value in left.items():
                    merged.set(key, value)
                return merged
            return to_number(left) + to_number(right)
        if op == "-":
            return to_number(left) - to_number(right)
        if op == "*":
            return to_number(left) * to_number(right)
        if op == "/":
            divisor = to_number(right)
            if divisor == 0:
                return False  # PHP4 semantics: warning + false
            result = to_number(left) / divisor
            return int(result) if isinstance(left, int) and isinstance(right, int) and result == int(result) else result
        if op == "%":
            divisor = int(to_number(right))
            if divisor == 0:
                return False
            return int(to_number(left)) % divisor if (to_number(left) >= 0) == (divisor >= 0) else -(abs(int(to_number(left))) % abs(divisor))
        if op == "==":
            return loose_equals(left, right)
        if op == "!=":
            return not loose_equals(left, right)
        if op == "===":
            return type(left) is type(right) and left == right
        if op == "!==":
            return not (type(left) is type(right) and left == right)
        if op in ("<", "<=", ">", ">="):
            if isinstance(left, str) and isinstance(right, str):
                a, b = left, right
            else:
                a, b = to_number(left), to_number(right)
            if op == "<":
                return a < b
            if op == "<=":
                return a <= b
            if op == ">":
                return a > b
            return a >= b
        if op == "&":
            return int(to_number(left)) & int(to_number(right))
        if op == "|":
            return int(to_number(left)) | int(to_number(right))
        if op == "^":
            return int(to_number(left)) ^ int(to_number(right))
        if op == "<<":
            return int(to_number(left)) << int(to_number(right))
        if op == ">>":
            return int(to_number(left)) >> int(to_number(right))
        raise PhpRuntimeError(f"unsupported binary operator {op!r}")

    # -- includes -------------------------------------------------------------------

    def _include(self, expr: ast.IncludeExpr, scope: dict) -> object:
        path = to_string(self._eval(expr.path, scope))
        if expr.kind.endswith("_once") and path in self._included:
            return True
        source = self.files.get(path)
        if source is None:
            if expr.kind.startswith("require"):
                raise PhpFatalError(f"required file {path!r} not found")
            return False
        self._included.add(path)
        program = self.parse(source, path)
        self._hoist_functions(program.statements)
        self._exec_all(program.statements, scope)
        return True

    # -- function calls ---------------------------------------------------------------

    def _call_function(self, expr: ast.FunctionCall, scope: dict) -> object:
        name = expr.name.lower()
        declared = self.functions.get(name)
        if declared is not None:
            return self._call_user_function(declared, expr, scope)
        builtin = _BUILTINS.get(name)
        if builtin is not None:
            args = [self._eval(a, scope) for a in expr.args]
            return builtin(self, args, expr, scope)
        raise PhpFatalError(f"call to undefined function {expr.name}()")

    def _call_method(
        self,
        receiver: PhpObject,
        decl: ast.FunctionDecl,
        args: tuple[ast.Expression, ...],
        scope: dict,
    ) -> object:
        local: dict[str, object] = {"this": receiver}
        for index, param in enumerate(decl.parameters):
            if index < len(args):
                local[param.name] = self._eval(args[index], scope)
            elif param.default is not None:
                local[param.name] = self._eval(param.default, scope)
            else:
                local[param.name] = None
        try:
            self._exec_all(decl.body.statements, local)
            result: object = None
        except _ReturnSignal as signal:
            result = signal.value
        for index, param in enumerate(decl.parameters):
            if param.by_reference and index < len(args):
                arg = args[index]
                if isinstance(arg, (ast.Variable, ast.ArrayDim, ast.PropertyFetch)):
                    self._assign_to(arg, local.get(param.name), scope)
        return result

    def _call_user_function(
        self, decl: ast.FunctionDecl, call: ast.FunctionCall, scope: dict
    ) -> object:
        local: dict[str, object] = {}
        for index, param in enumerate(decl.parameters):
            if index < len(call.args):
                local[param.name] = self._eval(call.args[index], scope)
            elif param.default is not None:
                local[param.name] = self._eval(param.default, scope)
            else:
                local[param.name] = None
        try:
            self._exec_all(decl.body.statements, local)
            result: object = None
        except _ReturnSignal as signal:
            result = signal.value
        for index, param in enumerate(decl.parameters):
            if param.by_reference and index < len(call.args):
                arg = call.args[index]
                if isinstance(arg, (ast.Variable, ast.ArrayDim, ast.PropertyFetch)):
                    self._assign_to(arg, local.get(param.name), scope)
        return result


# -- builtin functions ---------------------------------------------------------

def _builtin(fn):
    return fn


def _sink(category: str):
    """Builtin factory for sensitive output channels that just log."""

    def handler(interp: Interpreter, args, expr, scope):
        rendered = tuple(to_string(a) for a in args)
        interp.env.sink_log.append((expr.name.lower(), rendered))
        if category == "command":
            interp.env.command_log.extend(rendered[:1])
        return ""

    return handler


def _mysql_query(interp: Interpreter, args, expr, scope):
    sql = to_string(args[0]) if args else ""
    interp.env.sink_log.append(("mysql_query", (sql,)))
    return interp.env.database.execute(sql)


def _mysql_fetch_array(interp: Interpreter, args, expr, scope):
    result = args[0] if args else None
    if isinstance(result, QueryResult):
        row = result.fetch()
        if row is None:
            return False
        return PhpArray(dict(row))
    return False


def _extract(interp: Interpreter, args, expr, scope):
    array = args[0] if args else None
    count = 0
    if isinstance(array, PhpArray):
        for key, value in array.items():
            if isinstance(key, str) and key.isidentifier():
                interp._scope_for(key, scope)[key] = value
                count += 1
    return count


def _implode(interp, args, expr, scope):
    if len(args) == 1:
        glue, pieces = "", args[0]
    else:
        glue, pieces = to_string(args[0]), args[1]
    if isinstance(pieces, PhpArray):
        return glue.join(to_string(v) for v in pieces.values())
    return ""


def _explode(interp, args, expr, scope):
    separator = to_string(args[0]) if args else ""
    text = to_string(args[1]) if len(args) > 1 else ""
    if not separator:
        return False
    return PhpArray(dict(enumerate(text.split(separator))))


def _str_replace(interp, args, expr, scope):
    search, replace, subject = args[0], args[1], to_string(args[2])
    searches = search.values() if isinstance(search, PhpArray) else [search]
    replaces = replace.values() if isinstance(replace, PhpArray) else [replace]
    for i, s in enumerate(searches):
        r = replaces[i] if i < len(replaces) else (replaces[-1] if len(replaces) == 1 else "")
        subject = subject.replace(to_string(s), to_string(r))
    return subject


def _sprintf(interp, args, expr, scope):
    template = to_string(args[0]) if args else ""
    values = [a if isinstance(a, (int, float)) else to_string(a) for a in args[1:]]
    try:
        return template % tuple(values)
    except (TypeError, ValueError):
        return template


def _array_push(interp, args, expr, scope):
    if not args or not isinstance(args[0], PhpArray):
        return False
    target = args[0]
    for value in args[1:]:
        target.set(None, value)
    # Write back when the first argument is a variable (PHP passes the
    # array by reference to array_push).
    if expr.args and isinstance(expr.args[0], ast.Variable):
        interp._scope_for(expr.args[0].name, scope)[expr.args[0].name] = target
    return len(target)


def _array_pop(interp, args, expr, scope):
    if not args or not isinstance(args[0], PhpArray) or not len(args[0]):
        return None
    target = args[0]
    last_key = target.keys()[-1]
    value = target.get(last_key)
    target.unset(last_key)
    return value


def _array_shift(interp, args, expr, scope):
    if not args or not isinstance(args[0], PhpArray) or not len(args[0]):
        return None
    target = args[0]
    first_key = target.keys()[0]
    value = target.get(first_key)
    target.unset(first_key)
    return value


def _array_slice(interp, args, expr, scope):
    if not args or not isinstance(args[0], PhpArray):
        return PhpArray()
    offset = int(to_number(args[1])) if len(args) > 1 else 0
    length = int(to_number(args[2])) if len(args) > 2 and args[2] is not None else None
    values = args[0].values()
    sliced = values[offset:] if length is None else values[offset : offset + length]
    return PhpArray(dict(enumerate(sliced)))


def _sort(interp, args, expr, scope):
    if not args or not isinstance(args[0], PhpArray):
        return False
    ordered = sorted(args[0].values(), key=lambda v: (isinstance(v, str), to_number(v), to_string(v)))
    rebuilt = PhpArray(dict(enumerate(ordered)))
    if expr.args and isinstance(expr.args[0], ast.Variable):
        interp._scope_for(expr.args[0].name, scope)[expr.args[0].name] = rebuilt
    return True


def _str_pad(interp, args, expr, scope):
    text = to_string(args[0]) if args else ""
    width = int(to_number(args[1])) if len(args) > 1 else 0
    pad = to_string(args[2]) if len(args) > 2 else " "
    pad_type = int(to_number(args[3])) if len(args) > 3 else 1  # STR_PAD_RIGHT
    if len(text) >= width or not pad:
        return text
    missing = width - len(text)
    filler = (pad * (missing // len(pad) + 1))[:missing]
    if pad_type == 0:  # STR_PAD_LEFT
        return filler + text
    if pad_type == 2:  # STR_PAD_BOTH
        left = missing // 2
        return filler[:left] + text + filler[: missing - left]
    return text + filler


def _strpos(interp, args, expr, scope):
    haystack = to_string(args[0]) if args else ""
    needle = to_string(args[1]) if len(args) > 1 else ""
    offset = int(to_number(args[2])) if len(args) > 2 else 0
    index = haystack.find(needle, offset)
    return False if index == -1 else index



_BUILTINS = {
    "htmlspecialchars": _builtin(lambda i, a, e, s: html_escape(to_string(a[0])) if a else ""),
    "htmlentities": _builtin(lambda i, a, e, s: html_escape(to_string(a[0])) if a else ""),
    "addslashes": _builtin(lambda i, a, e, s: sql_escape(to_string(a[0])) if a else ""),
    "mysql_escape_string": _builtin(lambda i, a, e, s: sql_escape(to_string(a[0])) if a else ""),
    "mysql_real_escape_string": _builtin(lambda i, a, e, s: sql_escape(to_string(a[0])) if a else ""),
    "stripslashes": _builtin(lambda i, a, e, s: to_string(a[0]).replace("\\", "") if a else ""),
    "strip_tags": _builtin(lambda i, a, e, s: __import__("re").sub(r"<[^>]*>", "", to_string(a[0])) if a else ""),
    "__webssari_sanitize": _builtin(lambda i, a, e, s: sanitize_value(a[0]) if a else ""),
    "intval": _builtin(lambda i, a, e, s: int(to_number(a[0])) if a else 0),
    "floatval": _builtin(lambda i, a, e, s: float(to_number(a[0])) if a else 0.0),
    "strval": _builtin(lambda i, a, e, s: to_string(a[0]) if a else ""),
    "strlen": _builtin(lambda i, a, e, s: len(to_string(a[0])) if a else 0),
    "count": _builtin(lambda i, a, e, s: len(a[0]) if a and isinstance(a[0], PhpArray) else (0 if not a or a[0] is None else 1)),
    "sizeof": _builtin(lambda i, a, e, s: len(a[0]) if a and isinstance(a[0], PhpArray) else (0 if not a or a[0] is None else 1)),
    "substr": _builtin(
        lambda i, a, e, s: to_string(a[0])[int(to_number(a[1])) :][: int(to_number(a[2]))]
        if len(a) > 2
        else to_string(a[0])[int(to_number(a[1])) :]
        if len(a) > 1
        else ""
    ),
    "trim": _builtin(lambda i, a, e, s: to_string(a[0]).strip() if a else ""),
    "ltrim": _builtin(lambda i, a, e, s: to_string(a[0]).lstrip() if a else ""),
    "rtrim": _builtin(lambda i, a, e, s: to_string(a[0]).rstrip() if a else ""),
    "strtolower": _builtin(lambda i, a, e, s: to_string(a[0]).lower() if a else ""),
    "strtoupper": _builtin(lambda i, a, e, s: to_string(a[0]).upper() if a else ""),
    "ucfirst": _builtin(lambda i, a, e, s: to_string(a[0]).capitalize() if a else ""),
    "str_repeat": _builtin(lambda i, a, e, s: to_string(a[0]) * int(to_number(a[1])) if len(a) > 1 else ""),
    "strrev": _builtin(lambda i, a, e, s: to_string(a[0])[::-1] if a else ""),
    "nl2br": _builtin(lambda i, a, e, s: to_string(a[0]).replace("\n", "<br />\n") if a else ""),
    "md5": _builtin(lambda i, a, e, s: __import__("hashlib").md5(to_string(a[0]).encode()).hexdigest() if a else ""),
    "sha1": _builtin(lambda i, a, e, s: __import__("hashlib").sha1(to_string(a[0]).encode()).hexdigest() if a else ""),
    "urlencode": _builtin(lambda i, a, e, s: __import__("urllib.parse", fromlist=["quote_plus"]).quote_plus(to_string(a[0])) if a else ""),
    "rawurlencode": _builtin(lambda i, a, e, s: __import__("urllib.parse", fromlist=["quote"]).quote(to_string(a[0]), safe="") if a else ""),
    "implode": _implode,
    "join": _implode,
    "explode": _explode,
    "str_replace": _str_replace,
    "sprintf": _sprintf,
    "number_format": _builtin(lambda i, a, e, s: f"{to_number(a[0]):,.0f}" if a else "0"),
    "is_array": _builtin(lambda i, a, e, s: isinstance(a[0], PhpArray) if a else False),
    "is_numeric": _builtin(lambda i, a, e, s: isinstance(a[0], (int, float)) or (isinstance(a[0], str) and a[0].strip().replace(".", "", 1).lstrip("-").isdigit()) if a else False),
    "is_string": _builtin(lambda i, a, e, s: isinstance(a[0], str) if a else False),
    "array_keys": _builtin(lambda i, a, e, s: PhpArray(dict(enumerate(a[0].keys()))) if a and isinstance(a[0], PhpArray) else PhpArray()),
    "array_values": _builtin(lambda i, a, e, s: PhpArray(dict(enumerate(a[0].values()))) if a and isinstance(a[0], PhpArray) else PhpArray()),
    "array_merge": _builtin(lambda i, a, e, s: _array_merge(a)),
    "array_push": _array_push,
    "array_pop": _array_pop,
    "array_shift": _array_shift,
    "array_slice": _array_slice,
    "array_reverse": _builtin(
        lambda i, a, e, s: PhpArray(dict(enumerate(reversed(a[0].values()))))
        if a and isinstance(a[0], PhpArray)
        else PhpArray()
    ),
    "array_unique": _builtin(
        lambda i, a, e, s: PhpArray(
            dict(enumerate(dict.fromkeys(to_string(v) for v in a[0].values())))
        )
        if a and isinstance(a[0], PhpArray)
        else PhpArray()
    ),
    "sort": _sort,
    "str_pad": _str_pad,
    "strpos": _strpos,
    "ucwords": _builtin(lambda i, a, e, s: to_string(a[0]).title() if a else ""),
    "lcfirst": _builtin(
        lambda i, a, e, s: (to_string(a[0])[:1].lower() + to_string(a[0])[1:]) if a else ""
    ),
    "wordwrap": _builtin(
        lambda i, a, e, s: __import__("textwrap").fill(
            to_string(a[0]), int(to_number(a[1])) if len(a) > 1 else 75
        )
        if a
        else ""
    ),
    "max": _builtin(lambda i, a, e, s: max((to_number(x) for x in a), default=False)),
    "min": _builtin(lambda i, a, e, s: min((to_number(x) for x in a), default=False)),
    "abs": _builtin(lambda i, a, e, s: abs(to_number(a[0])) if a else 0),
    "round": _builtin(
        lambda i, a, e, s: round(to_number(a[0]), int(to_number(a[1])) if len(a) > 1 else 0)
        if a
        else 0.0
    ),
    "floor": _builtin(lambda i, a, e, s: float(__import__("math").floor(to_number(a[0]))) if a else 0.0),
    "ceil": _builtin(lambda i, a, e, s: float(__import__("math").ceil(to_number(a[0]))) if a else 0.0),
    "range": _builtin(
        lambda i, a, e, s: PhpArray(
            dict(
                enumerate(
                    range(
                        int(to_number(a[0])),
                        int(to_number(a[1])) + 1 if len(a) > 1 else int(to_number(a[0])) + 1,
                    )
                )
            )
        )
        if a
        else PhpArray()
    ),
    "gettype": _builtin(
        lambda i, a, e, s: __import__("repro.interp.values", fromlist=["type_name"]).type_name(a[0])
        if a
        else "NULL"
    ),
    "isset_or": _builtin(lambda i, a, e, s: a[0] if a and a[0] is not None else (a[1] if len(a) > 1 else None)),
    "htmlspecialchars_decode": _builtin(
        lambda i, a, e, s: to_string(a[0])
        .replace("&amp;", "&")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", '"')
        .replace("&#039;", "'")
        if a
        else ""
    ),
    "in_array": _builtin(lambda i, a, e, s: any(loose_equals(a[0], v) for v in a[1].values()) if len(a) > 1 and isinstance(a[1], PhpArray) else False),
    "array_key_exists": _builtin(lambda i, a, e, s: a[1].has(a[0]) if len(a) > 1 and isinstance(a[1], PhpArray) else False),
    "mysql_query": _mysql_query,
    "mysql_db_query": _mysql_query,
    "mysql_unbuffered_query": _mysql_query,
    "dosql": _mysql_query,
    "mysql_fetch_array": _mysql_fetch_array,
    "mysql_fetch_assoc": _mysql_fetch_array,
    "mysql_fetch_row": _mysql_fetch_array,
    "mysql_fetch_object": _mysql_fetch_array,
    "mysql_num_rows": _builtin(lambda i, a, e, s: len(a[0].rows) if a and isinstance(a[0], QueryResult) else 0),
    "mysql_connect": _builtin(lambda i, a, e, s: True),
    "mysql_select_db": _builtin(lambda i, a, e, s: True),
    "mysql_error": _builtin(lambda i, a, e, s: ""),
    "extract": _extract,
    "getenv": _builtin(lambda i, a, e, s: ""),
    "header": _builtin(lambda i, a, e, s: i.env.headers.append(to_string(a[0])) or "" if a else ""),
    "exec": _sink("command"),
    "system": _sink("command"),
    "passthru": _sink("command"),
    "shell_exec": _sink("command"),
    "printf": _builtin(lambda i, a, e, s: i.env.write(_sprintf(i, a, e, s)) or 1),
    "print_r": _builtin(lambda i, a, e, s: i.env.write(to_string(a[0])) or True if a else True),
    "rand": _builtin(lambda i, a, e, s: 4),  # deterministic for tests
    "time": _builtin(lambda i, a, e, s: 1_000_000_000),
    "date": _builtin(lambda i, a, e, s: "2004-06-28"),
    "function_exists": _builtin(lambda i, a, e, s: (to_string(a[0]).lower() in _BUILTINS or to_string(a[0]).lower() in i.functions) if a else False),
    "defined": _builtin(lambda i, a, e, s: False),
    "error_reporting": _builtin(lambda i, a, e, s: 0),
    "ini_set": _builtin(lambda i, a, e, s: ""),
    "session_start": _builtin(
        lambda i, a, e, s: i.globals.__setitem__(
            "_SESSION", PhpArray(dict(i.env.session_store))
        )
        or True
    ),
    "session_destroy": _builtin(
        lambda i, a, e, s: (i.env.session_store.clear(), i.globals.pop("_SESSION", None))
        and True
        or True
    ),
    "session_register": _builtin(lambda i, a, e, s: True),
    "session_id": _builtin(lambda i, a, e, s: "sess-0001"),
}


def _array_merge(arrays) -> PhpArray:
    merged = PhpArray()
    for array in arrays:
        if isinstance(array, PhpArray):
            for key, value in array.items():
                if isinstance(key, int):
                    merged.set(None, value)
                else:
                    merged.set(key, value)
    return merged


def run_php(
    source: str,
    request: HttpRequest | None = None,
    database=None,
    files: dict[str, str] | None = None,
    session: dict | None = None,
    max_steps: int = 1_000_000,
    filename: str = "<string>",
    parse_hook: ParseHook | None = None,
) -> ExecutionEnvironment:
    """Execute PHP source against a simulated request; return the environment.

    Pass the same ``database`` and ``session`` dictionaries across calls
    to simulate a sequence of requests against one application instance.
    ``filename`` names the entry for parsing; ``parse_hook`` parses the
    entry and every included file (default :func:`repro.php.parser.parse`).
    """
    env = ExecutionEnvironment(request=request or HttpRequest())
    if database is not None:
        env.database = database
    if session is not None:
        env.session_store = session
    interpreter = Interpreter(
        environment=env, max_steps=max_steps, files=files, parse_hook=parse_hook
    )
    interpreter.run(source, filename)
    return env
