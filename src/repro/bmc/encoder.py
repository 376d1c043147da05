"""Constraint generation C(c, g) — paper §3.3.2, Figure 5 (xBMC1.0).

The renamed AI is turned into boolean constraints:

=====================================  ====================================
AI command                             Constraint
=====================================  ====================================
``stop`` or empty                      ``true``
``t_x = t_e``                          ``t_x^i = g ? ρ(t_e) : t_x^{i-1}``
``assert(t_x | x∈X < T_R)``            ``g ⇒ ∧_{x∈X} ρ(t_x) < T_R``
``if b then c1 else c2``               ``C(c1, g ∧ b) ∧ C(c2, g ∧ ¬b)``
``c1; c2``                             ``C(c1,g) ∧ C(c2,g)``
=====================================  ====================================

Lattice values are encoded as bit vectors over the lattice's
**join-irreducible** elements: bit *j* of a value is 1 iff the *j*-th
irreducible lies below it.  For distributive lattices (the taint
lattice, linear orders, and their products/powersets — everything the
paper's policies use) the join is then plain bitwise OR, the order test
``t ≤ τ`` is bit-set inclusion, and each type variable of the two-point
taint lattice costs exactly one SAT variable.  Non-distributive lattices
are rejected at construction with a clear error.

SAT variable naming: branch variables are ``b<k>``; bit *j* of version
*i* of program variable *v* is ``t_<v>^<i>.<j>``.

Constant folding: the generator keeps one value per (version, bit) —
a constant, a literal (a variable or its negation), or the named bit
variable ``t_<v>^<i>.<j>``.  Version 0 is the constant ⊥, and an
assignment whose bit folds to a constant or a literal (a constant
assignment, an unguarded copy, ``g ? ⊤ : ⊥``) records that value instead
of emitting ``t_x^i ⇔ value``.  Only a bit that stays a compound formula
gets a SAT variable and clauses, so the solver no longer rediscovers by
unit propagation what the encoder already knew.  The folded formula is
equivalent over the branch variables, so verdicts and counterexamples
are those of the unfolded encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ai.renaming import (
    Guard,
    IndexedVar,
    RenamedAssert,
    RenamedAssign,
    RenamedProgram,
    RenamedStop,
)
from repro.ir.commands import Const, Join, LevelConst
from repro.lattice import FiniteLattice, LatticeError
from repro.sat.cnf import CNF, VariablePool
from repro.sat.tseitin import (
    FALSE,
    TRUE,
    Const as BoolConst,
    Expr,
    Implies,
    Not,
    Var,
    add_expr_to_cnf,
    conj,
    disj,
    iff,
    ite,
)

__all__ = ["LatticeEncoding", "ConstraintGenerator", "EncodedAssertion", "bit_var_name"]


def bit_var_name(var: IndexedVar, bit: int) -> str:
    return f"t_{var.name}^{var.index}.{bit}"


# -- constant-folding constructors ---------------------------------------------
#
# The encoder's values are constants (the TRUE/FALSE singletons), literals
# (a Var or the Not of one) or compound formulas.  These helpers build the
# same formulas as ``~``, ``ite`` and ``>>`` but fold what is decidable
# without a solver.


def _literal_key(expr: Expr) -> tuple[str, bool] | None:
    """``(name, polarity)`` for a literal, None for anything else."""
    if isinstance(expr, Var):
        return expr.name, True
    if isinstance(expr, Not) and isinstance(expr.operand, Var):
        return expr.operand.name, False
    return None


def _same(a: Expr, b: Expr) -> bool:
    if a is b:
        return True
    key = _literal_key(a)
    return key is not None and key == _literal_key(b)


def _neg(expr: Expr) -> Expr:
    if expr is TRUE:
        return FALSE
    if expr is FALSE:
        return TRUE
    if isinstance(expr, Not):
        return expr.operand
    return Not(expr)


def _ite(cond: Expr, then: Expr, orelse: Expr) -> Expr:
    if cond is TRUE or _same(then, orelse):
        return then
    if cond is FALSE:
        return orelse
    if then is TRUE and orelse is FALSE:
        return cond
    if then is FALSE and orelse is TRUE:
        return _neg(cond)
    return ite(cond, then, orelse)


def _implies(antecedent: Expr, consequent: Expr) -> Expr:
    if antecedent is TRUE:
        return consequent
    if consequent is FALSE:
        return _neg(antecedent)
    if antecedent is FALSE or consequent is TRUE:
        return TRUE
    return Implies(antecedent, consequent)


class LatticeEncoding:
    """Bit-vector encoding of a finite distributive lattice."""

    def __init__(self, lattice: FiniteLattice) -> None:
        self.lattice = lattice
        self.irreducibles = self._join_irreducibles()
        self._bits: dict[object, frozenset[int]] = {}
        for element in lattice.elements:
            self._bits[element] = frozenset(
                j
                for j, irreducible in enumerate(self.irreducibles)
                if lattice.leq(irreducible, element)
            )
        self._check_distributive()
        # Distributive lattices are determined by their irreducibles, so
        # the bit sets of distinct elements differ and decoding a model's
        # bits is a lookup.
        self._elements: dict[frozenset[int], object] = {
            bits: element for element, bits in self._bits.items()
        }

    @property
    def width(self) -> int:
        return len(self.irreducibles)

    def bits(self, element: object) -> frozenset[int]:
        self.lattice.check_member(element)
        return self._bits[element]

    def element_of_bits(self, bits: frozenset[int] | set[int]) -> object:
        """Decode a bit set back to the lattice element it represents."""
        key = frozenset(bits)
        if key in self._elements:
            return self._elements[key]
        return self.lattice.join_all(self.irreducibles[j] for j in bits)

    def _join_irreducibles(self) -> list[object]:
        """Elements that are not the join of the elements strictly below them."""
        lattice = self.lattice
        out = []
        for element in sorted(lattice.elements, key=repr):
            if element == lattice.bottom:
                continue
            below = [e for e in lattice.elements if lattice.lt(e, element)]
            if lattice.join_all(below) != element:
                out.append(element)
        return out

    def _check_distributive(self) -> None:
        """Bitwise-OR joins require bits(a ∨ b) = bits(a) ∪ bits(b)."""
        for a in self.lattice.elements:
            for b in self.lattice.elements:
                joined = self.lattice.join(a, b)
                if self._bits[joined] != self._bits[a] | self._bits[b]:
                    raise LatticeError(
                        "lattice is not distributive; the join-irreducible "
                        "bit encoding requires bits(a⊔b) = bits(a) ∪ bits(b) "
                        f"(failed for {a!r} ⊔ {b!r})"
                    )


@dataclass
class EncodedAssertion:
    """The boolean artifacts for one assertion."""

    event: RenamedAssert
    #: guard ∧ ¬(all-variables-safe): satisfiable iff the assertion can fail.
    violation: Expr
    #: guard ⇒ all-variables-safe: the constraint C(assert, g).
    holds: Expr
    #: Per variable: the expression "this variable violates" — used to
    #: identify violating variables from a model.
    per_var_violation: dict[IndexedVar, Expr]


class ConstraintGenerator:
    """Applies Figure 5 to a renamed program, emitting CNF incrementally.

    The generator owns a :class:`VariablePool` and a :class:`CNF`; the
    checker drives it event by event and hands the CNF to the SAT solver.
    """

    def __init__(self, program: RenamedProgram, encoding: LatticeEncoding) -> None:
        self.program = program
        self.encoding = encoding
        self.pool = VariablePool()
        self.cnf = CNF()
        #: Folded value of each bit of each assigned version, keyed by
        #: ``(name, index)``; version 0 is ⊥ and never stored.
        self._values: dict[tuple[str, int], tuple[Expr, ...]] = {}
        # Reserve branch variables up front so trace reconstruction can
        # always read them from a model.
        for name in program.branch_variables:
            self.pool.named(name)

    # -- naming -------------------------------------------------------------

    def guard_expr(self, guard: Guard) -> Expr:
        literals: list[Expr] = []
        for lit in guard:
            var = Var(lit.variable)
            literals.append(var if lit.positive else ~var)
        return conj(literals)

    def bit_expr(self, var: IndexedVar, bit: int) -> Expr:
        """The recorded value of one bit of ``var``.

        Initial condition I(s0): version 0 of every variable is ⊥, whose
        bits are all 0 (no irreducible lies below ⊥).
        """
        values = self._values.get((var.name, var.index))
        if values is not None:
            return values[bit]
        if var.index == 0:
            return FALSE
        return Var(bit_var_name(var, bit))

    def type_expr_bit(self, expr, bit: int) -> Expr:
        """The boolean expression for one bit of a renamed type expression."""
        if isinstance(expr, Const):
            return FALSE  # t_n = ⊥
        if isinstance(expr, LevelConst):
            return TRUE if bit in self.encoding.bits(expr.level) else FALSE
        if isinstance(expr, IndexedVar):
            return self.bit_expr(expr, bit)
        if isinstance(expr, Join):
            return disj(self.type_expr_bit(op, bit) for op in expr.operands)
        raise TypeError(f"unknown renamed type expression {type(expr).__name__}")

    # -- per-event constraints ----------------------------------------------

    def assign_constraint(self, event: RenamedAssign) -> Expr:
        """``t_x^i = g ? ρ(t_e) : t_x^{i-1}`` bit by bit.

        Records the folded value of every bit of ``t_x^i``.  A bit that
        folds to a constant or a literal needs no constraint; any other
        bit becomes the named variable ``t_x^i.j`` and contributes
        ``t_x^i.j ⇔ value``.  Returns the conjunction of those (⊤ when
        every bit folded).
        """
        guard = self.guard_expr(event.guard)
        target = event.target
        previous = IndexedVar(target.name, target.index - 1)
        values: list[Expr] = []
        parts: list[Expr] = []
        for bit in range(self.encoding.width):
            new_bit = self.type_expr_bit(event.expr, bit)
            value = _ite(guard, new_bit, self.bit_expr(previous, bit))
            if isinstance(value, BoolConst) or _literal_key(value) is not None:
                values.append(value)
            else:
                named = Var(bit_var_name(target, bit))
                values.append(named)
                parts.append(iff(named, value))
        self._values[(target.name, target.index)] = tuple(values)
        return conj(parts)

    def var_safe_expr(self, var: IndexedVar, required: object) -> Expr:
        """``t_var < required`` — strict order over the bit encoding."""
        required_bits = self.encoding.bits(required)
        if not required_bits:
            return FALSE
        leq = conj(
            _neg(self.bit_expr(var, bit))
            for bit in range(self.encoding.width)
            if bit not in required_bits
        )
        strict = disj(_neg(self.bit_expr(var, bit)) for bit in sorted(required_bits))
        return conj((leq, strict))

    def encode_assertion(self, event: RenamedAssert) -> EncodedAssertion:
        guard = self.guard_expr(event.guard)
        per_var: dict[IndexedVar, Expr] = {}
        safes: list[Expr] = []
        for var in event.variables:
            safe = self.var_safe_expr(var, event.required)
            per_var[var] = _neg(safe)
            safes.append(safe)
        all_safe = conj(safes)
        return EncodedAssertion(
            event=event,
            violation=conj((guard, _neg(all_safe))),
            holds=_implies(guard, all_safe),
            per_var_violation=per_var,
        )

    # -- CNF emission ----------------------------------------------------------

    def add_assign(self, event: RenamedAssign) -> None:
        self.add_expr(self.assign_constraint(event))

    def add_expr(self, expr: Expr) -> None:
        if expr is not TRUE:
            add_expr_to_cnf(expr, self.pool, self.cnf)

    def gate_for(self, expr: Expr) -> int:
        """Introduce a fresh gate literal equivalent to ``expr``."""
        from repro.sat.tseitin import _Tseitin  # shared transformer internals

        transformer = _Tseitin(self.pool, self.cnf)
        return transformer.literal(expr)

    def encode_all(self) -> list[EncodedAssertion]:
        """Encode every assignment constraint; return encoded assertions
        in program order (without adding their constraints to the CNF)."""
        encoded: list[EncodedAssertion] = []
        for event in self.program.events:
            if isinstance(event, RenamedAssign):
                self.add_assign(event)
            elif isinstance(event, RenamedAssert):
                encoded.append(self.encode_assertion(event))
            elif isinstance(event, RenamedStop):
                continue  # C(stop, g) := true
        return encoded

    # -- model decoding -----------------------------------------------------------

    def level_of(self, var: IndexedVar, model: dict[int, bool]) -> object:
        """Decode a variable's lattice level from a SAT model.

        A constant bit is its own value; a literal or a named bit variable
        is read from the model (a variable the model does not mention is
        false).
        """
        bits = set()
        for bit in range(self.encoding.width):
            value = self.bit_expr(var, bit)
            if isinstance(value, BoolConst):
                set_bit = value.value
            else:
                name, positive = _literal_key(value)
                truth = self.pool.has_name(name) and model.get(self.pool.var_of(name), False)
                set_bit = truth == positive
            if set_bit:
                bits.add(bit)
        return self.encoding.element_of_bits(bits)

    def branch_value(self, branch_variable: str, model: dict[int, bool]) -> bool:
        return model.get(self.pool.var_of(branch_variable), False)

    def formula_stats(self) -> tuple[int, int]:
        return self.cnf.num_vars, self.cnf.num_clauses
