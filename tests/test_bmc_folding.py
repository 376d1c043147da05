"""Constant folding in the Figure 5 encoder (``ConstraintGenerator``).

The folded generator records one value per (version, bit) — a constant,
a literal or a named bit variable — and emits ``t_x^i ⇔ value`` only for
bits that stay compound.  The unfolded encoding it replaced is kept here
as ``reference_*``: one SAT variable per bit of every version, version 0
pinned to ⊥ by unit clauses.  Both must give the same verdicts,
counterexample counts, deciding-branch sets and violating levels, and the
same bit values under every branch assignment.
"""

import itertools
import random

import pytest

from repro.ai import rename, translate_filter_result
from repro.ai.renaming import IndexedVar, RenamedAssign
from repro.bmc import check_program
from repro.bmc import checker as checker_module
from repro.bmc.encoder import (
    ConstraintGenerator,
    EncodedAssertion,
    LatticeEncoding,
    bit_var_name,
)
from repro.corpus.generator import generate_fuzz_program
from repro.ir import filter_source
from repro.lattice import linear_lattice, two_point_lattice
from repro.policy import Prelude
from repro.sat import CDCLSolver
from repro.sat.tseitin import FALSE, TRUE, Var, add_expr_to_cnf, conj, disj, iff, ite

FIGURE6_SOURCE = """<?php
if ($Nick) {
  $tmp = $_GET["nick"];
  echo (htmlspecialchars($tmp));
} else {
  $tmp = "You are the" . $GuestCount . " guest";
  echo ($tmp);
}
"""


# -- the unfolded reference encoding --------------------------------------------


def reference_bit_expr(generator, var, bit):
    if var.index == 0 and var.name not in generator.reference_initialized:
        # Initial condition I(s0): every bit of version 0 is a variable
        # forced false by a unit clause.
        generator.reference_initialized.add(var.name)
        for b in range(generator.encoding.width):
            v = generator.pool.named(bit_var_name(IndexedVar(var.name, 0), b))
            generator.cnf.add_unit(-v)
    return Var(bit_var_name(var, bit))


def reference_assign_constraint(generator, event):
    """``t_x^i = g ? ρ(t_e) : t_x^{i-1}``, one ``iff`` per bit."""
    guard = generator.guard_expr(event.guard)
    previous = IndexedVar(event.target.name, event.target.index - 1)
    parts = []
    for bit in range(generator.encoding.width):
        new_bit = generator.type_expr_bit(event.expr, bit)
        old_bit = generator.bit_expr(previous, bit)
        value = new_bit if guard is TRUE else ite(guard, new_bit, old_bit)
        parts.append(iff(generator.bit_expr(event.target, bit), value))
    return conj(parts)


def reference_var_safe_expr(generator, var, required):
    required_bits = generator.encoding.bits(required)
    leq = conj(
        ~generator.bit_expr(var, bit)
        for bit in range(generator.encoding.width)
        if bit not in required_bits
    )
    strict = disj(~generator.bit_expr(var, bit) for bit in sorted(required_bits))
    return leq & strict if required_bits else FALSE


def reference_encode_assertion(generator, event):
    guard = generator.guard_expr(event.guard)
    per_var = {}
    safes = []
    for var in event.variables:
        safe = reference_var_safe_expr(generator, var, event.required)
        per_var[var] = ~safe
        safes.append(safe)
    all_safe = conj(safes)
    violation = guard & ~all_safe if guard is not TRUE else ~all_safe
    holds = guard >> all_safe if guard is not TRUE else all_safe
    return EncodedAssertion(
        event=event, violation=violation, holds=holds, per_var_violation=per_var
    )


def reference_level_of(generator, var, model):
    bits = set()
    for bit in range(generator.encoding.width):
        name = bit_var_name(var, bit)
        if generator.pool.has_name(name) and model.get(generator.pool.var_of(name), False):
            bits.add(bit)
    return generator.encoding.element_of_bits(bits)


class ReferenceGenerator(ConstraintGenerator):
    """``ConstraintGenerator`` with the unfolded encoding wired in."""

    def __init__(self, program, encoding):
        super().__init__(program, encoding)
        self.reference_initialized = set()

    def bit_expr(self, var, bit):
        return reference_bit_expr(self, var, bit)

    def assign_constraint(self, event):
        return reference_assign_constraint(self, event)

    def encode_assertion(self, event):
        return reference_encode_assertion(self, event)

    def add_expr(self, expr):
        add_expr_to_cnf(expr, self.pool, self.cnf)

    def level_of(self, var, model):
        return reference_level_of(self, var, model)


# -- helpers ------------------------------------------------------------------------


def renamed_of(source, prelude=None):
    return rename(translate_filter_result(filter_source(source, prelude=prelude)))


def check_with(generator_class, program, monkeypatch, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(checker_module, "ConstraintGenerator", generator_class)
        return check_program(program, **kwargs)


def signature(result):
    """Per assertion: verdict, counterexample count and the multiset of
    (deciding branches, violating levels) over its counterexamples."""
    return [
        (
            a.assert_id,
            a.safe,
            len(a.counterexamples),
            a.truncated,
            sorted(
                (
                    tuple(sorted(c.deciding_branches.items())),
                    tuple(sorted((str(v.var), str(v.level)) for v in c.violating)),
                )
                for c in a.counterexamples
            ),
        )
        for a in result.assertions
    ]


def fuzz_programs(count, seed, **kwargs):
    return [
        (seed + i, generate_fuzz_program(random.Random(seed + i), **kwargs))
        for i in range(count)
    ]


# -- verdict equivalence ------------------------------------------------------------


class TestFoldedMatchesReference:
    def test_figure6(self, monkeypatch):
        program = renamed_of(FIGURE6_SOURCE)
        folded = check_with(ConstraintGenerator, program, monkeypatch)
        reference = check_with(ReferenceGenerator, program, monkeypatch)
        assert folded.safe and reference.safe
        assert signature(folded) == signature(reference)
        assert folded.num_clauses < reference.num_clauses

    def test_fuzz_programs(self, monkeypatch):
        folded_clauses = reference_clauses = unsafe = 0
        for seed, fuzz in fuzz_programs(200, 2004):
            program = renamed_of(fuzz.source)
            folded = check_with(ConstraintGenerator, program, monkeypatch)
            reference = check_with(ReferenceGenerator, program, monkeypatch)
            assert signature(folded) == signature(reference), (
                f"seed={seed}\n{fuzz.source}"
            )
            assert folded.num_solve_calls == reference.num_solve_calls, seed
            assert folded.num_clauses <= reference.num_clauses, seed
            folded_clauses += folded.num_clauses
            reference_clauses += reference.num_clauses
            unsafe += not folded.safe
        # The sweep exercises both verdicts, and folding shrinks the CNF.
        assert 0 < unsafe < 200
        assert folded_clauses < reference_clauses / 2

    def test_accumulate_always(self, monkeypatch):
        # The literal reading conjoins every assertion's ``holds``, which
        # exercises the folded implication.
        for seed, fuzz in fuzz_programs(40, 7):
            program = renamed_of(fuzz.source)
            folded = check_with(ConstraintGenerator, program, monkeypatch, accumulate="always")
            reference = check_with(ReferenceGenerator, program, monkeypatch, accumulate="always")
            assert signature(folded) == signature(reference), seed


class TestBitValues:
    @staticmethod
    def levels_under(generator, assignment):
        """Level of every assigned version with the branch variables fixed."""
        solver = CDCLSolver(generator.cnf)
        assumptions = [
            generator.pool.var_of(name) * (1 if value else -1)
            for name, value in assignment.items()
        ]
        result = solver.solve(assumptions=assumptions)
        assert result.satisfiable  # assignment constraints are definitions
        return {
            (event.target.name, event.target.index, bit): bit
            in generator.encoding.bits(generator.level_of(event.target, result.model))
            for event in generator.program.events
            if isinstance(event, RenamedAssign)
            for bit in range(generator.encoding.width)
        }

    def test_every_branch_assignment(self):
        checked = 0
        for seed, fuzz in fuzz_programs(60, 99, statements=12, max_branches=5):
            program = renamed_of(fuzz.source)
            names = program.branch_variables
            assert len(names) <= 10
            encoding = LatticeEncoding(two_point_lattice())
            folded = ConstraintGenerator(program, encoding)
            reference = ReferenceGenerator(program, encoding)
            folded.encode_all()
            reference.encode_all()
            for values in itertools.product([False, True], repeat=len(names)):
                assignment = dict(zip(names, values))
                assert self.levels_under(folded, assignment) == self.levels_under(
                    reference, assignment
                ), (seed, assignment)
                checked += 1
        assert checked > 200


class TestMultiBitLattice:
    @staticmethod
    def prelude(lattice):
        prelude = Prelude(lattice)
        prelude.add_superglobal("_GET", "secret")
        prelude.add_sink("echo", "internal")
        return prelude

    def test_constant_level_decodes_without_a_model(self):
        lattice = linear_lattice(["public", "internal", "secret"])
        program = renamed_of("<?php $x = $_GET['q']; echo $x;", self.prelude(lattice))
        generator = ConstraintGenerator(program, LatticeEncoding(lattice))
        generator.encode_all()
        x1 = IndexedVar("x", 1)
        assert [generator.bit_expr(x1, bit) for bit in range(2)] == [TRUE, TRUE]
        assert generator.level_of(x1, {}) == "secret"
        assert generator.level_of(IndexedVar("x", 0), {}) == "public"

    def test_guarded_level_reads_the_branch_literal(self, monkeypatch):
        lattice = linear_lattice(["public", "internal", "secret"])
        source = "<?php if ($c) { $x = $_GET['q']; } echo $x;"
        program = renamed_of(source, self.prelude(lattice))
        generator = ConstraintGenerator(program, LatticeEncoding(lattice))
        generator.encode_all()
        (branch,) = program.branch_variables
        b = generator.pool.var_of(branch)
        x1 = IndexedVar("x", 1)
        assert generator.level_of(x1, {b: True}) == "secret"
        assert generator.level_of(x1, {b: False}) == "public"

        folded = check_with(ConstraintGenerator, program, monkeypatch, lattice=lattice)
        reference = check_with(ReferenceGenerator, program, monkeypatch, lattice=lattice)
        assert signature(folded) == signature(reference)
        (cex,) = folded.assertions[0].counterexamples
        assert [str(v.level) for v in cex.violating] == ["secret"]


class TestFullyFolded:
    @pytest.mark.parametrize(
        "source, safe",
        [
            ("<?php $x = 'a'; $y = $x; echo $y;", True),
            ("<?php echo $never_assigned;", True),
            ("<?php $x = $_GET['q']; $x = htmlspecialchars($x); echo $x;", True),
            ("<?php $x = $_GET['q']; $y = $x; echo $y;", False),
        ],
    )
    def test_constant_formula_reports_correctly(self, source, safe, monkeypatch):
        program = renamed_of(source)
        generator = ConstraintGenerator(program, LatticeEncoding(two_point_lattice()))
        (encoded,) = generator.encode_all()
        # No branch, so every bit and the violation itself are constants:
        # the encoder emits no clause and allocates no variable.
        assert generator.cnf.num_clauses == 0
        assert generator.pool.num_vars == 0
        assert encoded.violation is (FALSE if safe else TRUE)

        result = check_with(ConstraintGenerator, program, monkeypatch)
        assert result.safe is safe
        assert len(result.assertions[0].counterexamples) == (0 if safe else 1)
        reference = check_with(ReferenceGenerator, program, monkeypatch)
        assert signature(result) == signature(reference)
