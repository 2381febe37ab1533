"""Atomic linear constraints ``term ⋈ 0`` over named variables.

Following the paper's convention (Section 2) the representation relations
use {<, <=, =, >=, >}; negation is avoided by closing the atom set under
complement, and ``≠`` is handled at the formula level by splitting into
``< ∨ >``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from repro.geometry.fourier_motzkin import LinearConstraint, Rel
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.linalg import HashOnce
from repro.constraints.terms import LinearTerm


class Op(enum.Enum):
    """Comparison operator of an atom ``lhs OP rhs``."""

    LT = "<"
    LE = "<="
    EQ = "="
    GE = ">="
    GT = ">"

    def complement(self) -> "Op | None":
        """The operator of the negated atom; ``None`` for EQ (splits)."""
        return {
            Op.LT: Op.GE,
            Op.LE: Op.GT,
            Op.GE: Op.LT,
            Op.GT: Op.LE,
            Op.EQ: None,
        }[self]

    def flipped(self) -> "Op":
        """The operator with sides swapped (``a < b`` ⇔ ``b > a``)."""
        return {
            Op.LT: Op.GT,
            Op.LE: Op.GE,
            Op.EQ: Op.EQ,
            Op.GE: Op.LE,
            Op.GT: Op.LT,
        }[self]

    def holds(self, value: Fraction) -> bool:
        """Does ``value OP 0`` hold?"""
        if self is Op.LT:
            return value < 0
        if self is Op.LE:
            return value <= 0
        if self is Op.EQ:
            return value == 0
        if self is Op.GE:
            return value >= 0
        return value > 0

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Atom(HashOnce):
    """The atomic constraint ``term OP 0`` (hashed once, see HashOnce)."""

    term: LinearTerm
    op: Op

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = self._keep_hash(hash((self.term, self.op)))
        return cached

    @staticmethod
    def compare(lhs: LinearTerm, op: Op, rhs: LinearTerm) -> "Atom":
        """Build the atom ``lhs OP rhs`` as ``(lhs - rhs) OP 0``."""
        return Atom(lhs - rhs, op)

    @property
    def variables(self) -> tuple[str, ...]:
        return self.term.variables

    def holds_at(self, assignment: Mapping[str, Fraction]) -> bool:
        """Exact truth value at a rational assignment."""
        return self.op.holds(self.term.evaluate(assignment))

    def negated_atoms(self) -> tuple["Atom", ...]:
        """Atoms whose disjunction is the negation of this atom.

        A single atom except for ``=``, which negates to ``< ∨ >``.
        """
        complement = self.op.complement()
        if complement is not None:
            return (Atom(self.term, complement),)
        return (Atom(self.term, Op.LT), Atom(self.term, Op.GT))

    def substitute(self, mapping: Mapping[str, LinearTerm]) -> "Atom":
        return Atom(self.term.substitute(mapping), self.op)

    def rename(self, mapping: Mapping[str, str]) -> "Atom":
        return Atom(self.term.rename(mapping), self.op)

    def to_linear_constraint(
        self, variable_order: Sequence[str]
    ) -> LinearConstraint:
        """Vector form over a variable order: ``coeffs . x REL -constant``."""
        coeffs, constant = self.term.to_vector(variable_order)
        return LinearConstraint.make(coeffs, self.op.value, -constant)

    def hyperplane(self, variable_order: Sequence[str]) -> Hyperplane | None:
        """The boundary hyperplane (paper's 𝕳 construction).

        ``None`` when the atom has no variables (a trivial atom).
        """
        coeffs, constant = self.term.to_vector(variable_order)
        if all(c == 0 for c in coeffs):
            return None
        return Hyperplane.make(coeffs, -constant)

    def is_trivial(self) -> bool:
        """True iff the atom mentions no variables."""
        return self.term.is_constant()

    def trivial_truth(self) -> bool:
        """Truth value of a trivial atom."""
        if not self.is_trivial():
            raise ValueError("atom is not trivial")
        return self.op.holds(self.term.constant)

    def __str__(self) -> str:
        # Present as `linear-part OP -constant` for readability.
        linear = LinearTerm(self.term.coefficients, Fraction(0))
        return f"{linear} {self.op.value} {-self.term.constant}"


def atom_from_constraint(
    constraint: LinearConstraint, variable_order: Sequence[str]
) -> Atom:
    """Convert a vector-form constraint back to a named atom."""
    rel_to_op = {Rel.LE: Op.LE, Rel.LT: Op.LT, Rel.EQ: Op.EQ}
    term = LinearTerm.from_vector(
        constraint.coeffs, -constraint.rhs, variable_order
    )
    return Atom(term, rel_to_op[constraint.rel])
