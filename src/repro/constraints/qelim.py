"""Quantifier elimination for first-order logic over (ℝ, <, +).

The context structure of the paper admits elimination of quantifiers —
this is what makes FO+LIN a closed query language (Section 2).  The
procedure is the textbook one: work innermost-out; for an existential
quantifier put the (already quantifier-free) body in DNF and apply exact
Fourier–Motzkin elimination per disjunct; handle ∀ as ¬∃¬.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import FormulaError
from repro.geometry.fourier_motzkin import (
    eliminate_variable,
    simplify_system,
)
from repro.constraints.atoms import atom_from_constraint
from repro.constraints.formula import (
    And,
    AtomFormula,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Not,
    Or,
    TrueFormula,
    conjunction,
    disjunction,
)
from repro.constraints.normal_forms import Disjunct, dnf_to_formula


def eliminate_quantifiers(formula: Formula) -> Formula:
    """An equivalent quantifier-free formula over the same free variables."""
    if isinstance(formula, (TrueFormula, FalseFormula, AtomFormula)):
        return formula
    if isinstance(formula, Not):
        return Not(eliminate_quantifiers(formula.operand))
    if isinstance(formula, And):
        return conjunction(
            eliminate_quantifiers(f) for f in formula.operands
        )
    if isinstance(formula, Or):
        return disjunction(
            eliminate_quantifiers(f) for f in formula.operands
        )
    if isinstance(formula, Exists):
        body = eliminate_quantifiers(formula.body)
        return _eliminate_exists(formula.variable, body)
    if isinstance(formula, Forall):
        body = eliminate_quantifiers(formula.body)
        return Not(_eliminate_exists(formula.variable, Not(body)))
    raise FormulaError(f"unknown formula node {type(formula).__name__}")


def _eliminate_exists(variable: str, body: Formula) -> Formula:
    """Eliminate ``∃ variable`` from a quantifier-free body.

    The body is put into DNF with feasibility pruning (negations inside
    ∀-as-¬∃¬ rewritings would otherwise explode the distribution), then
    :func:`project_disjuncts` projects each disjunct.
    """
    from repro.constraints.simplify import to_dnf_pruned

    return dnf_to_formula(project_disjuncts(to_dnf_pruned(body), variable))


def project_disjuncts(
    disjuncts: Sequence[Disjunct], variable: str
) -> list[Disjunct]:
    """Fourier–Motzkin ``∃ variable`` of each disjunct of a pruned DNF.

    The one projection loop: quantifier elimination,
    ``ConstraintRelation.project_out`` and the compiled executor's
    ``KernelCache.project`` all run it.  The projection of a non-empty
    set is non-empty, so when ``disjuncts`` are all satisfiable so is
    every projected disjunct, and the result is empty iff the input is.
    """
    from repro.obs.tracing import TRACER

    with TRACER.span("fm.eliminate", aggregate=True) as fm_span:
        fm_span.add("disjuncts", len(disjuncts))
        projected: list[Disjunct] = []
        for disjunct in disjuncts:
            image = _project_disjunct(disjunct, variable)
            if image is not None:
                projected.append(image)
        return projected


def _project_disjunct(
    disjunct: Disjunct, variable: str
) -> Disjunct | None:
    """FM-project one conjunction of atoms; ``None`` when it collapses to ⊥."""
    if variable not in {v for atom in disjunct for v in atom.variables}:
        # The variable does not occur: ∃x just drops.
        return disjunct
    variables = sorted({v for atom in disjunct for v in atom.variables})
    index = variables.index(variable)
    system = [atom.to_linear_constraint(variables) for atom in disjunct]
    projected = eliminate_variable(system, index)
    cleaned = simplify_system(projected)
    if cleaned is None:
        return None
    remaining = [v for v in variables if v != variable]
    return tuple(
        atom_from_constraint(
            type(row)(
                tuple(c for i, c in enumerate(row.coeffs) if i != index),
                row.rel,
                row.rhs,
            ),
            remaining,
        )
        for row in cleaned
    )


def is_satisfiable_qf(formula: Formula) -> bool:
    """Exact satisfiability of a quantifier-free formula over (ℝ, <, +).

    The pruned DNF conversion only keeps feasible disjuncts, so the
    formula is satisfiable iff any disjunct survives.
    """
    from repro.constraints.simplify import to_dnf_pruned

    return bool(to_dnf_pruned(formula))


def is_valid_qf(formula: Formula) -> bool:
    """Exact validity (truth at every point) of a quantifier-free formula."""
    return not is_satisfiable_qf(Not(formula))


def formulas_equivalent(left: Formula, right: Formula) -> bool:
    """Do two formulas define the same relation over (ℝ, <, +)?

    Both formulas may contain quantifiers; they are eliminated first.
    This implements the paper's 𝔄-equivalence of representations.
    """
    left_qf = eliminate_quantifiers(left)
    right_qf = eliminate_quantifiers(right)
    differs = Or(
        (
            And((left_qf, Not(right_qf))),
            And((right_qf, Not(left_qf))),
        )
    )
    return not is_satisfiable_qf(differs)
