"""Quantifier elimination for first-order logic over (ℝ, <, +).

The context structure of the paper admits elimination of quantifiers —
this is what makes FO+LIN a closed query language (Section 2).  The
procedure is the textbook one: work innermost-out; for an existential
quantifier put the (already quantifier-free) body in DNF and apply exact
Fourier–Motzkin elimination per disjunct; handle ∀ as ¬∃¬.

Elimination runs on the atoms' sparse terms (:func:`_project_disjunct`),
never on dense vector rows.  It is the vector-form
:func:`~repro.geometry.fourier_motzkin.eliminate_variable` followed by
``simplify_system``, step for step: the same rows, in the same order,
with the same exact values and the same ``fm.*`` counters, so every
projected formula is the one the vector form would render.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import FormulaError
from repro.constraints.atoms import Atom, Op
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
from repro.constraints.terms import LinearTerm
from repro.obs.metrics import get_registry
from repro.obs.tracing import TRACER

# The counters ``fourier_motzkin.eliminate_variable`` moves.
_FM_ELIMINATED = get_registry().counter("fm.eliminated_variables")
_FM_GENERATED = get_registry().counter("fm.generated_constraints")

#: ``≥``/``>`` rows are stored negated, as the vector form stores them.
_NEGATED = {Op.GE: Op.LE, Op.GT: Op.LT}


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
    """FM-project one conjunction of atoms; ``None`` when it collapses to ⊥.

    A row is ``(coefficients, op, constant, atom)``: the sparse term
    ``Σ coefficients + constant op 0`` with ``op`` one of ``<``, ``≤``,
    ``=`` (``≥``/``>`` atoms negated), and ``atom`` the input atom when
    the row is that atom unchanged, so it is not rebuilt.  An ``=``
    mentioning the variable is substituted first; otherwise every
    lower bound is combined with every upper bound.  The image's rows
    are deduplicated in order and constant rows decided, exactly as
    ``simplify_system`` does on the vector form.
    """
    rows = []
    for atom in disjunct:
        term = atom.term
        negated = _NEGATED.get(atom.op)
        if negated is None:
            rows.append((dict(term.coefficients), atom.op, term.constant, atom))
        else:
            rows.append((
                {v: -c for v, c in term.coefficients},
                negated,
                -term.constant,
                None,
            ))
    if not any(variable in row[0] for row in rows):
        # The variable does not occur: ∃x just drops.
        return disjunct
    pivot = next(
        (row for row in rows if row[1] is Op.EQ and variable in row[0]),
        None,
    )
    _FM_ELIMINATED.inc()
    if pivot is not None:
        image = [_substitute(row, pivot, variable) for row in rows
                 if row is not pivot]
        _FM_GENERATED.inc(len(image))
    else:
        image, lower, upper = [], [], []
        for row in rows:
            coeff = row[0].get(variable)
            if coeff is None:
                image.append(row)
            elif coeff > 0:
                upper.append((row, coeff))
            else:
                lower.append((row, coeff))
        combined = [
            _combine(low, high_coeff, high, -low_coeff)
            for low, low_coeff in lower
            for high, high_coeff in upper
        ]
        _FM_GENERATED.inc(len(combined))
        if TRACER.enabled:
            TRACER.current().add("fm.generated", len(combined))
        image += combined
    kept: dict[Atom, None] = {}
    for coefficients, op, constant, atom in image:
        if not coefficients:
            if not op.holds(constant):
                return None
            continue
        if atom is None:
            atom = Atom(
                LinearTerm(tuple(sorted(coefficients.items())), constant), op
            )
        kept[atom] = None
    return tuple(kept)


def _substitute(row, pivot, variable: str):
    """``row`` with the ``=`` row ``pivot`` solved for ``variable``."""
    coefficients, op, constant, __ = row
    coeff = coefficients.get(variable)
    if coeff is None:
        return row
    pivot_coefficients, __, pivot_constant, __ = pivot
    factor = -coeff / pivot_coefficients[variable]
    return (
        _sum(coefficients, _scaled(pivot_coefficients, factor)),
        op,
        constant + _times(factor, pivot_constant),
        None,
    )


def _combine(low, low_scale, high, high_scale):
    """The positive combination of a lower and an upper bound row that
    cancels the variable; strict iff either bound is."""
    op = Op.LT if low[1] is Op.LT or high[1] is Op.LT else Op.LE
    return (
        _sum(_scaled(low[0], low_scale), _scaled(high[0], high_scale)),
        op,
        _times(low_scale, low[2]) + _times(high_scale, high[2]),
        None,
    )


def _times(scale, value):
    """``scale * value``, skipping the exact product by one."""
    return value if scale == 1 else scale * value


def _scaled(coefficients, scale):
    """Every coefficient times ``scale``."""
    return {v: _times(scale, c) for v, c in coefficients.items()}


def _sum(left, right):
    """The non-zero coefficients of ``left + right``."""
    merged = dict(left)
    for name, value in right.items():
        merged[name] = merged[name] + value if name in merged else value
    return {v: c for v, c in merged.items() if c}


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
