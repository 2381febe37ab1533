"""Negation and disjunctive normal forms for quantifier-free formulas.

DNF is the paper's canonical representation shape: every database relation
is stored as ``⋁_i ⋀_j φ_ij`` with atomic ``φ_ij`` (Section 2).  The
conversion here is exact and negation-free in its output — negated atoms
are rewritten using the complemented comparison operators, with ``¬(t = 0)``
split into ``t < 0 ∨ t > 0``.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import FormulaError
from repro.constraints.atoms import Atom
from repro.constraints.formula import (
    And,
    AtomFormula,
    FalseFormula,
    Formula,
    Not,
    Or,
    TrueFormula,
    conjunction,
    disjunction,
    FALSE,
    TRUE,
)

Disjunct = tuple[Atom, ...]


def to_nnf(formula: Formula) -> Formula:
    """Negation normal form of a quantifier-free formula.

    The result contains no :class:`Not` nodes at all: negation is pushed
    to the atoms and absorbed into complemented operators.
    """
    return _nnf(formula, negate=False)


def _nnf(formula: Formula, negate: bool) -> Formula:
    if isinstance(formula, TrueFormula):
        return FALSE if negate else TRUE
    if isinstance(formula, FalseFormula):
        return TRUE if negate else FALSE
    if isinstance(formula, AtomFormula):
        if not negate:
            return formula
        return disjunction(
            AtomFormula(a) for a in formula.atom.negated_atoms()
        )
    if isinstance(formula, Not):
        return _nnf(formula.operand, not negate)
    if isinstance(formula, And):
        parts = tuple(_nnf(f, negate) for f in formula.operands)
        return disjunction(parts) if negate else conjunction(parts)
    if isinstance(formula, Or):
        parts = tuple(_nnf(f, negate) for f in formula.operands)
        return conjunction(parts) if negate else disjunction(parts)
    raise FormulaError(
        f"to_nnf expects a quantifier-free formula, got {type(formula).__name__}"
    )


def to_dnf(formula: Formula) -> list[Disjunct]:
    """Disjunctive normal form as a list of atom conjunctions.

    Each disjunct is a tuple of atoms (its conjunction); the formula is
    the disjunction of all disjuncts.  An empty list is ⊥; a list holding
    an empty tuple contains ⊤ as a disjunct.  Trivially-false disjuncts
    (e.g. containing ``0 > 1``) are dropped; trivially-true atoms are
    removed from their disjuncts; duplicate atoms are collapsed.
    """
    return _cleaned(_dnf(to_nnf(formula)))


def _cleaned(raw: Sequence[Disjunct]) -> list[Disjunct]:
    """Clean every disjunct, dropping trivially-false ones and repeats."""
    cleaned: list[Disjunct] = []
    seen: set[Disjunct] = set()
    for disjunct in raw:
        reduced = _clean_disjunct(disjunct)
        if reduced is not None and reduced not in seen:
            seen.add(reduced)
            cleaned.append(reduced)
    return cleaned


def _dnf(formula: Formula) -> list[Disjunct]:
    if isinstance(formula, TrueFormula):
        return [()]
    if isinstance(formula, FalseFormula):
        return []
    if isinstance(formula, AtomFormula):
        return [(formula.atom,)]
    if isinstance(formula, Or):
        result: list[Disjunct] = []
        for operand in formula.operands:
            result.extend(_dnf(operand))
        return result
    if isinstance(formula, And):
        result = [()]
        for operand in formula.operands:
            operand_dnf = _dnf(operand)
            result = [
                left + right for left in result for right in operand_dnf
            ]
            if not result:
                return []
        return result
    raise FormulaError(
        f"unexpected node in NNF: {type(formula).__name__}"
    )


def _clean_disjunct(disjunct: Disjunct) -> Disjunct | None:
    """Drop trivially-true atoms; None when a trivially-false atom occurs."""
    kept: list[Atom] = []
    seen: set[Atom] = set()
    for atom in disjunct:
        if atom.is_trivial():
            if not atom.trivial_truth():
                return None
            continue
        if atom not in seen:
            seen.add(atom)
            kept.append(atom)
    return tuple(kept)


def dnf_to_formula(disjuncts: Sequence[Disjunct]) -> Formula:
    """Rebuild a formula from DNF disjuncts."""
    return disjunction(
        conjunction(AtomFormula(a) for a in disjunct)
        for disjunct in disjuncts
    )


def formula_dnf(disjuncts: Sequence[Disjunct]) -> list[Disjunct]:
    """``to_dnf(dnf_to_formula(disjuncts))`` without building the formula.

    ``dnf_to_formula`` folds a ``()`` disjunct (⊤) into ``TRUE``; past
    that, ``to_dnf`` cleans each disjunct and drops repeats.
    """
    if () in disjuncts:
        return [()]
    return _cleaned(disjuncts)
