"""A static cost model over region-logic plan nodes.

Static priors give every node type a relative cost (in units of roughly
one microsecond of evaluator work) and a selectivity, and plan ordering
uses nothing else: the operand order fixes the answer's syntactic form,
which must depend on the query alone.  Giusti–Heintz–Kuijpers frame
geometric query cost as dominated by elimination order and intermediate
representation size; the rewrites of :mod:`repro.optimizer.rewrite` act
on both directly.

Costs are exact :class:`~fractions.Fraction` values so plan ordering is
deterministic across processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

from fractions import Fraction

from repro.logic import ast

#: Static per-node priors, in abstract units (~1 µs of evaluator work).
#: Cheap cached bits first, then element-sort atoms that touch the
#: constraint layer, then the quantifier/operator multipliers below.
_ATOM_COST = {
    ast.RTrue: Fraction(0),
    ast.RFalse: Fraction(0),
    ast.SetAtom: Fraction(1),
    ast.RegionEq: Fraction(1),
    ast.Adj: Fraction(2),
    ast.SubsetAtom: Fraction(2),
    ast.InRegion: Fraction(6),
    ast.RelationAtom: Fraction(8),
    ast.LinearAtom: Fraction(8),
}

#: Static selectivity priors — the estimated chance a boolean atom is
#: true.  Lower = more selective = better placed early in a conjunction
#: (short-circuits sooner); used to break cost ties.
_ATOM_SELECTIVITY = {
    ast.RTrue: Fraction(1),
    ast.RFalse: Fraction(0),
    ast.SetAtom: Fraction(3, 10),
    ast.RegionEq: Fraction(1, 10),
    ast.Adj: Fraction(3, 10),
    ast.SubsetAtom: Fraction(1, 2),
    ast.InRegion: Fraction(1, 2),
    ast.RelationAtom: Fraction(1, 2),
    ast.LinearAtom: Fraction(1, 2),
}

#: Prior on the size of the region domain |Reg| (region quantifiers and
#: fixpoint stages iterate over it).
REGION_DOMAIN_PRIOR = Fraction(8)

#: Element quantifiers run Fourier–Motzkin projection over the body's
#: disjuncts — substantially more expensive than re-walking the body.
ELEMENT_QUANTIFIER_FACTOR = Fraction(4)

#: Fixpoint/closure operators re-evaluate their body once per stage per
#: region tuple; stages is bounded by |Reg|^arity.
FIXPOINT_FACTOR = Fraction(16)


class CostModel:
    """Predicted evaluation cost per plan node, from static priors."""

    def static_cost(self, formula: ast.RegFormula) -> Fraction:
        """The recursive static prior (deterministic per query)."""
        atom = _ATOM_COST.get(type(formula))
        if atom is not None:
            return atom
        if isinstance(formula, (ast.RAnd, ast.ROr)):
            return Fraction(1) + sum(
                (self.static_cost(op) for op in formula.operands),
                Fraction(0),
            )
        if isinstance(formula, ast.RNot):
            return Fraction(1) + self.static_cost(formula.operand)
        if isinstance(formula, (ast.ExistsElem, ast.ForallElem)):
            return ELEMENT_QUANTIFIER_FACTOR * (
                Fraction(1) + self.static_cost(formula.body)
            )
        if isinstance(formula, (ast.ExistsRegion, ast.ForallRegion)):
            return REGION_DOMAIN_PRIOR * (
                Fraction(1) + self.static_cost(formula.body)
            )
        if isinstance(formula, (ast.Fixpoint, ast.TC, ast.DTC)):
            arity = len(getattr(formula, "bound_vars", ())) or 2
            return FIXPOINT_FACTOR * REGION_DOMAIN_PRIOR ** min(arity, 2) * (
                Fraction(1) + self.static_cost(formula.body)
            )
        if isinstance(formula, ast.RBit):
            return REGION_DOMAIN_PRIOR * (
                Fraction(1) + self.static_cost(formula.body)
            )
        return Fraction(1)

    def selectivity(self, formula: ast.RegFormula) -> Fraction:
        """Estimated chance the node holds (tie-break for conjuncts)."""
        prior = _ATOM_SELECTIVITY.get(type(formula))
        if prior is not None:
            return prior
        if isinstance(formula, ast.RNot):
            return Fraction(1) - self.selectivity(formula.operand)
        if isinstance(formula, ast.RAnd):
            value = Fraction(1)
            for operand in formula.operands:
                value *= self.selectivity(operand)
            return value
        if isinstance(formula, ast.ROr):
            value = Fraction(1)
            for operand in formula.operands:
                value *= Fraction(1) - self.selectivity(operand)
            return Fraction(1) - value
        return Fraction(1, 2)

    def order_key(self, formula: ast.RegFormula, conjunctive: bool):
        """Sort key placing cheap, decisive operands first.

        In a conjunction the most selective (likely-false) operand
        short-circuits the whole node; in a disjunction the least
        selective (likely-true) one does.  Cost dominates, selectivity
        breaks ties.  The operand order decides the answer's
        *syntactic* form, which must be identical for every engine
        evaluating the same query.
        """
        selectivity = self.selectivity(formula)
        if not conjunctive:
            selectivity = Fraction(1) - selectivity
        return (self.static_cost(formula), selectivity)
