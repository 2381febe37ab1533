"""Answer-preserving plan rewrites driven by the cost model.

Every rewrite here commutes with the semantics — conjunction and
disjunction are commutative, adjacent same-sort quantifiers commute,
and the NNF + miniscoping passes of :mod:`repro.logic.transform` are
property-tested to preserve the answer relation exactly.  The ablated
path (``optimizer="off"``) therefore remains the oracle: the rewritten
plan may *represent* the answer differently, but it denotes the same
set, and the interpreted and compiled executors consume the identical
rewritten plan so their stage relations stay byte-identical.

Four levers, in evaluation-impact order:

* **scope minimisation** — ``transform.optimize`` (NNF + miniscoping)
  shrinks quantifier scopes before anything else looks at the plan;
* **region lift** (:mod:`repro.optimizer.lift`) — an element
  quantifier whose variables occur only in ``S(x̄)`` and ``x̄ ∈ R``
  atoms, with S a union of regions, becomes a region quantifier, decided
  region by region with no complement and no elimination;
* **conjunct/disjunct ordering** — operands sorted cheapest and most
  decisive first, so the evaluator's boolean short-circuit path stops
  as early as possible (the Grohe–Schwandtner selective-atom-first
  discipline, applied to region logic);
* **elimination ordering** — maximal chains of same-sort element
  quantifiers are rotated so the variable with the fewest atom
  occurrences is eliminated first (min-degree on the coefficient
  occurrence graph — the cheap end of min-fill), bounding the
  Fourier–Motzkin blowup of each projection step.

Each rewrite that changes the plan is recorded as a :class:`Decision`
(``chosen``/``because``), which ``repro explain`` and ``/v1/explain``
attach to the owning plan node.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.logic import ast
from repro.logic.transform import optimize as _scope_optimize
from repro.optimizer.cost import CostModel
from repro.optimizer.statistics import Statistics, StatisticsBook

if TYPE_CHECKING:
    from repro.optimizer.lift import RegionSort


@dataclass(frozen=True)
class Decision:
    """One recorded plan decision: what was chosen for which node."""

    node: object
    chosen: str
    because: str

    def describe(self) -> dict:
        return {
            "node": _node_label(self.node),
            "chosen": self.chosen,
            "because": self.because,
        }


def _node_label(node: object) -> str:
    text = str(node)
    return text if len(text) <= 72 else text[:69] + "..."


@dataclass
class RewriteOutcome:
    """The rewritten plan plus the decisions that produced it."""

    formula: ast.RegFormula
    decisions: list[Decision]
    model: CostModel

    @property
    def stats_hits(self) -> int:
        return self.model.stats_hits

    def decisions_for(self, node: object) -> list[Decision]:
        return [d for d in self.decisions if d.node is node]


def rewrite_query(
    formula: ast.RegFormula,
    statistics: Statistics | StatisticsBook | None = None,
    scope_minimize: bool = True,
    region_sort: "RegionSort | None" = None,
) -> RewriteOutcome:
    """Rewrite one query plan; pure, deterministic, answer-preserving.

    ``region_sort`` enables the region lift; without it (unit use, or
    a decomposition whose regions do not partition ℝᵈ) the element
    quantifiers stay on the element sort.
    """
    model = CostModel(statistics)
    decisions: list[Decision] = []
    if scope_minimize:
        minimized = _scope_optimize(formula)
        if minimized != formula:
            decisions.append(
                Decision(
                    minimized,
                    "nnf+miniscope",
                    "quantifier scopes minimised before cost ordering",
                )
            )
        formula = minimized
    lifts: list[tuple[str, str, str]] = []
    if region_sort is not None:
        from repro.optimizer.lift import lift_regions

        formula, lifts = lift_regions(formula, region_sort)
    rewritten = _Rewriter(model, decisions).rewrite(formula)
    if lifts:
        # Later lifts and operand ordering rebuild lifted nodes; each
        # lift's fresh region variable is bound exactly once, so its
        # binder in the final plan is the node the decision belongs to.
        binders = {
            node.variable: node
            for node in _walk(rewritten)
            if isinstance(node, (ast.ExistsRegion, ast.ForallRegion))
        }
        decisions.extend(
            Decision(binders[name], chosen, because)
            for name, chosen, because in lifts
        )
    # Calibration probe: predict every node of the final plan once so
    # warm runs register their persisted-measurement hits (the
    # ``optimizer.stats_hits`` acceptance signal) and EXPLAIN can show
    # measured-vs-prior costs.  Ordering itself never consults these —
    # see ``CostModel.order_key``.
    for node in _walk(rewritten):
        model.cost(node)
    return RewriteOutcome(rewritten, decisions, model)


def _walk(formula: ast.RegFormula):
    """Every formula node of a plan, root first."""
    yield formula
    for field in dataclasses.fields(formula):
        value = getattr(formula, field.name)
        if isinstance(value, ast.RegFormula):
            yield from _walk(value)
        elif isinstance(value, tuple):
            for part in value:
                if isinstance(part, ast.RegFormula):
                    yield from _walk(part)


class _Rewriter:
    def __init__(self, model: CostModel, decisions: list[Decision]) -> None:
        self.model = model
        self.decisions = decisions

    def rewrite(self, formula: ast.RegFormula) -> ast.RegFormula:
        if isinstance(formula, (ast.RAnd, ast.ROr)):
            return self._connective(formula)
        if isinstance(formula, ast.RNot):
            operand = self.rewrite(formula.operand)
            if operand is formula.operand:
                return formula
            return ast.RNot(operand)
        if isinstance(formula, (ast.ExistsElem, ast.ForallElem)):
            return self._element_chain(formula)
        if isinstance(formula, (ast.ExistsRegion, ast.ForallRegion)):
            body = self.rewrite(formula.body)
            if body is formula.body:
                return formula
            return type(formula)(formula.variable, body)
        if isinstance(
            formula, (ast.Fixpoint, ast.TC, ast.DTC, ast.RBit)
        ):
            body = self.rewrite(formula.body)
            if body is formula.body:
                return formula
            return dataclasses.replace(formula, body=body)
        return formula

    # ------------------------------------------------------------------
    # Conjunct / disjunct ordering
    # ------------------------------------------------------------------
    def _connective(self, formula: ast.RAnd | ast.ROr) -> ast.RegFormula:
        conjunctive = isinstance(formula, ast.RAnd)
        operands = tuple(self.rewrite(op) for op in formula.operands)
        indexed = list(enumerate(operands))
        ordered = sorted(
            indexed,
            key=lambda item: (
                *self.model.order_key(item[1], conjunctive),
                item[0],
            ),
        )
        new_operands = tuple(op for _, op in ordered)
        if new_operands == formula.operands:
            return formula
        rebuilt = type(formula)(new_operands)
        if new_operands != operands:
            permutation = [index for index, _ in ordered]
            self.decisions.append(
                Decision(
                    rebuilt,
                    f"operand order {permutation}",
                    "cheapest/most-selective operand first "
                    "(short-circuit sooner)",
                )
            )
        return rebuilt

    # ------------------------------------------------------------------
    # Element-quantifier chain rotation (FM elimination order)
    # ------------------------------------------------------------------
    def _element_chain(
        self, formula: ast.ExistsElem | ast.ForallElem
    ) -> ast.RegFormula:
        kind = type(formula)
        chain: list[str] = []
        body: ast.RegFormula = formula
        while isinstance(body, kind):
            chain.append(body.variable)
            body = body.body
        body = self.rewrite(body)
        if len(chain) > 1 and len(set(chain)) == len(chain):
            degrees = _occurrence_degrees(body, chain)
            # Projection runs innermost-out, so the lightest variable
            # (fewest atom occurrences) goes innermost and is
            # eliminated first.
            ordered = sorted(
                range(len(chain)),
                key=lambda i: (-degrees[chain[i]], i),
            )
            new_chain = [chain[i] for i in ordered]
        else:
            new_chain = chain
        if new_chain == chain and body is formula.body:
            return formula
        rebuilt = body
        for variable in reversed(new_chain):
            rebuilt = kind(variable, rebuilt)
        if new_chain != chain:
            self.decisions.append(
                Decision(
                    rebuilt,
                    "eliminate " + ", ".join(reversed(new_chain)),
                    "min-degree variable projected first to bound "
                    "Fourier-Motzkin blowup",
                )
            )
        return rebuilt


def _occurrence_degrees(
    body: ast.RegFormula, variables: list[str]
) -> dict[str, int]:
    """How many atoms of ``body`` mention each chain variable."""
    degrees = {variable: 0 for variable in variables}

    def visit(node: ast.RegFormula) -> None:
        if isinstance(
            node, (ast.LinearAtom, ast.RelationAtom, ast.InRegion)
        ):
            for variable in node.free_element_vars():
                if variable in degrees:
                    degrees[variable] += 1
            return
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if isinstance(value, ast.RegFormula):
                visit(value)
            elif isinstance(value, tuple):
                for part in value:
                    if isinstance(part, ast.RegFormula):
                        visit(part)

    visit(body)
    return degrees


# ---------------------------------------------------------------------------
# Datalog rule-body ordering
# ---------------------------------------------------------------------------
def order_rule_body(rule):
    """Reorder one datalog rule's body atoms, selective-atom-first.

    Greedy bound-variable propagation: start from the atom with the
    fewest variables, then repeatedly append the atom sharing the most
    already-bound variables (fewest fresh variables, original position
    as the stable tie-break).  A pure plan rewrite applied once to the
    whole :class:`~repro.datalog.engine.Program`, so the interpreted
    and compiled executors — which both consume the rewritten rules —
    keep byte-identical stage relations.
    """
    body = list(rule.body)
    if len(body) < 2:
        return rule
    remaining = list(enumerate(body))
    bound: set[str] = set()
    ordered: list[tuple[int, object]] = []
    while remaining:
        best = min(
            remaining,
            key=lambda item: (
                -len(set(item[1].variables) & bound),
                len(set(item[1].variables) - bound),
                item[0],
            ),
        )
        remaining.remove(best)
        ordered.append(best)
        bound |= set(best[1].variables)
    new_body = tuple(atom for _, atom in ordered)
    if new_body == rule.body:
        return rule
    return dataclasses.replace(rule, body=new_body)


def order_program(program):
    """Apply :func:`order_rule_body` to every rule of a program."""
    rules = tuple(order_rule_body(rule) for rule in program.rules)
    if rules == program.rules:
        return program
    return dataclasses.replace(program, rules=rules)
