"""Query evaluation on region extensions.

The evaluator follows the proofs of Theorems 4.3 and 6.1: structural
induction on the query, producing for every subformula (under an
assignment of its free region and set variables) a *quantifier-free*
constraint relation over its free element variables.  Concretely:

* linear atoms and ``S(t̄)`` / ``t̄ ∈ R`` atoms substitute terms into
  quantifier-free defining formulas;
* element quantifiers are existential projection (Fourier–Motzkin) and
  its dual;
* region quantifiers enumerate the finite region sort, taking the
  disjunction / conjunction of the instantiated bodies — exactly the
  PTIME procedure in the proof of Theorem 4.3;
* fixed-point operators iterate over P(Reg^k)
  (:mod:`repro.logic.fixpoint`), transitive closures run BFS over Reg^m
  (:mod:`repro.logic.transitive_closure`), and rBIT extracts bits of the
  unique rational its body defines (:mod:`repro.logic.rbit`).

Results are memoised per (subformula, relevant environment), which is
what makes fixed-point evaluation tractable: the body of an induction is
re-evaluated only for environments not seen before.

Since every step stays quantifier-free over (ℝ, <, +), evaluation
witnesses the closure of the languages: the answer to any query is again
a linear constraint relation.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import EvaluationError, UnboundVariableError
from repro.constraints.formula import FALSE, TRUE
from repro.constraints.relation import ConstraintRelation
from repro.obs.journal import JOURNAL
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import TRACER
from repro.twosorted.structure import RegionExtension
from repro.logic import ast
from repro.logic.fixpoint import (
    FixpointRun,
    all_region_tuples,
    inflationary_fixpoint,
    least_fixpoint,
    partial_fixpoint,
)
from repro.logic.rbit import RBitDenotation, unique_rational
from repro.logic.transitive_closure import (
    deterministic_transitive_closure,
    transitive_closure,
)

RegionEnv = dict[str, int]
SetEnv = dict[str, frozenset[tuple[int, ...]]]


def _plain_variables(args) -> tuple[str, ...] | None:
    """The names of ``args`` when they are distinct plain variables."""
    names = []
    for term in args:
        if term.constant or len(term.coefficients) != 1:
            return None
        ((name, coeff),) = term.coefficients
        if coeff != 1:
            return None
        names.append(name)
    return tuple(names) if len(set(names)) == len(names) else None


def _true_relation() -> ConstraintRelation:
    return ConstraintRelation.make((), TRUE)


def _false_relation() -> ConstraintRelation:
    return ConstraintRelation.make((), FALSE)


def _bool_relation(value: bool) -> ConstraintRelation:
    return _true_relation() if value else _false_relation()


class _StructuralKey:
    """A memo key wrapping a formula with a precomputed structural hash.

    Earlier revisions keyed the evaluator memos on ``id(formula)``,
    which collides when a formula object is garbage-collected and a new
    one is allocated at the same address — silently returning the stale
    entry.  Keying on the formula itself (structural ``==`` / ``hash``
    of the frozen AST dataclasses) is immune to id reuse, and this
    wrapper caches the — otherwise O(subtree) — hash so memo lookups
    stay cheap.
    """

    __slots__ = ("formula", "_hash")

    def __init__(self, formula: ast.RegFormula) -> None:
        self.formula = formula
        self._hash = hash(formula)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, _StructuralKey):
            return NotImplemented
        return self._hash == other._hash and self.formula == other.formula


def _structural_key(formula: ast.RegFormula) -> _StructuralKey:
    """The cached structural memo key of a formula node."""
    key = formula.__dict__.get("_structural_memo_key")
    if key is None:
        key = _StructuralKey(formula)
        object.__setattr__(formula, "_structural_memo_key", key)
    return key


class Evaluator:
    """Evaluates region-logic queries over one region extension."""

    #: Bound on memoised subformula results; the oldest-inserted entry
    #: is evicted first.  Not scoped per query: constant-free
    #: subformulas hit across the queries of a long-lived engine.
    _MEMO_CAPACITY = 4096

    def __init__(
        self,
        extension: RegionExtension,
        metrics: MetricsRegistry | None = None,
        executor: str | None = None,
    ) -> None:
        from repro.config import resolve_executor

        self.extension = extension
        #: How fixpoint stage bodies are evaluated: ``"compiled"`` runs
        #: each candidate through a compiled boolean skeleton
        #: (:mod:`repro.ir.ground`) when the body fits the fragment,
        #: ``"interpreted"`` always uses :meth:`truth`.  Both produce
        #: identical stage sets; ``None`` defers to ``REPRO_EXECUTOR``.
        self.executor = resolve_executor(executor)
        self._memo: dict[tuple, ConstraintRelation] = {}
        self._tc_memo: dict[_StructuralKey, set] = {}
        self._fixpoint_memo: dict[tuple, FixpointRun] = {}
        self._zero_dim_ranks: dict[int, int] | None = None
        #: Optional per-node cost collector (EXPLAIN ANALYZE).  When set
        #: (see :class:`repro.explain.NodeProfiler`) every non-memoised
        #: dispatch is bracketed by ``enter``/``exit`` and memo hits are
        #: reported, attributing wall time and counter deltas to the
        #: exact subformula being evaluated.
        self.profiler = None
        # Per-evaluator metrics that roll up into the process registry.
        self.metrics = (
            metrics
            if metrics is not None
            else MetricsRegistry(parent=get_registry(), prefix="evaluator.")
        )
        self._c_evaluations = self.metrics.counter("evaluations")
        self._c_memo_hits = self.metrics.counter("memo_hits")
        self._c_fixpoint_stages = self.metrics.counter("fixpoint_stages")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(
        self,
        formula: ast.RegFormula,
        region_env: RegionEnv | None = None,
        set_env: SetEnv | None = None,
    ) -> ConstraintRelation:
        """The relation over the formula's free element variables."""
        region_env = region_env or {}
        set_env = set_env or {}
        missing = formula.free_region_vars() - set(region_env)
        if missing:
            raise UnboundVariableError(
                f"unbound region variables {sorted(missing)}"
            )
        missing_sets = formula.free_set_vars() - set(set_env)
        if missing_sets:
            raise UnboundVariableError(
                f"unbound set variables {sorted(missing_sets)}"
            )
        return self._eval(formula, region_env, set_env)

    def truth(
        self,
        formula: ast.RegFormula,
        region_env: RegionEnv | None = None,
        set_env: SetEnv | None = None,
    ) -> bool:
        """Truth value of a formula with no free element variables."""
        if formula.free_element_vars():
            raise EvaluationError(
                "truth() requires a formula without free element variables"
            )
        relation = self.evaluate(formula, region_env, set_env)
        return not relation.is_empty()

    # ------------------------------------------------------------------
    # Core dispatch
    # ------------------------------------------------------------------
    def _eval(
        self,
        formula: ast.RegFormula,
        region_env: RegionEnv,
        set_env: SetEnv,
    ) -> ConstraintRelation:
        key = self._memo_key(formula, region_env, set_env)
        cached = self._memo.get(key)
        if cached is not None:
            self._c_memo_hits.inc()
            if self.profiler is not None:
                self.profiler.memo_hit(formula)
            return cached
        self._c_evaluations.inc()
        if self.profiler is not None:
            self.profiler.enter(formula)
            try:
                result = self._dispatch_traced(formula, region_env, set_env)
            finally:
                self.profiler.exit(formula)
        else:
            result = self._dispatch_traced(formula, region_env, set_env)
        self._memo[key] = result
        if len(self._memo) > self._MEMO_CAPACITY:
            del self._memo[next(iter(self._memo))]
        return result

    def _dispatch_traced(
        self,
        formula: ast.RegFormula,
        region_env: RegionEnv,
        set_env: SetEnv,
    ) -> ConstraintRelation:
        if TRACER.enabled:
            with TRACER.span(
                "eval." + type(formula).__name__, aggregate=True
            ):
                return self._dispatch(formula, region_env, set_env)
        return self._dispatch(formula, region_env, set_env)

    def _memo_key(
        self,
        formula: ast.RegFormula,
        region_env: RegionEnv,
        set_env: SetEnv,
    ) -> tuple:
        regions = tuple(
            sorted(
                (name, region_env[name])
                for name in formula.free_region_vars()
            )
        )
        sets = tuple(
            sorted(
                (name, set_env[name]) for name in formula.free_set_vars()
            )
        )
        return (_structural_key(formula), regions, sets)

    def _dispatch(
        self,
        formula: ast.RegFormula,
        region_env: RegionEnv,
        set_env: SetEnv,
    ) -> ConstraintRelation:
        if isinstance(formula, ast.RTrue):
            return _true_relation()
        if isinstance(formula, ast.RFalse):
            return _false_relation()
        if isinstance(formula, ast.LinearAtom):
            variables = tuple(sorted(formula.atom.variables))
            from repro.constraints.formula import AtomFormula

            return ConstraintRelation.make(
                variables, AtomFormula(formula.atom)
            )
        if isinstance(formula, ast.RelationAtom):
            return self._relation_atom(formula)
        if isinstance(formula, ast.InRegion):
            return self._in_region(formula, region_env)
        if isinstance(formula, ast.Adj):
            return _bool_relation(
                self.extension.adjacent(
                    region_env[formula.left], region_env[formula.right]
                )
            )
        if isinstance(formula, ast.RegionEq):
            return _bool_relation(
                region_env[formula.left] == region_env[formula.right]
            )
        if isinstance(formula, ast.SubsetAtom):
            return self._subset_atom(formula, region_env)
        if isinstance(formula, ast.SetAtom):
            tup = tuple(region_env[name] for name in formula.args)
            return _bool_relation(tup in set_env[formula.set_var])
        if isinstance(formula, ast.RNot):
            inner = self._eval(formula.operand, region_env, set_env)
            return inner.complement()
        if isinstance(formula, ast.RAnd):
            return self._connective(
                formula.operands, region_env, set_env, conjunctive=True
            )
        if isinstance(formula, ast.ROr):
            return self._connective(
                formula.operands, region_env, set_env, conjunctive=False
            )
        if isinstance(formula, ast.ExistsElem):
            return self._exists_elem(formula, region_env, set_env)
        if isinstance(formula, ast.ForallElem):
            return self._forall_elem(formula, region_env, set_env)
        if isinstance(formula, ast.ExistsRegion):
            return self._region_quantifier(
                formula.variable, formula.body, region_env, set_env,
                existential=True,
            )
        if isinstance(formula, ast.ForallRegion):
            return self._region_quantifier(
                formula.variable, formula.body, region_env, set_env,
                existential=False,
            )
        if isinstance(formula, ast.Fixpoint):
            return self._fixpoint(formula, region_env, set_env)
        if isinstance(formula, (ast.TC, ast.DTC)):
            return self._transitive_closure(formula, region_env, set_env)
        if isinstance(formula, ast.RBit):
            return self._rbit(formula, region_env, set_env)
        raise EvaluationError(
            f"unknown formula node {type(formula).__name__}"
        )

    # ------------------------------------------------------------------
    # Atoms
    # ------------------------------------------------------------------
    def _relation_atom(
        self, formula: ast.RelationAtom
    ) -> ConstraintRelation:
        relation = self.extension.database.relation(formula.name)
        if len(formula.args) != relation.arity:
            raise EvaluationError(
                f"{formula.name} expects {relation.arity} arguments, "
                f"got {len(formula.args)}"
            )
        names = _plain_variables(formula.args)
        if names is not None and relation.formula.free_variables() == set(
            relation.variables
        ):
            # S(ȳ) on distinct variables is a renaming: it keeps the
            # relation's cached DNFs, and is the substitution's formula.
            return relation.rename_to(names).widen(sorted(names))
        mapping = dict(zip(relation.variables, formula.args))
        instantiated = relation.substitute(mapping)
        variables = tuple(sorted(instantiated.free_variables()))
        return ConstraintRelation.make(variables, instantiated)

    def _in_region(
        self, formula: ast.InRegion, region_env: RegionEnv
    ) -> ConstraintRelation:
        region = self.extension.decomposition.region(
            region_env[formula.region]
        )
        arity = self.extension.decomposition.ambient_dimension
        if len(formula.args) != arity:
            raise EvaluationError(
                f"∈ expects {arity} coordinates, got {len(formula.args)}"
            )
        schema = tuple(f"__r{i}" for i in range(arity))
        defining = region.defining_formula(schema)
        instantiated = defining.substitute(
            dict(zip(schema, formula.args))
        )
        variables = tuple(sorted(instantiated.free_variables()))
        return ConstraintRelation.make(variables, instantiated)

    def _subset_atom(
        self, formula: ast.SubsetAtom, region_env: RegionEnv
    ) -> ConstraintRelation:
        if formula.relation_name == self.extension.spatial_name:
            return _bool_relation(
                self.extension.region_subset_of_spatial(
                    region_env[formula.region]
                )
            )
        target = self.extension.database.relation(formula.relation_name)
        region = self.extension.decomposition.region(
            region_env[formula.region]
        )
        region_rel = region.as_relation(target.variables)
        return _bool_relation(region_rel.difference(target).is_empty())

    # ------------------------------------------------------------------
    # Connectives and quantifiers
    # ------------------------------------------------------------------
    def _connective(
        self,
        operands: tuple[ast.RegFormula, ...],
        region_env: RegionEnv,
        set_env: SetEnv,
        conjunctive: bool,
    ) -> ConstraintRelation:
        from repro.constraints.relation import (
            intersect_relations,
            union_relations,
        )

        # Boolean short-circuit: when no operand has free element
        # variables the connective is a plain truth-function, and lazy
        # evaluation avoids touching expensive operands (inner fixpoint
        # scans hit this path constantly).
        if all(not op.free_element_vars() for op in operands):
            for op in operands:
                value = not self._eval(op, region_env, set_env).is_empty()
                if conjunctive and not value:
                    return _false_relation()
                if not conjunctive and value:
                    return _true_relation()
            return _bool_relation(conjunctive)

        children = [
            self._eval(op, region_env, set_env) for op in operands
        ]
        if not children:
            return _bool_relation(conjunctive)
        schema = tuple(
            sorted(set().union(*(set(c.variables) for c in children)))
        )
        extended = [self._extend(child, schema) for child in children]
        if conjunctive:
            return intersect_relations(extended)
        return union_relations(extended)

    @staticmethod
    def _extend(
        relation: ConstraintRelation, schema: tuple[str, ...]
    ) -> ConstraintRelation:
        """Cylindrify a relation to a larger schema (formula unchanged)."""
        return relation.widen(schema)

    def _exists_elem(
        self,
        formula: ast.ExistsElem,
        region_env: RegionEnv,
        set_env: SetEnv,
    ) -> ConstraintRelation:
        body = self._eval(formula.body, region_env, set_env)
        if formula.variable not in body.variables:
            return body
        return body.project_out(formula.variable)

    def _forall_elem(
        self,
        formula: ast.ForallElem,
        region_env: RegionEnv,
        set_env: SetEnv,
    ) -> ConstraintRelation:
        # Collapse a maximal ∀-chain: ∀x̄ φ = ¬∃x̄ ¬φ needs only two
        # complements regardless of how many variables are bound.
        variables = [formula.variable]
        body_formula: ast.RegFormula = formula.body
        while isinstance(body_formula, ast.ForallElem):
            variables.append(body_formula.variable)
            body_formula = body_formula.body
        body = self._eval(body_formula, region_env, set_env)
        negated = body.complement()
        for variable in variables:
            if variable in negated.variables:
                negated = negated.project_out(variable)
        return negated.complement()

    def _region_quantifier(
        self,
        variable: str,
        body: ast.RegFormula,
        region_env: RegionEnv,
        set_env: SetEnv,
        existential: bool,
    ) -> ConstraintRelation:
        pieces: list[ConstraintRelation] = []
        boolean = not body.free_element_vars()
        for index in range(self.extension.region_count()):
            inner_env = dict(region_env)
            inner_env[variable] = index
            piece = self._eval(body, inner_env, set_env)
            if boolean:
                # Short-circuit on the boolean fast path.
                holds = not piece.is_empty()
                if existential and holds:
                    return _true_relation()
                if not existential and not holds:
                    return _false_relation()
            else:
                pieces.append(piece)
        if boolean:
            return _bool_relation(not existential)
        from repro.constraints.relation import (
            intersect_relations,
            union_relations,
        )

        if not pieces:
            # No regions at all: ∃ is false, ∀ is true.
            return _bool_relation(not existential)
        schema = tuple(
            sorted(set().union(*(set(p.variables) for p in pieces)))
        )
        extended = [self._extend(p, schema) for p in pieces]
        if existential:
            return union_relations(extended)
        return intersect_relations(extended)

    # ------------------------------------------------------------------
    # Recursion operators
    # ------------------------------------------------------------------
    def _fixpoint(
        self,
        formula: ast.Fixpoint,
        region_env: RegionEnv,
        set_env: SetEnv,
    ) -> ConstraintRelation:
        run = self.fixpoint_run(formula, set_env)
        tup = tuple(region_env[name] for name in formula.args)
        return _bool_relation(tup in run.result)

    def fixpoint_run(
        self, formula: ast.Fixpoint, set_env: SetEnv | None = None
    ) -> FixpointRun:
        """The full induction behind a fixpoint formula (with telemetry).

        Cached per (formula, outer set environment): re-evaluating the
        operator at different argument tuples reuses one induction.
        """
        set_env = set_env or {}
        outer = tuple(
            sorted(
                (name, set_env[name])
                for name in formula.free_set_vars()
            )
        )
        memo_key = (_structural_key(formula), outer)
        cached = self._fixpoint_memo.get(memo_key)
        if cached is not None:
            return cached
        arity = len(formula.bound_vars)
        count = self.extension.region_count()
        universe = list(all_region_tuples(count, arity))

        # For LFP the body is positive, so the stages increase from ∅ and
        # every tuple of the current stage stays in the next — only the
        # complement needs re-evaluation.  IFP/PFP evaluate everything.
        keep_current = formula.kind is ast.FixKind.LFP

        # The compiled per-candidate test computes exactly the set the
        # interpreted loop below would, so the journal wrapper, the
        # fixpoint drivers and the stage counter — everything observable
        # — stay literally shared.
        compiled_test = None
        if self.executor == "compiled":
            from repro.ir.ground import compile_fixpoint_step

            compiled_test = compile_fixpoint_step(formula, self, set_env)

        def raw_step(current: frozenset) -> frozenset:
            inner_sets = dict(set_env)
            inner_sets[formula.set_var] = current
            members = list(current) if keep_current else []
            for candidate in universe:
                if keep_current and candidate in current:
                    continue
                env = dict(zip(formula.bound_vars, candidate))
                if compiled_test is not None:
                    verdict = compiled_test(env, current)
                else:
                    verdict = self.truth(formula.body, env, inner_sets)
                if verdict:
                    members.append(candidate)
            return frozenset(members)

        step = raw_step
        if JOURNAL.enabled:
            operator = f"{formula.kind.value} {formula.set_var}"
            stage_box = [0]

            def step(current: frozenset) -> frozenset:
                result = raw_step(current)
                stage_box[0] += 1
                JOURNAL.emit(
                    "fixpoint.stage",
                    operator=operator,
                    stage=stage_box[0],
                    size=len(result),
                    delta=len(result - current),
                )
                return result

        bound = len(universe) + 1
        with TRACER.span("eval.fixpoint", aggregate=True) as fp_span:
            if formula.kind is ast.FixKind.LFP:
                run = least_fixpoint(step, bound)
            elif formula.kind is ast.FixKind.IFP:
                run = inflationary_fixpoint(step, bound)
            else:
                run = partial_fixpoint(step)
            fp_span.add("stages", run.stages)
        self._c_fixpoint_stages.inc(run.stages)
        self._fixpoint_memo[memo_key] = run
        return run

    def _transitive_closure(
        self,
        formula: "ast.TC | ast.DTC",
        region_env: RegionEnv,
        set_env: SetEnv,
    ) -> ConstraintRelation:
        memo_key = _structural_key(formula)
        closure = self._tc_memo.get(memo_key)
        if closure is None:
            with TRACER.span("eval.transitive_closure", aggregate=True):
                closure = self._compute_closure(formula, set_env)
            self._tc_memo[memo_key] = closure
        left = tuple(region_env[name] for name in formula.left_args)
        right = tuple(region_env[name] for name in formula.right_args)
        return _bool_relation((left, right) in closure)

    def _compute_closure(
        self, formula: "ast.TC | ast.DTC", set_env: SetEnv
    ) -> set:
        arity = len(formula.left_vars)
        count = self.extension.region_count()
        nodes = list(all_region_tuples(count, arity))
        edges = set()
        for source in nodes:
            for target in nodes:
                env = dict(zip(formula.left_vars, source))
                env.update(zip(formula.right_vars, target))
                if self.truth(formula.body, env, set_env):
                    edges.add((source, target))
        if isinstance(formula, ast.DTC):
            return deterministic_transitive_closure(nodes, edges)
        return transitive_closure(nodes, edges)

    def _rbit(
        self,
        formula: ast.RBit,
        region_env: RegionEnv,
        set_env: SetEnv,
    ) -> ConstraintRelation:
        body_env = {
            name: region_env[name]
            for name in formula.body.free_region_vars()
        }
        relation = self._eval(formula.body, body_env, set_env)
        # Normalise the schema to exactly the element variable.
        relation = self._extend(relation, (formula.element_var,))
        denotation = RBitDenotation(unique_rational(relation))
        numerator_idx = region_env[formula.numerator]
        denominator_idx = region_env[formula.denominator]
        ranks = self._zero_dimensional_ranks()
        num_region = self.extension.decomposition.region(numerator_idx)
        den_region = self.extension.decomposition.region(denominator_idx)
        return _bool_relation(
            denotation.holds(
                num_region.dimension,
                ranks.get(numerator_idx),
                den_region.dimension,
                ranks.get(denominator_idx),
                numerator_idx == denominator_idx,
            )
        )

    def _zero_dimensional_ranks(self) -> Mapping[int, int]:
        """1-based rank of each 0-dimensional region in the lex order."""
        if self._zero_dim_ranks is None:
            ordered = self.extension.zero_dimensional_regions()
            self._zero_dim_ranks = {
                region.index: rank + 1
                for rank, region in enumerate(ordered)
            }
        return self._zero_dim_ranks
