"""Bottom-up evaluation of positive spatial datalog.

A program is a set of rules

    head(v̄) :- lit_1, ..., lit_k.

where every literal is either a *relation atom* ``p(v1, .., vm)`` (p an
EDB relation of the database or an IDB predicate of the program, the
arguments rule variables) or a *constraint* — an arbitrary
quantifier-free formula over the rule's variables (this is what makes
the datalog "spatial": arithmetic talks about real-valued variables
directly).

Evaluation is the standard immediate-consequence iteration, computed
with the relation algebra: the body literals are cylindrified to the
rule's variable schema and intersected; the result is projected onto
the head variables; the head predicate accumulates the union.  Because
IDB relations are constraint relations (possibly infinite sets), a
fixed point need not exist — the engine checks convergence by exact
equivalence and stops at a stage cap, reporting divergence, exactly the
behaviour the paper's discussion of [5] describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import EvaluationError
from repro.constraints.database import ConstraintDatabase
from repro.constraints.formula import Formula
from repro.constraints.relation import (
    ConstraintRelation,
    intersect_relations,
    union_relations,
)
from repro.obs.metrics import get_registry
from repro.obs.tracing import TRACER

#: Immediate-consequence telemetry (Grohe–Schwandtner-style stage counts).
_DATALOG_RUNS = get_registry().counter("datalog.runs")
_DATALOG_STAGES = get_registry().counter("datalog.stages")


@dataclass(frozen=True)
class Atom:
    """A relation literal ``predicate(v1, .., vm)`` in a rule body/head."""

    predicate: str
    variables: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(self.variables)})"


@dataclass(frozen=True)
class Rule:
    """``head :- body_atoms, !negated_atoms, constraint``.

    ``constraint`` is an optional quantifier-free formula over the
    rule's variables (TRUE when omitted).  ``negated`` atoms are
    interpreted under stratified negation: their predicates must be
    fully computed in a strictly lower stratum.
    """

    head: Atom
    body: tuple[Atom, ...]
    constraint: Formula | None = None
    negated: tuple[Atom, ...] = ()

    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for variable in self.head.variables:
            seen[variable] = None
        for atom in self.body + self.negated:
            for variable in atom.variables:
                seen[variable] = None
        if self.constraint is not None:
            for variable in sorted(self.constraint.free_variables()):
                seen[variable] = None
        return tuple(seen)

    def __str__(self) -> str:
        parts = [str(atom) for atom in self.body]
        parts.extend(f"!{atom}" for atom in self.negated)
        if self.constraint is not None:
            parts.append(str(self.constraint))
        return f"{self.head} :- {', '.join(parts)}."


@dataclass(frozen=True)
class Program:
    """A positive spatial datalog program."""

    rules: tuple[Rule, ...]

    def idb_predicates(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for rule in self.rules:
            seen[rule.head.predicate] = None
        return tuple(seen)

    def arity_of(self, predicate: str) -> int:
        for rule in self.rules:
            if rule.head.predicate == predicate:
                return len(rule.head.variables)
        raise EvaluationError(f"no rule defines {predicate!r}")

    def validate(self, database: ConstraintDatabase) -> None:
        """Check arity consistency of every literal."""
        idb = set(self.idb_predicates())
        arities: dict[str, int] = {}
        for rule in self.rules:
            arities.setdefault(
                rule.head.predicate, len(rule.head.variables)
            )
            if arities[rule.head.predicate] != len(rule.head.variables):
                raise EvaluationError(
                    f"inconsistent arity for {rule.head.predicate!r}"
                )
        for rule in self.rules:
            for atom in rule.body + rule.negated:
                if atom.predicate in idb:
                    if len(atom.variables) != arities[atom.predicate]:
                        raise EvaluationError(
                            f"arity mismatch in {atom}"
                        )
                elif atom.predicate in database:
                    expected = database.relation(atom.predicate).arity
                    if len(atom.variables) != expected:
                        raise EvaluationError(
                            f"arity mismatch in {atom} "
                            f"(EDB arity {expected})"
                        )
                else:
                    raise EvaluationError(
                        f"unknown predicate {atom.predicate!r}"
                    )

    def strata(self) -> list[tuple[str, ...]]:
        """Predicate strata for stratified negation.

        Positive dependencies may stay inside a stratum; a negated
        dependency forces the negated predicate into a strictly lower
        stratum.  Raises :class:`EvaluationError` when negation sits on
        a dependency cycle (the program is not stratifiable).
        """
        idb = set(self.idb_predicates())
        level: dict[str, int] = {p: 0 for p in idb}
        # Levels only legitimately reach |IDB|; each sweep raises at
        # least one level, so |IDB|² + 1 sweeps suffice to stabilise or
        # expose a negative cycle.
        for __ in range(len(idb) ** 2 + 2):
            changed = False
            for rule in self.rules:
                head = rule.head.predicate
                for atom in rule.body:
                    if atom.predicate in idb:
                        required = level[atom.predicate]
                        if level[head] < required:
                            level[head] = required
                            changed = True
                for atom in rule.negated:
                    if atom.predicate in idb:
                        required = level[atom.predicate] + 1
                        if level[head] < required:
                            level[head] = required
                            changed = True
            if not changed:
                break
        else:
            raise EvaluationError(
                "program is not stratifiable (negation on a cycle)"
            )
        if any(value > len(idb) for value in level.values()):
            raise EvaluationError(
                "program is not stratifiable (negation on a cycle)"
            )
        buckets: dict[int, list[str]] = {}
        for predicate in self.idb_predicates():
            buckets.setdefault(level[predicate], []).append(predicate)
        return [
            tuple(buckets[index]) for index in sorted(buckets)
        ]

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)


@dataclass
class EvaluationOutcome:
    """Result of running a program: IDB relations plus telemetry."""

    relations: dict[str, ConstraintRelation]
    stages: int
    converged: bool
    stage_sizes: list[int] = field(default_factory=list)

    def __getitem__(self, predicate: str) -> ConstraintRelation:
        return self.relations[predicate]


def _rule_once(
    rule: Rule,
    database: ConstraintDatabase,
    idb: Mapping[str, ConstraintRelation],
    body_sources: Sequence[ConstraintRelation | None] | None = None,
) -> ConstraintRelation:
    """One application of a rule: the derived head relation.

    ``body_sources`` optionally overrides the relation joined for each
    body atom (by position); the semi-naive evaluator passes the
    last-stage delta for one occurrence at a time.
    """
    schema = rule.variables()
    pieces: list[ConstraintRelation] = []
    for position, atom in enumerate(rule.body):
        override = (
            body_sources[position] if body_sources is not None else None
        )
        if override is not None:
            source = override
        elif atom.predicate in idb:
            source = idb[atom.predicate]
        else:
            source = database.relation(atom.predicate)
        if len(set(atom.variables)) != len(atom.variables):
            # Repeated variables: rename to fresh then add equalities via
            # the constraint path — keep it simple by rejecting for now.
            raise EvaluationError(
                f"repeated variables in {atom}; use an explicit "
                "equality constraint instead"
            )
        pieces.append(source.rename_to(atom.variables).widen(schema))
    for atom in rule.negated:
        if atom.predicate in idb:
            source = idb[atom.predicate]
        else:
            source = database.relation(atom.predicate)
        if len(set(atom.variables)) != len(atom.variables):
            raise EvaluationError(
                f"repeated variables in {atom}; use an explicit "
                "equality constraint instead"
            )
        renamed = source.rename_to(atom.variables).complement()
        pieces.append(renamed.widen(schema))
    if rule.constraint is not None:
        pieces.append(ConstraintRelation.make(schema, rule.constraint))
    if not pieces:
        raise EvaluationError(f"rule {rule} has an empty body")
    joined = intersect_relations(pieces)
    result = joined
    for variable in schema:
        if variable not in rule.head.variables:
            result = result.project_out(variable)
    return result.rename_to(rule.head.variables)


def evaluate_program(
    program: Program,
    database: ConstraintDatabase,
    max_stages: int = 25,
    strategy: str = "seminaive",
    executor: str | None = None,
    optimizer: str | None = None,
) -> EvaluationOutcome:
    """Stratified immediate-consequence iteration, exact convergence.

    Negation is stratified: predicates are grouped into strata
    (:meth:`Program.strata`) and each stratum is run to its fixed point
    before the next starts, so a negated atom always refers to a
    completed relation.  Within a stratum the iteration returns the
    fixed point when reached; otherwise evaluation stops at the stage
    cap with ``converged=False`` — the observable form of spatial
    datalog's non-termination.

    ``strategy`` selects the iteration scheme: ``"seminaive"`` (the
    default — delta-relation immediate consequence, see
    :mod:`repro.datalog.seminaive`) or ``"naive"`` (re-derive the whole
    IDB every stage; kept as the reference implementation).  Both
    compute the same relations.

    ``executor`` picks how the semi-naive strategy is run: ``"compiled"``
    (rules compiled once to relational-algebra IR, evaluated through
    memoised kernels — see :mod:`repro.datalog.compile`) or
    ``"interpreted"`` (the rule-at-a-time oracle).  ``None`` takes
    ``EngineConfig().executor`` (``REPRO_EXECUTOR``, else compiled),
    resolved once here.  Both executors produce byte-identical stage
    relations; the naive strategy is always interpreted.

    ``optimizer`` gates the cost-based body-atom reordering of
    :func:`repro.optimizer.rewrite.order_program` (``None`` takes
    ``EngineConfig().optimizer``: ``REPRO_OPTIMIZER``, default on).
    The rewrite is applied once to the whole program *before* any
    executor sees it, so the compiled and interpreted tiers keep
    byte-identical stage relations; the ablated program
    (``optimizer="off"``) is the semantic oracle.
    """
    from repro.config import EngineConfig

    knobs = EngineConfig(executor=executor, optimizer=optimizer)
    if knobs.optimizer == "on":
        from repro.optimizer.rewrite import order_program

        program = order_program(program)
    if strategy == "seminaive":
        if knobs.executor == "compiled":
            from repro.datalog.compile import evaluate_program_compiled

            return evaluate_program_compiled(program, database, max_stages)
        from repro.datalog.seminaive import evaluate_program_seminaive

        return evaluate_program_seminaive(program, database, max_stages)
    if strategy != "naive":
        raise EvaluationError(
            f"unknown datalog strategy {strategy!r} "
            "(expected 'seminaive' or 'naive')"
        )
    return _evaluate_naive(program, database, max_stages)


def _evaluate_naive(
    program: Program,
    database: ConstraintDatabase,
    max_stages: int,
) -> EvaluationOutcome:
    """The reference evaluator: full re-derivation at every stage."""
    program.validate(database)
    _DATALOG_RUNS.inc()
    idb: dict[str, ConstraintRelation] = {}
    for predicate in program.idb_predicates():
        arity = program.arity_of(predicate)
        schema = tuple(f"v{i}" for i in range(arity))
        idb[predicate] = ConstraintRelation.empty(schema)

    sizes: list[int] = []
    total_stages = 0
    with TRACER.span("datalog.run") as run_span:
        for stratum in program.strata():
            members = set(stratum)
            for __ in range(1, max_stages + 1):
                with TRACER.span("datalog.stage", aggregate=True):
                    updated = dict(idb)
                    for predicate in stratum:
                        current = idb[predicate]
                        derived = [current]
                        for rule in program.rules:
                            if rule.head.predicate != predicate:
                                continue
                            derived.append(
                                _rule_once(rule, database, idb).rename_to(
                                    current.variables
                                )
                            )
                        updated[predicate] = union_relations(
                            derived
                        ).simplify()
                    sizes.append(
                        sum(
                            updated[p].representation_size()
                            for p in stratum
                        )
                    )
                    converged_now = all(
                        updated[p].equivalent(idb[p]) for p in members
                    )
                    idb = updated
                if converged_now:
                    break
                total_stages += 1
                _DATALOG_STAGES.inc()
            else:
                run_span.set("stages", total_stages)
                return EvaluationOutcome(idb, total_stages, False, sizes)
        run_span.set("stages", total_stages)
    return EvaluationOutcome(idb, total_stages, True, sizes)
