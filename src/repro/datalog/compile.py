"""Compilation of datalog rules to relational-algebra IR.

The interpreted engines (:mod:`repro.datalog.engine`,
:mod:`repro.datalog.seminaive`) re-walk every rule at every stage:
re-renaming EDB relations, re-cylindrifying, re-complementing negated
atoms, and re-deciding the same LP feasibility questions.  This module
compiles each stratum **once** into plans over the IR of
:mod:`repro.ir.nodes`:

* per rule, a *full* plan (used at stage 1) and one *delta* plan per
  recursive body occurrence (stage ≥ 2, that occurrence bound to the
  last delta and guarded on its non-emptiness);
* per predicate, a stage combiner
  ``Simplify(Diff(Union(firings), Scan(idb)))`` — the semi-naive
  "derived minus accumulator" as an IR diff — and an accumulate
  combiner ``Simplify(Union(Scan(idb), Scan(fresh)))``;
* EDB pieces, rule constraints and negated atoms (whose predicates are
  final by stratification when the stratum starts) are hoisted into
  :class:`~repro.ir.nodes.Const` nodes, out of the stage loop entirely.

The driver :func:`evaluate_program_compiled` then mirrors
:func:`repro.datalog.seminaive.evaluate_program_seminaive` line for
line — same stage structure, same synchronous delta application, same
counters, journal events and divergence behaviour — but evaluates plans
through the memoised kernels of :mod:`repro.ir.kernels`.  Stage
relations are byte-identical to the interpreted engine by construction
(the kernels run the same pruned-DNF control flow); the equivalence
fuzz suite enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import EvaluationError
from repro.constraints.database import ConstraintDatabase
from repro.constraints.relation import ConstraintRelation
from repro.obs.journal import JOURNAL
from repro.obs.metrics import get_registry
from repro.obs.tracing import TRACER

from repro.datalog.engine import (
    EvaluationOutcome,
    Program,
    Rule,
    _DATALOG_RUNS,
    _DATALOG_STAGES,
)
from repro.datalog.seminaive import (
    _DELTA_DISJUNCTS,
    _SEMINAIVE_RUNS,
    _recursive_positions,
)
from repro.ir import nodes as ir
from repro.ir.executor import ExecutionContext, execute
from repro.ir.kernels import KernelCache

_COMPILED_RUNS = get_registry().counter("datalog.compiled_runs")


def _check_atom(atom) -> None:
    if len(set(atom.variables)) != len(atom.variables):
        raise EvaluationError(
            f"repeated variables in {atom}; use an explicit "
            "equality constraint instead"
        )


def _compile_rule(
    rule: Rule,
    database: ConstraintDatabase,
    idb_predicates: set[str],
    members: set[str],
    idb: dict[str, ConstraintRelation] | None,
    head_schema: tuple[str, ...],
    delta_position: int | None,
) -> ir.IRNode:
    """One rule firing as a plan (optionally delta-bound at a position).

    Mirrors :func:`repro.datalog.engine._rule_once` exactly: body pieces
    in order, then negated pieces, then the constraint; join; project
    out non-head variables in schema order; rename to the head, then to
    the predicate's canonical ``v0..vn`` schema.
    """
    schema = rule.variables()
    pieces: list[ir.IRNode] = []
    for position, atom in enumerate(rule.body):
        _check_atom(atom)
        if delta_position is not None and position == delta_position:
            source: ir.IRNode = ir.Scan("delta", atom.predicate)
            pieces.append(
                ir.Widen(ir.Rename(source, atom.variables), schema)
            )
        elif atom.predicate in idb_predicates:
            source = ir.Scan("idb", atom.predicate)
            pieces.append(
                ir.Widen(ir.Rename(source, atom.variables), schema)
            )
        else:
            hoisted = database.relation(atom.predicate).rename_to(
                atom.variables
            )
            pieces.append(
                ir.Const(
                    ConstraintRelation.make(schema, hoisted.formula),
                    note=str(atom),
                )
            )
    for atom in rule.negated:
        _check_atom(atom)
        if atom.predicate in idb_predicates:
            if atom.predicate in members:
                raise EvaluationError(
                    f"negated atom {atom} inside its own stratum"
                )
            if idb is None:
                # Symbolic plan (explain): keep the complement in the IR.
                negated: ir.IRNode = ir.Widen(
                    ir.Complement(
                        ir.Rename(
                            ir.Scan("idb", atom.predicate), atom.variables
                        )
                    ),
                    schema,
                )
                pieces.append(negated)
                continue
            source_rel = idb[atom.predicate]
        else:
            source_rel = database.relation(atom.predicate)
        # Stratification makes the negated relation final before this
        # stratum runs, so its complement hoists out of the stage loop.
        complemented = source_rel.rename_to(atom.variables).complement()
        pieces.append(
            ir.Const(
                ConstraintRelation.make(schema, complemented.formula),
                note=f"!{atom}",
            )
        )
    if rule.constraint is not None:
        pieces.append(
            ir.Const(
                ConstraintRelation.make(schema, rule.constraint),
                note=str(rule.constraint),
            )
        )
    if not pieces:
        raise EvaluationError(f"rule {rule} has an empty body")
    plan: ir.IRNode = ir.Join(pieces)
    plan = ir.Project(plan, rule.head.variables)
    plan = ir.Rename(plan, rule.head.variables)
    plan = ir.Rename(plan, head_schema)
    if delta_position is not None:
        plan = ir.Guard(plan, rule.body[delta_position].predicate)
    return plan


@dataclass
class CompiledStratum:
    """Per-predicate plans for one stratum."""

    predicates: tuple[str, ...]
    #: Stage-1 combiner per predicate: every rule fires in full.
    stage_one: dict[str, ir.IRNode] = field(default_factory=dict)
    #: Stage ≥ 2 combiner: one guarded firing per recursive occurrence.
    stage_next: dict[str, ir.IRNode] = field(default_factory=dict)
    #: Accumulate combiner, run only when the stage's delta is non-empty.
    accumulate: dict[str, ir.IRNode] = field(default_factory=dict)


def compile_stratum(
    program: Program,
    stratum: tuple[str, ...],
    database: ConstraintDatabase,
    idb: dict[str, ConstraintRelation] | None,
) -> CompiledStratum:
    """Compile one stratum's rules into stage plans.

    ``idb`` supplies the (final) relations of lower strata so negated
    atoms hoist into constants; pass ``None`` for a symbolic plan (used
    by ``repro explain --datalog``), which keeps complements in the IR.
    """
    idb_predicates = set(program.idb_predicates())
    members = set(stratum)
    compiled = CompiledStratum(predicates=tuple(stratum))
    for predicate in stratum:
        arity = program.arity_of(predicate)
        head_schema = tuple(f"v{i}" for i in range(arity))
        rules = [
            rule
            for rule in program.rules
            if rule.head.predicate == predicate
        ]
        full = [
            _compile_rule(
                rule, database, idb_predicates, members, idb,
                head_schema, None,
            )
            for rule in rules
        ]
        deltas = [
            _compile_rule(
                rule, database, idb_predicates, members, idb,
                head_schema, position,
            )
            for rule in rules
            for position in _recursive_positions(rule, members)
        ]
        accumulator = ir.Scan("idb", predicate)
        compiled.stage_one[predicate] = ir.Simplify(
            ir.Diff(ir.Union(full), accumulator)
        )
        compiled.stage_next[predicate] = ir.Simplify(
            ir.Diff(ir.Union(deltas), accumulator)
        )
        compiled.accumulate[predicate] = ir.Simplify(
            ir.Union([ir.Scan("idb", predicate), ir.Scan("fresh", predicate)])
        )
    return compiled


def compile_program(
    program: Program, database: ConstraintDatabase
) -> list[CompiledStratum]:
    """Symbolic plans for every stratum (for plan rendering)."""
    program.validate(database)
    return [
        compile_stratum(program, stratum, database, None)
        for stratum in program.strata()
    ]


def evaluate_program_compiled(
    program: Program,
    database: ConstraintDatabase,
    max_stages: int = 25,
    profiler=None,
    kernels: KernelCache | None = None,
    compiled_strata: "list[CompiledStratum] | None" = None,
) -> EvaluationOutcome:
    """Semi-naive evaluation through compiled IR plans.

    Outcome, stage structure, counters and journal events match
    :func:`~repro.datalog.seminaive.evaluate_program_seminaive`; only
    the per-stage work is set-at-a-time over the compiled plans.  The
    ``datalog.seminaive_runs`` counter is incremented here too — the
    compiled executor *is* the semi-naive strategy, differently
    executed — plus ``datalog.compiled_runs`` to tell the tiers apart.

    ``compiled_strata`` optionally supplies pre-built plans (aligned
    with :meth:`Program.strata`): ``repro explain --datalog`` passes the
    symbolic plans it renders, so :class:`~repro.explain.NodeProfiler`
    costs key to the exact node objects shown in the plan tree.
    Symbolic plans keep negated atoms as in-loop :class:`ir.Complement`
    nodes instead of hoisted constants; the relations computed are
    identical.
    """
    program.validate(database)
    _DATALOG_RUNS.inc()
    _SEMINAIVE_RUNS.inc()
    _COMPILED_RUNS.inc()
    if kernels is None:
        kernels = KernelCache()
    idb: dict[str, ConstraintRelation] = {}
    for predicate in program.idb_predicates():
        arity = program.arity_of(predicate)
        schema = tuple(f"v{i}" for i in range(arity))
        idb[predicate] = ConstraintRelation.empty(schema)

    sizes: list[int] = []
    total_stages = 0
    context = ExecutionContext(idb=idb, delta={}, fresh={})
    with TRACER.span("datalog.run") as run_span:
        run_span.set("strategy", "seminaive")
        run_span.set("executor", "compiled")
        for position, stratum in enumerate(program.strata()):
            if compiled_strata is not None:
                compiled = compiled_strata[position]
            else:
                compiled = compile_stratum(program, stratum, database, idb)
            first_stage = True
            for stage in range(1, max_stages + 1):
                with TRACER.span("datalog.stage", aggregate=True):
                    new_delta: dict[str, ConstraintRelation] = {}
                    for predicate in stratum:
                        plan = (
                            compiled.stage_one[predicate]
                            if first_stage
                            else compiled.stage_next[predicate]
                        )
                        fresh = execute(plan, context, kernels, profiler)
                        if fresh is None:
                            fresh = ConstraintRelation.empty(
                                idb[predicate].variables
                            )
                        new_delta[predicate] = fresh
                        _DELTA_DISJUNCTS.inc(len(fresh.disjuncts()))
                    # Synchronous delta application, as in the
                    # interpreted engine: every rule in a stage reads
                    # the previous stage's accumulators.
                    for predicate in stratum:
                        fresh = new_delta[predicate]
                        if not fresh.is_empty():
                            context.fresh[predicate] = fresh
                            idb[predicate] = execute(
                                compiled.accumulate[predicate],
                                context,
                                kernels,
                                profiler,
                            )
                            del context.fresh[predicate]
                    sizes.append(
                        sum(
                            idb[p].representation_size()
                            for p in stratum
                        )
                    )
                    context.delta = new_delta
                    first_stage = False
                    converged_now = all(
                        fresh.is_empty() for fresh in new_delta.values()
                    )
                    if JOURNAL.enabled:
                        JOURNAL.emit(
                            "datalog.stage",
                            strategy="seminaive",
                            executor="compiled",
                            stage=stage,
                            deltas={
                                predicate: len(
                                    new_delta[predicate].disjuncts()
                                )
                                for predicate in stratum
                            },
                        )
                if converged_now:
                    break
                total_stages += 1
                _DATALOG_STAGES.inc()
            else:
                run_span.set("stages", total_stages)
                return EvaluationOutcome(idb, total_stages, False, sizes)
        run_span.set("stages", total_stages)
    return EvaluationOutcome(idb, total_stages, True, sizes)
