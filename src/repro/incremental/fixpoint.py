"""Maintained datalog fixpoint answers.

A :class:`MaintainedProgram` keeps one program's materialised
:class:`~repro.datalog.engine.EvaluationOutcome` up to date across
database versions.  The maintenance plan IS the compiled executor's
semi-naive delta plan (the :class:`~repro.ir.nodes.Guard`-wrapped
stage-≥2 firings of :mod:`repro.datalog.compile`): on every write the
program re-runs through those plans with one **persistent**
:class:`~repro.ir.kernels.KernelCache`, so every feasibility/reduction/
subsumption decision already taken for an earlier version is a
dictionary hit.  The memos are keyed by atom values, so the structurally
equal constants of each recompiled plan hit them too.

Because the control flow is byte-for-byte the cold compiled run — only
pure, memoised decisions are skipped — the maintained answer is
**byte-identical to a cold rebuild by construction**, under either
executor (PR 7 pinned compiled ≡ interpreted).  The differential fuzz
suite (`tests/test_ivm_differential.py`) enforces this against the
interpreted full-rebuild oracle; deltas only make maintenance *faster*
(decision work proportional to what changed), never different.

For fixpoints that ground out on the finite region sort, the classical
counting/DRed tier in :mod:`repro.incremental.ground` applies instead.
"""

from __future__ import annotations

from repro.constraints.database import ConstraintDatabase
from repro.datalog.compile import evaluate_program_compiled
from repro.datalog.engine import EvaluationOutcome, Program
from repro.ir.kernels import KernelCache
from repro.obs.metrics import get_registry

_REFRESHES = get_registry().counter("incremental.fixpoint_refreshes")


class MaintainedProgram:
    """One program's materialised answers, maintained under writes."""

    def __init__(
        self,
        program: "Program | str",
        database: ConstraintDatabase,
        max_stages: int = 25,
    ) -> None:
        if isinstance(program, str):
            from repro.datalog.parser import parse_program

            program = parse_program(program)
        self.program = program
        self.max_stages = max_stages
        #: Cross-version decision memos: the whole point of maintenance.
        self.kernels = KernelCache()
        self.database = database
        self.outcome = self._evaluate(database)

    def _evaluate(self, database: ConstraintDatabase) -> EvaluationOutcome:
        _REFRESHES.inc()
        return evaluate_program_compiled(
            self.program,
            database,
            max_stages=self.max_stages,
            kernels=self.kernels,
        )

    def apply(self, database: ConstraintDatabase) -> EvaluationOutcome:
        """Maintain the materialised answers for a new database version.

        Returns the outcome for ``database``; ``self.outcome`` is
        updated in place.  The answer is byte-identical to evaluating
        the program cold on ``database`` (either executor).
        """
        self.database = database
        self.outcome = self._evaluate(database)
        return self.outcome

    def __getitem__(self, predicate: str):
        return self.outcome[predicate]
