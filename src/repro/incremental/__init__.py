"""Incremental view maintenance under writes.

The paper's queries are defined over a static database; this package
makes the stack serve *writes* without giving up the static story's
guarantees.  A write is a :class:`~repro.incremental.delta.Delta` —
disjunct-granular inserts/retracts against named relations — and every
maintained artifact is **byte-identical to a cold rebuild**:

* arrangements are maintained plane-by-plane
  (:class:`~repro.incremental.arrangements.MaintainedArrangements`,
  over :class:`~repro.arrangement.incremental.IncrementalArrangement`
  insertion *and* retraction) — combinatorially identical to a batch
  build;
* materialised datalog answers re-run the compiled semi-naive delta
  plans with persistent kernels
  (:class:`~repro.incremental.fixpoint.MaintainedProgram`) — identical
  control flow, memoised decisions, byte-identical answers;
* ground fixpoints on the finite region sort use classical
  counting/DRed maintenance
  (:class:`~repro.incremental.ground.CountingFixpoint`);
* every version's provenance is persisted and replayable
  (:class:`~repro.incremental.lineage.LineageLog`, with snapshot
  compaction).

The interpreted full-rebuild path remains the honest oracle; the
differential fuzz suite (`tests/test_ivm_differential.py`) and the E16
benchmark hold maintenance to it byte-for-byte.

Entry points: :meth:`repro.engine.QueryEngine.apply_delta` for
embedded use, ``POST /v1/update`` on the server.
"""

from repro.incremental.arrangements import MaintainedArrangements
from repro.incremental.delta import (
    Delta,
    DeltaOp,
    apply_delta,
    delta_op,
    disjunct_list,
    formula_from_disjuncts,
    invert,
    make_delta,
)
from repro.incremental.fixpoint import MaintainedProgram
from repro.incremental.ground import CountingFixpoint, reachable_regions
from repro.incremental.lineage import (
    DEFAULT_COMPACT_EVERY,
    LineageLog,
)

__all__ = [
    "CountingFixpoint",
    "DEFAULT_COMPACT_EVERY",
    "Delta",
    "DeltaOp",
    "LineageLog",
    "MaintainedArrangements",
    "MaintainedProgram",
    "apply_delta",
    "delta_op",
    "disjunct_list",
    "formula_from_disjuncts",
    "invert",
    "make_delta",
    "reachable_regions",
]
