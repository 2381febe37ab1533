"""Delta maintenance of cached arrangements.

Writing to a relation changes its hyperplane set by a handful of
planes; rebuilding A(S) from scratch re-pays the whole O(n^d)
construction.  :class:`MaintainedArrangements` keeps an
:class:`~repro.arrangement.incremental.IncrementalArrangement` per
relation lineage and applies the plane *difference* — inserting new
planes (exact LPs only for the plane's zone and the unbounded faces;
every other face is decided from the face lattice) and retracting
removed ones (face re-merge; only merged faces re-certify their
witness, with no LPs on the happy path) — then reorders the sign
columns to the canonical plane order, so the
frozen result is combinatorially identical to a batch rebuild (same
hyperplanes, sign vectors, dimensions and in/out classification;
witness points are path-dependent, see the module docstring of
:mod:`repro.arrangement.incremental`).
"""

from __future__ import annotations

from repro.arrangement.builder import Arrangement
from repro.arrangement.hyperplanes import hyperplanes_of_relation
from repro.arrangement.incremental import IncrementalArrangement
from repro.constraints.relation import ConstraintRelation
from repro.obs.metrics import get_registry

_MAINTAINED = get_registry().counter("incremental.arrangements_maintained")
_PLANES_INSERTED = get_registry().counter("incremental.planes_inserted")
_PLANES_RETRACTED = get_registry().counter("incremental.planes_retracted")


class MaintainedArrangements:
    """Per-lineage incremental arrangements, updated by plane diffs."""

    def __init__(self) -> None:
        #: Live incremental state, keyed by the fingerprint of the
        #: relation version it currently represents.
        self._state: dict[str, IncrementalArrangement] = {}

    def adopt(
        self, relation: ConstraintRelation, arrangement: Arrangement
    ) -> None:
        """Seed maintenance from an already-built arrangement."""
        self._state[relation.fingerprint()] = (
            IncrementalArrangement.from_arrangement(arrangement)
        )

    def has(self, relation: ConstraintRelation) -> bool:
        return relation.fingerprint() in self._state

    def update(
        self,
        old_relation: ConstraintRelation,
        new_relation: ConstraintRelation,
        build_old,
    ) -> Arrangement:
        """The new relation's arrangement, by delta from the old one.

        ``build_old`` supplies the old arrangement on a cold start (a
        cache/store lookup or batch build); once maintenance is warm the
        incremental state carries over from version to version and only
        the plane difference is paid.
        """
        incremental = self._state.pop(old_relation.fingerprint(), None)
        if incremental is None:
            incremental = IncrementalArrangement.from_arrangement(
                build_old()
            )
        old_planes = set(incremental.hyperplanes)
        new_planes = hyperplanes_of_relation(new_relation)
        wanted = set(new_planes)
        for plane in [p for p in incremental.hyperplanes if p not in wanted]:
            incremental.retract(plane)
            _PLANES_RETRACTED.inc()
        for plane in new_planes:
            if plane not in old_planes:
                incremental.insert(plane)
                _PLANES_INSERTED.inc()
        incremental.reorder(new_planes)
        self._state[new_relation.fingerprint()] = incremental
        _MAINTAINED.inc()
        return incremental.to_arrangement(new_relation)
