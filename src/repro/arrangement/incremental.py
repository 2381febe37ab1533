"""Incremental arrangement construction.

Theorem 3.1 cites the classical O(n^d) bound for arrangements, obtained
by *incremental insertion* (Edelsbrunner, Theorem 7.6): hyperplanes are
added one at a time and each insertion refines only the faces the new
hyperplane actually meets — its *zone*.  This module implements that
scheme on the sign-vector representation:

adding hyperplane h to an arrangement with faces F splits a face f ∈ F
into the parts strictly above h, on h and strictly below h, or leaves
it whole.  A relatively open convex face that meets h without lying in
it has points on both sides, so it splits into all three children or
none; the child on h is one dimension lower.  Which faces split is read
off the face lattice of the current state without any LP
(:func:`~repro.arrangement.adjacency.facets_of_faces`,
:func:`~repro.arrangement.adjacency.face_boundedness`):

* a 0-face is a point and takes its witness's side;
* a bounded face is the relative interior of the convex hull of the
  0-faces in its closure, so when all of those lie strictly on one
  side of h the face misses h (decided bottom-up over facets);
* every other face — the zone, plus the unbounded faces the lattice
  cannot decide — keeps the witness's side for free and pays at most
  two exact LPs for the other two children.

An insertion therefore solves LPs only for the zone and the unbounded
faces; each solve avoided is counted on ``arrangement.lp_skipped``.
Face dimensions are carried along (the child on h of a split face
loses one) instead of being re-derived by rank when freezing.

Retraction (:meth:`IncrementalArrangement.retract`) is the inverse
walk: dropping h's sign column merges the three children of every
split face back into one, keeping the first child's witness and the
largest dimension.  Only merged faces re-certify their witness against
the remaining sign constraints (exact arithmetic first, an LP
re-derivation only if certification fails); a face that h never split
is the same point set and keeps its witness.  An insert followed by a
retract of the same hyperplane restores the exact face set.

The face lattice — hyperplanes, sign vectors, dimensions, in/out
classification — is identical to what the batch builder produces (the
DFS in :mod:`repro.arrangement.builder` explores the same sign-vector
tree), which the tests and the E2 ablation verify.  Witness *points*
are path-dependent (the batch DFS and the insertion order derive
different interior samples for the same face), so comparisons go
through :func:`combinatorial parity <to_arrangement>` plus witness
certification, never through witness equality.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Sequence

from repro.errors import GeometryError
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.linalg import Vector
from repro.geometry.simplex import strict_feasible_point
from repro.obs.metrics import get_registry
from repro.obs.tracing import TRACER
from repro.constraints.relation import ConstraintRelation
from repro.arrangement.adjacency import face_boundedness, facets_of_faces
from repro.arrangement.builder import Arrangement

#: Incremental-mutation telemetry.  The *shared* family
#: (``arrangement.builds`` / ``arrangement.faces``) moves in
#: :meth:`IncrementalArrangement.to_arrangement` exactly as the batch
#: builder moves it per build, so downstream consumers (dashboards,
#: perfbench's per-layer counters) see one coherent signal regardless of
#: which construction path produced an arrangement; the counters below
#: are incremental-only extras (see docs/OBSERVABILITY.md).
_INSERTIONS = get_registry().counter("arrangement.insertions")
_SPLIT_FACES = get_registry().counter("arrangement.split_faces")
_RETRACTIONS = get_registry().counter("arrangement.retractions")
_MERGED_FACES = get_registry().counter("arrangement.merged_faces")
_RECERTIFICATIONS = get_registry().counter(
    "arrangement.witness_recertified"
)
_BUILDS = get_registry().counter("arrangement.builds")
_FACES = get_registry().counter("arrangement.faces")
_LP_SKIPPED = get_registry().counter("arrangement.lp_skipped")
from repro.arrangement.faces import (
    Face,
    SignVector,
    sign_vector_constraints,
)
from repro.arrangement.hyperplanes import (
    hyperplanes_of_relation,
    membership_by_signs,
)


class IncrementalArrangement:
    """An arrangement that grows one hyperplane at a time."""

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise GeometryError("dimension must be positive")
        self.dimension = dimension
        self.hyperplanes: list[Hyperplane] = []
        # Parallel lists: sign vectors, witness points, dimensions.
        self._signs: list[SignVector] = [()]
        self._witnesses: list[Vector] = [(Fraction(0),) * dimension]
        self._dims: list[int] = [dimension]

    def __len__(self) -> int:
        return len(self._signs)

    def insert(self, hyperplane: Hyperplane) -> int:
        """Add one hyperplane; returns the number of new faces created.

        Duplicate hyperplanes (canonical form already present) are
        ignored and create nothing.
        """
        if hyperplane.dimension != self.dimension:
            raise GeometryError(
                f"hyperplane dimension {hyperplane.dimension} != "
                f"{self.dimension}"
            )
        if hyperplane in self.hyperplanes:
            # Faces already carry this plane's sign; extend vectors only.
            index = self.hyperplanes.index(hyperplane)
            self.hyperplanes.append(hyperplane)
            self._signs = [
                signs + (signs[index],) for signs in self._signs
            ]
            return 0

        _INSERTIONS.inc()
        with TRACER.span("arrangement.insert", aggregate=True):
            return self._insert_new(hyperplane)

    def _insert_new(self, hyperplane: Hyperplane) -> int:
        sides = [int(hyperplane.side_of(w)) for w in self._witnesses]
        whole = self._stays_whole(sides)
        new_signs: list[SignVector] = []
        new_witnesses: list[Vector] = []
        new_dims: list[int] = []
        created = 0
        skipped = 0
        for signs, witness, dim, witness_sign, keep in zip(
            self._signs, self._witnesses, self._dims, sides, whole
        ):
            if keep:
                new_signs.append(signs + (witness_sign,))
                new_witnesses.append(witness)
                new_dims.append(dim)
                skipped += 2
                continue
            base_system = sign_vector_constraints(
                self.hyperplanes, signs
            )
            children: list[tuple[int, Vector]] = []
            for sign in (-1, 0, 1):
                if sign == witness_sign:
                    child_witness: Vector | None = witness
                else:
                    extra = sign_vector_constraints([hyperplane], (sign,))
                    child_witness = strict_feasible_point(
                        base_system + extra, self.dimension
                    )
                if child_witness is not None:
                    children.append((sign, child_witness))
            split = len(children) > 1
            for sign, child_witness in children:
                new_signs.append(signs + (sign,))
                new_witnesses.append(child_witness)
                new_dims.append(dim - 1 if split and sign == 0 else dim)
            created += len(children) - 1
        self.hyperplanes.append(hyperplane)
        self._signs = new_signs
        self._witnesses = new_witnesses
        self._dims = new_dims
        _SPLIT_FACES.inc(created)
        _LP_SKIPPED.inc(skipped)
        return created

    def _stays_whole(self, sides: Sequence[int]) -> list[bool]:
        """Entry ``i``: does face ``i`` provably not split on the new plane?

        ``sides`` holds each witness's side of the plane.  A 0-face is
        a point and never splits.  A bounded face of higher dimension
        misses the plane when every 0-face of its closure lies strictly
        on the witness's side; bottom-up, that holds when it holds for
        every facet (the closure's 0-faces are the union of the
        facets').  Unbounded faces are never decided here.
        """
        faces = [
            Face(position, signs, dim, witness, False)
            for position, (signs, witness, dim) in enumerate(
                zip(self._signs, self._witnesses, self._dims)
            )
        ]
        facets = facets_of_faces(faces)
        bounded = face_boundedness(faces, facets)
        # Entry i: the side every closure 0-face of face i lies strictly
        # on, or 0 when there is none (or the face is unbounded).
        strict_side = [0] * len(faces)
        for position in sorted(
            range(len(faces)), key=self._dims.__getitem__
        ):
            if not bounded[position]:
                continue
            if self._dims[position] == 0:
                strict_side[position] = sides[position]
                continue
            below = {strict_side[j] for j in facets[position]}
            if len(below) == 1:
                strict_side[position] = below.pop()
        return [
            dim == 0 or (side != 0 and side == witness_side)
            for dim, side, witness_side in zip(
                self._dims, strict_side, sides
            )
        ]

    def insert_all(self, hyperplanes: Sequence[Hyperplane]) -> None:
        for hyperplane in hyperplanes:
            self.insert(hyperplane)

    def retract(self, hyperplane: Hyperplane) -> int:
        """Remove one hyperplane; returns the number of faces merged away.

        The inverse of :meth:`insert`: the plane's sign column is
        dropped and faces whose remaining sign vectors coincide — the
        up-to-three pieces the plane once split one face into — are
        merged back together.  The merged face keeps the first
        surviving witness, re-certified against the remaining sign
        constraints exactly; if certification fails the witness is
        re-derived by LP (``arrangement.witness_recertified`` counts
        these).  Retracting one copy of a duplicated plane only drops
        its column (no merging — the other copy still separates).
        """
        if hyperplane.dimension != self.dimension:
            raise GeometryError(
                f"hyperplane dimension {hyperplane.dimension} != "
                f"{self.dimension}"
            )
        try:
            index = self.hyperplanes.index(hyperplane)
        except ValueError:
            raise GeometryError(
                f"cannot retract {hyperplane}: not in the arrangement"
            ) from None
        duplicated = self.hyperplanes.count(hyperplane) > 1
        self.hyperplanes.pop(index)
        if duplicated:
            self._signs = [
                signs[:index] + signs[index + 1:] for signs in self._signs
            ]
            return 0
        _RETRACTIONS.inc()
        with TRACER.span("arrangement.retract", aggregate=True):
            return self._retract_unique(index)

    def _retract_unique(self, index: int) -> int:
        merged: dict[SignVector, list[int]] = {}
        for position, signs in enumerate(self._signs):
            reduced = signs[:index] + signs[index + 1:]
            merged.setdefault(reduced, []).append(position)
        removed = len(self._signs) - len(merged)
        planes = self.hyperplanes
        new_signs: list[SignVector] = []
        new_witnesses: list[Vector] = []
        new_dims: list[int] = []
        for reduced, members in merged.items():
            witness = self._witnesses[members[0]]
            # A face the plane never split is the same point set, so
            # only a merged face's kept witness needs re-certifying.
            if len(members) > 1 and not all(
                int(plane.side_of(witness)) == sign
                for plane, sign in zip(planes, reduced)
            ):
                _RECERTIFICATIONS.inc()
                system = sign_vector_constraints(planes, reduced)
                witness = strict_feasible_point(system, self.dimension)
                if witness is None:
                    raise GeometryError(
                        "face became infeasible during retraction "
                        f"(sign vector {reduced})"
                    )
            new_signs.append(reduced)
            new_witnesses.append(witness)
            new_dims.append(max(self._dims[m] for m in members))
        self._signs = new_signs
        self._witnesses = new_witnesses
        self._dims = new_dims
        _MERGED_FACES.inc(removed)
        return removed

    def reorder(self, hyperplanes: Sequence[Hyperplane]) -> None:
        """Permute the plane columns into the given order.

        After a mixed insert/retract update the internal plane list is
        in mutation order; reordering to the canonical sorted order of
        :func:`~repro.arrangement.hyperplanes.hyperplanes_of_relation`
        makes :meth:`to_arrangement` combinatorially identical to a
        batch build of the same relation.  The target must be a
        permutation of the current planes.
        """
        target = list(hyperplanes)
        if Counter(target) != Counter(self.hyperplanes):
            raise GeometryError(
                "reorder target is not a permutation of the arrangement"
            )
        remaining = list(range(len(self.hyperplanes)))
        order: list[int] = []
        for plane in target:
            for position in remaining:
                if self.hyperplanes[position] == plane:
                    order.append(position)
                    remaining.remove(position)
                    break
        self.hyperplanes = [self.hyperplanes[i] for i in order]
        self._signs = [
            tuple(signs[i] for i in order) for signs in self._signs
        ]

    @classmethod
    def from_arrangement(cls, arrangement: Arrangement) -> "IncrementalArrangement":
        """Adopt a built arrangement as the starting state.

        The batch builder, the disk store and this module agree on the
        face lattice, so a cached :class:`Arrangement` seeds incremental
        maintenance without re-running any construction.
        """
        incremental = cls(arrangement.dimension)
        incremental.hyperplanes = list(arrangement.hyperplanes)
        incremental._signs = [face.signs for face in arrangement.faces]
        incremental._witnesses = [face.sample for face in arrangement.faces]
        incremental._dims = [face.dimension for face in arrangement.faces]
        return incremental

    def to_arrangement(
        self, relation: ConstraintRelation | None = None
    ) -> Arrangement:
        """Freeze into the standard :class:`Arrangement` value.

        Faces are ordered by sign vector in the same -1 < 0 < +1 DFS
        order the batch builder uses, so results are interchangeable.
        When a relation is given, faces are classified against it: each
        membership bit is read off the face's sign vector
        (:func:`~repro.arrangement.hyperplanes.membership_by_signs`).
        Faces are in-or-out of the relation only when its atoms use the
        inserted hyperplanes; otherwise the bit is the formula evaluated
        at the face's witness.

        Freezing moves the *shared* counter family exactly as one batch
        build does — ``arrangement.builds`` by one, ``arrangement.faces``
        by the face count — so both construction paths feed the same
        telemetry (the counter-parity test pins this).
        """
        planes = tuple(self.hyperplanes)
        order = sorted(
            range(len(self._signs)), key=lambda i: self._signs[i]
        )
        inside = membership_by_signs(relation, planes)
        faces = []
        for position, i in enumerate(order):
            signs = self._signs[i]
            witness = self._witnesses[i]
            faces.append(Face(
                position, signs, self._dims[i], witness,
                inside(signs, witness),
            ))
        _BUILDS.inc()
        _FACES.inc(len(faces))
        return Arrangement(self.dimension, planes, tuple(faces), relation)


def build_arrangement_incremental(
    relation: ConstraintRelation | None = None,
    hyperplanes: Sequence[Hyperplane] | None = None,
    dimension: int | None = None,
) -> Arrangement:
    """Drop-in incremental counterpart of
    :func:`repro.arrangement.builder.build_arrangement`."""
    if relation is not None:
        planes: Sequence[Hyperplane] = hyperplanes_of_relation(relation)
        ambient = relation.arity
    else:
        if hyperplanes is None or dimension is None:
            raise GeometryError(
                "need either a relation or hyperplanes plus a dimension"
            )
        planes = list(hyperplanes)
        ambient = dimension
    incremental = IncrementalArrangement(ambient)
    incremental.insert_all(planes)
    return incremental.to_arrangement(relation)
