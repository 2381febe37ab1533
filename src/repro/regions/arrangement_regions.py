"""Arrangement-backed regions (the decomposition of Sections 3-6).

Regions are the faces of A(S).  All region predicates reduce to the
combinatorics of position vectors, so they are fast and exact:
boundedness is read bottom-up off the face lattice
(:meth:`Arrangement.bounded`), and the defining formula of a face is
the conjunction of atoms read off its position vector (as in the proof
of Theorem 4.3).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from repro.geometry.hyperplane import Hyperplane
from repro.constraints.formula import Formula
from repro.constraints.relation import ConstraintRelation
from repro.arrangement.adjacency import signs_in_closure
from repro.arrangement.builder import Arrangement, build_arrangement
from repro.arrangement.faces import Face
from repro.regions.base import Decomposition, Region
from repro.regions.ordering import sort_regions


class ArrangementRegion(Region):
    """A face of the arrangement, viewed through the region interface."""

    def __init__(self, face: Face, arrangement: Arrangement) -> None:
        self.face = face
        self.arrangement = arrangement
        self.index = -1  # assigned by the decomposition

    @property
    def ambient_dimension(self) -> int:
        return len(self.face.sample)

    @property
    def dimension(self) -> int:
        return self.face.dimension

    def is_bounded(self) -> bool:
        return self.arrangement.bounded()[self.face.index]

    def sample_point(self) -> tuple[Fraction, ...]:
        return self.face.sample

    def contains(self, point: Sequence[Fraction]) -> bool:
        return self.face.contains(self.arrangement.hyperplanes, point)

    def closure_contains_region(self, other: Region) -> bool:
        if isinstance(other, ArrangementRegion):
            return signs_in_closure(other.face.signs, self.face.signs)
        raise TypeError(
            "arrangement regions only relate to arrangement regions"
        )

    def defining_formula(self, variables: Sequence[str]) -> Formula:
        return self.face.defining_formula(
            self.arrangement.hyperplanes, variables
        )

    def sort_key(self) -> tuple:
        return ("face", self.face.signs)

    @property
    def in_relation(self) -> bool:
        """The stored in-or-out bit of the face."""
        return self.face.in_relation


class ArrangementDecomposition(Decomposition):
    """regions(S) = faces of A(S), in the canonical region order."""

    def __init__(self, relation: ConstraintRelation,
                 arrangement: Arrangement | None = None,
                 extra_hyperplanes: "tuple[Hyperplane, ...] | None" = None,
                 ) -> None:
        if arrangement is None:
            arrangement = build_arrangement(
                relation, hyperplanes=extra_hyperplanes
            )
        self.arrangement = arrangement
        regions = sort_regions([
            ArrangementRegion(face, arrangement) for face in arrangement.faces
        ])
        for index, region in enumerate(regions):
            region.index = index
        super().__init__(relation, regions)

    def _compute_subset(self, index: int) -> bool:
        # Faces are contained in or disjoint from S; the bit is stored.
        region = self.regions[index]
        assert isinstance(region, ArrangementRegion)
        return region.in_relation

    def locate(self, point: Sequence[Fraction]) -> ArrangementRegion:
        """The unique region containing a point (faces partition ℝ^d)."""
        face = self.arrangement.locate(point)
        for region in self.regions:
            assert isinstance(region, ArrangementRegion)
            if region.face.signs == face.signs:
                return region
        raise AssertionError("face missing from decomposition")  # pragma: no cover
