"""Faces of a hyperplane arrangement.

A face is the set of all points sharing a position vector with respect to
the hyperplane set 𝕳(S): for each hyperplane the point is above (+1), on
(0) or below (-1).  Faces are relatively open convex polyhedra; the paper
stores, per face, its position vector — everything else (dimension,
defining formula, sample point) derives from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from repro.geometry.fourier_motzkin import LinearConstraint, Rel
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.linalg import Vector, matrix_rank
from repro.geometry.polyhedron import Polyhedron
from repro.constraints.atoms import Atom, Op
from repro.constraints.formula import AtomFormula, Formula, conjunction
from repro.constraints.terms import LinearTerm

SignVector = tuple[int, ...]


def sign_vector_constraints(
    hyperplanes: Sequence[Hyperplane], signs: SignVector
) -> list[LinearConstraint]:
    """The defining constraint system of a (partial) sign vector."""
    system: list[LinearConstraint] = []
    for plane, sign in zip(hyperplanes, signs):
        if sign == 0:
            system.append(
                LinearConstraint(plane.normal, Rel.EQ, plane.offset)
            )
        elif sign > 0:
            system.append(
                LinearConstraint(
                    tuple(-c for c in plane.normal), Rel.LT, -plane.offset
                )
            )
        else:
            system.append(
                LinearConstraint(plane.normal, Rel.LT, plane.offset)
            )
    return system


@dataclass(frozen=True)
class Face:
    """One face of an arrangement.

    ``index`` is the face's position in the arrangement's canonical face
    order; ``signs`` is the paper's position vector; ``sample`` is a
    rational point in the (relatively open) face; ``dimension`` is the
    dimension of the affine support; ``in_relation`` records whether the
    face is contained in S (every face is either contained in or disjoint
    from S).
    """

    index: int
    signs: SignVector
    dimension: int
    sample: Vector
    in_relation: bool

    @property
    def is_vertex(self) -> bool:
        """0-dimensional faces are the paper's vertices."""
        return self.dimension == 0

    def polyhedron(self, hyperplanes: Sequence[Hyperplane]) -> Polyhedron:
        """The face as an H-representation polyhedron."""
        ambient = len(self.sample)
        return Polyhedron.make(
            ambient, sign_vector_constraints(hyperplanes, self.signs)
        )

    def defining_formula(
        self, hyperplanes: Sequence[Hyperplane], variables: Sequence[str]
    ) -> Formula:
        """A quantifier-free formula defining exactly this face.

        This is the construction in the proof of Theorem 4.3: the
        conjunction of atoms read off the position vector.
        """
        atoms = []
        for plane, sign in zip(hyperplanes, self.signs):
            term = LinearTerm.from_vector(
                plane.normal, -plane.offset, variables
            )
            op = Op.EQ if sign == 0 else (Op.GT if sign > 0 else Op.LT)
            atoms.append(AtomFormula(Atom(term, op)))
        return conjunction(atoms)

    def contains(
        self, hyperplanes: Sequence[Hyperplane], point: Sequence[Fraction]
    ) -> bool:
        """Exact point membership via the position vector."""
        return all(
            int(plane.side_of(point)) == sign
            for plane, sign in zip(hyperplanes, self.signs)
        )

    @property
    def zero_set(self) -> tuple[int, ...]:
        """Indices of hyperplanes the face lies on."""
        return tuple(i for i, s in enumerate(self.signs) if s == 0)

    def __str__(self) -> str:
        kind = "vertex" if self.is_vertex else f"{self.dimension}-face"
        return f"{kind}#{self.index}{list(self.signs)}"


def face_dimension(
    hyperplanes: Sequence[Hyperplane], signs: SignVector, ambient: int
) -> int:
    """Dimension of a non-empty face: ambient minus rank of its zero set.

    A face is the relative interior of the flat cut out by its sign-0
    hyperplanes intersected with open halfspaces, so its affine support is
    that flat.  When every sign-0 plane is axis-parallel the rank is the
    number of distinct axes, with no elimination.
    """
    planes = [
        plane for plane, sign in zip(hyperplanes, signs) if sign == 0
    ]
    if not planes:
        return ambient
    axes = {plane.axis for plane in planes}
    if None not in axes:
        return ambient - len(axes)
    return ambient - matrix_rank([list(plane.normal) for plane in planes])
