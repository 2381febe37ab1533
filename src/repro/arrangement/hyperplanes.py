"""Extraction of the hyperplane set 𝕳(S) from a relation's representation.

Section 3: for every atom of the DNF representation of S, take the
hyperplane obtained by replacing the (in)equality by equality.  The result
is a *set* — canonicalisation (see :class:`repro.geometry.hyperplane.
Hyperplane`) collapses atoms that induce the same hyperplane, e.g.
``x < 1`` and ``2x >= 2``.

The extracted list is sorted canonically so arrangements are deterministic
functions of the represented relation's atom set.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from repro.geometry.hyperplane import Hyperplane
from repro.constraints.relation import ConstraintRelation


def hyperplanes_of_relation(relation: ConstraintRelation) -> list[Hyperplane]:
    """The paper's 𝕳(S) for a relation in DNF, canonically ordered.

    Memoised on the relation, as its fingerprint is; each call returns
    a fresh list, so no caller can change the memo.
    """
    cached = relation._cache.get("hyperplanes")
    if cached is None:
        planes: set[Hyperplane] = set()
        for disjunct in relation.disjuncts():
            for atom in disjunct:
                plane = atom.hyperplane(relation.variables)
                if plane is not None:
                    planes.add(plane)
        cached = tuple(sorted(planes, key=lambda h: (h.normal, h.offset)))
        relation._cache["hyperplanes"] = cached
    return list(cached)


def membership_by_signs(
    relation: ConstraintRelation | None, planes: Sequence[Hyperplane]
) -> Callable[[tuple[int, ...], Sequence[Fraction]], bool]:
    """``inside(signs, witness)`` — is a face of ``planes`` in ``relation``?

    An atom ``t ⋈ 0`` and its canonical plane ``n·x = b`` satisfy
    ``t(x) = λ·(n·x - b)`` for one non-zero λ, so the atom's sign on a
    face is the face's sign on that plane times the sign of λ, and every
    DNF atom's truth is read off the sign vector without touching the
    witness.  When some atom's plane is not among ``planes`` the faces
    need not be in-or-out of the relation, and membership is the
    relation's formula evaluated at the witness.
    """
    if relation is None:
        return lambda signs, witness: False
    position = {plane: index for index, plane in enumerate(planes)}
    order = relation.variables
    tests: list[tuple[tuple[int, frozenset], ...]] = []
    for disjunct in relation.disjuncts():
        checks = []
        for atom in disjunct:
            plane = atom.hyperplane(order)
            if plane is None:
                if atom.trivial_truth():
                    continue
                break
            index = position.get(plane)
            if index is None:
                return lambda signs, witness: relation.contains(witness)
            name, coeff = atom.term.coefficients[0]
            orientation = (
                1 if (coeff > 0) == (plane.normal[order.index(name)] > 0)
                else -1
            )
            checks.append((
                index,
                frozenset(
                    sign for sign in (-1, 0, 1)
                    if atom.op.holds(orientation * sign)
                ),
            ))
        else:
            tests.append(tuple(checks))

    def inside(signs, witness) -> bool:
        return any(
            all(signs[index] in allowed for index, allowed in checks)
            for checks in tests
        )

    return inside
