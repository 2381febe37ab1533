"""Adjacency and closure relations between arrangement faces.

Definition 4.1 defines two regions to be adjacent when a point of one has
every ε-neighbourhood meeting the other — equivalently (as the paper
notes) when one region is contained in the closure of the other.  For
arrangement faces the closure relation is purely combinatorial on
position vectors:

    f ⊆ closure(g)   iff   for every hyperplane i:
                               v_g(i) = 0  ⟹  v_f(i) = 0, and
                               v_g(i) ≠ 0  ⟹  v_f(i) ∈ {0, v_g(i)}

i.e. v_f arises from v_g by zeroing some entries.  (The closure of a
non-empty face is the relaxation of its strict constraints, and the sign
vectors satisfying the relaxed system are exactly those above.)

The same combinatorics give the face lattice: the *facets* of a face
(the faces one dimension lower in its closure, :func:`facets_of_faces`)
and, bottom-up over them, which faces are bounded
(:func:`face_boundedness`) — no linear program is solved.
"""

from __future__ import annotations

from typing import Sequence

from repro.arrangement.faces import Face


def signs_in_closure(face_signs: tuple[int, ...],
                     other_signs: tuple[int, ...]) -> bool:
    """Combinatorial closure test on position vectors."""
    if len(face_signs) != len(other_signs):
        raise ValueError("sign vectors of different arrangements")
    return all(
        f == g or f == 0 for f, g in zip(face_signs, other_signs)
    )


def face_in_closure_of(face: Face, other: Face) -> bool:
    """Is ``face`` contained in the closure of ``other``?"""
    return signs_in_closure(face.signs, other.signs)


def faces_adjacent(face: Face, other: Face) -> bool:
    """Definition 4.1's adjacency for arrangement faces.

    Two distinct faces are adjacent iff one lies in the closure of the
    other.  Adjacent faces always differ in dimension (the paper's
    remark): zeroing a sign entry strictly lowers the dimension.
    """
    if face.signs == other.signs:
        return False
    return face_in_closure_of(face, other) or face_in_closure_of(other, face)


def faces_incident(face: Face, other: Face) -> bool:
    """The incidence relation of Section 3.

    Two faces are incident iff one is of dimension exactly one less than
    the other and is contained in the other's boundary (equivalently its
    closure, for distinct faces).
    """
    if abs(face.dimension - other.dimension) != 1:
        return False
    lower, higher = (
        (face, other) if face.dimension < other.dimension else (other, face)
    )
    return face_in_closure_of(lower, higher)


def facets_of_faces(
    faces: Sequence[Face],
) -> tuple[tuple[int, ...], ...]:
    """Entry ``i``: the facets of ``faces[i]``, ascending.

    A facet of a k-face g is a (k-1)-face in closure(g).  Such a face f
    has v_f = v_g with the entries on f's zero set zeroed, and that zero
    set contains g's.  So the facets of g are found by zeroing v_g on
    every zero set that occurs among the (k-1)-faces and looking the
    result up: no pairwise scan over faces.  There are far fewer such
    zero sets (one per (k-1)-flat of the arrangement) than faces.

    Faces are indexed by position, which is ``Face.index`` for every
    arrangement the builders produce.
    """
    by_signs = {face.signs: position for position, face in enumerate(faces)}
    flats: dict[int, set[frozenset[int]]] = {}
    for face in faces:
        flats.setdefault(face.dimension, set()).add(frozenset(face.zero_set))
    result: list[tuple[int, ...]] = []
    for face in faces:
        own = face.zero_set
        found: list[int] = []
        for zeros in flats.get(face.dimension - 1, ()):
            if not zeros.issuperset(own):
                continue
            signs = list(face.signs)
            for i in zeros:
                signs[i] = 0
            hit = by_signs.get(tuple(signs))
            if hit is not None:
                found.append(hit)
        result.append(tuple(sorted(found)))
    return tuple(result)


def face_boundedness(
    faces: Sequence[Face], facets: Sequence[Sequence[int]]
) -> tuple[bool, ...]:
    """Entry ``i``: is ``faces[i]`` bounded?  Decided bottom-up by dimension.

    * a 0-face is bounded;
    * a 1-face is bounded iff its closure holds two 0-faces (a segment,
      not a ray or a line);
    * a k-face, k >= 2, is bounded iff it has a facet and every facet is
      bounded.

    The arrangement faces in the closure of a face F are exactly the
    faces of the polyhedron closure(F), cut finer.  If that polyhedron
    is unbounded and pointed it has an unbounded edge, and for k >= 2 the
    edge lies in a facet; if it is not pointed every face contains a
    line; a k-flat with no facet is unbounded.  Either way some facet is
    unbounded or there is none.

    ``facets`` is :func:`facets_of_faces` of the same faces.
    """
    bounded = [False] * len(faces)
    for position in sorted(
        range(len(faces)), key=lambda i: faces[i].dimension
    ):
        below = facets[position]
        dimension = faces[position].dimension
        if dimension == 0:
            bounded[position] = True
        elif dimension == 1:
            bounded[position] = len(below) == 2
        else:
            bounded[position] = bool(below) and all(
                bounded[j] for j in below
            )
    return tuple(bounded)
