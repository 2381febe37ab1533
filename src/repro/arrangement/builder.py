"""Arrangement construction: exact face enumeration (Theorem 3.1).

The faces of an arrangement of hyperplanes h_1..h_n are exactly the
non-empty sign vectors v ∈ {-1, 0, +1}^n: the system "on h_i if v_i = 0,
strictly above if +1, strictly below if -1" must be feasible.  We
enumerate them by depth-first extension of partial sign vectors, pruning
any prefix whose constraint system is already infeasible (exact LP).

Every internal node of the search tree corresponds to a non-empty
intersection of sign conditions, and each such prefix extends to at least
one face, so the number of explored nodes is at most n times the number
of faces; for fixed dimension d the face count is O(n^d) and the whole
construction runs in polynomial time — the constructive content of
Theorem 3.1.

Fast path
---------

Exact simplex solves dominate the DFS, so the enumerator works hard to
avoid them (all three prunings are exact — they never change the face
set, only who pays for the feasibility certificate):

* **witness reuse** — the parent prefix carries a rational witness point;
  its side of the next hyperplane decides one child branch for free.
* **derived witnesses** — the parent region is a relatively open convex
  polyhedron, so if it meets the new hyperplane (the sign-0 child is
  feasible, witness ``x0``) and the parent witness ``w`` lies strictly on
  one side, the segment through ``w`` and ``x0`` extended slightly past
  ``x0`` stays inside the region and lands strictly on the *other* side.
  A closed-form rational step length replaces the third LP solve.
* **system dedup** — candidate systems are normalised (sorted, duplicate
  rows removed) and memoised per build, so repeated hyperplane multiples
  and recurring subsystems hit a dictionary instead of the solver.

``witness_reuse=False`` / ``dedup=False`` select the naive baseline used
by the E2 before/after benchmark (``repro bench e2``); ``parallel`` fans
top-level sign-vector subtrees out to worker processes (see
:mod:`repro.arrangement.parallel`) while preserving the sequential face
order exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.store.disk import DiskStore

from repro.arrangement.adjacency import face_boundedness, facets_of_faces
from repro.errors import GeometryError
from repro.geometry.fourier_motzkin import LinearConstraint
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.linalg import Vector
from repro.geometry.simplex import strict_feasible_point
from repro.obs.metrics import get_registry
from repro.obs.tracing import TRACER
from repro.constraints.relation import ConstraintRelation

#: Sign-vector DFS telemetry: explored search-tree nodes, faces kept,
#: and LP solves avoided by the fast-path prunings.
_DFS_NODES = get_registry().counter("arrangement.dfs_nodes")
_FACES = get_registry().counter("arrangement.faces")
_BUILDS = get_registry().counter("arrangement.builds")
_LP_SKIPPED = get_registry().counter("arrangement.lp_skipped")
_DEDUP_HITS = get_registry().counter("arrangement.dedup_hits")
_SIGN_INDEX_BUILDS = get_registry().counter("arrangement.sign_index_builds")
from repro.arrangement.faces import (
    Face,
    SignVector,
    face_dimension,
    sign_vector_constraints,
)
from repro.arrangement.hyperplanes import hyperplanes_of_relation


@dataclass(frozen=True)
class Arrangement:
    """The arrangement A(S): hyperplanes, faces and lookups."""

    dimension: int
    hyperplanes: tuple[Hyperplane, ...]
    faces: tuple[Face, ...]
    relation: ConstraintRelation | None
    #: Lazily built ``signs -> face`` lookup.  An explicit non-field
    #: cache (excluded from ``__eq__`` / ``__hash__`` / ``repr``) instead
    #: of ``object.__setattr__`` tricks on the frozen dataclass.
    _face_index: dict = field(
        default_factory=dict, compare=False, repr=False, hash=False
    )
    #: Lazily derived face-lattice data (``"facets"``, ``"bounded"``),
    #: read off the sign vectors alone; a non-field cache like
    #: ``_face_index``.  Each value is an immutable tuple stored whole,
    #: so concurrent first calls at worst compute it twice.
    _lattice: dict = field(
        default_factory=dict, compare=False, repr=False, hash=False
    )

    # -- lookups ---------------------------------------------------------
    def face_by_signs(self, signs: SignVector) -> Face | None:
        """The face with the given position vector, if it is non-empty."""
        return self._sign_index().get(tuple(signs))

    def _sign_index(self) -> dict[SignVector, Face]:
        index = self._face_index
        if not index and self.faces:
            _SIGN_INDEX_BUILDS.inc()
            index.update({face.signs: face for face in self.faces})
        return index

    def facets(self) -> tuple[tuple[int, ...], ...]:
        """Entry ``i``: indices of the faces one dimension below face
        ``i`` in its closure (see :func:`facets_of_faces`)."""
        lattice = self._lattice
        if "facets" not in lattice:
            lattice["facets"] = facets_of_faces(self.faces)
        return lattice["facets"]

    def bounded(self) -> tuple[bool, ...]:
        """Entry ``i``: is face ``i`` bounded?  Combinatorial, no LP
        (see :func:`face_boundedness`)."""
        lattice = self._lattice
        if "bounded" not in lattice:
            lattice["bounded"] = face_boundedness(self.faces, self.facets())
        return lattice["bounded"]

    def locate(self, point: Sequence[Fraction]) -> Face:
        """The unique face containing a rational point."""
        if len(point) != self.dimension:
            raise GeometryError("point dimension mismatch")
        signs = tuple(
            int(plane.side_of(point)) for plane in self.hyperplanes
        )
        face = self.face_by_signs(signs)
        if face is None:  # pragma: no cover - the faces partition space
            raise GeometryError("point's sign vector matches no face")
        return face

    def faces_of_dimension(self, dimension: int) -> list[Face]:
        return [f for f in self.faces if f.dimension == dimension]

    @property
    def vertices(self) -> list[Face]:
        """0-dimensional faces, in canonical (lexicographic point) order."""
        zero_dim = self.faces_of_dimension(0)
        return sorted(zero_dim, key=lambda f: f.sample)

    def faces_in_relation(self) -> list[Face]:
        return [f for f in self.faces if f.in_relation]

    def face_count_by_dimension(self) -> dict[int, int]:
        """Census {dimension: number of faces} (the paper's 7/9/3 example)."""
        census: dict[int, int] = {}
        for face in self.faces:
            census[face.dimension] = census.get(face.dimension, 0) + 1
        return census

    def __iter__(self) -> Iterator[Face]:
        return iter(self.faces)

    def __len__(self) -> int:
        return len(self.faces)


def _plane_rows(
    plane: Hyperplane,
) -> dict[int, LinearConstraint]:
    """The three sign-condition rows of one hyperplane, built once."""
    return {
        sign: sign_vector_constraints([plane], (sign,))[0]
        for sign in (-1, 0, 1)
    }


def _step_beyond(
    system: Sequence[LinearConstraint],
    anchor: Vector,
    inside: Vector,
) -> Vector:
    """A point ``anchor + t·(anchor - inside)`` still satisfying ``system``.

    Both ``anchor`` and ``inside`` satisfy every row (equality rows
    exactly, strict rows strictly), so equality rows hold for every ``t``
    and each strict row ``a·x < b`` bounds ``t`` only when the slack at
    ``anchor`` is smaller than at ``inside``; half the tightest bound is
    a valid step.
    """
    t = Fraction(1)
    for row in system:
        a_anchor = sum(c * x for c, x in zip(row.coeffs, anchor))
        a_inside = sum(c * x for c, x in zip(row.coeffs, inside))
        growth = a_anchor - a_inside
        if growth > 0:
            slack = row.rhs - a_anchor
            if slack > 0:
                bound = slack / growth
                if bound < t:
                    t = bound
    t = t / 2
    return tuple(
        a + t * (a - i) for a, i in zip(anchor, inside)
    )


def _satisfies(
    system: Sequence[LinearConstraint], point: Vector
) -> bool:
    return all(row.satisfied_by(point) for row in system)


def enumerate_sign_vectors(
    hyperplanes: Sequence[Hyperplane],
    dimension: int,
    witness_reuse: bool = True,
    dedup: bool = True,
    prefix: SignVector = (),
    prefix_witness: Vector | None = None,
) -> Iterator[tuple[SignVector, Vector]]:
    """Yield every feasible full sign vector with a witness point.

    Depth-first search over partial sign vectors; a branch is cut as soon
    as its (mixed strict/equality) system is infeasible.  With
    ``witness_reuse`` the inherited witness and derived witnesses (see
    the module docstring) skip most LP solves; with ``dedup`` normalised
    candidate systems are memoised per enumeration.  Both flags exist so
    the benchmarks can run the naive baseline; disabling them never
    changes the yielded faces or their order.

    ``prefix`` / ``prefix_witness`` seed the DFS at a feasible partial
    sign vector — the parallel builder uses this to enumerate one
    subtree per worker (the seeded enumeration equals the contiguous
    slice of the full enumeration below that prefix).  A seeded run does
    not count the seed node itself in ``arrangement.dfs_nodes``: the
    caller already counted it while enumerating prefixes, so sequential
    and parallel builds report identical node totals.
    """
    n = len(hyperplanes)
    rows = [_plane_rows(plane) for plane in hyperplanes]
    memo: dict[frozenset, Vector | None] = {}

    def solve(
        candidate: list[LinearConstraint],
    ) -> Vector | None:
        if not dedup:
            return strict_feasible_point(candidate, dimension)
        key = frozenset(candidate)
        if key in memo:
            _DEDUP_HITS.inc()
            _LP_SKIPPED.inc()
            return memo[key]
        point = strict_feasible_point(candidate, dimension)
        memo[key] = point
        return point

    def children(
        system: list[LinearConstraint],
        witness: Vector,
        level: int,
    ) -> dict[int, Vector | None]:
        """Feasibility witness (or None) for each sign of the next plane."""
        plane = hyperplanes[level]
        plane_rows = rows[level]
        if not witness_reuse:
            return {
                sign: solve(system + [plane_rows[sign]])
                for sign in (-1, 0, 1)
            }
        result: dict[int, Vector | None] = {}
        witness_sign = int(plane.side_of(witness))
        result[witness_sign] = witness
        _LP_SKIPPED.inc()
        if witness_sign == 0:
            # Witness on the plane: solve one open side; a hit yields the
            # other side by stepping through the witness.
            above = solve(system + [plane_rows[1]])
            result[1] = above
            if above is not None:
                derived = _step_beyond(system, witness, above)
                if _satisfies(system + [plane_rows[-1]], derived):
                    result[-1] = derived
                    _LP_SKIPPED.inc()
                else:  # pragma: no cover - the step length is exact
                    result[-1] = solve(system + [plane_rows[-1]])
            else:
                result[-1] = solve(system + [plane_rows[-1]])
            return result
        # Witness strictly on one side: the parent region is convex, so
        # it meets the opposite open side iff it meets the plane — and a
        # point on the plane yields the opposite-side witness by a
        # rational step, no second LP.
        on_plane = solve(system + [plane_rows[0]])
        result[0] = on_plane
        opposite = -witness_sign
        if on_plane is None:
            result[opposite] = None
            _LP_SKIPPED.inc()
        else:
            derived = _step_beyond(system, on_plane, witness)
            if _satisfies(system + [plane_rows[opposite]], derived):
                result[opposite] = derived
                _LP_SKIPPED.inc()
            else:  # pragma: no cover - the step length is exact
                result[opposite] = solve(system + [plane_rows[opposite]])
        return result

    def extend(
        prefix: list[int],
        system: list[LinearConstraint],
        witness: Vector,
        seeded: bool = False,
    ) -> Iterator[tuple[SignVector, Vector]]:
        if not seeded:
            _DFS_NODES.inc()
        if len(prefix) == n:
            yield tuple(prefix), witness
            return
        level = len(prefix)
        branch = children(system, witness, level)
        for sign in (-1, 0, 1):
            child_witness = branch[sign]
            if child_witness is None:
                continue
            prefix.append(sign)
            yield from extend(
                prefix, system + [rows[level][sign]], child_witness
            )
            prefix.pop()

    if prefix:
        if prefix_witness is None:
            raise GeometryError("a seeded prefix needs its witness point")
        base_system = [rows[i][sign] for i, sign in enumerate(prefix)]
        yield from extend(
            list(prefix), base_system, prefix_witness, seeded=True
        )
        return
    origin: Vector = (Fraction(0),) * dimension
    yield from extend([], [], origin)


def _resolve_planes(
    relation: ConstraintRelation | None,
    hyperplanes: Sequence[Hyperplane] | None,
    dimension: int | None,
) -> tuple[Sequence[Hyperplane], int]:
    if relation is not None:
        extracted = hyperplanes_of_relation(relation)
        if hyperplanes is not None:
            merged = {*extracted, *hyperplanes}
            planes: Sequence[Hyperplane] = sorted(
                merged, key=lambda h: (h.normal, h.offset)
            )
        else:
            planes = extracted
        ambient = relation.arity
    else:
        if hyperplanes is None or dimension is None:
            raise GeometryError(
                "need either a relation or hyperplanes plus a dimension"
            )
        planes = list(hyperplanes)
        ambient = dimension
    for plane in planes:
        if plane.dimension != ambient:
            raise GeometryError(
                f"hyperplane dimension {plane.dimension} != ambient {ambient}"
            )
    return planes, ambient


def build_arrangement(
    relation: ConstraintRelation | None = None,
    hyperplanes: Sequence[Hyperplane] | None = None,
    dimension: int | None = None,
    parallel: int | None = None,
    witness_reuse: bool = True,
    dedup: bool = True,
    store: "DiskStore | None" = None,
) -> Arrangement:
    """Build A(S) from a relation, or from an explicit hyperplane set.

    When a relation is given, 𝕳(S) is extracted from its DNF atoms and
    every face is classified as inside or outside S by evaluating the
    representation at the face's witness point (faces are in-or-out by
    construction).  An explicit hyperplane list can be supplied instead
    (for raw geometric experiments, with ``dimension``), or *in addition*
    to the relation — then the union of both hyperplane sets is used,
    which yields a refinement of A(S); every face of a refinement is
    still in-or-out of S, so all region-logic semantics carry over
    (the paper notes the languages do not depend on the particular
    decomposition).

    ``parallel`` requests process-parallel construction with that many
    workers (``None`` consults the ``REPRO_JOBS`` environment variable,
    default sequential); the face set and its order are identical to the
    sequential build, and construction falls back to sequential when
    worker processes are unavailable.  ``witness_reuse`` / ``dedup``
    toggle the fast-path prunings (see :func:`enumerate_sign_vectors`).

    ``store`` (default: :func:`repro.store.active_store`, i.e. the
    ``--cache-dir`` / ``REPRO_CACHE_DIR`` setting) persists the finished
    arrangement on disk and answers later builds of the same content
    from it — including in other processes.  Only the default fast path
    goes through the store: the naive baseline (``witness_reuse=False``
    or ``dedup=False``) exists to *measure* construction, so it always
    rebuilds, and its witness points may legitimately differ from the
    fast path's.  A disk hit skips sign-vector enumeration (and worker
    pools) entirely; corrupted or mismatched entries are ignored and
    the arrangement is rebuilt.
    """
    planes, ambient = _resolve_planes(relation, hyperplanes, dimension)

    disk = None
    key = None
    if witness_reuse and dedup:
        # Deferred import: repro.store's codec imports this module.
        from repro import store as store_pkg

        disk = store if store is not None else store_pkg.active_store()
        if disk is not None:
            key = store_pkg.arrangement_key(planes, ambient, relation)
            cached = disk.load("arrangement", key)
            if (
                isinstance(cached, Arrangement)
                and cached.dimension == ambient
                and cached.hyperplanes == tuple(planes)
            ):
                if relation is not None:
                    # Reattach the caller's relation object so its memoised
                    # DNF/simplification caches keep working downstream.
                    cached = Arrangement(
                        cached.dimension,
                        cached.hyperplanes,
                        cached.faces,
                        relation,
                    )
                return cached

    from repro.arrangement.parallel import enumerate_parallel, resolve_jobs

    jobs = resolve_jobs(parallel)
    _BUILDS.inc()
    with TRACER.span("arrangement.build") as build_span:
        if jobs > 1 and len(planes) > 1:
            pairs = enumerate_parallel(
                planes,
                ambient,
                jobs,
                witness_reuse=witness_reuse,
                dedup=dedup,
            )
        else:
            pairs = enumerate_sign_vectors(
                planes,
                ambient,
                witness_reuse=witness_reuse,
                dedup=dedup,
            )
        faces: list[Face] = []
        for index, (signs, witness) in enumerate(pairs):
            dim = face_dimension(planes, signs, ambient)
            inside = (
                relation.contains(witness) if relation is not None else False
            )
            faces.append(Face(index, signs, dim, witness, inside))
        _FACES.inc(len(faces))
        build_span.set("hyperplanes", len(planes))
        build_span.set("faces", len(faces))
        build_span.set("jobs", jobs)
        arrangement = Arrangement(
            ambient, tuple(planes), tuple(faces), relation
        )
        if disk is not None and key is not None:
            disk.save("arrangement", key, arrangement)
        return arrangement
