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
avoid them (all four fast paths are exact — they never change the
face set, only who pays for the feasibility certificate):

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
* **interval search** — when every plane is axis-parallel (``x_i = c``,
  one non-zero normal coefficient), a node's system is a box: each
  branch carries per-variable bounds, and a child tightens one of them.
  Feasibility and the witness the LP would return are bound comparisons
  (:func:`~repro.geometry.simplex.interval_point` per variable), and
  witness reuse and derived witnesses read the same bounds.  No LP, no
  system copy, no memo; the faces and witnesses are the LP path's.

``witness_reuse=False`` / ``dedup=False`` select the naive baseline that
the E2 equivalence run (``repro bench e2``) checks against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.store.disk import DiskStore

from repro.arrangement.adjacency import face_boundedness, facets_of_faces
from repro.errors import GeometryError
from repro.geometry.fourier_motzkin import LinearConstraint
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.linalg import Vector
from repro.geometry.simplex import (
    FREE_INTERVAL,
    Interval,
    interval_contains,
    interval_point,
    strict_feasible_point,
    tighten_interval,
)
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
from repro.arrangement.hyperplanes import (
    hyperplanes_of_relation,
    membership_by_signs,
)


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


def _step_within(
    bounds: Sequence[Interval], anchor: Vector, inside: Vector
) -> Vector:
    """:func:`_step_beyond` over per-variable bounds.

    A row on one coordinate has the ratio ``slack / growth`` equal to
    ``(bound - anchor_i) / (anchor_i - inside_i)`` (its coefficient
    cancels), so the tightest row on a coordinate is its tightest bound
    on the side ``anchor`` moves towards: the same ``t``, the same
    point.  (Sign-condition rows are
    strict or equalities, so no bound is tight at ``anchor``, and a
    pinned coordinate does not move.)
    """
    t = Fraction(1)
    for (lower, __, upper, __, __), a, i in zip(bounds, anchor, inside):
        growth = a - i
        if growth > 0 and upper is not None:
            bound = (upper - a) / growth
        elif growth < 0 and lower is not None:
            bound = (lower - a) / growth
        else:
            continue
        if bound < t:
            t = bound
    t = t / 2
    return tuple(
        a + t * (a - i) for a, i in zip(anchor, inside)
    )


def _branch(
    witness_sign: int,
    witness: Vector,
    solve: Callable[[int], Vector | None],
    step: Callable[[Vector, Vector], Vector],
    holds: Callable[[int, Vector], bool],
) -> dict[int, Vector | None]:
    """Witness (or None) for each sign of the next plane, with reuse.

    ``witness`` lies on the ``witness_sign`` side, which it decides for
    free.  ``solve(sign)`` is the feasibility solve of one child,
    ``step(anchor, inside)`` a step past ``anchor`` that stays in the
    parent region, and ``holds(sign, point)`` checks a point against a
    child's system.  Both search paths share this rule, so they make
    the same choices and keep the same witnesses.
    """
    result: dict[int, Vector | None] = {witness_sign: witness}
    _LP_SKIPPED.inc()

    def derive(sign: int, anchor: Vector, inside: Vector) -> Vector | None:
        derived = step(anchor, inside)
        if holds(sign, derived):
            _LP_SKIPPED.inc()
            return derived
        return solve(sign)  # pragma: no cover - the step length is exact

    if witness_sign == 0:
        # Witness on the plane: solve one open side; a hit yields the
        # other side by stepping through the witness.
        above = solve(1)
        result[1] = above
        result[-1] = (
            solve(-1) if above is None else derive(-1, witness, above)
        )
        return result
    # Witness strictly on one side: the parent region is convex, so
    # it meets the opposite open side iff it meets the plane — and a
    # point on the plane yields the opposite-side witness by a
    # rational step, no second solve.
    on_plane = solve(0)
    result[0] = on_plane
    opposite = -witness_sign
    if on_plane is None:
        result[opposite] = None
        _LP_SKIPPED.inc()
    else:
        result[opposite] = derive(opposite, on_plane, witness)
    return result


def _axes_of(hyperplanes: Sequence[Hyperplane]) -> list[int] | None:
    """Each plane's axis when every plane is ``x_i = c``, else ``None``."""
    axes = [plane.axis for plane in hyperplanes]
    return None if None in axes else axes


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
    ``repro bench e2`` can run the naive baseline; disabling them never
    changes the yielded faces or their order.  When every plane is
    axis-parallel the fast path runs on per-variable bounds instead
    (:func:`_enumerate_on_axes`), with the same faces and witnesses.

    ``prefix`` / ``prefix_witness`` seed the DFS at a feasible partial
    sign vector (the seeded enumeration equals the contiguous slice of
    the full enumeration below that prefix).  A seeded run does not
    count the seed node itself in ``arrangement.dfs_nodes``.
    """
    if prefix and prefix_witness is None:
        raise GeometryError("a seeded prefix needs its witness point")
    rows = [_plane_rows(plane) for plane in hyperplanes]
    if witness_reuse and dedup:
        axes = _axes_of(hyperplanes)
        if axes is not None:
            return _enumerate_on_axes(
                hyperplanes, rows, axes, dimension, prefix, prefix_witness
            )
    return _enumerate_with_lp(
        hyperplanes, rows, dimension, witness_reuse, dedup, prefix,
        prefix_witness,
    )


def _enumerate_with_lp(
    hyperplanes: Sequence[Hyperplane],
    rows: list[dict[int, LinearConstraint]],
    dimension: int,
    witness_reuse: bool,
    dedup: bool,
    prefix: SignVector,
    prefix_witness: Vector | None,
) -> Iterator[tuple[SignVector, Vector]]:
    """The search for general planes: each node's system, solved by LP."""
    n = len(hyperplanes)
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
        plane_rows = rows[level]
        if not witness_reuse:
            return {
                sign: solve(system + [plane_rows[sign]])
                for sign in (-1, 0, 1)
            }
        return _branch(
            int(hyperplanes[level].side_of(witness)),
            witness,
            solve=lambda sign: solve(system + [plane_rows[sign]]),
            step=lambda anchor, inside: _step_beyond(system, anchor, inside),
            holds=lambda sign, point: _satisfies(
                system + [plane_rows[sign]], point
            ),
        )

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
        base_system = [rows[i][sign] for i, sign in enumerate(prefix)]
        yield from extend(
            list(prefix), base_system, prefix_witness, seeded=True
        )
        return
    origin: Vector = (Fraction(0),) * dimension
    yield from extend([], [], origin)


def _enumerate_on_axes(
    hyperplanes: Sequence[Hyperplane],
    rows: list[dict[int, LinearConstraint]],
    axes: list[int],
    dimension: int,
    prefix: SignVector,
    prefix_witness: Vector | None,
) -> Iterator[tuple[SignVector, Vector]]:
    """The search when every plane is ``x_i = c``: no LP.

    Each branch carries its system as per-variable bounds and the point
    :func:`strict_feasible_point` would return for it: one
    :func:`~repro.geometry.simplex.interval_point` per variable, 0 for
    a variable with no rows.  A child tightens one variable by the rule
    of :func:`~repro.geometry.simplex.tighten_interval`, the rule the
    LP path's interval solve folds its rows with, so every solve,
    derived witness and check reads what the LP path would.
    """
    n = len(hyperplanes)
    # Each sign row as (coefficient on its axis, relation, rhs).
    terms = [
        {sign: (row.coeffs[axis], row.rel, row.rhs)
         for sign, row in plane_rows.items()}
        for plane_rows, axis in zip(rows, axes)
    ]

    def extend(
        signs: list[int],
        bounds: tuple[Interval, ...],
        point: Vector,
        witness: Vector,
        seeded: bool = False,
    ) -> Iterator[tuple[SignVector, Vector]]:
        if not seeded:
            _DFS_NODES.inc()
        if len(signs) == n:
            yield tuple(signs), witness
            return
        level = len(signs)
        axis = axes[level]
        child_bounds: dict[int, tuple[Interval, ...]] = {}
        child_point: dict[int, Vector] = {}
        for sign in (-1, 0, 1):
            interval = tighten_interval(bounds[axis], *terms[level][sign])
            if interval is None:
                continue
            value = interval_point(*interval)
            if value is None:
                continue
            child_bounds[sign] = (
                bounds[:axis] + (interval,) + bounds[axis + 1:]
            )
            child_point[sign] = point[:axis] + (value,) + point[axis + 1:]
        branch = _branch(
            int(hyperplanes[level].side_of(witness)),
            witness,
            solve=child_point.get,
            step=lambda anchor, inside: _step_within(bounds, anchor, inside),
            holds=lambda sign, candidate: sign in child_bounds and all(
                interval_contains(interval, value)
                for interval, value in zip(child_bounds[sign], candidate)
            ),
        )
        for sign in (-1, 0, 1):
            child_witness = branch[sign]
            if child_witness is None:
                continue
            signs.append(sign)
            yield from extend(
                signs, child_bounds[sign], child_point[sign], child_witness
            )
            signs.pop()

    bounds: list[Interval | None] = [FREE_INTERVAL] * dimension
    for level, sign in enumerate(prefix):
        axis = axes[level]
        if bounds[axis] is not None:
            bounds[axis] = tighten_interval(
                bounds[axis], *terms[level][sign]
            )
    values = [
        None if interval is None else interval_point(*interval)
        for interval in bounds
    ]
    if None in values:
        raise GeometryError("the seeded prefix is infeasible")
    witness = prefix_witness if prefix else tuple(values)
    yield from extend(
        list(prefix), tuple(bounds), tuple(values), witness,
        seeded=bool(prefix),
    )


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


#: :func:`build_arrangement`'s default ``store``: the one ``EngineConfig()``
#: names.  Callers that resolved their own (the engine) pass it, ``None``
#: included, so a "no store" decision is never taken again.
_CONFIGURED_STORE: Any = object()


def build_arrangement(
    relation: ConstraintRelation | None = None,
    hyperplanes: Sequence[Hyperplane] | None = None,
    dimension: int | None = None,
    witness_reuse: bool = True,
    dedup: bool = True,
    store: "DiskStore | None" = _CONFIGURED_STORE,
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

    ``witness_reuse`` / ``dedup`` toggle the fast-path prunings (see
    :func:`enumerate_sign_vectors`).

    ``store`` (default: the store ``EngineConfig()`` names, i.e.
    ``REPRO_CACHE_DIR``, resolved once on entry; ``None``: no store)
    persists the finished arrangement on disk and answers later builds
    of the same content from it — including in other processes.  Only
    the default fast path goes through the store: the naive baseline
    (``witness_reuse=False`` or ``dedup=False``) exists to *measure*
    construction, so it always rebuilds, and its witness points may
    legitimately differ from the fast path's.  A disk hit skips
    sign-vector enumeration entirely; corrupted or mismatched entries
    are ignored and the arrangement is rebuilt.
    """
    planes, ambient = _resolve_planes(relation, hyperplanes, dimension)

    disk = None
    key = None
    if witness_reuse and dedup:
        # Deferred import: repro.store's codec imports this module.
        from repro import store as store_pkg

        disk = store
        if disk is _CONFIGURED_STORE:
            from repro.config import EngineConfig

            disk = EngineConfig().store()
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

    _BUILDS.inc()
    with TRACER.span("arrangement.build") as build_span:
        pairs = enumerate_sign_vectors(
            planes,
            ambient,
            witness_reuse=witness_reuse,
            dedup=dedup,
        )
        inside = membership_by_signs(relation, planes)
        faces: list[Face] = []
        for index, (signs, witness) in enumerate(pairs):
            dim = face_dimension(planes, signs, ambient)
            faces.append(
                Face(index, signs, dim, witness, inside(signs, witness))
            )
        _FACES.inc(len(faces))
        build_span.set("hyperplanes", len(planes))
        build_span.set("faces", len(faces))
        arrangement = Arrangement(
            ambient, tuple(planes), tuple(faces), relation
        )
        if disk is not None and key is not None:
            disk.save("arrangement", key, arrangement)
        return arrangement
