"""Tests for incremental arrangement construction.

The incremental builder must produce the same arrangement (hyperplanes,
sign vectors, dimensions, membership bits) as the batch DFS builder —
witness points may differ, everything combinatorial must agree.  Also
checks the planar Euler relation V − E + F = 1 as a global sanity
invariant for 2-D arrangements.

Zone insertion is held to :class:`PerFaceOracle`, which solves for
every existing face and re-derives dimensions by rank: on seeded
random mutation sequences both must agree exactly, witness points and
store bytes included.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.hyperplane import Hyperplane
from repro.constraints.parser import parse_formula
from repro.constraints.relation import ConstraintRelation
from repro.arrangement.builder import build_arrangement
from repro.arrangement.faces import face_dimension, sign_vector_constraints
from repro.arrangement.hyperplanes import hyperplanes_of_relation
from repro.arrangement.incremental import (
    IncrementalArrangement,
    build_arrangement_incremental,
)
from repro.geometry.simplex import (
    clear_feasibility_cache,
    strict_feasible_point,
)
from repro.incremental import (
    MaintainedArrangements,
    apply_delta,
    invert,
    make_delta,
)
from repro.obs.metrics import get_registry
from repro.store.codec import canonical_json, encode
from repro.workloads.generators import interval_chain

F = Fraction


def combinatorial_signature(arrangement):
    return sorted(
        (face.signs, face.dimension, face.in_relation)
        for face in arrangement.faces
    )


def triangle_relation():
    return ConstraintRelation.make(
        ("x", "y"), parse_formula("x >= 0 & y >= 0 & x + y <= 1")
    )


class TestIncrementalMatchesBatch:
    def test_triangle(self):
        relation = triangle_relation()
        batch = build_arrangement(relation)
        incremental = build_arrangement_incremental(relation)
        assert combinatorial_signature(batch) == \
            combinatorial_signature(incremental)
        assert incremental.face_count_by_dimension() == {2: 7, 1: 9, 0: 3}

    def test_explicit_planes(self):
        planes = [
            Hyperplane.make([1, 0], 0),
            Hyperplane.make([0, 1], 0),
            Hyperplane.make([1, 1], 2),
        ]
        batch = build_arrangement(hyperplanes=planes, dimension=2)
        incremental = build_arrangement_incremental(
            hyperplanes=planes, dimension=2
        )
        assert combinatorial_signature(batch) == \
            combinatorial_signature(incremental)

    @given(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                      st.integers(-2, 2)).filter(
                lambda t: (t[0], t[1]) != (0, 0)
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_agreement_property(self, rows):
        planes = sorted(
            {Hyperplane.make([a, b], c) for a, b, c in rows},
            key=lambda h: (h.normal, h.offset),
        )
        batch = build_arrangement(hyperplanes=planes, dimension=2)
        incremental = build_arrangement_incremental(
            hyperplanes=planes, dimension=2
        )
        assert combinatorial_signature(batch) == \
            combinatorial_signature(incremental)


class TestIncrementalMechanics:
    def test_empty_arrangement(self):
        incremental = IncrementalArrangement(2)
        assert len(incremental) == 1
        arrangement = incremental.to_arrangement()
        assert arrangement.face_count_by_dimension() == {2: 1}

    def test_insert_counts(self):
        incremental = IncrementalArrangement(1)
        created = incremental.insert(Hyperplane.make([1], 0))
        # One cell became vertex + two rays: 2 new faces.
        assert created == 2
        assert len(incremental) == 3
        created = incremental.insert(Hyperplane.make([1], 1))
        assert created == 2
        assert len(incremental) == 5

    def test_duplicate_hyperplane_creates_nothing(self):
        incremental = IncrementalArrangement(1)
        plane = Hyperplane.make([1], 0)
        incremental.insert(plane)
        before = len(incremental)
        created = incremental.insert(Hyperplane.make([2], 0))  # same plane
        assert created == 0
        assert len(incremental) == before
        # Sign vectors grew by one consistent column.
        arrangement = incremental.to_arrangement()
        for face in arrangement:
            assert face.signs[0] == face.signs[1]

    def test_dimension_checks(self):
        with pytest.raises(GeometryError):
            IncrementalArrangement(0)
        incremental = IncrementalArrangement(2)
        with pytest.raises(GeometryError):
            incremental.insert(Hyperplane.make([1], 0))
        with pytest.raises(GeometryError):
            build_arrangement_incremental()


class TestEulerRelation:
    """For any line arrangement partitioning the plane:
    #vertices − #edges + #cells = 1 (Euler characteristic of ℝ²)."""

    @given(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                      st.integers(-3, 3)).filter(
                lambda t: (t[0], t[1]) != (0, 0)
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_euler_characteristic(self, rows):
        planes = list({Hyperplane.make([a, b], c) for a, b, c in rows})
        arrangement = build_arrangement_incremental(
            hyperplanes=planes, dimension=2
        )
        census = arrangement.face_count_by_dimension()
        euler = (
            census.get(0, 0) - census.get(1, 0) + census.get(2, 0)
        )
        assert euler == 1

    def test_euler_on_one_dimension(self):
        # On the line: #points - #intervals = -1 (χ(ℝ) = -1... with
        # n points and n+1 open intervals: n - (n+1) = -1).
        planes = [Hyperplane.make([1], i) for i in range(4)]
        arrangement = build_arrangement_incremental(
            hyperplanes=planes, dimension=1
        )
        census = arrangement.face_count_by_dimension()
        assert census[0] - census[1] == -1


class TestRetraction:
    """retract() is insert()'s inverse on the face lattice."""

    def test_insert_then_retract_restores_combinatorics(self):
        relation = triangle_relation()
        incremental = IncrementalArrangement(2)
        incremental.insert_all(hyperplanes_of_relation(relation))
        reference = combinatorial_signature(
            incremental.to_arrangement(relation)
        )
        extra = Hyperplane.make([1, 1], 7)
        created = incremental.insert(extra)
        assert created > 0
        merged = incremental.retract(extra)
        assert merged == created
        assert combinatorial_signature(
            incremental.to_arrangement(relation)
        ) == reference

    def test_retract_interior_plane_matches_batch(self):
        """Retracting from the middle (not LIFO) still lands on the
        batch arrangement of the remaining planes."""
        planes = [
            Hyperplane.make([1, 0], 0),
            Hyperplane.make([0, 1], 0),
            Hyperplane.make([1, 1], 1),
        ]
        incremental = IncrementalArrangement(2)
        incremental.insert_all(planes)
        incremental.retract(planes[1])
        remaining = [planes[0], planes[2]]
        incremental.reorder(remaining)
        batch = build_arrangement(
            hyperplanes=remaining, dimension=2
        )
        assert combinatorial_signature(incremental.to_arrangement()) \
            == combinatorial_signature(batch)

    def test_retract_duplicate_drops_column_only(self):
        incremental = IncrementalArrangement(1)
        plane = Hyperplane.make([1], 0)
        incremental.insert(plane)
        incremental.insert(Hyperplane.make([2], 0))  # same plane
        faces_before = len(incremental)
        merged = incremental.retract(plane)
        assert merged == 0
        assert len(incremental) == faces_before
        # The surviving column still separates the line at 0.
        assert len(incremental.hyperplanes) == 1

    def test_retract_unknown_plane_raises(self):
        incremental = IncrementalArrangement(1)
        incremental.insert(Hyperplane.make([1], 0))
        with pytest.raises(GeometryError):
            incremental.retract(Hyperplane.make([1], 5))

    def test_retract_to_empty(self):
        incremental = IncrementalArrangement(2)
        plane = Hyperplane.make([1, 0], 0)
        incremental.insert(plane)
        incremental.retract(plane)
        assert len(incremental) == 1
        assert incremental.to_arrangement().face_count_by_dimension() \
            == {2: 1}

    @given(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                      st.integers(-3, 3)).filter(
                lambda t: (t[0], t[1]) != (0, 0)
            ),
            min_size=2,
            max_size=4,
            unique=True,
        ),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_retract_any_plane_matches_batch(self, rows, data):
        planes = list({Hyperplane.make([a, b], c) for a, b, c in rows})
        victim = data.draw(st.sampled_from(planes), label="retracted")
        incremental = IncrementalArrangement(2)
        incremental.insert_all(planes)
        incremental.retract(victim)
        remaining = [p for p in planes if p != victim]
        incremental.reorder(remaining)
        batch = build_arrangement(hyperplanes=remaining, dimension=2)
        assert combinatorial_signature(incremental.to_arrangement()) \
            == combinatorial_signature(batch)


class TestCounterParity:
    """Both construction paths feed one coherent counter family.

    ``arrangement.builds`` moves by one and ``arrangement.faces`` by
    the face count per frozen arrangement, whether the batch DFS or an
    incremental freeze produced it; the incremental-only counters
    (``insertions``/``split_faces``/``retractions``/``merged_faces``)
    move only on the incremental path (docs/OBSERVABILITY.md)."""

    def test_builds_and_faces_move_identically(self, monkeypatch):
        from repro.obs.metrics import get_registry

        # A disk store would answer the batch build without building.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        relation = triangle_relation()
        registry = get_registry()

        before = (registry.get("arrangement.builds"),
                  registry.get("arrangement.faces"))
        batch = build_arrangement(relation)
        batch_delta = (
            registry.get("arrangement.builds") - before[0],
            registry.get("arrangement.faces") - before[1],
        )

        incremental = IncrementalArrangement(2)
        incremental.insert_all(hyperplanes_of_relation(relation))
        before = (registry.get("arrangement.builds"),
                  registry.get("arrangement.faces"))
        frozen = incremental.to_arrangement(relation)
        incremental_delta = (
            registry.get("arrangement.builds") - before[0],
            registry.get("arrangement.faces") - before[1],
        )

        assert batch_delta == (1, len(batch.faces))
        assert incremental_delta == (1, len(frozen.faces))
        assert len(batch.faces) == len(frozen.faces)

    def test_incremental_only_counters_stay_put_on_batch_path(self):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        names = (
            "arrangement.insertions",
            "arrangement.split_faces",
            "arrangement.retractions",
            "arrangement.merged_faces",
        )
        before = {name: registry.get(name) for name in names}
        build_arrangement(triangle_relation())
        for name in names:
            assert registry.get(name) == before[name], name

    def test_mutation_counters_move_on_incremental_path(self):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        incremental = IncrementalArrangement(1)
        plane = Hyperplane.make([1], 0)
        before_ins = registry.get("arrangement.insertions")
        before_ret = registry.get("arrangement.retractions")
        incremental.insert(plane)
        incremental.retract(plane)
        assert registry.get("arrangement.insertions") == before_ins + 1
        assert registry.get("arrangement.retractions") == before_ret + 1


class TestReorder:
    def test_reorder_rejects_non_permutations(self):
        a = Hyperplane.make([1, 0], 0)
        b = Hyperplane.make([0, 1], 0)
        c = Hyperplane.make([1, 1], 1)
        incremental = IncrementalArrangement(2)
        incremental.insert_all([a, b])
        for target in ([a], [a, b, c], [a, c], [a, a]):
            with pytest.raises(GeometryError):
                incremental.reorder(target)
        incremental.reorder([b, a])
        assert incremental.hyperplanes == [b, a]
        # Multiplicity counts: a duplicated plane must appear as often.
        incremental.insert(a)
        incremental.reorder([a, b, a])
        with pytest.raises(GeometryError):
            incremental.reorder([a, b, b])


# ---------------------------------------------------------------------------
# Zone insertion against the per-face oracle
# ---------------------------------------------------------------------------
class PerFaceOracle(IncrementalArrangement):
    """Insertion and retraction as every face paying its own way.

    Insertion runs the two exact solves for every existing face, and
    retraction re-certifies every face's witness; dimensions are
    re-derived by rank after each mutation rather than carried.
    """

    def _insert_new(self, hyperplane):
        new_signs = []
        new_witnesses = []
        created = 0
        for signs, witness in zip(self._signs, self._witnesses):
            base_system = sign_vector_constraints(self.hyperplanes, signs)
            witness_sign = int(hyperplane.side_of(witness))
            survivors = 0
            for sign in (-1, 0, 1):
                if sign == witness_sign:
                    child_witness = witness
                else:
                    extra = sign_vector_constraints([hyperplane], (sign,))
                    child_witness = strict_feasible_point(
                        base_system + extra, self.dimension
                    )
                if child_witness is None:
                    continue
                new_signs.append(signs + (sign,))
                new_witnesses.append(child_witness)
                survivors += 1
            created += survivors - 1
        self.hyperplanes.append(hyperplane)
        self._signs = new_signs
        self._witnesses = new_witnesses
        self._rank_dims()
        return created

    def _retract_unique(self, index):
        merged = {}
        for signs, witness in zip(self._signs, self._witnesses):
            reduced = signs[:index] + signs[index + 1:]
            if reduced not in merged:
                merged[reduced] = witness
        removed = len(self._signs) - len(merged)
        planes = self.hyperplanes
        new_witnesses = []
        for reduced, witness in merged.items():
            if not all(
                int(plane.side_of(witness)) == sign
                for plane, sign in zip(planes, reduced)
            ):
                witness = strict_feasible_point(
                    sign_vector_constraints(planes, reduced), self.dimension
                )
            new_witnesses.append(witness)
        self._signs = list(merged)
        self._witnesses = new_witnesses
        self._rank_dims()
        return removed

    def _rank_dims(self):
        self._dims = [
            face_dimension(self.hyperplanes, signs, self.dimension)
            for signs in self._signs
        ]


#: Upper bounds on live planes per ambient dimension, so the oracle's
#: every-face LPs stay cheap.
MAX_PLANES = {1: 7, 2: 6, 3: 5}

RELATIONS = {
    1: "x0 <= 1",
    2: "x0 + x1 <= 1 & x1 >= -1",
    3: "x0 + x1 - x2 <= 1 & x2 >= -1",
}


def _random_normal(rng, dimension):
    while True:
        normal = [rng.randint(-2, 2) for _ in range(dimension)]
        if any(normal):
            return normal


def _next_mutation(rng, oracle, retracted):
    """One seeded mutation: an ``("insert" | "retract", plane)`` pair.

    Mixes retractions, re-insertions of retracted planes, planes
    parallel to a live one, planes through a live vertex, scaled
    duplicates of a live plane and fresh planes.
    """
    dimension = oracle.dimension
    draw = rng.random()
    live = list(oracle.hyperplanes)
    full = len(set(live)) >= MAX_PLANES[dimension]
    if live and (full or draw < 0.2):
        plane = rng.choice(live)
        retracted.append(plane)
        return "retract", plane
    if retracted and draw < 0.3:
        return "insert", retracted.pop(rng.randrange(len(retracted)))
    if live and draw < 0.45:
        base = rng.choice(live)
        return "insert", Hyperplane.make(
            list(base.normal), base.offset + rng.choice([-2, -1, 1, 2])
        )
    vertices = [
        witness for witness, dim in zip(oracle._witnesses, oracle._dims)
        if dim == 0
    ]
    if vertices and draw < 0.65:
        vertex = rng.choice(vertices)
        normal = _random_normal(rng, dimension)
        offset = sum(Fraction(c) * x for c, x in zip(normal, vertex))
        return "insert", Hyperplane.make(normal, offset)
    if live and draw < 0.75:
        base = rng.choice(live)
        factor = rng.choice([2, 3])
        return "insert", Hyperplane.make(
            [factor * c for c in base.normal], factor * base.offset
        )
    return "insert", Hyperplane.make(
        _random_normal(rng, dimension), rng.randint(-3, 3)
    )


def _assert_identical(incremental, oracle, relation):
    assert incremental.hyperplanes == oracle.hyperplanes
    assert incremental._dims == [
        face_dimension(incremental.hyperplanes, signs, incremental.dimension)
        for signs in incremental._signs
    ]
    frozen = incremental.to_arrangement(relation)
    expected = oracle.to_arrangement(relation)
    assert [
        (f.signs, f.sample, f.dimension, f.in_relation) for f in frozen.faces
    ] == [
        (f.signs, f.sample, f.dimension, f.in_relation)
        for f in expected.faces
    ]
    assert canonical_json(encode("arrangement", frozen)) == \
        canonical_json(encode("arrangement", expected))


class TestZoneInsertionMatchesOracle:
    """Zone insertion and merged-only retraction against the oracle:
    identical sign vectors, witnesses, dimensions, membership bits and
    store bytes after every mutation of a seeded random script."""

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_mutation_scripts(self, dimension, seed):
        variables = [f"x{i}" for i in range(dimension)]
        relation = ConstraintRelation.make(
            variables, parse_formula(RELATIONS[dimension])
        )
        incremental = IncrementalArrangement(dimension)
        oracle = PerFaceOracle(dimension)
        rng = random.Random(1000 * dimension + seed)
        retracted = []
        for _ in range(9):
            op, plane = _next_mutation(rng, oracle, retracted)
            if op == "retract":
                assert incremental.retract(plane) == oracle.retract(plane)
            else:
                assert incremental.insert(plane) == oracle.insert(plane)
            _assert_identical(incremental, oracle, relation)
        canonical = sorted(
            Counter(oracle.hyperplanes).elements(),
            key=lambda h: (h.normal, h.offset),
        )
        incremental.reorder(canonical)
        oracle.reorder(canonical)
        _assert_identical(incremental, oracle, relation)

    def test_adopted_arrangement_matches_oracle(self):
        relation = triangle_relation()
        built = build_arrangement(relation)
        incremental = IncrementalArrangement.from_arrangement(built)
        oracle = PerFaceOracle.from_arrangement(built)
        for plane in (
            Hyperplane.make([1, -1], 0),   # through a vertex
            Hyperplane.make([1, 1], 3),    # parallel, outside the triangle
            Hyperplane.make([0, 1], 0),    # duplicate
        ):
            incremental.insert(plane)
            oracle.insert(plane)
            _assert_identical(incremental, oracle, relation)


class TestZoneLPCount:
    """One insertion pays LPs for its zone and the unbounded faces only.

    On ``interval_chain(n)`` a plane strictly inside one segment meets
    one bounded face; the two rays are the only other faces solved, so
    the exact-solve count is the same for every n while the solves
    avoided grow with n."""

    @staticmethod
    def _insert_and_retract(segments):
        relation = interval_chain(segments).spatial
        incremental = IncrementalArrangement.from_arrangement(
            build_arrangement(relation)
        )
        before = incremental.to_arrangement(relation)
        registry = get_registry()
        clear_feasibility_cache()
        solves = registry.get("lp.solves")
        skipped = registry.get("arrangement.lp_skipped")
        plane = Hyperplane.make([2], 1)  # x0 = 1/2, not an endpoint
        assert incremental.insert(plane) == 2
        solves = registry.get("lp.solves") - solves
        skipped = registry.get("arrangement.lp_skipped") - skipped
        recertified = registry.get("arrangement.witness_recertified")
        incremental.retract(plane)
        recertified = (
            registry.get("arrangement.witness_recertified") - recertified
        )
        # The merged segment keeps its first child's witness, so only
        # the combinatorics come back exactly.
        assert combinatorial_signature(
            incremental.to_arrangement(relation)
        ) == combinatorial_signature(before)
        return solves, skipped, recertified

    def test_solves_independent_of_chain_length(self):
        results = [self._insert_and_retract(n) for n in (6, 12, 24)]
        solves = [row[0] for row in results]
        skipped = [row[1] for row in results]
        assert len(set(solves)) == 1, solves
        assert skipped[0] < skipped[1] < skipped[2], skipped
        assert all(row[2] == 0 for row in results)


def _assert_bits_are_membership(arrangement, relation):
    """Every face's bit is ``relation.contains(witness)``, and the codec
    bytes equal those of the same faces classified that way."""
    from dataclasses import replace

    from repro.arrangement.builder import Arrangement

    by_witness = tuple(
        replace(face, in_relation=relation.contains(face.sample))
        for face in arrangement.faces
    )
    assert [face.in_relation for face in arrangement.faces] == [
        face.in_relation for face in by_witness
    ]
    expected = Arrangement(
        arrangement.dimension, arrangement.hyperplanes, by_witness, relation
    )
    assert canonical_json(encode("arrangement", arrangement)) == \
        canonical_json(encode("arrangement", expected))


class TestMembershipBySigns:
    """Membership bits read off sign vectors equal the formula evaluated
    at each face's witness, on the golden figures and on the seeded
    mutation scripts (whose planes may miss the relation's own)."""

    @staticmethod
    def _golden_relations():
        from tests.test_golden_figures import pentagon, triangle, wedge

        yield from (triangle(), pentagon(), wedge())
        for segments, gap in ((3, False), (4, True)):
            yield interval_chain(segments, gap=gap).spatial

    def test_golden_figures(self):
        for relation in self._golden_relations():
            built = build_arrangement(relation)
            _assert_bits_are_membership(built, relation)
            incremental = IncrementalArrangement.from_arrangement(built)
            _assert_bits_are_membership(
                incremental.to_arrangement(relation), relation
            )
            _assert_bits_are_membership(
                build_arrangement_incremental(relation), relation
            )

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_mutation_scripts(self, dimension, seed):
        variables = [f"x{i}" for i in range(dimension)]
        relation = ConstraintRelation.make(
            variables, parse_formula(RELATIONS[dimension])
        )
        rng = random.Random(1000 * dimension + seed)
        # One script from scratch, one from the relation's own planes.
        for incremental in (
            IncrementalArrangement(dimension),
            IncrementalArrangement.from_arrangement(
                build_arrangement(relation)
            ),
        ):
            retracted = []
            for _ in range(9):
                op, plane = _next_mutation(rng, incremental, retracted)
                if op == "retract":
                    incremental.retract(plane)
                else:
                    incremental.insert(plane)
                _assert_bits_are_membership(
                    incremental.to_arrangement(relation), relation
                )


class TestMaintainedArrangementsMatchBatch:
    """Plane-delta maintenance lands on the batch arrangement's
    combinatorics at every version of a standing relation."""

    @pytest.mark.parametrize("segments", [1, 2])
    def test_append_then_retract_segments(self, segments):
        base = interval_chain(12)
        arrangements = MaintainedArrangements()
        old = base.relation("S")
        arrangements.adopt(old, build_arrangement(old))
        delta = make_delta(*(
            ("insert", "S", f"({12 + i} <= x0 & x0 <= {13 + i})")
            for i in range(segments)
        ))
        for step_delta in (delta, invert(delta)):
            new_db = apply_delta(base, step_delta)
            new = new_db.relation("S")
            maintained = arrangements.update(
                old, new, build_old=lambda: build_arrangement(old)
            )
            batch = build_arrangement(new)
            assert maintained.hyperplanes == batch.hyperplanes
            assert combinatorial_signature(maintained) == \
                combinatorial_signature(batch)
            base, old = new_db, new
