"""Tests for the arrangement fast path: witness reuse, system dedup,
seeded-prefix enumeration, and the sign-index cache."""

from fractions import Fraction

import pytest

from repro.arrangement.builder import (
    Arrangement,
    build_arrangement,
    enumerate_sign_vectors,
)
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.simplex import clear_feasibility_cache
from repro.obs.metrics import get_registry

F = Fraction


def generic_lines(n: int) -> list[Hyperplane]:
    return [Hyperplane.make([2 * i, -1], i * i) for i in range(1, n + 1)]


def signs_of(arrangement: Arrangement) -> list[tuple[int, ...]]:
    return [face.signs for face in arrangement.faces]


class TestWitnessReuse:
    def test_fast_path_matches_naive_enumeration(self):
        planes = generic_lines(4)
        fast = list(enumerate_sign_vectors(planes, 2))
        naive = list(
            enumerate_sign_vectors(
                planes, 2, witness_reuse=False, dedup=False
            )
        )
        assert [signs for signs, __ in fast] == [
            signs for signs, __ in naive
        ]

    def test_lp_skipped_metric_increments(self):
        registry = get_registry()
        before = registry.get("arrangement.lp_skipped")
        build_arrangement(hyperplanes=generic_lines(3), dimension=2)
        assert registry.get("arrangement.lp_skipped") > before

    def test_lp_skipped_stays_flat_when_disabled(self):
        registry = get_registry()
        before = registry.get("arrangement.lp_skipped")
        build_arrangement(
            hyperplanes=generic_lines(3),
            dimension=2,
            witness_reuse=False,
            dedup=False,
        )
        assert registry.get("arrangement.lp_skipped") == before

    def test_fast_path_needs_fewer_lp_solves(self):
        planes = generic_lines(4)
        registry = get_registry()
        clear_feasibility_cache()
        before = registry.get("lp.solves")
        build_arrangement(
            hyperplanes=planes, dimension=2,
            witness_reuse=False, dedup=False,
        )
        naive_solves = registry.get("lp.solves") - before
        clear_feasibility_cache()
        before = registry.get("lp.solves")
        build_arrangement(hyperplanes=planes, dimension=2)
        fast_solves = registry.get("lp.solves") - before
        assert fast_solves < naive_solves / 2


class TestSystemDedup:
    def test_duplicate_hyperplanes_hit_the_memo(self):
        registry = get_registry()
        # A diagonal plane: axis-parallel planes take the interval
        # search, which has no memo.
        plane = Hyperplane.make([1, 1], 0)
        before = registry.get("arrangement.dedup_hits")
        arrangement = build_arrangement(
            hyperplanes=[plane, plane], dimension=2
        )
        assert registry.get("arrangement.dedup_hits") > before
        # Coincident planes: only the concordant sign vectors survive.
        assert signs_of(arrangement) == [(-1, -1), (0, 0), (1, 1)]

    def test_dedup_does_not_change_faces(self):
        planes = [
            Hyperplane.make([1], 0),
            Hyperplane.make([2], 0),  # a multiple of the first
            Hyperplane.make([1], 1),
        ]
        with_dedup = build_arrangement(hyperplanes=planes, dimension=1)
        without = build_arrangement(
            hyperplanes=planes, dimension=1, dedup=False
        )
        assert signs_of(with_dedup) == signs_of(without)


class TestSeededPrefix:
    def test_seeded_prefix_needs_witness(self):
        from repro.errors import GeometryError

        with pytest.raises(GeometryError):
            list(
                enumerate_sign_vectors(
                    generic_lines(2), 2, prefix=(0,)
                )
            )


class TestSignIndexCache:
    def test_two_lookups_build_the_index_once(self):
        arrangement = build_arrangement(
            hyperplanes=generic_lines(3), dimension=2
        )
        registry = get_registry()
        before = registry.get("arrangement.sign_index_builds")
        first = arrangement.face_by_signs(arrangement.faces[0].signs)
        second = arrangement.face_by_signs(arrangement.faces[-1].signs)
        assert first is arrangement.faces[0]
        assert second is arrangement.faces[-1]
        assert (
            registry.get("arrangement.sign_index_builds") == before + 1
        )

    def test_locate_reuses_the_index(self):
        arrangement = build_arrangement(
            hyperplanes=generic_lines(3), dimension=2
        )
        registry = get_registry()
        before = registry.get("arrangement.sign_index_builds")
        for face in arrangement.faces[:4]:
            assert arrangement.locate(face.sample) is face
        assert (
            registry.get("arrangement.sign_index_builds") == before + 1
        )

    def test_index_survives_equality_and_hash(self):
        # The cache dict is excluded from the dataclass comparison: two
        # structurally equal arrangements compare equal whether or not
        # their lazy indexes have been materialised.
        planes = generic_lines(2)
        one = build_arrangement(hyperplanes=planes, dimension=2)
        two = build_arrangement(hyperplanes=planes, dimension=2)
        one.face_by_signs(one.faces[0].signs)
        assert one == two
