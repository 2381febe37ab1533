"""The LP-free interval search for axis-parallel arrangements.

When every plane is ``x_i = c`` the sign-vector DFS carries per-variable
bounds instead of solving each node's system.  The differential tests
force the LP path through the private ``_axes_of`` dispatch helper and
require the whole ``(signs, witness)`` sequence — unseeded and seeded —
and every face dimension to be exactly the LP path's.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrangement import builder
from repro.arrangement.builder import build_arrangement, enumerate_sign_vectors
from repro.arrangement.faces import face_dimension
from repro.geometry.fourier_motzkin import Rel
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.linalg import matrix_rank
from repro.geometry.simplex import (
    FREE_INTERVAL,
    clear_feasibility_cache,
    interval_contains,
    tighten_interval,
)
from repro.obs.metrics import get_registry
from repro.workloads.generators import interval_chain

F = Fraction


@st.composite
def axis_arrangements(draw):
    """Axis-parallel planes in d = 1..3 over a small offset pool, so
    duplicate planes and offsets shared across axes are common."""
    dimension = draw(st.integers(1, 3))
    offsets = [F(-1), F(0), F(1, 2), F(2)]
    planes = draw(
        st.lists(
            st.builds(
                lambda axis, scale, offset: Hyperplane.make(
                    [scale if i == axis else 0 for i in range(dimension)],
                    scale * offset,
                ),
                st.integers(0, dimension - 1),
                st.sampled_from([1, -2, 3]),
                st.sampled_from(offsets),
            ),
            max_size=6,
        )
    )
    return planes, dimension


def lp_path(monkeypatch, *args, **kwargs):
    """``enumerate_sign_vectors`` with the interval search switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(builder, "_axes_of", lambda hyperplanes: None)
        return list(enumerate_sign_vectors(*args, **kwargs))


def rank_dimension(planes, signs, dimension):
    normals = [
        list(plane.normal) for plane, sign in zip(planes, signs) if sign == 0
    ]
    return dimension - matrix_rank(normals) if normals else dimension


class TestDifferential:
    @settings(max_examples=80, deadline=None)
    @given(axis_arrangements())
    def test_same_faces_and_witnesses_as_the_lp_path(self, case):
        planes, dimension = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            expected = lp_path(monkeypatch, planes, dimension)
        assert list(enumerate_sign_vectors(planes, dimension)) == expected
        for signs, __ in expected:
            assert face_dimension(planes, signs, dimension) == \
                rank_dimension(planes, signs, dimension)

    @settings(max_examples=40, deadline=None)
    @given(axis_arrangements(), st.data())
    def test_seeded_prefixes_match_the_lp_path(self, case, data):
        planes, dimension = case
        if not planes:
            return
        cut = data.draw(st.integers(1, len(planes)))
        full = list(enumerate_sign_vectors(planes, dimension))
        with pytest.MonkeyPatch.context() as monkeypatch:
            for signs, witness in enumerate_sign_vectors(
                planes[:cut], dimension
            ):
                seeded = list(
                    enumerate_sign_vectors(
                        planes, dimension,
                        prefix=signs, prefix_witness=witness,
                    )
                )
                assert seeded == lp_path(
                    monkeypatch, planes, dimension,
                    prefix=signs, prefix_witness=witness,
                )
                # The contiguous slice of the full enumeration below
                # the prefix.
                assert [s for s, __ in seeded] == [
                    s for s, __ in full if s[:cut] == signs
                ]

    def test_mixed_planes_take_the_lp_path(self, monkeypatch):
        planes = [Hyperplane.make([1, 0], 0), Hyperplane.make([1, -1], 0)]
        calls = []
        original = builder._enumerate_on_axes
        monkeypatch.setattr(
            builder, "_enumerate_on_axes",
            lambda *args: calls.append(args) or original(*args),
        )
        list(enumerate_sign_vectors(planes, 2))
        assert calls == []

    def test_naive_baseline_keeps_the_lp(self):
        registry = get_registry()
        planes = [Hyperplane.make([1], 0), Hyperplane.make([1], 1)]
        clear_feasibility_cache()
        before = registry.get("lp.solves")
        list(enumerate_sign_vectors(
            planes, 1, witness_reuse=False, dedup=False
        ))
        assert registry.get("lp.solves") > before

    def test_infeasible_seed_is_a_typed_error(self):
        from repro.errors import GeometryError

        planes = [Hyperplane.make([1], 0), Hyperplane.make([1], 1)]
        with pytest.raises(GeometryError):
            list(enumerate_sign_vectors(
                planes, 1, prefix=(-1, 0), prefix_witness=(F(1),)
            ))


class TestNoLp:
    def test_one_dimensional_build_makes_no_lp_solves(self):
        registry = get_registry()
        clear_feasibility_cache()
        solves = registry.get("lp.solves")
        hits = registry.get("lp.cache_hits")
        nodes = registry.get("arrangement.dfs_nodes")
        arrangement = build_arrangement(interval_chain(6).spatial)
        assert registry.get("lp.solves") == solves
        assert registry.get("lp.cache_hits") == hits
        assert registry.get("arrangement.dfs_nodes") > nodes
        assert len(arrangement) == 2 * len(arrangement.hyperplanes) + 1


class TestTightenInterval:
    def test_the_strict_bound_wins_a_tie(self):
        closed = tighten_interval(FREE_INTERVAL, F(1), Rel.LE, F(2))
        assert tighten_interval(closed, F(1), Rel.LT, F(2)) == \
            (None, False, F(2), True, None)
        strict = tighten_interval(FREE_INTERVAL, F(-1), Rel.LT, F(-2))
        assert tighten_interval(strict, F(-1), Rel.LE, F(-2)) == strict

    def test_a_conflicting_pin_empties_the_system(self):
        pinned = tighten_interval(FREE_INTERVAL, F(2), Rel.EQ, F(1))
        assert pinned == (None, False, None, False, F(1, 2))
        assert tighten_interval(pinned, F(1), Rel.EQ, F(1, 2)) == pinned
        assert tighten_interval(pinned, F(1), Rel.EQ, F(1)) is None

    def test_contains(self):
        interval = (F(0), True, F(1), False, None)
        assert not interval_contains(interval, F(0))
        assert interval_contains(interval, F(1))
        assert not interval_contains(interval, F(2))
        assert not interval_contains((None, False, None, False, F(1)), F(0))
