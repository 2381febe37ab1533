"""The certified float filter is observationally exact.

Property/fuzz suite for :mod:`repro.geometry.fastlp` (the tentpole's
correctness criterion): on seeded random mixed strict/non-strict
systems — including equality rows, duplicated rows, near-parallel rows
perturbed by 10⁻⁹ (inside the float tier's epsilon band) and tiny
scaled offsets — the filtered tier must

* report exactly the same feasibility status as the exact rational
  simplex, and
* return witnesses that satisfy every original constraint under exact
  ``Fraction`` arithmetic (no float ever decides an answer).

A final test pins the end-to-end consequence: arrangements built in
both modes are byte-identical, which is what lets ``filtered`` be the
default without perturbing any paper figure.
"""

import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import fastlp
from repro.geometry.fourier_motzkin import LinearConstraint, Rel
from repro.geometry.simplex import (
    clear_feasibility_cache,
    strict_feasible_point,
)
from repro.obs.metrics import get_registry

F = Fraction

SEED = 20260806
RELS = (Rel.LE, Rel.LT, Rel.LT, Rel.EQ)


def random_system(rng: random.Random, dim: int) -> list[LinearConstraint]:
    """One random mixed system, biased toward the filter's hard cases."""
    rows = []
    for __ in range(rng.randint(1, dim + 5)):
        coeffs = tuple(F(rng.randint(-5, 5)) for __ in range(dim))
        rhs = F(rng.randint(-10, 10), rng.choice((1, 1, 1, 2, 3, 7)))
        rows.append(LinearConstraint(coeffs, rng.choice(RELS), rhs))
    roll = rng.random()
    base = rows[rng.randrange(len(rows))]
    if roll < 0.25:
        # Exact duplicate: degenerate but harmless.
        rows.append(base)
    elif roll < 0.5:
        # Near-parallel row: nudge one coefficient by 1e-9 so the float
        # tier sees two rows whose angle is below its tolerances.
        nudged = tuple(
            c + F(1, 10**9) if index == 0 else c
            for index, c in enumerate(base.coeffs)
        )
        rows.append(LinearConstraint(nudged, base.rel, base.rhs))
    elif roll < 0.65:
        # Same hyperplane, offset shifted by 1e-9: a sliver system whose
        # feasibility genuinely depends on digits floats cannot resolve.
        rows.append(
            LinearConstraint(base.coeffs, base.rel, base.rhs + F(1, 10**9))
        )
    return rows


def solve_both(rows, dim):
    """(exact_point, filtered_point) with a cold memo for each tier."""
    with fastlp.lp_mode("exact"):
        clear_feasibility_cache()
        exact = strict_feasible_point(rows, dim)
    with fastlp.lp_mode("filtered"):
        clear_feasibility_cache()
        filtered = strict_feasible_point(rows, dim)
    clear_feasibility_cache()
    return exact, filtered


def assert_equivalent(rows, dim):
    exact, filtered = solve_both(rows, dim)
    assert (exact is None) == (filtered is None), (
        f"status mismatch on {rows}: exact={exact} filtered={filtered}"
    )
    if filtered is not None:
        assert all(isinstance(v, Fraction) for v in filtered)
        assert all(row.satisfied_by(filtered) for row in rows), (
            f"filtered witness {filtered} violates {rows}"
        )
    if exact is not None:
        assert all(row.satisfied_by(exact) for row in rows)


class TestSeededFuzz:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_filtered_agrees_with_exact(self, dim):
        rng = random.Random(SEED + dim)
        for __ in range(150):
            assert_equivalent(random_system(rng, dim), dim)

    def test_filter_actually_engages(self):
        """The fuzz load must exercise the float tier, not dodge it."""
        registry = get_registry()
        rng = random.Random(SEED)
        before = registry.get("lp.filter_hits")
        with fastlp.lp_mode("filtered"):
            for __ in range(40):
                clear_feasibility_cache()
                strict_feasible_point(random_system(rng, 2), 2)
        clear_feasibility_cache()
        assert registry.get("lp.filter_hits") > before

    def test_fallbacks_are_counted_not_fatal(self):
        """Near-ties may fall back; the answer must still be exact."""
        rng = random.Random(SEED + 99)
        registry = get_registry()
        hits = registry.get("lp.filter_hits")
        fallbacks = registry.get("lp.filter_fallbacks")
        for __ in range(60):
            assert_equivalent(random_system(rng, 3), 3)
        decided = registry.get("lp.filter_hits") - hits
        fell_back = registry.get("lp.filter_fallbacks") - fallbacks
        assert decided > 0
        assert fell_back >= 0          # never negative, any value legal


class TestEpsilonBandStress:
    """Hand-built systems whose truth lives below float resolution."""

    def test_sliver_strictly_feasible(self):
        # 0 < x and x < 1e-9: open but astronomically thin.
        rows = [
            LinearConstraint((F(1),), Rel.LT, F(1, 10**9)),
            LinearConstraint((F(-1),), Rel.LT, F(0)),
        ]
        assert_equivalent(rows, 1)
        __, filtered = solve_both(rows, 1)
        assert filtered is not None

    def test_sliver_infeasible_by_a_hair(self):
        # x <= a and x >= a + 1e-12 with a strict row in between.
        a = F(1, 3)
        rows = [
            LinearConstraint((F(1), F(0)), Rel.LE, a),
            LinearConstraint((F(-1), F(0)), Rel.LE, -(a + F(1, 10**12))),
            LinearConstraint((F(0), F(1)), Rel.LT, F(1)),
        ]
        assert_equivalent(rows, 2)
        __, filtered = solve_both(rows, 2)
        assert filtered is None

    def test_equality_pinning_with_huge_denominators(self):
        # Equalities pin x exactly; strict rows leave a 1e-15 margin.
        pin = F(10**15 + 1, 3 * 10**15)
        rows = [
            LinearConstraint((F(1), F(0)), Rel.EQ, pin),
            LinearConstraint((F(0), F(1)), Rel.LT, pin + F(1, 10**15)),
            LinearConstraint((F(0), F(-1)), Rel.LT, -pin + F(1, 10**15)),
        ]
        assert_equivalent(rows, 2)

    def test_near_parallel_wedge(self):
        # Two almost-identical half-planes whose wedge is feasible only
        # because the 1e-9 rotation opens a sliver.
        rows = [
            LinearConstraint((F(1), F(1)), Rel.LT, F(1)),
            LinearConstraint((F(-1) - F(1, 10**9), F(-1)), Rel.LT, F(-1)),
        ]
        assert_equivalent(rows, 2)

    def test_contradictory_duplicates(self):
        rows = [
            LinearConstraint((F(2), F(-3)), Rel.LT, F(5)),
            LinearConstraint((F(-2), F(3)), Rel.LE, F(-5)),
        ]
        assert_equivalent(rows, 2)
        __, filtered = solve_both(rows, 2)
        assert filtered is None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3),
    st.lists(
        st.tuples(
            st.lists(st.integers(-6, 6), min_size=3, max_size=3),
            st.sampled_from(["le", "lt", "eq"]),
            st.fractions(
                min_value=-8, max_value=8, max_denominator=5
            ),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_hypothesis_equivalence(dim, raw_rows):
    rel_of = {"le": Rel.LE, "lt": Rel.LT, "eq": Rel.EQ}
    rows = [
        LinearConstraint(
            tuple(F(c) for c in coeffs[:dim]), rel_of[rel], F(rhs)
        )
        for coeffs, rel, rhs in raw_rows
    ]
    assert_equivalent(rows, dim)


class TestModesAreIndistinguishable:
    def test_arrangement_face_structure_identical(self):
        """Paper figures cannot depend on the mode (acceptance criterion)."""
        from repro.arrangement.builder import build_arrangement
        from repro.geometry.hyperplane import Hyperplane

        planes = [
            Hyperplane.make([2 * i, -1], i * i) for i in range(1, 7)
        ]

        def census(mode):
            with fastlp.lp_mode(mode):
                clear_feasibility_cache()
                arrangement = build_arrangement(
                    hyperplanes=planes, dimension=2
                )
            clear_feasibility_cache()
            # Witness *samples* may differ between tiers (both are valid
            # interior points); the face structure itself may not.
            return [
                (face.signs, face.dimension, face.in_relation)
                for face in arrangement.faces
            ]

        assert census("exact") == census("filtered")

    def test_mode_helpers_round_trip(self):
        assert fastlp.get_lp_mode() in fastlp.LP_MODES
        with fastlp.lp_mode("exact"):
            assert fastlp.get_lp_mode() == "exact"
            with fastlp.lp_mode(None):       # None = no-op nesting
                assert fastlp.get_lp_mode() == "exact"
            with fastlp.lp_mode("filtered"):
                assert fastlp.get_lp_mode() == "filtered"
            assert fastlp.get_lp_mode() == "exact"
        with pytest.raises(ValueError):
            with fastlp.lp_mode("approximate"):
                pass


def test_lp_mode_scopes_are_context_local(monkeypatch):
    """Overlapping scopes on two threads each see only their own mode.

    ``exact`` opens first and closes first, while a ``filtered`` scope is
    open on the other thread.  A process-wide mode would show the exact
    thread ``filtered`` and leave ``exact`` behind once both scopes had
    closed; a context-local one does neither.
    """
    import asyncio
    import threading

    monkeypatch.delenv("REPRO_LP_MODE", raising=False)
    exact_in, filtered_in, exact_out = (threading.Event() for __ in "abc")
    seen: dict[str, str] = {}

    def exact_thread() -> None:
        with fastlp.lp_mode("exact"):
            exact_in.set()
            assert filtered_in.wait(timeout=10)
            seen["exact"] = fastlp.get_lp_mode()
        exact_out.set()

    def filtered_thread() -> None:
        assert exact_in.wait(timeout=10)
        with fastlp.lp_mode("filtered"):
            filtered_in.set()
            seen["filtered"] = fastlp.get_lp_mode()
            assert exact_out.wait(timeout=10)
        seen["filtered after"] = fastlp.get_lp_mode()

    threads = [threading.Thread(target=exact_thread),
               threading.Thread(target=filtered_thread)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=20)
    assert seen == {
        "exact": "exact", "filtered": "filtered",
        "filtered after": "filtered",
    }
    monkeypatch.setenv("REPRO_LP_MODE", "exact")
    assert fastlp.get_lp_mode() == "exact", "the environment is read again"
    monkeypatch.setenv("REPRO_LP_MODE", "filtered")
    # A scope entered around ``asyncio.to_thread`` reaches the worker.
    with fastlp.lp_mode("exact"):
        assert asyncio.run(asyncio.to_thread(fastlp.get_lp_mode)) == "exact"
    assert fastlp.get_lp_mode() == "filtered"
