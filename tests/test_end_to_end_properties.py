"""End-to-end randomised properties across subsystem boundaries.

These tests tie several layers together under hypothesis: random
databases through connectivity (logic vs. graph ground truth), NC¹
decompositions covering their source polyhedra, arrangement faces
classifying points consistently with the relation, and the LP counters.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.database import ConstraintDatabase
from repro.constraints.parser import parse_formula
from repro.obs.metrics import get_registry, reset_metrics
from repro.queries.connectivity import is_connected
from repro.regions.nc1 import decompose_disjunct
from repro.twosorted.structure import RegionExtension

F = Fraction


@st.composite
def one_dim_databases(draw):
    """A union of up to three rational intervals with mixed openness."""
    pieces = draw(
        st.lists(
            st.tuples(
                st.integers(-4, 4),
                st.integers(1, 3),
                st.booleans(),
            ),
            min_size=1,
            max_size=3,
        )
    )
    parts = []
    for lo, width, open_ends in pieces:
        op = "<" if open_ends else "<="
        parts.append(f"({lo} {op} x0 & x0 {op} {lo + width})")
    return ConstraintDatabase.from_formula(
        parse_formula(" | ".join(parts)), 1
    )


@st.composite
def convex_polygons(draw):
    """A random (possibly empty/degenerate) intersection of halfplanes."""
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(-2, 2), st.integers(-2, 2), st.integers(-4, 4)
            ).filter(lambda t: (t[0], t[1]) != (0, 0)),
            min_size=3,
            max_size=5,
        )
    )
    atoms = [f"({a}*x0 + {b}*x1 <= {c})" for a, b, c in rows]
    # Keep it bounded with a surrounding box.
    atoms += ["(-6 <= x0)", "(x0 <= 6)", "(-6 <= x1)", "(x1 <= 6)"]
    from repro.constraints.relation import ConstraintRelation

    return ConstraintRelation.make(
        ("x0", "x1"), parse_formula(" & ".join(atoms))
    )


class TestConnectivityAgreement:
    @given(database=one_dim_databases())
    @settings(max_examples=15, deadline=None)
    def test_lfp_matches_union_find(self, database):
        assert is_connected(database, "lfp") == \
            is_connected(database, "ground")

    @given(database=one_dim_databases())
    @settings(max_examples=10, deadline=None)
    def test_tc_matches_union_find(self, database):
        assert is_connected(database, "tc") == \
            is_connected(database, "ground")


class TestNC1Coverage:
    @given(poly_relation=convex_polygons())
    @settings(max_examples=15, deadline=None)
    def test_regions_cover_their_polyhedron(self, poly_relation):
        [poly] = poly_relation.polyhedra()
        if poly.is_empty():
            assert decompose_disjunct(poly) == []
            return
        regions = decompose_disjunct(poly)
        assert regions
        # Every region's sample stays in the closure; the polyhedron's
        # own witnesses are covered.
        closed = poly.closure()
        for region in regions:
            assert closed.contains(region.sample_point())
        witness = poly.feasible_point()
        assert any(r.contains(witness) for r in regions), witness
        interior = poly.relative_interior_point()
        if interior is not None:
            assert any(r.contains(interior) for r in regions)


class TestArrangementClassification:
    @given(
        database=one_dim_databases(),
        probes=st.lists(
            st.fractions(min_value=-6, max_value=8, max_denominator=6),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_region_membership_classifies_points(self, database, probes):
        """x ∈ S iff the unique region containing x is inside S."""
        extension = RegionExtension.build(database)
        relation = extension.spatial
        for probe in probes:
            holders = [
                region for region in extension.regions
                if region.contains((probe,))
            ]
            assert len(holders) == 1
            inside = extension.region_subset_of_spatial(holders[0].index)
            assert inside == relation.contains((probe,))


class TestDecompositionInvariance:
    """Topological queries do not depend on the decomposition (the
    paper's closing remark: the languages' expressive power is
    decomposition-independent as long as the decomposition is usable)."""

    @given(database=one_dim_databases())
    @settings(max_examples=8, deadline=None)
    def test_connectivity_same_across_decompositions(self, database):
        verdicts = {
            kind: is_connected(database, "lfp", decomposition=kind)
            for kind in ("arrangement", "nc1")
        }
        assert len(set(verdicts.values())) == 1, verdicts

    def test_refined_equals_plain_on_single_relation(self):
        # With a single relation, "refined" adds no hyperplanes.
        database = ConstraintDatabase.from_formula(
            parse_formula("(0 <= x0 & x0 <= 1) | (3 <= x0 & x0 <= 4)"), 1
        )
        plain = is_connected(database, "lfp", "arrangement")
        refined = is_connected(database, "lfp", "refined")
        assert plain is False
        assert refined is False


class TestInstrumentation:
    def test_lp_counters_move(self):
        registry = get_registry()
        reset_metrics("lp.")
        # The diagonal plane x0 = x1 keeps the build on the LP path
        # (axis-parallel planes alone take the LP-free interval search).
        database = ConstraintDatabase.from_formula(
            parse_formula("0 < x0 & x0 < x1 & x1 < 1"), 2
        )
        RegionExtension.build(database)
        stats = registry.snapshot("lp.")
        # The module-level feasibility cache may satisfy everything, so
        # only the combined activity is guaranteed.
        assert stats["lp.solves"] + stats["lp.cache_hits"] > 0
        reset_metrics("lp.")
        assert registry.get("lp.solves") == 0
        assert registry.get("lp.cache_hits") == 0
