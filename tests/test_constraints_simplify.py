"""Property tests for the pruned DNF algebra (repro.constraints.simplify).

The two complement strategies and the pruned product are compared
against plain pointwise semantics on rational sample grids — the ground
truth no representation trick can fool.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.atoms import Atom, Op
from repro.constraints.simplify import (
    cell_complement,
    disjunct_feasible,
    dnf_product,
    negate_dnf,
    prune_disjuncts,
)
from repro.constraints.terms import LinearTerm

F = Fraction

_OPS = [Op.LT, Op.LE, Op.EQ, Op.GE, Op.GT]


@st.composite
def atoms_1d(draw):
    coeff = draw(st.integers(1, 3))
    rhs = draw(st.integers(-3, 3))
    op = draw(st.sampled_from(_OPS))
    term = LinearTerm.make({"x": coeff}, -rhs)
    return Atom(term, op)


@st.composite
def dnfs_1d(draw):
    n_disjuncts = draw(st.integers(0, 4))
    return [
        tuple(
            draw(atoms_1d())
            for __ in range(draw(st.integers(1, 3)))
        )
        for __ in range(n_disjuncts)
    ]


GRID = [F(n, 2) for n in range(-8, 9)]


def dnf_holds(disjuncts, value: Fraction) -> bool:
    env = {"x": value}
    return any(
        all(atom.holds_at(env) for atom in disjunct)
        for disjunct in disjuncts
    )


class TestComplementStrategies:
    @given(dnfs_1d())
    @settings(max_examples=60, deadline=None)
    def test_negate_dnf_pointwise(self, disjuncts):
        negated = negate_dnf(disjuncts)
        for value in GRID:
            assert dnf_holds(negated, value) != dnf_holds(disjuncts, value)

    @given(dnfs_1d())
    @settings(max_examples=60, deadline=None)
    def test_cell_complement_pointwise(self, disjuncts):
        negated = cell_complement(disjuncts, ("x",))
        for value in GRID:
            assert dnf_holds(negated, value) != dnf_holds(disjuncts, value)

    @given(dnfs_1d())
    @settings(max_examples=40, deadline=None)
    def test_strategies_agree_semantically(self, disjuncts):
        by_product = negate_dnf(disjuncts)
        by_cells = cell_complement(disjuncts, ("x",))
        for value in GRID:
            assert dnf_holds(by_product, value) == \
                dnf_holds(by_cells, value)


class TestProductAndPrune:
    @given(dnfs_1d(), dnfs_1d())
    @settings(max_examples=50, deadline=None)
    def test_product_is_conjunction(self, left, right):
        product = dnf_product([left, right])
        for value in GRID:
            expected = dnf_holds(left, value) and dnf_holds(right, value)
            assert dnf_holds(product, value) == expected

    @given(dnfs_1d())
    @settings(max_examples=50, deadline=None)
    def test_prune_preserves_semantics(self, disjuncts):
        pruned = prune_disjuncts(disjuncts)
        for value in GRID:
            assert dnf_holds(pruned, value) == dnf_holds(disjuncts, value)

    @given(dnfs_1d())
    @settings(max_examples=50, deadline=None)
    def test_pruned_disjuncts_all_feasible(self, disjuncts):
        for disjunct in prune_disjuncts(disjuncts):
            assert disjunct_feasible(disjunct)

    def test_empty_product_is_true(self):
        assert dnf_product([]) == [()]

    def test_product_with_false_factor(self):
        some = (Atom(LinearTerm.make({"x": 1}), Op.GT),)
        assert dnf_product([[], [some]]) == []
        assert dnf_product([[some], []]) == []

    def test_negate_empty_dnf(self):
        assert negate_dnf([]) == [()]
        assert cell_complement([], ("x",)) == [()]

    def test_nullary_cell_complement(self):
        assert cell_complement([()], ()) == []
        assert cell_complement([], ()) == [()]


class TestElementQueriesSkipTheLP:
    """The serve path's 1-D element queries are decided by certificate.

    Both one-dimensional element-query templates of the serving
    benchmark, on a warm ``interval_chain(8)`` extension, prune every
    conjunction without an LP solve or LP memo lookup.
    """

    TEMPLATES = (
        "exists y. S(y) & x0 - y <= {c} & y - x0 <= {c}",
        "exists y. S(y) & y - x0 >= {c} & y - x0 <= {d}",
    )

    def test_templates_take_no_lp_and_answer_exactly(self):
        from repro.config import EngineConfig
        from repro.engine import QueryEngine
        from repro.obs.metrics import get_registry
        from repro.workloads.generators import interval_chain

        engine = QueryEngine(interval_chain(8), config=EngineConfig())
        # Warm the region extension on other constants.
        for template in self.TEMPLATES:
            engine.evaluate(template.format(c=F(1, 3), d=F(4, 3)))
        registry = get_registry()
        solves = registry.get("lp.solves")
        hits = registry.get("lp.cache_hits")
        c = F(1, 2)
        near = engine.evaluate(self.TEMPLATES[0].format(c=c, d=c + 1))
        ahead = engine.evaluate(self.TEMPLATES[1].format(c=c, d=c + 1))
        assert registry.get("lp.solves") == solves
        assert registry.get("lp.cache_hits") == hits
        # Points within 1/2 of [0, 8]: [-1/2, 17/2].
        for x, inside in (
            (F(-1, 2), True), (F(0), True), (F(4), True),
            (F(17, 2), True), (F(-3, 4), False), (F(35, 4), False),
        ):
            assert near.contains((x,)) is inside, x
        # Some y in [x + 1/2, x + 3/2] lies in [0, 8]: [-3/2, 15/2].
        for x, inside in (
            (F(-3, 2), True), (F(3), True), (F(15, 2), True),
            (F(-8, 5), False), (F(38, 5), False),
        ):
            assert ahead.contains((x,)) is inside, x
