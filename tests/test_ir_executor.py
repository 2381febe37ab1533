"""Unit semantics of the relational-algebra IR and its memo kernels.

Two layers are pinned down here, independently of whole-program runs:

* **Node semantics** — each :mod:`repro.ir.nodes` operator must match
  the plain :class:`ConstraintRelation` algebra it compiles away from,
  and a guard-skipped subtree must evaluate to ``None`` (no derivation)
  with ``None`` propagating through every unary/n-ary operator exactly
  as the interpreted stage driver would skip the rule.
* **Kernel soundness** — every memoised decision procedure must agree
  with the exact oracle it shortcuts: the interval prefilter may answer
  ``None`` but never contradict ``disjunct_feasible``, the feasibility
  memo answers repeats from cache, and the incremental cell index
  reproduces the full arrangement enumeration leaf for leaf.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrangement.builder import enumerate_sign_vectors
from repro.constraints.parser import parse_formula
from repro.constraints.relation import ConstraintRelation
from repro.constraints.simplify import disjunct_feasible
from repro.errors import EvaluationError
from repro.geometry.hyperplane import Hyperplane
from repro.ir import nodes as ir
from repro.ir.executor import ExecutionContext, execute
from repro.ir.kernels import KernelCache, _interval_verdict
from repro.obs.metrics import get_registry

F = Fraction


def rel(text: str, schema=("x",)) -> ConstraintRelation:
    return ConstraintRelation.make(tuple(schema), parse_formula(text))


def run(node, **spaces):
    context = ExecutionContext(
        idb=spaces.get("idb", {}),
        delta=spaces.get("delta", {}),
        fresh=spaces.get("fresh", {}),
    )
    return execute(node, context, KernelCache())


class TestNodeSemantics:
    def test_scan_reads_named_space(self):
        bound = rel("0 <= x & x <= 1")
        assert run(ir.Scan("idb", "A"), idb={"A": bound}) is bound
        assert run(ir.Scan("delta", "A"), delta={"A": bound}) is bound
        assert run(ir.Scan("fresh", "A"), fresh={"A": bound}) is bound

    def test_scan_unbound_name_raises(self):
        with pytest.raises(EvaluationError):
            run(ir.Scan("idb", "Missing"))

    def test_guard_skips_on_empty_delta(self):
        body = ir.Scan("idb", "A")
        bound = rel("x = 0")
        empty = ConstraintRelation.empty(("x",))
        assert (
            run(ir.Guard(body, "A"), idb={"A": bound}, delta={"A": empty})
            is None
        )
        assert (
            run(ir.Guard(body, "A"), idb={"A": bound}, delta={"A": bound})
            is bound
        )

    def test_none_propagates_through_unary_operators(self):
        skipped = ir.Guard(
            ir.Scan("idb", "A"), "A"
        )
        spaces = dict(
            idb={"A": rel("x = 0")},
            delta={"A": ConstraintRelation.empty(("x",))},
        )
        assert run(ir.Rename(skipped, ("y",)), **spaces) is None
        assert run(ir.Widen(skipped, ("x", "y")), **spaces) is None
        assert run(ir.Project(skipped, ("x",)), **spaces) is None
        assert run(ir.Simplify(skipped), **spaces) is None
        assert run(ir.Complement(skipped), **spaces) is None
        assert run(ir.Join([skipped, ir.Scan("idb", "A")]), **spaces) is None
        assert run(ir.Diff(skipped, ir.Scan("idb", "A")), **spaces) is None

    def test_union_filters_skipped_children(self):
        spaces = dict(
            idb={"A": rel("0 <= x & x <= 1"), "B": rel("2 <= x & x <= 3")},
            delta={"A": ConstraintRelation.empty(("x",))},
        )
        skipped = ir.Guard(ir.Scan("idb", "A"), "A")
        live = run(
            ir.Union([skipped, ir.Scan("idb", "B")]), **spaces
        )
        assert live.equivalent(rel("2 <= x & x <= 3"))
        assert run(ir.Union([skipped, skipped]), **spaces) is None

    def test_join_matches_intersection(self):
        left = rel("0 <= x & x <= 2")
        right = rel("1 <= x & x <= 3")
        joined = run(
            ir.Join([ir.Scan("idb", "A"), ir.Scan("idb", "B")]),
            idb={"A": left, "B": right},
        )
        assert joined.equivalent(rel("1 <= x & x <= 2"))

    def test_union_matches_relation_union(self):
        parts = {"A": rel("0 <= x & x <= 1"), "B": rel("1 <= x & x <= 2")}
        union = run(
            ir.Union([ir.Scan("idb", "A"), ir.Scan("idb", "B")]), idb=parts
        )
        assert union.equivalent(rel("0 <= x & x <= 2"))

    def test_diff_matches_relation_difference(self):
        left = rel("0 <= x & x <= 3")
        right = rel("1 <= x & x <= 2")
        diff = run(
            ir.Diff(ir.Scan("idb", "A"), ir.Scan("idb", "B")),
            idb={"A": left, "B": right},
        )
        assert diff.equivalent(left.difference(right))

    def test_complement_matches_relation_complement(self):
        bound = rel("0 <= x & x <= 1")
        complement = run(ir.Complement(ir.Scan("idb", "A")), idb={"A": bound})
        assert complement.equivalent(bound.complement())

    def test_complement_memoises_on_the_relation(self):
        registry = get_registry()
        bound = rel("-1 <= x & x <= 5")
        kernels = KernelCache()
        context = ExecutionContext(idb={"A": bound})
        node = ir.Complement(ir.Scan("idb", "A"))
        first = execute(node, context, kernels)
        before = registry.get("ir.complement_memo_hits")
        second = execute(node, context, kernels)
        assert second is first
        assert registry.get("ir.complement_memo_hits") == before + 1

    def test_project_eliminates_variables(self):
        pair = rel("0 <= x & x <= 1 & y = x + 1", schema=("x", "y"))
        projected = run(
            ir.Project(ir.Scan("idb", "A"), ("x",)), idb={"A": pair}
        )
        assert projected.variables == ("x",)
        assert projected.equivalent(rel("0 <= x & x <= 1"))

    def test_widen_pads_schema(self):
        widened = run(
            ir.Widen(ir.Scan("idb", "A"), ("x", "y")),
            idb={"A": rel("x = 0")},
        )
        assert widened.variables == ("x", "y")
        assert widened.contains((F(0), F(7)))
        assert not widened.contains((F(1), F(0)))

    def test_rename_relabels_schema(self):
        renamed = run(
            ir.Rename(ir.Scan("idb", "A"), ("y",)),
            idb={"A": rel("0 <= x & x <= 1")},
        )
        assert renamed.variables == ("y",)
        assert renamed.equivalent(rel("0 <= y & y <= 1", schema=("y",)))

    def test_simplify_matches_relation_simplify(self):
        redundant = rel("(0 <= x & x <= 2) | (0 <= x & x <= 1)")
        simplified = run(ir.Simplify(ir.Scan("idb", "A")), idb={"A": redundant})
        assert str(simplified.formula) == str(redundant.simplify().formula)

    def test_const_returns_its_relation(self):
        bound = rel("x = 3")
        assert run(ir.Const(bound, note="seed")) is bound


def disjuncts_of(text: str, schema=("x", "y")):
    """All DNF disjuncts of a formula, *without* feasibility pruning.

    ``ConstraintRelation.make`` would silently drop infeasible
    disjuncts, which is exactly the behaviour under test — so go
    through the raw DNF conversion instead.
    """
    from repro.constraints.normal_forms import to_dnf

    return list(to_dnf(parse_formula(text)))


SEEDED_DISJUNCT_TEXTS = (
    "0 <= x & x <= 1",
    "x <= 0 & x >= 1",
    "x < 0 & x > 0",
    "x = 1 & y = 2 & x + y <= 3",
    "x = 1 & y = 2 & x + y < 3",
    "x - y <= 1 & y - x <= 1 & x >= 0 & y >= 0",
    "x + y <= -1 & x >= 0 & y >= 0",
    "2*x <= 4 & 2*x >= 4",
    "2*x < 4 & x > 2",
    "x <= 1",
    "0*x + 1 <= 0",
    "x - y = 0 & y - x >= 1",
)


class TestKernelSoundness:
    def test_interval_verdict_agrees_with_lp_on_seeds(self):
        for text in SEEDED_DISJUNCT_TEXTS:
            for disjunct in disjuncts_of(text):
                verdict = _interval_verdict(disjunct)
                if verdict is not None:
                    assert verdict == disjunct_feasible(disjunct), text

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=-4, max_value=4),
                st.sampled_from(("<=", "<", ">=", ">", "=")),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_interval_verdict_agrees_with_lp_fuzzed(self, data):
        parts = []
        for a, b, c, op in data:
            parts.append(f"{a}*x + {b}*y {op} {c}")
        for disjunct in disjuncts_of(" & ".join(parts)):
            verdict = _interval_verdict(disjunct)
            if verdict is not None:
                assert verdict == disjunct_feasible(disjunct), parts

    def test_feasibility_matches_oracle_and_memoises(self):
        registry = get_registry()
        kernels = KernelCache()
        for text in SEEDED_DISJUNCT_TEXTS:
            for disjunct in disjuncts_of(text):
                assert kernels.feasibility(disjunct) == disjunct_feasible(
                    disjunct
                ), text
                before = registry.get("ir.feasibility_memo_hits")
                calls = registry.get("ir.feasibility_calls")
                assert kernels.feasibility(disjunct) == disjunct_feasible(
                    disjunct
                )
                assert registry.get("ir.feasibility_memo_hits") == before + 1
                assert registry.get("ir.feasibility_calls") == calls

    def test_minimise_shares_the_simplified_cache_slot(self):
        kernels = KernelCache()
        redundant = rel("(0 <= x & x <= 2) | (1 <= x & x <= 2)")
        result = kernels.minimise(redundant)
        assert str(result.formula) == str(redundant.simplify().formula)
        # The slot the interpreted path reads is populated...
        assert redundant._cache["simplified"] is result
        # ...and a second call answers from it without recomputing.
        assert kernels.minimise(redundant) is result

    def test_cell_index_extends_previous_enumerations(self):
        registry = get_registry()
        kernels = KernelCache()
        base_planes = [
            Hyperplane.make((1, 0), 0),
            Hyperplane.make((0, 1), 0),
        ]
        extended_planes = base_planes + [Hyperplane.make((1, 1), -2)]

        full_builds = registry.get("ir.cell_index_full_builds")
        first = list(kernels.enumerate_cells(base_planes, 2))
        assert registry.get("ir.cell_index_full_builds") == full_builds + 1
        assert first == list(enumerate_sign_vectors(base_planes, 2))

        # Same plane list: answered from the index, no new build.
        full_builds = registry.get("ir.cell_index_full_builds")
        extensions = registry.get("ir.cell_index_extensions")
        assert list(kernels.enumerate_cells(base_planes, 2)) == first
        assert registry.get("ir.cell_index_full_builds") == full_builds
        assert registry.get("ir.cell_index_extensions") == extensions

        # Superset plane list: the cached leaves are extended in place
        # and the result is leaf-for-leaf the full enumeration.
        second = list(kernels.enumerate_cells(extended_planes, 2))
        assert registry.get("ir.cell_index_extensions") == extensions + 1
        assert registry.get("ir.cell_index_full_builds") == full_builds
        fresh = list(enumerate_sign_vectors(extended_planes, 2))
        assert [signs for signs, _ in second] == [
            signs for signs, _ in fresh
        ]
        for (signs, witness), plane_list in (
            (leaf, extended_planes) for leaf in second
        ):
            for plane, sign in zip(plane_list, signs):
                value = plane.evaluate(witness)
                if sign < 0:
                    assert value < 0
                elif sign > 0:
                    assert value > 0
                else:
                    assert value == 0

    def test_kernel_union_join_difference_match_relation_algebra(self):
        kernels = KernelCache()
        left = rel("0 <= x & x <= 3")
        right = rel("(1 <= x & x <= 2) | (5 <= x & x <= 6)")
        assert kernels.union(("x",), [left, right]).equivalent(
            rel("(0 <= x & x <= 3) | (5 <= x & x <= 6)")
        )
        assert kernels.join(("x",), [left, right]).equivalent(
            rel("1 <= x & x <= 2")
        )
        assert kernels.difference(left, right).equivalent(
            left.difference(right)
        )


def random_pruned_relation(rng, schema, used):
    """A pruned relation over ``schema`` whose atoms mention ``used``.

    Atoms mix strict, non-strict and equality operators; single-variable
    and one-sided atoms leave many disjuncts unbounded.
    """
    from repro.constraints.atoms import Atom, Op
    from repro.constraints.relation import relation_from_disjuncts
    from repro.constraints.simplify import prune_disjuncts
    from repro.constraints.terms import LinearTerm

    ops = (Op.LT, Op.LE, Op.EQ, Op.GE, Op.GT)
    disjuncts = []
    for __ in range(rng.randint(1, 4)):
        atoms = []
        for __ in range(rng.randint(1, 4)):
            names = rng.sample(used, rng.randint(1, len(used)))
            coefficients = {
                name: rng.choice((-2, -1, 1, 1, 2)) for name in names
            }
            term = LinearTerm.make(coefficients, rng.randint(-3, 3))
            atoms.append(Atom(term, rng.choice(ops)))
        disjuncts.append(tuple(atoms))
    return relation_from_disjuncts(schema, prune_disjuncts(disjuncts))


def chained_project_out(relation, keep):
    for variable in relation.variables:
        if variable not in keep:
            relation = relation.project_out(variable)
    return relation


class TestKernelProject:
    """``KernelCache.project`` is ``project_out`` to the byte."""

    def assert_same(self, relation, keep):
        expected = chained_project_out(relation, keep)
        got = KernelCache().project(relation, keep)
        assert got.variables == expected.variables
        assert str(got.formula) == str(expected.formula), (
            str(relation), keep
        )

    def test_seeded_random_relations(self):
        import random

        names = ("x", "y", "z")
        for seed in range(60):
            rng = random.Random(seed)
            dimension = rng.randint(1, 3)
            used = list(names[:dimension])
            schema = tuple(used)
            if seed % 4 == 0:
                # A schema variable no atom mentions.
                schema = (*schema, "w")
            relation = random_pruned_relation(rng, schema, used)
            keep = tuple(
                v for v in schema if rng.random() < 0.4
            )
            self.assert_same(relation, keep)

    def test_several_variables_dropped_in_sequence(self):
        relation = rel(
            "(0 <= x & x <= y & y < z & z <= 4) | "
            "(x = y & y + z >= 1 & z < 3)",
            schema=("x", "y", "z"),
        )
        for keep in ((), ("x",), ("y",), ("z",), ("x", "z")):
            self.assert_same(relation, keep)

    def test_absent_variable_and_unbounded_atoms(self):
        relation = rel("x > 1 | x - y <= -2", schema=("x", "y", "w"))
        for keep in (("x",), ("y", "w"), ("x", "y")):
            self.assert_same(relation, keep)

    def test_projection_to_false(self):
        from repro.constraints.formula import FALSE

        for relation in (
            ConstraintRelation.empty(("x", "y")),
            rel("x < y & y < x", schema=("x", "y")),
            rel("(x = 1 & x = 2) | (y > 0 & y < 0)", schema=("x", "y")),
        ):
            self.assert_same(relation, ("x",))
            assert KernelCache().project(relation, ("x",)).formula == FALSE

    def test_keep_everything_is_the_relation_itself(self):
        relation = rel("0 <= x & x <= y", schema=("x", "y"))
        assert KernelCache().project(relation, ("x", "y")) is relation

    def test_project_uses_the_feasibility_memo(self):
        registry = get_registry()
        kernels = KernelCache()
        relation = rel(
            "(0 <= x & x <= y & y <= 1) | (2 <= x & x <= 3 & y = x)",
            schema=("x", "y"),
        )
        kernels.project(relation, ("x",))
        before = registry.get("ir.feasibility_memo_hits")
        kernels.project(relation, ("y",))
        assert registry.get("ir.feasibility_memo_hits") > before


class TestValueKeyedMemos:
    """Structurally equal atoms hit the memos without being the same objects."""

    def twins(self, text: str):
        first = disjuncts_of(text)[0]
        second = disjuncts_of(text)[0]
        assert first == second
        assert all(a is not b for a, b in zip(first, second))
        return first, second

    def test_feasibility_hits_on_equal_atoms(self):
        registry = get_registry()
        kernels = KernelCache()
        first, second = self.twins("x - y <= 1 & y - x <= 1 & x >= 0")
        assert kernels.feasibility(first)
        hits = registry.get("ir.feasibility_memo_hits")
        calls = registry.get("ir.feasibility_calls")
        assert kernels.feasibility(second)
        assert registry.get("ir.feasibility_memo_hits") == hits + 1
        assert registry.get("ir.feasibility_calls") == calls

    def test_reduce_and_subsume_hit_on_equal_atoms(self):
        registry = get_registry()
        kernels = KernelCache()
        first, second = self.twins("0 <= x & x <= 2 & x <= 3 & y = 1")
        reduced = kernels.reduce_disjunct(first)
        hits = registry.get("ir.reduce_memo_hits")
        assert kernels.reduce_disjunct(second) == reduced
        assert registry.get("ir.reduce_memo_hits") == hits + 1

        small, small_twin = self.twins("0 <= x & x <= 1 & y = 1")
        assert kernels.subsumes(small, first)
        hits = registry.get("ir.subsume_memo_hits")
        assert kernels.subsumes(small_twin, second)
        assert registry.get("ir.subsume_memo_hits") == hits + 1

    def test_disjunct_holds_compiles_once_per_value(self):
        kernels = KernelCache()
        first, second = self.twins("0 <= x & x <= 1")
        order = ("x", "y")
        assert kernels.disjunct_holds(first, order, (F(1, 2), F(0)))
        assert not kernels.disjunct_holds(second, order, (F(2), F(0)))
        assert len(kernels._holds_fns) == 1


class TestMaintainedProgramMemos:
    PROGRAM = (
        "Reach(x) :- S(x), x = 0.\n"
        "Reach(y) :- Reach(x), S(y), y - x <= 1, x - y <= 1.\n"
    )

    def test_reapply_hits_memos_across_versions(self):
        from repro.datalog.compile import evaluate_program_compiled
        from repro.datalog.parser import parse_program
        from repro.incremental import MaintainedProgram
        from repro.workloads.generators import interval_chain

        registry = get_registry()
        program = parse_program(self.PROGRAM)
        maintained = MaintainedProgram(program, interval_chain(4))
        second = interval_chain(5)

        hits = registry.get("ir.feasibility_memo_hits")
        calls = registry.get("ir.feasibility_calls")
        outcome = maintained.apply(second)
        warm_hits = registry.get("ir.feasibility_memo_hits") - hits
        warm_calls = registry.get("ir.feasibility_calls") - calls
        assert warm_hits > 0

        calls = registry.get("ir.feasibility_calls")
        cold = evaluate_program_compiled(program, second)
        cold_calls = registry.get("ir.feasibility_calls") - calls
        # Decisions taken for the first version are reused, not retaken.
        assert warm_calls < cold_calls
        assert str(outcome["Reach"].formula) == str(cold["Reach"].formula)
        assert outcome.stages == cold.stages
