"""Tests for query evaluation on region extensions.

Covers RegFO evaluation (Theorem 4.3's procedure), the fixed-point
operators including the paper's connectivity query (Section 5), the
transitive closure operators (Section 7) and rBIT.
"""

from fractions import Fraction

import pytest

from repro.engine import QueryEngine
from repro.errors import EvaluationError, UnboundVariableError
from repro.constraints.database import ConstraintDatabase
from repro.constraints.parser import parse_formula
from repro.logic.evaluator import Evaluator
from repro.logic.parser import parse_query
from repro.twosorted.structure import RegionExtension

F = Fraction


def db(text: str, arity: int) -> ConstraintDatabase:
    return ConstraintDatabase.from_formula(parse_formula(text), arity)


def truth(query: str, database: ConstraintDatabase, **kw) -> bool:
    return QueryEngine(database, **kw).truth(parse_query(query))


def evaluate(query: str, database: ConstraintDatabase):
    return QueryEngine(database).evaluate(parse_query(query))


INTERVAL = db("0 < x0 & x0 < 1", 1)
TWO_INTERVALS = db("(0 < x0 & x0 < 1) | (2 < x0 & x0 < 3)", 1)
TOUCHING = db("(0 < x0 & x0 < 1) | (1 <= x0 & x0 < 2)", 1)
TRIANGLE = db("x0 >= 0 & x1 >= 0 & x0 + x1 <= 1", 2)
TWO_BOXES = db(
    "(0 <= x0 & x0 <= 1 & 0 <= x1 & x1 <= 1) | "
    "(2 <= x0 & x0 <= 3 & 0 <= x1 & x1 <= 1)",
    2,
)

CONN_1D = (
    "forall x1, x2. (S(x1) & S(x2)) -> "
    "(exists RX, RY. (x1) in RX & (x2) in RY & "
    "[lfp M(R, Rp). ((R = Rp & sub(R, S)) | "
    "(exists Z. M(R, Z) & adj(Z, Rp) & sub(Rp, S)))](RX, RY))"
)

CONN_2D = (
    "forall x1, y1, x2, y2. (S(x1, y1) & S(x2, y2)) -> "
    "(exists RX, RY. (x1, y1) in RX & (x2, y2) in RY & "
    "[lfp M(R, Rp). ((R = Rp & sub(R, S)) | "
    "(exists Z. M(R, Z) & adj(Z, Rp) & sub(Rp, S)))](RX, RY))"
)


class TestRegFOEvaluation:
    def test_linear_atom_relation(self):
        answer = evaluate("x > 0 & x < 1", INTERVAL)
        assert answer.variables == ("x",)
        assert answer.contains((F(1, 2),))
        assert not answer.contains((F(2),))

    def test_relation_atom_substitution(self):
        # S(2x) over S = (0,1) is 0 < 2x < 1.
        answer = evaluate("S(2*x)", INTERVAL)
        assert answer.contains((F(1, 4),))
        assert not answer.contains((F(3, 4),))

    def test_element_quantifiers(self):
        assert truth("exists x. S(x)", INTERVAL)
        assert not truth("forall x. S(x)", INTERVAL)
        assert truth("forall x. S(x) -> x < 1", INTERVAL)

    def test_region_quantifiers(self):
        # Some region is inside S, some region is not.
        assert truth("exists R. sub(R, S)", INTERVAL)
        assert not truth("forall R. sub(R, S)", INTERVAL)

    def test_in_region_links_sorts(self):
        # Every point of S is in some region contained in S.
        q = "forall x. S(x) -> (exists R. (x) in R & sub(R, S))"
        assert truth(q, INTERVAL)
        assert truth(q, TWO_INTERVALS)

    def test_adjacency_over_structure(self):
        # The interval (0,1) region is adjacent to the vertex at 0.
        q = ("exists R, Z. sub(R, S) & adj(R, Z) & "
             "(exists x. (x) in Z & x = 0)")
        assert truth(q, INTERVAL)

    def test_region_equality_semantics(self):
        q = "forall R. exists Z. R = Z"
        assert truth(q, INTERVAL)
        q2 = "exists R, Z. R != Z"
        assert truth(q2, INTERVAL)

    def test_answer_is_quantifier_free_relation(self):
        """Closure: the output of any query is again a linear relation."""
        answer = evaluate("exists y. S(y) & x < y", INTERVAL)
        assert answer.formula.is_quantifier_free()
        assert answer.contains((F(0),))
        assert answer.contains((F(1, 2),))
        assert not answer.contains((F(1),))

    def test_two_dimensional(self):
        answer = evaluate("exists y. S(x, y) & y > 0", TRIANGLE)
        assert answer.contains((F(1, 2),))
        assert not answer.contains((F(2),))

    def test_free_region_variable_rejected_at_top(self):
        with pytest.raises(EvaluationError):
            evaluate("sub(R, S)", INTERVAL)

    def test_unbound_region_variable(self):
        ext = RegionExtension.build(INTERVAL)
        with pytest.raises(UnboundVariableError):
            Evaluator(ext).evaluate(parse_query("sub(R, S)"))

    def test_boolean_queries_need_no_free_vars(self):
        with pytest.raises(EvaluationError):
            truth("S(x)", INTERVAL)


class TestConnectivity:
    """The paper's flagship example (Section 5)."""

    def test_single_interval_connected(self):
        assert truth(CONN_1D, INTERVAL)

    def test_two_intervals_disconnected(self):
        assert not truth(CONN_1D, TWO_INTERVALS)

    def test_touching_intervals_connected(self):
        assert truth(CONN_1D, TOUCHING)

    def test_triangle_connected(self):
        assert truth(CONN_2D, TRIANGLE)

    def test_two_boxes_disconnected(self):
        assert not truth(CONN_2D, TWO_BOXES)

    def test_empty_relation_trivially_connected(self):
        assert truth(CONN_1D, db("x0 < 0 & x0 > 0", 1))


class TestFixpointOperators:
    def test_lfp_reachability_from_vertex(self):
        # Regions reachable from the region containing 0 through S-regions.
        q = ("exists RX, RY. (exists x. x = 0 & (x) in RX) & "
             "(exists y. y = 1/2 & (y) in RY) & "
             "[lfp M(R, Rp). ((R = Rp) | "
             "(exists Z. M(R, Z) & adj(Z, Rp)))](RX, RY)")
        assert truth(q, INTERVAL)

    def test_ifp_equals_lfp_on_positive_bodies(self):
        lfp_q = ("exists RX, RY. [lfp M(R, Rp). ((R = Rp & sub(R, S)) | "
                 "(exists Z. M(R, Z) & adj(Z, Rp) & sub(Rp, S)))](RX, RY)")
        ifp_q = lfp_q.replace("lfp", "ifp")
        for database in (INTERVAL, TWO_INTERVALS):
            assert truth(lfp_q, database) == truth(ifp_q, database)

    def test_pfp_nonconverging_is_empty(self):
        # M(R) <-> !M(R): flips every stage, never converges -> empty.
        q = "exists X. [pfp M(R). !M(R)](X)"
        assert not truth(q, INTERVAL)

    def test_pfp_converging_behaves_like_ifp(self):
        q = "exists X. [pfp M(R). M(R) | sub(R, S)](X)"
        assert truth(q, INTERVAL)

    def test_fixpoint_stage_telemetry(self):
        ext = RegionExtension.build(TWO_INTERVALS)
        evaluator = Evaluator(ext)
        formula = parse_query(CONN_1D)
        evaluator.truth(formula)
        assert evaluator.metrics.get("fixpoint_stages") > 0
        assert evaluator.metrics.get("memo_hits") > 0


class TestTransitiveClosure:
    CONN_TC_1D = (
        "forall x1, x2. (S(x1) & S(x2)) -> "
        "(exists RX, RY. (x1) in RX & (x2) in RY & "
        "(RX = RY | [tc (R) -> (Rp). adj(R, Rp) & sub(R, S) & "
        "sub(Rp, S)](RX; RY)))"
    )

    def test_tc_connectivity_agrees_with_lfp(self):
        for database in (INTERVAL, TWO_INTERVALS, TOUCHING):
            assert truth(self.CONN_TC_1D, database) == truth(
                CONN_1D, database
            )

    def test_tc_on_nc1_decomposition(self):
        """Section 7 pairs TC with the NC¹ decomposition."""
        assert truth(
            self.CONN_TC_1D, INTERVAL, decomposition="nc1"
        )
        assert not truth(
            self.CONN_TC_1D, TWO_INTERVALS, decomposition="nc1"
        )

    def test_tc_requires_a_step(self):
        # No region is adjacent to itself, so with a false body TC is empty.
        q = "exists X, Y. [tc (R) -> (Rp). false](X; Y)"
        assert not truth(q, INTERVAL)

    def test_dtc_subset_of_tc(self):
        tc_q = ("exists X, Y. X != Y & "
                "[tc (R) -> (Rp). adj(R, Rp)](X; Y)")
        dtc_q = tc_q.replace("[tc", "[dtc")
        # TC over adjacency reaches things; DTC only where successors are
        # unique, so DTC-reachability implies TC-reachability.
        ext = RegionExtension.build(INTERVAL)
        ev = Evaluator(ext)
        tc_f = parse_query(tc_q)
        dtc_f = parse_query(dtc_q)
        assert ev.truth(tc_f)
        if ev.truth(dtc_f):
            assert ev.truth(tc_f)

    def test_dtc_unique_successor_chain(self):
        # Body: R < Rp in index order is not expressible; use adjacency
        # restricted to vertex-interval pattern in the interval database.
        q = ("exists X, Y. [dtc (R) -> (Rp). adj(R, Rp) & "
             "sub(R, S) & sub(Rp, S)](X; Y)")
        # In (0,1): the only S-regions form a single region plus nothing
        # adjacent inside S, so DTC is empty.
        assert not truth(q, INTERVAL)


class TestRBit:
    def test_rbit_exposes_bits(self):
        # φ(x) := x = 3/4 pins down numerator 3 (bits 1,2), denominator 4
        # (bit 3).  The interval db has two 0-dim regions (ranks 1, 2),
        # so bit 1 and 2 of the numerator are addressable but bit 3 of
        # the denominator is not.
        q = "exists Rn, Rd. [rbit x. 4*x = 3](Rn, Rd)"
        assert not truth(q, INTERVAL)  # denominator bit 3 out of range

        # x = 3 -> numerator 3 (bits 1,2), denominator 1 (bit 1).
        q2 = "exists Rn, Rd. [rbit x. x = 3](Rn, Rd)"
        assert truth(q2, INTERVAL)

    def test_rbit_specific_pairs(self):
        ext = RegionExtension.build(INTERVAL)
        ev = Evaluator(ext)
        zero_dim = ext.zero_dimensional_regions()
        assert len(zero_dim) == 2
        formula = parse_query("[rbit x. x = 3](Rn, Rd)")
        # numerator 3 = 0b11: bits 1 and 2; denominator 1: bit 1.
        r1, r2 = zero_dim[0].index, zero_dim[1].index
        assert ev.truth(formula, {"Rn": r1, "Rd": r1})
        assert ev.truth(formula, {"Rn": r2, "Rd": r1})
        assert not ev.truth(formula, {"Rn": r1, "Rd": r2})

    def test_rbit_zero_case(self):
        ext = RegionExtension.build(INTERVAL)
        ev = Evaluator(ext)
        formula = parse_query("[rbit x. x = 0](Rn, Rd)")
        high_dim = [r for r in ext.regions if r.dimension > 0]
        zero_dim = [r for r in ext.regions if r.dimension == 0]
        assert ev.truth(
            formula, {"Rn": high_dim[0].index, "Rd": high_dim[0].index}
        )
        assert not ev.truth(
            formula, {"Rn": high_dim[0].index, "Rd": high_dim[1].index}
        )
        assert not ev.truth(
            formula, {"Rn": zero_dim[0].index, "Rd": zero_dim[0].index}
        )

    def test_rbit_non_unique_is_empty(self):
        # φ(x) := S(x) defines an interval, not a point -> empty.
        q = "exists Rn, Rd. [rbit x. S(x)](Rn, Rd)"
        assert not truth(q, INTERVAL)

    def test_rbit_with_region_parameter(self):
        # φ(x, P) := x in P pins down a rational only for vertex regions.
        q = ("exists P, Rn, Rd. [rbit x. (x) in P](Rn, Rd) & "
             "(exists y. y = 2 & (y) in P)")
        database = db("(0 < x0 & x0 < 1) | x0 = 2", 1)
        assert truth(q, database)


class TestMemoisation:
    def test_repeated_evaluation_hits_memo(self):
        ext = RegionExtension.build(TRIANGLE)
        ev = Evaluator(ext)
        f = parse_query("exists R. sub(R, S) & (x, y) in R")
        first = ev.evaluate(f)
        before = ev.metrics.get("evaluations")
        second = ev.evaluate(f)
        assert ev.metrics.get("evaluations") == before
        assert first.equivalent(second)

    def test_memo_keys_are_structural_not_identity(self):
        # Regression: the memos used to key on id(formula), which both
        # misses structurally equal formulas and — worse — can collide
        # when a collected object's id is reused.  Two independent
        # parses of the same query must share one memo entry.
        ext = RegionExtension.build(TRIANGLE)
        ev = Evaluator(ext)
        first = parse_query("exists R. sub(R, S) & (x, y) in R")
        second = parse_query("exists R. sub(R, S) & (x, y) in R")
        assert first is not second
        ev.evaluate(first)
        evaluations = ev.metrics.get("evaluations")
        answer = ev.evaluate(second)
        assert ev.metrics.get("evaluations") == evaluations
        assert answer.equivalent(ev.evaluate(first))

    def test_fixpoint_memo_shared_across_equal_parses(self):
        ext = RegionExtension.build(TWO_INTERVALS)
        ev = Evaluator(ext)
        query = (
            "exists RX, RY. sub(RX, S) & sub(RY, S) & "
            "[lfp M(R, Rp). ((R = Rp & sub(R, S)) | "
            "(exists Z. M(R, Z) & adj(Z, Rp) & sub(Rp, S)))](RX, RY)"
        )
        assert ev.truth(parse_query(query))
        assert len(ev._fixpoint_memo) == 1
        stages = ev.metrics.get("fixpoint_stages")
        # A fresh parse is a different object but the same structure:
        # the fixpoint run must come from the memo, not be recomputed.
        assert ev.truth(parse_query(query))
        assert len(ev._fixpoint_memo) == 1
        assert ev.metrics.get("fixpoint_stages") == stages

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(Evaluator, "_MEMO_CAPACITY", 8)
        engine = QueryEngine(TWO_INTERVALS)
        for k in range(20):
            query = f"S(x) & x < {k}/7"
            answer = engine.evaluate(query)
            assert len(engine.evaluator._memo) <= 8
            fresh = QueryEngine(TWO_INTERVALS).evaluate(query)
            assert str(answer.formula) == str(fresh.formula)

    def test_distinct_formulas_do_not_collide(self):
        ext = RegionExtension.build(TWO_INTERVALS)
        ev = Evaluator(ext)
        assert ev.truth(parse_query("exists x. S(x)"))
        assert not ev.truth(parse_query("exists x. S(x) & x > 10"))
