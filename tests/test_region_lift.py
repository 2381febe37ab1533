"""The region lift: element quantifiers decided on the region sort.

An element quantifier whose variables occur only in ``S(x̄)`` and
``x̄ ∈ R`` atoms, with S a union of regions, is rewritten to a region
quantifier (the faces of A(S) partition ℝᵈ and both atoms are constant
on each face — §4 of the paper, proof of Thm 4.3).  The elimination
path (``optimizer="off"``) is the oracle: every lifted answer here is
compared against it, on the E4 golden verdicts, on the connectivity
sentences in 1-D and 2-D, and on seeded random sentences.  The cases
that must not lift are pinned by plan shape.
"""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.config import EngineConfig
from repro.constraints.database import ConstraintDatabase
from repro.constraints.parser import parse_formula
from repro.constraints.relation import ConstraintRelation
from repro.engine import EngineCache, QueryEngine
from repro.errors import EvaluationError
from repro.logic import ast
from repro.logic.parser import parse_query
from repro.optimizer.lift import RegionSort
from repro.optimizer.rewrite import rewrite_query
from repro.queries.connectivity import (
    connectivity_ground_truth,
    connectivity_query_lfp,
    connectivity_query_tc,
)
from repro.workloads.generators import chain_of_boxes, interval_chain

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
EXECUTORS = ("compiled", "interpreted")


def engine(database, optimizer="on", executor=None, decomposition=None):
    return QueryEngine(
        database,
        decomposition or "arrangement",
        cache=EngineCache(),
        config=EngineConfig(optimizer=optimizer, executor=executor),
    )


def lift_decisions(query_engine, text):
    __, outcome = query_engine.plan(text)
    return [d for d in outcome.decisions if d.chosen.startswith("region lift")]


def element_quantifiers(formula):
    found = []

    def walk(node):
        if isinstance(node, (ast.ExistsElem, ast.ForallElem)):
            found.append(node.variable)
        for value in vars(node).values():
            if isinstance(value, ast.RegFormula):
                walk(value)
            elif isinstance(value, tuple):
                for part in value:
                    if isinstance(part, ast.RegFormula):
                        walk(part)

    walk(formula)
    return found


def same_answer(database, text, executor=None, decomposition=None):
    """The lifted and the eliminated answers define one relation."""
    lifted = engine(database, "on", executor, decomposition).evaluate(text)
    oracle = engine(database, "off", executor, decomposition).evaluate(text)
    assert lifted.variables == oracle.variables, text
    assert lifted.equivalent(oracle), text
    return lifted


def dtc_connectivity(arity):
    xs = ", ".join(f"x{i}a" for i in range(arity))
    ys = ", ".join(f"x{i}b" for i in range(arity))
    return parse_query(
        f"forall {xs}, {ys}. (S({xs}) & S({ys})) -> "
        f"(exists RX, RY. ({xs}) in RX & ({ys}) in RY & "
        "sub(RX, S) & sub(RY, S) & (RX = RY | [dtc (R) -> (Rp). "
        "adj(R, Rp) & sub(R, S) & sub(Rp, S)](RX; RY)))"
    )


SENTENCES = {
    "lfp": connectivity_query_lfp,
    "tc": connectivity_query_tc,
    "dtc": dtc_connectivity,
}


class TestGoldenVerdicts:
    """The E4 golden verdicts, with the lift on and off."""

    GOLDEN_E4 = json.loads((GOLDEN / "e4_query_verdicts.json").read_text())

    @pytest.mark.parametrize(
        "key, database",
        [
            ("conn_touching", interval_chain(2)),
            ("conn_gapped", interval_chain(2, gap=True)),
            ("conn_single", interval_chain(1)),
        ],
    )
    def test_e4_connectivity(self, key, database):
        for build in (connectivity_query_lfp, connectivity_query_tc):
            sentence = build(1)
            oracle = engine(database, "off").truth(sentence)
            assert oracle == self.GOLDEN_E4[key]
            for executor in EXECUTORS:
                lifted = engine(database, "on", executor).truth(sentence)
                assert lifted == oracle, (key, executor)

    def test_e4_regfo_verdicts(self):
        database = interval_chain(2)
        assert same_answer(database, "exists x. S(x)").is_empty() is (
            not self.GOLDEN_E4["exists_point"]
        )
        assert same_answer(
            database, "forall x. S(x) -> x < 3"
        ).is_empty() is (not self.GOLDEN_E4["all_below_three"])
        same_answer(database, "S(x) & x < 1")


class TestConnectivity:
    """RegLFP / RegTC / RegDTC connectivity, lifted vs eliminated."""

    ONE_D = {
        "touching": interval_chain(3),
        "gapped": interval_chain(3, gap=True),
    }

    @pytest.mark.parametrize("kind", sorted(SENTENCES))
    @pytest.mark.parametrize("name", sorted(ONE_D))
    def test_one_dimensional(self, kind, name):
        database = self.ONE_D[name]
        sentence = SENTENCES[kind](1)
        oracle = engine(database, "off").truth(sentence)
        for executor in EXECUTORS:
            lifted = engine(database, "on", executor)
            assert len(lift_decisions(lifted, sentence)) == 2
            assert lifted.truth(sentence) == oracle, executor

    def test_lifted_plan_has_no_element_quantifier(self):
        databases = {1: interval_chain(2), 2: chain_of_boxes(1)}
        for kind, build in SENTENCES.items():
            for arity, database in databases.items():
                planned, __ = engine(database).plan(build(arity))
                assert element_quantifiers(planned) == [], (kind, arity)

    def test_two_dimensional_dtc(self):
        database = chain_of_boxes(1)
        sentence = dtc_connectivity(2)
        lifted = engine(database)
        decisions = lift_decisions(lifted, sentence)
        assert [d.chosen for d in decisions] == [
            "region lift x0b, x1b → R⟨x0b,x1b⟩",
            "region lift x0a, x1a → R⟨x0a,x1a⟩",
        ]
        oracle = engine(database, "off").truth(sentence)
        assert lifted.truth(sentence) == oracle


class TestPaperSideCheck:
    """Both Conn sentences on 2-D databases past perfbench's sizes.

    ``chain_of_boxes(1)`` is connected; two separated unit boxes are
    not.  On the one box the elimination oracle runs live (about 1 s a
    sentence).  On the two boxes it takes about 15 s a sentence, so the
    expected verdict there is the oracle's answer, and the live check
    is the union-find over the region adjacency graph.
    """

    def test_one_box_is_connected(self):
        database = chain_of_boxes(1)
        for build in (connectivity_query_lfp, connectivity_query_tc):
            sentence = build(2)
            lifted = engine(database, "on").truth(sentence)
            oracle = engine(database, "off").truth(sentence)
            assert lifted is oracle is True

    def test_two_separated_boxes_are_not(self):
        database = chain_of_boxes(2, touching=False)
        lifted = engine(database)
        assert connectivity_ground_truth(lifted.extension) is False
        for build in (connectivity_query_lfp, connectivity_query_tc):
            sentence = build(2)
            assert len(lift_decisions(lifted, sentence)) == 2
            assert lifted.truth(sentence) is False


# ----------------------------------------------------------------------
# Seeded random sentences over S, ∈, sub, adj and both quantifier sorts
# ----------------------------------------------------------------------
def random_sentence(rng, depth, dimension, blocks=(), regions=()):
    """A closed sentence: atoms use only the blocks and regions bound
    above them; a block is a d-tuple of element variables."""
    if depth == 0 or rng.random() < 0.1:
        return random_atom(rng, dimension, blocks, regions)
    roll = rng.randrange(8)
    if roll == 0:
        inner = random_sentence(rng, depth - 1, dimension, blocks, regions)
        return f"!({inner})"
    if roll in (1, 2):
        left = random_sentence(rng, depth - 1, dimension, blocks, regions)
        right = random_sentence(rng, depth - 1, dimension, blocks, regions)
        return f"({left} {'&' if roll == 1 else '|'} {right})"
    quantifier = rng.choice(("exists", "forall"))
    if roll in (3, 4, 5):
        block = tuple(f"x{len(blocks)}{c}" for c in "abc"[:dimension])
        body = random_sentence(
            rng, depth - 1, dimension, blocks + (block,), regions
        )
        return f"({quantifier} {', '.join(block)}. {body})"
    region = f"R{len(regions)}"
    body = random_sentence(
        rng, depth - 1, dimension, blocks, regions + (region,)
    )
    return f"({quantifier} {region}. {body})"


def random_atom(rng, dimension, blocks, regions):
    options = ["true"] if not (blocks or regions) else []
    if blocks:
        block = ", ".join(recent(rng, blocks))
        options += [f"S({block})"] * 3
        if regions:
            options += [f"({block}) in {recent(rng, regions)}"] * 3
        # An occasional linear atom keeps its block on the element sort.
        options.append(f"{recent(rng, blocks)[0]} < 1")
    if regions:
        left, right = recent(rng, regions), rng.choice(regions)
        options += [f"sub({left}, S)", f"adj({left}, {right})",
                    f"{left} = {right}"]
    return rng.choice(options)


def recent(rng, names):
    """Mostly the innermost binder, so few quantifiers are vacuous."""
    return names[-1] if rng.random() < 0.6 else rng.choice(names)


class TestRandomSentences:
    @pytest.mark.parametrize("seed", range(100))
    def test_one_dimensional(self, seed):
        rng = random.Random(f"region-lift-{seed}")
        text = random_sentence(rng, 5, 1)
        same_answer(interval_chain(2, gap=seed % 2 == 1), text)

    @pytest.mark.parametrize("seed", range(20))
    def test_two_dimensional(self, seed):
        rng = random.Random(f"region-lift-2d-{seed}")
        text = random_sentence(rng, 4, 2)
        same_answer(chain_of_boxes(1), text)

    def test_random_sentences_do_lift(self):
        lifted = 0
        for seed in range(100):
            rng = random.Random(f"region-lift-{seed}")
            text = random_sentence(rng, 5, 1)
            lifted += bool(lift_decisions(engine(interval_chain(2)), text))
        assert lifted >= 40


# ----------------------------------------------------------------------
# What must (not) lift
# ----------------------------------------------------------------------
def two_relation_database():
    return ConstraintDatabase.make({
        "S": ConstraintRelation.make(
            ("x0",), parse_formula("0 <= x0 & x0 <= 2")
        ),
        "T": ConstraintRelation.make(
            ("x0",), parse_formula("1 < x0 & x0 < 3")
        ),
    })


class TestLiftScope:
    @pytest.mark.parametrize(
        "text",
        [
            "exists x. (S(x) & x < 1)",  # linear atom on a bound variable
            "exists x. S(x + 1)",  # a shifted argument
            "forall x. (S(x) -> S(2*x))",  # a scaled argument
            "forall x. (S(x) | x >= 0)",
        ],
        ids=[
            "linear-atom", "shifted-argument", "scaled-argument",
            "linear-disjunct",
        ],
    )
    def test_one_dimensional_non_lifts(self, text):
        database = interval_chain(2)
        assert lift_decisions(engine(database), text) == []
        same_answer(database, text)

    @pytest.mark.parametrize(
        "text",
        [
            "forall x0a. S(x0a, x1a)",  # a partial block
            "exists x1a. (forall x0a. S(x0a, x1a))",  # partial chain
            "exists x0a. S(x0a, y)",  # a mixed block
            "exists x0a. S(x0a, x0a)",  # a repeated variable
            # Two orders of one pair of variables: overlapping blocks.
            "exists x0a, x1a. (S(x0a, x1a) & !S(x1a, x0a))",
        ],
        ids=[
            "partial-block", "partial-chain", "mixed-block", "diagonal",
            "swapped-block",
        ],
    )
    def test_two_dimensional_non_lifts(self, text):
        database = chain_of_boxes(1)
        planned, outcome = engine(database).plan(text)
        assert not any(
            d.chosen.startswith("region lift") for d in outcome.decisions
        )
        assert element_quantifiers(planned)
        same_answer(database, text)

    @pytest.mark.parametrize(
        "text", ["exists x. S(x)", "exists R. exists x. (x) in R"]
    )
    def test_wrong_arity_still_fails(self, text):
        # A block shorter than the dimension is an ill-formed query on
        # both paths, not a lifted one.
        for optimizer in ("on", "off"):
            with pytest.raises(EvaluationError):
                engine(chain_of_boxes(1), optimizer).evaluate(text)

    def test_shadowed_rebinding(self):
        # Without miniscoping the inner ∃x stays on the element sort (y
        # meets a linear atom), so the outer x is shadowed inside it and
        # must not lift: lifting would tie the inner S(x) to the outer x.
        formula = parse_query(
            "exists x. (!S(x) & "
            "(exists x. exists y. (S(x) & S(y) & y < 1)))"
        )
        outcome = rewrite_query(
            formula,
            scope_minimize=False,
            region_sort=RegionSort(1, frozenset({"S"})),
        )
        assert sorted(element_quantifiers(outcome.formula)) == \
            ["x", "x", "y"]
        oracle = engine(interval_chain(2), "off")
        assert oracle.truth(outcome.formula) is oracle.truth(formula)

    @pytest.mark.parametrize(
        "text",
        [
            # The ∀ dual of the one-point rule: R⟨x⟩ ≠ R ∨ ψ ...
            "exists x. (S(x) & (forall R. (!((x) in R) | sub(R, S))))",
            # ... but R⟨x⟩ = R ∨ ψ under ∀ is not a one-point pattern.
            "exists x. (forall R. ((x) in R | !sub(R, S)))",
        ],
        ids=["forall-dual", "forall-equality-disjunct"],
    )
    def test_one_point_rule(self, text):
        database = interval_chain(2)
        assert lift_decisions(engine(database), text)
        same_answer(database, text)

    def test_non_spatial_relation_under_arrangement(self):
        database = two_relation_database()
        text = "exists x. T(x)"
        assert lift_decisions(engine(database), text) == []
        same_answer(database, text)

    def test_auxiliary_relation_under_refined_lifts(self):
        database = two_relation_database()
        text = "forall x. (T(x) -> S(x))"
        refined = engine(database, decomposition="refined")
        (decision,) = lift_decisions(refined, text)
        assert decision.chosen == "region lift x → R⟨x⟩"
        planned, __ = refined.plan(text)
        assert element_quantifiers(planned) == []
        answer = same_answer(database, text, decomposition="refined")
        assert answer.is_empty()  # T pokes out of S on (2, 3)

    @pytest.mark.parametrize(
        "text",
        [
            "exists x. S(x)",
            connectivity_query_tc(1),
        ],
        ids=["exists", "conn-tc"],
    )
    def test_nothing_lifts_under_nc1(self, text):
        database = interval_chain(2)
        nc1 = engine(database, decomposition="nc1")
        planned, __ = nc1.plan(text)
        formula = parse_query(text) if isinstance(text, str) else text
        assert planned == rewrite_query(formula).formula
        assert element_quantifiers(planned)

    def test_nested_lifts_keep_their_binders(self):
        # The z lift renames Q's region to R⟨x⟩ inside two lifted
        # binders; the one-point rule must not drop either of them.
        text = (
            "forall z. (S(z) -> (exists x. exists Q. ((x) in Q & "
            "(z) in Q & (exists y. ((y) in Q & S(y))))))"
        )
        database = interval_chain(2)
        lifted = engine(database)
        chosen = [d.chosen for d in lift_decisions(lifted, text)]
        assert chosen == [
            "region lift y → R⟨y⟩",
            "region lift x → R⟨x⟩",
            "region lift z → R⟨z⟩",
        ]
        planned, __ = lifted.plan(text)
        assert element_quantifiers(planned) == []
        same_answer(database, text)

    def test_optimizer_off_plans_are_unchanged(self):
        database = interval_chain(2)
        for text in ("exists x. S(x)", str(connectivity_query_lfp(1))):
            planned, outcome = engine(database, "off").plan(text)
            assert outcome is None
            assert planned == parse_query(text)


class TestFreshNames:
    def test_collision_with_an_existing_name_is_avoided(self):
        # Only a hand-built formula can carry a name the parser cannot
        # produce; the lift must not capture it.
        taken = "R⟨x⟩"
        formula = ast.ExistsRegion(
            taken,
            ast.RAnd((
                ast.SubsetAtom(taken, "S"),
                parse_query("exists x. ((x) in Q & S(x))"),
            )),
        )
        formula = ast.ForallRegion("Q", formula)
        outcome = rewrite_query(
            formula, region_sort=RegionSort(1, frozenset({"S"}))
        )
        (decision,) = [
            d for d in outcome.decisions
            if d.chosen.startswith("region lift")
        ]
        assert decision.chosen == "region lift x → R⟨x⟩'"
        assert "R⟨x⟩'" in str(outcome.formula)
        database = interval_chain(2)
        lifted = engine(database).evaluate(formula)
        oracle = engine(database, "off").evaluate(formula)
        assert lifted.is_empty() == oracle.is_empty()

    def test_plan_text_is_stable_across_hash_seeds(self):
        script = (
            "from repro.optimizer.lift import RegionSort\n"
            "from repro.optimizer.rewrite import rewrite_query\n"
            "from repro.queries.connectivity import connectivity_query_tc\n"
            "outcome = rewrite_query(connectivity_query_tc(2), "
            "region_sort=RegionSort(2, frozenset({'S'})))\n"
            "print(outcome.formula)\n"
            "print([d.chosen for d in outcome.decisions])\n"
        )
        source = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(
            filter(None, (source, os.environ.get("PYTHONPATH")))
        )
        outputs = set()
        for seed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            outputs.add(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env, capture_output=True, text=True, check=True,
                ).stdout
            )
        assert len(outputs) == 1
        (text,) = outputs
        assert "R⟨x0a,x1a⟩" in text and "exists x" not in text
