"""The cost-based optimizer: rewrites preserve answers and are stable.

The optimizer's contract has three parts.  *Soundness*: every plan
rewrite (NNF + miniscoping, operand ordering, quantifier-chain
rotation, datalog body reordering) denotes the same answer as the
ablated plan — ``optimizer="off"`` is the oracle.  *Transparency*:
decisions are recorded and surfaced as ``chosen``/``because`` lines in
EXPLAIN, next to the resolved runtime knobs.  *Determinism*: a plan is
a function of the query text alone, so answers and their store keys
are identical across engines, processes and ``PYTHONHASHSEED`` values.
"""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from repro.config import EngineConfig
from repro.engine import QueryEngine
from repro.logic import ast
from repro.logic.parser import parse_query
from repro.optimizer.cost import CostModel
from repro.optimizer.rewrite import (
    order_program,
    order_rule_body,
    rewrite_query,
)
from repro.workloads.generators import interval_chain

F = Fraction

#: Sentences covering every rewrite lever; the optimizer-on engine must
#: agree with the ablated engine on each.
EQUIVALENCE_QUERIES = (
    "exists x. exists y. (S(x) & S(y) & x < 1)",
    "exists x. exists y. exists z. (S(x) & S(y) & S(z) & x < 1)",
    "forall x. (S(x) -> (x >= 0 & x <= 12))",
    "(forall R. forall Rp. (adj(R, Rp) -> "
    "(exists x. exists y. ((x) in R & (y) in Rp & x <= y)))) "
    "& (exists w. (S(w) & w + 2 < 0))",
    "(forall R. forall Rp. (adj(R, Rp) -> "
    "(exists x. exists y. ((x) in R & (y) in Rp & x <= y)))) "
    "| (exists w. (S(w) & w >= 0))",
    "(exists w. (S(w) & w >= 0)) | (exists w. (S(w) & w + 9 < 0))",
    "!(exists x. (S(x) & x + 5 < 0))",
    "forall X. forall Y. ((sub(X, S) & sub(Y, S)) -> "
    "(exists RX. exists RY. (sub(RX, S) & sub(RY, S) & "
    "[lfp M(R, Rp). ((R = Rp & sub(R, S)) | "
    "(exists Z. adj(Z, Rp) & sub(Rp, S) & M(R, Z)))](RX, RY))))",
)


class TestRewriteEquivalence:
    @pytest.mark.parametrize("k", (4, 6))
    @pytest.mark.parametrize("text", EQUIVALENCE_QUERIES)
    def test_optimized_and_ablated_agree(self, text, k):
        database = interval_chain(k)
        formula = parse_query(text)
        ablated = QueryEngine(
            database, config=EngineConfig(optimizer="off")
        ).evaluate(formula)
        optimized = QueryEngine(
            database, config=EngineConfig(optimizer="on")
        ).evaluate(formula)
        assert ablated.arity == optimized.arity == 0
        assert ablated.is_empty() == optimized.is_empty()

    def test_relation_valued_query_same_denotation(self):
        # One free element variable: compare the answer *sets*, not the
        # formulas (the rewritten plan may print differently).
        database = interval_chain(4)
        formula = parse_query("S(x) & (exists y. (S(y) & y <= x))")
        off = QueryEngine(
            database, config=EngineConfig(optimizer="off")
        ).evaluate(formula)
        on = QueryEngine(
            database, config=EngineConfig(optimizer="on")
        ).evaluate(formula)
        assert off.variables == on.variables
        assert off.difference(on).is_empty()
        assert on.difference(off).is_empty()

    def test_rewrite_is_deterministic(self):
        formula = parse_query(EQUIVALENCE_QUERIES[3])
        first = rewrite_query(formula)
        second = rewrite_query(formula)
        assert str(first.formula) == str(second.formula)

    def test_rewrite_records_ordering_decisions(self):
        formula = parse_query(
            "(exists x. exists y. ((x) in R & S(x) & S(y))) "
            "& (exists w. (S(w) & w < 0))"
        )
        outcome = rewrite_query(formula)
        kinds = [d.chosen for d in outcome.decisions]
        assert any(k.startswith("operand order") for k in kinds)

    def test_plain_atom_is_left_alone(self):
        formula = parse_query("S(x)")
        outcome = rewrite_query(formula)
        assert str(outcome.formula) == str(formula)
        assert outcome.decisions == []


class TestCostModel:
    def test_atom_cost_ladder(self):
        model = CostModel()
        set_atom = ast.SetAtom("M", ("R", "Rp"))
        adj = ast.Adj("R", "Rp")
        relation = parse_query("S(x)")
        assert model.static_cost(set_atom) < model.static_cost(adj)
        assert model.static_cost(adj) < model.static_cost(relation)

    def test_quantifiers_multiply_cost(self):
        model = CostModel()
        body = parse_query("S(x)")
        quantified = ast.ExistsElem("x", body)
        assert model.static_cost(quantified) > model.static_cost(body)


class TestDatalogBodyOrdering:
    def test_greedy_bound_propagation(self):
        from repro.datalog.parser import parse_program

        program = parse_program(
            "Reach(y) :- E(x, y), Reach(x), S(y).\n"
            "Reach(x) :- S(x), x = 0.\n"
        )
        rule = order_program(program).rules[0]
        # Reach(x) binds the head-adjacent x cheapest (1 variable),
        # then E(x, y) shares x, then S(y) shares y.
        assert [atom.predicate for atom in rule.body] == [
            "Reach", "E", "S",
        ]

    def test_ordering_is_idempotent(self):
        from repro.datalog.parser import parse_program

        program = parse_program(
            "Reach(y) :- E(x, y), Reach(x), S(y).\n"
            "Reach(x) :- S(x), x = 0.\n"
        )
        once = order_program(program)
        assert order_program(once) is once

    def test_single_atom_rule_unchanged(self):
        from repro.datalog.parser import parse_program

        program = parse_program("Copy(x) :- S(x).\n")
        assert order_rule_body(program.rules[0]) is program.rules[0]

    @pytest.mark.parametrize("executor", ("interpreted", "compiled"))
    def test_evaluation_matches_unordered_oracle(self, executor):
        from repro.datalog import evaluate_program
        from repro.datalog.parser import parse_program

        program = parse_program(
            "Reach(x) :- S(x), x = 0.\n"
            "Reach(y) :- S(y), y - x <= 1, x - y <= 1, Reach(x).\n"
        )
        database = interval_chain(6)
        oracle = evaluate_program(
            program, database, max_stages=40, executor=executor,
            optimizer="off",
        )
        ordered = evaluate_program(
            program, database, max_stages=40, executor=executor,
            optimizer="on",
        )
        assert ordered.relations == oracle.relations
        for predicate in oracle.relations:
            assert str(ordered[predicate].formula) == str(
                oracle[predicate].formula
            )


class TestFourierMotzkinOrdering:
    def _box_system(self):
        from repro.geometry.fourier_motzkin import (
            LinearConstraint,
            Rel,
        )

        rows = [
            LinearConstraint((F(1), F(0), F(0)), Rel.LE, F(4)),
            LinearConstraint((F(-1), F(0), F(0)), Rel.LE, F(0)),
            LinearConstraint((F(1), F(1), F(0)), Rel.LE, F(6)),
            LinearConstraint((F(0), F(1), F(-1)), Rel.LE, F(2)),
            LinearConstraint((F(0), F(-1), F(1)), Rel.LT, F(3)),
            LinearConstraint((F(0), F(0), F(1)), Rel.EQ, F(1)),
        ]
        return rows

    def test_auto_order_puts_equalities_first(self):
        from repro.geometry.fourier_motzkin import elimination_order

        rows = self._box_system()
        order = elimination_order(rows, [0, 1, 2])
        assert order[0] == 2  # x2 has an equality row: substitution
        assert sorted(order) == [0, 1, 2]

    def test_auto_and_given_project_the_same_set(self):
        from repro.geometry.fourier_motzkin import eliminate_variables

        rows = self._box_system()
        given = eliminate_variables(rows, [0, 1], order="given")
        auto = eliminate_variables(rows, [0, 1], order="auto")
        for z_num in range(-8, 9):
            point = (F(0), F(0), F(z_num, 2))
            assert all(
                row.satisfied_by(point) for row in given
            ) == all(row.satisfied_by(point) for row in auto)

    def test_unknown_order_rejected(self):
        from repro.geometry.fourier_motzkin import eliminate_variables

        with pytest.raises(ValueError):
            eliminate_variables(self._box_system(), [0], order="bogus")


class TestEngineIntegration:
    def test_plan_memo_returns_identical_object(self):
        engine = QueryEngine(
            interval_chain(3), config=EngineConfig(optimizer="on")
        )
        formula = parse_query("exists x. exists y. (S(x) & S(y))")
        first, _ = engine.plan(formula)
        second, _ = engine.plan(formula)
        assert first is second

    def test_optimizer_off_plans_identity(self):
        engine = QueryEngine(
            interval_chain(3), config=EngineConfig(optimizer="off")
        )
        formula = parse_query("exists x. S(x)")
        planned, outcome = engine.plan(formula)
        assert planned is formula
        assert outcome is None

    def test_stats_block_present_and_gated(self):
        on = QueryEngine(
            interval_chain(3), config=EngineConfig(optimizer="on")
        )
        off = QueryEngine(
            interval_chain(3), config=EngineConfig(optimizer="off")
        )
        assert on.stats()["optimizer"]["enabled"] is True
        assert off.stats()["optimizer"]["enabled"] is False

    def test_engines_sharing_a_store_return_identical_answers(
        self, tmp_path
    ):
        from repro.engine import EngineCache
        from repro.obs.metrics import MetricsRegistry
        from repro.store import codec
        from repro.store.disk import DiskStore

        store = DiskStore(tmp_path, metrics=MetricsRegistry())
        database = interval_chain(4)

        def engine(cache_dir):
            return QueryEngine(
                database,
                cache=EngineCache(metrics=MetricsRegistry()),
                config=EngineConfig(optimizer="on", cache_dir=cache_dir),
            )

        one, two, unstored = engine(store), engine(store), engine(None)
        texts = (
            "S(x) & (exists y. (S(y) & y <= x))",
            "exists y. S(y) & x0 - y <= 1/3 & y - x0 <= 1/3",
        ) + EQUIVALENCE_QUERIES[:3]
        def answer_bytes(run, text):
            return codec.canonical_json(codec._enc_relation(run.evaluate(text)))

        for text in texts:
            first = answer_bytes(one, text)
            assert answer_bytes(two, text) == first
            assert answer_bytes(unstored, text) == first

    def test_env_gate_disables_rewrites(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPTIMIZER", "off")
        engine = QueryEngine(interval_chain(3), config=EngineConfig())
        formula = parse_query("exists x. S(x)")
        planned, outcome = engine.plan(formula)
        assert planned is formula and outcome is None


class TestExplainAnnotations:
    def test_explain_shows_chosen_and_because(self):
        engine = QueryEngine(
            interval_chain(4), config=EngineConfig(optimizer="on")
        )
        formula = parse_query(
            "(forall R. forall Rp. (adj(R, Rp) -> "
            "(exists x. exists y. ((x) in R & (y) in Rp & x <= y)))) "
            "& (exists w. (S(w) & w + 2 < 0))"
        )
        result = engine.explain(formula)
        text = result.format()
        assert "chosen:" in text
        assert "because:" in text
        # The resolved knobs sit on the root next to ``optimizer``; no
        # synthetic knob subtree is appended to the plan.
        assert {"optimizer", "lp_mode", "executor"} <= set(
            result.plan.detail
        )
        assert "jobs" not in result.plan.detail
        assert not [
            node for node in result.plan.walk()
            if node.op in ("optimizer", "knob")
        ]

    def test_explain_json_carries_decisions(self):
        engine = QueryEngine(
            interval_chain(3), config=EngineConfig(optimizer="on")
        )
        formula = parse_query("exists x. exists y. (S(x) & S(y) & x < 1)")
        payload = engine.explain(formula).to_dict()

        def collect(node):
            yield node
            for child in node.get("children", ()):
                yield from collect(child)

        nodes = list(collect(payload["plan"]))
        assert any(
            node.get("detail", {}).get("chosen") for node in nodes
        )
        assert payload["plan"]["detail"].get("optimizer") == "on"

    def test_explain_off_has_no_knob_node(self):
        engine = QueryEngine(
            interval_chain(3), config=EngineConfig(optimizer="off")
        )
        formula = parse_query("exists x. S(x)")
        result = engine.explain(formula)
        assert "optimizer=off" in result.format()
        assert not [
            node for node in result.plan.walk()
            if node.op in ("optimizer", "knob")
        ]

    def test_root_detail_carries_resolved_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_LP_MODE", "exact")
        # A variable of the removed worker-count knob is not read.
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        formula = parse_query("exists x. exists y. (S(x) & S(y) & x < 1)")
        # Unset fields resolve environment > default ...
        deferred = QueryEngine(
            interval_chain(3), config=EngineConfig(optimizer="on")
        ).explain(formula)
        assert {
            key: deferred.plan.detail[key]
            for key in ("lp_mode", "executor")
        } == {"lp_mode": "exact", "executor": "compiled"}
        assert "jobs" not in deferred.plan.detail
        # ... and explicit fields beat the environment.
        explicit = QueryEngine(
            interval_chain(3),
            config=EngineConfig(
                optimizer="off", lp_mode="filtered", jobs=1,
                executor="interpreted",
            ),
        ).explain(formula)
        assert {
            key: explicit.plan.detail[key]
            for key in ("lp_mode", "executor")
        } == {"lp_mode": "filtered", "executor": "interpreted"}
        assert "jobs" not in explicit.plan.detail
        assert "lp_mode=filtered" in explicit.format()


#: Prints, for each query, the rewritten plan, its decisions and the
#: digest of the optimizer-on answer's codec bytes.
HASHSEED_PROBE = r"""
import hashlib, json
from repro.config import EngineConfig
from repro.engine import QueryEngine
from repro.store import codec
from repro.workloads.generators import interval_chain

engine = QueryEngine(interval_chain(4), config=EngineConfig(optimizer="on"))
rows = []
for text in (
    "exists x. exists y. exists z. (S(x) & S(y) & S(z) & x < 1)",
    "S(x) & (exists y. (S(y) & y <= x))",
    "exists y. S(y) & y - x0 >= 1/2 & y - x0 <= 3/2",
):
    plan, outcome = engine.plan(text)
    answer = engine.evaluate(text)
    rows.append({
        "plan": str(plan),
        "decisions": [d.describe() for d in outcome.decisions],
        "answer": hashlib.sha256(
            codec.canonical_json(codec._enc_relation(answer))
        ).hexdigest(),
    })
print(json.dumps(rows, sort_keys=True))
"""


class TestHashSeedDeterminism:
    def test_keys_plans_and_answers_survive_hash_seeds(self):
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        outputs = {}
        for seed in ("0", "42", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = src
            env.pop("REPRO_CACHE_DIR", None)
            proc = subprocess.run(
                [sys.executable, "-c", HASHSEED_PROBE],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs[seed] = proc.stdout
        assert len(set(outputs.values())) == 1, outputs
        rows = json.loads(outputs["0"])
        assert len({row["plan"] for row in rows}) == len(rows)
