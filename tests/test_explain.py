"""Tests for EXPLAIN / EXPLAIN ANALYZE (repro.explain + the CLI).

The load-bearing contract: EXPLAIN never perturbs engine or store
state, and EXPLAIN ANALYZE's per-node ``self_counters`` sum *exactly*
to the run's totals (the synthetic ``other`` node absorbs bookkeeping),
so the plan tree is a lossless decomposition of the profile.
"""

import io
import json

import pytest

from repro.cli import main
from repro.config import EngineConfig
from repro.constraints.database import ConstraintDatabase
from repro.constraints.io import save_database
from repro.constraints.parser import parse_formula
from repro.constraints.relation import ConstraintRelation
from repro.engine import EngineCache, QueryEngine, default_cache
from repro.explain import PROFILE_COUNTERS, PlanNode
from repro.logic.parser import parse_query
from repro.obs import reset_all
from repro.queries.connectivity import connectivity_query_lfp


@pytest.fixture(autouse=True)
def _clean_slate():
    from repro.geometry.simplex import clear_feasibility_cache

    # The CLI tests run engines on the process-default cache.
    reset_all()
    default_cache().invalidate()
    clear_feasibility_cache()
    yield
    reset_all()
    default_cache().invalidate()
    clear_feasibility_cache()


@pytest.fixture
def cache() -> EngineCache:
    """The engine cache of one test."""
    return EngineCache()


def one_dim_database() -> ConstraintDatabase:
    return ConstraintDatabase.make({
        "S": ConstraintRelation.make(
            ("x0",),
            parse_formula("(0 < x0 & x0 < 1) | (2 < x0 & x0 < 3)"),
        )
    })


def self_counter_sums(plan: PlanNode) -> dict:
    sums: dict = {}
    for node in plan.walk():
        if node.cost:
            for name, value in node.cost.get("self_counters", {}).items():
                sums[name] = sums.get(name, 0) + value
    return sums


class TestCompile:
    def test_plan_shape_and_labels(self, cache):
        engine = QueryEngine(one_dim_database(), cache=cache)
        result = engine.explain("exists x0. S(x0)")
        assert not result.analyzed
        assert result.language == "RegFO"
        assert result.totals is None
        root = result.plan
        assert root.op == "query"
        assert root.detail["relations"] == ["S"]
        # The region lift turns ∃x0. S(x0) into ∃R⟨x0⟩. sub(R⟨x0⟩, S).
        assert [child.op for child in root.children] == \
            ["setup", "ExistsRegion"]
        lifted = root.children[1]
        assert lifted.detail["chosen"].startswith("region lift x0 → ")
        atom = lifted.children[0]
        assert atom.op == "SubsetAtom"
        assert atom.detail["relation"] == "S"

    def test_plan_shape_optimizer_off(self, cache):
        engine = QueryEngine(
            one_dim_database(),
            cache=cache,
            config=EngineConfig(optimizer="off"),
        )
        root = engine.explain("exists x0. S(x0)").plan
        assert [child.op for child in root.children] == \
            ["setup", "ExistsElem"]
        atom = root.children[1].children[0]
        assert atom.op == "RelationAtom"
        assert atom.detail["relation"] == "S"

    def test_cold_predictions(self, cache):
        engine = QueryEngine(one_dim_database(), cache=cache)
        plan = engine.explain("exists x0. S(x0)").plan
        setup = plan.children[0]
        assert setup.detail["extension"] == "build"
        assert setup.detail["arrangement"] == "build"
        assert plan.detail["result"] == "compute"

    def test_warm_predictions_and_no_perturbation(self, cache):
        engine = QueryEngine(one_dim_database(), cache=cache)
        cold = engine.explain("exists x0. S(x0)")
        engine.evaluate("exists x0. S(x0)")
        stats_before = engine.cache.stats()
        warm = engine.explain("exists x0. S(x0)")
        # Warm state is visible...
        assert warm.plan.children[0].detail["extension"] == "memory"
        # ...and peeking moved no cache counters.
        assert engine.cache.stats() == stats_before
        assert cold.plan.children[0].detail["extension"] == "build"

    def test_store_prediction(self, cache, tmp_path):
        config = EngineConfig(cache_dir=str(tmp_path / "store"))
        engine = QueryEngine(one_dim_database(), cache=cache, config=config)
        engine.evaluate("exists x0. S(x0)")
        fresh = QueryEngine(one_dim_database(), cache=cache, config=config)
        plan = fresh.explain("exists x0. S(x0)").plan
        assert plan.detail["result"] == "store"

    def test_fixpoint_node_detail(self, cache):
        query = connectivity_query_lfp(1)
        engine = QueryEngine(one_dim_database(), cache=cache)
        result = engine.explain(query)
        assert result.language == "RegLFP"
        fixpoints = [
            node for node in result.plan.walk() if node.op == "Fixpoint"
        ]
        assert len(fixpoints) == 1
        assert fixpoints[0].detail["kind"] == "lfp"


class TestAnalyze:
    def test_self_counters_sum_exactly_to_totals(self, cache):
        engine = QueryEngine(one_dim_database(), cache=cache)
        result = engine.explain(
            "exists x0. S(x0) & x0 < 2", analyze=True
        )
        assert result.analyzed
        totals = result.totals["counters"]
        sums = self_counter_sums(result.plan)
        for name in PROFILE_COUNTERS:
            assert sums.get(name, 0) == totals.get(name, 0), name

    def test_connectivity_lfp_analyze(self, cache):
        """The E4 connectivity query: stages, costs, and exact sums."""
        query = connectivity_query_lfp(1)
        engine = QueryEngine(one_dim_database(), cache=cache)
        result = engine.explain(query, analyze=True)
        # Two separated intervals are not connected.
        assert result.answer.is_empty()
        totals = result.totals["counters"]
        assert totals["lp.solves"] > 0
        assert totals["evaluator.fixpoint_stages"] > 0
        sums = self_counter_sums(result.plan)
        for name in PROFILE_COUNTERS:
            assert sums.get(name, 0) == totals.get(name, 0), name
        fixpoint = next(
            node for node in result.plan.walk() if node.op == "Fixpoint"
        )
        stages = fixpoint.cost["stages"]
        assert stages and stages[0]["stage"] == 1
        assert all("size" in s and "delta" in s for s in stages)

    def test_analyze_attaches_wall_and_trace(self, cache):
        engine = QueryEngine(one_dim_database(), cache=cache)
        result = engine.explain("exists x0. S(x0)", analyze=True)
        assert result.totals["wall_ms"] > 0
        assert result.trace is not None
        assert result.events  # journal ring recorded the run
        setup = result.plan.children[0]
        assert setup.cost["wall_ms"] >= 0
        assert result.plan.children[-1].op == "other"

    def test_analyze_totals_match_plain_evaluation(self, cache):
        """EXPLAIN ANALYZE measures the same work a plain run does."""
        from repro.geometry.simplex import clear_feasibility_cache
        from repro.obs.metrics import metrics_snapshot, reset_metrics

        engine = QueryEngine(one_dim_database(), cache=cache)
        result = engine.explain("exists x0. S(x0)", analyze=True)
        analyzed = result.totals["counters"]

        cache.invalidate()
        clear_feasibility_cache()
        reset_metrics()
        plain = QueryEngine(one_dim_database(), cache=cache)
        plain.evaluate("exists x0. S(x0)")
        snapshot = metrics_snapshot()
        assert analyzed["lp.solves"] == snapshot["lp.solves"]
        assert analyzed["arrangement.dfs_nodes"] == \
            snapshot["arrangement.dfs_nodes"]


class TestDatalogExplain:
    PROGRAM = (
        "Reach(x) :- S(x), x = 0.\n"
        "Reach(y) :- Reach(x), S(y), y - x <= 1, x - y <= 1."
    )

    def test_plan_and_analyze(self):
        from repro.datalog.parser import parse_program
        from repro.explain import explain_datalog
        from repro.workloads.generators import interval_chain

        program = parse_program(self.PROGRAM)
        database = interval_chain(2)
        static = explain_datalog(
            program, database, executor="interpreted"
        )
        assert static.plan.op == "program"
        assert [n.op for n in static.plan.children] == ["stratum"]
        assert len(static.plan.children[0].children) == 2

        analyzed = explain_datalog(
            program, database, analyze=True, executor="interpreted"
        )
        assert analyzed.totals["converged"] is True
        stratum = analyzed.plan.children[0]
        stages = stratum.cost["stages"]
        assert [s["stage"] for s in stages] == \
            list(range(1, len(stages) + 1))
        assert "Reach" in stages[0]["deltas"]

    def test_compiled_plan_renders_ir_nodes(self):
        from repro.datalog.parser import parse_program
        from repro.explain import explain_datalog
        from repro.workloads.generators import interval_chain

        program = parse_program(self.PROGRAM)
        database = interval_chain(2)
        static = explain_datalog(program, database, executor="compiled")
        stratum = static.plan.children[0]
        # Per predicate: stage-1, recursive and accumulate plans.
        labels = [child.label for child in stratum.children]
        assert labels == [
            "Reach [stage 1]", "Reach [stage ≥2]", "Reach [accumulate]"
        ]
        ops = {
            node.op
            for wrapper in stratum.children
            for node in wrapper.walk()
        }
        assert "ir.union" in ops and "ir.simplify" in ops
        assert "ir.guard" in ops  # semi-naive deltas as IR diffs

        analyzed = explain_datalog(
            program, database, analyze=True, executor="compiled"
        )
        assert analyzed.totals["converged"] is True
        totals = analyzed.totals["counters"]
        sums: dict = {}
        for node in analyzed.plan.walk():
            for name, value in (node.cost or {}).get(
                "self_counters", {}
            ).items():
                sums[name] = sums.get(name, 0) + value
        assert {k: v for k, v in sums.items() if v} == totals


def run_cli(*argv) -> tuple[int, str]:
    buffer = io.StringIO()
    code = main(list(argv), out=buffer)
    return code, buffer.getvalue()


@pytest.fixture
def one_dim_file(tmp_path):
    path = tmp_path / "db1.cdb"
    save_database(one_dim_database(), path)
    return str(path)


class TestExplainCli:
    def test_explain_plain(self, one_dim_file):
        code, output = run_cli(
            "explain", one_dim_file, "exists x0. S(x0)"
        )
        assert code == 0
        assert "EXPLAIN" in output and "ANALYZE" not in output
        # The region lift puts the quantifier on the region sort.
        assert "∃R⟨x0⟩ : Reg" in output
        assert "region lift x0 → R⟨x0⟩" in output
        assert "extension=build" in output

    def test_explain_plain_optimizer_off(self, one_dim_file, monkeypatch):
        monkeypatch.setenv("REPRO_OPTIMIZER", "off")
        code, output = run_cli(
            "explain", one_dim_file, "exists x0. S(x0)"
        )
        assert code == 0
        assert "∃x0 : ℝ" in output
        assert "region lift" not in output

    def test_explain_analyze_json_sums(self, one_dim_file):
        code, output = run_cli(
            "explain", one_dim_file, "exists x0. S(x0)",
            "--analyze", "--json",
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["analyzed"] is True
        totals = payload["totals"]["counters"]

        def walk(node):
            yield node
            for child in node["children"]:
                yield from walk(child)

        sums: dict = {}
        for node in walk(payload["plan"]):
            for name, value in node.get("cost", {}).get(
                "self_counters", {}
            ).items():
                sums[name] = sums.get(name, 0) + value
        assert {k: v for k, v in sums.items() if v} == totals

    def test_explain_datalog(self, one_dim_file):
        code, output = run_cli(
            "explain", one_dim_file, TestDatalogExplain.PROGRAM,
            "--datalog", "--analyze",
        )
        assert code == 0
        assert "Program [seminaive/compiled]" in output
        assert "Stratum 0" in output
        assert "union ∪" in output  # the compiled IR plan is rendered

    def test_explain_rejects_free_region_vars(self, one_dim_file):
        code, output = run_cli(
            "explain", one_dim_file, "sub(RX, S)"
        )
        assert code == 2
        assert "free region" in output

    def test_explain_journal_replay(self, one_dim_file, tmp_path):
        from repro.obs import replay

        path = tmp_path / "explain.jsonl"
        code, __ = run_cli(
            "explain", one_dim_file, "exists x0. S(x0)",
            "--analyze", "--journal", str(path),
        )
        assert code == 0
        result = replay(str(path))
        assert result.root is not None
        assert result.root.name == "explain"
        assert result.events_of_type("cache")


class TestCliResetIsolation:
    def test_back_to_back_invocations_do_not_leak(self, one_dim_file):
        """Satellite bugfix: main() starts from pristine obs state."""
        from repro.obs.metrics import metrics_snapshot

        code1, out1 = run_cli(
            "profile", one_dim_file, "exists x0. S(x0)"
        )
        first = json.loads(out1)["metrics"]
        code2, out2 = run_cli(
            "profile", one_dim_file, "exists x0. S(x0)"
        )
        second = json.loads(out2)["metrics"]
        assert code1 == code2 == 0
        # Same command, zeroed counters each time: evaluator numbers
        # must not accumulate across invocations.
        assert second["evaluator.evaluations"] == \
            first["evaluator.evaluations"]
        # And nothing keeps counting after main() returns.
        baseline = metrics_snapshot()["evaluator.evaluations"]
        assert baseline == second["evaluator.evaluations"]

    def test_trace_then_plain_leaves_no_open_collection(self, one_dim_file):
        from repro.obs.tracing import TRACER

        run_cli("query", one_dim_file, "exists x0. S(x0)", "--trace")
        assert not TRACER.enabled
        run_cli("query", one_dim_file, "exists x0. S(x0)")
        assert not TRACER.enabled
