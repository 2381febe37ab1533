"""Tests for serialisation and the command-line interface."""

import io

import pytest

from repro.errors import ParseError
from repro.cli import main
from repro.constraints.database import ConstraintDatabase
from repro.constraints.io import (
    dumps_database,
    load_database,
    loads_database,
    save_database,
)
from repro.constraints.parser import parse_formula
from repro.constraints.relation import ConstraintRelation


def sample_database() -> ConstraintDatabase:
    return ConstraintDatabase.make({
        "S": ConstraintRelation.make(
            ("x0", "x1"),
            parse_formula("x0 >= 0 & x1 >= 0 & x0 + x1 <= 1"),
        ),
        "Zone": ConstraintRelation.make(
            ("x0", "x1"), parse_formula("x0 = x1")
        ),
    })


class TestSerialisation:
    def test_roundtrip(self):
        database = sample_database()
        text = dumps_database(database)
        back = loads_database(text)
        assert back.names() == database.names()
        for name, relation in database:
            assert back.relation(name).equivalent(relation)

    def test_file_roundtrip(self, tmp_path):
        database = sample_database()
        path = tmp_path / "db.cdb"
        save_database(database, path)
        back = load_database(path)
        assert back.relation("S").equivalent(database.relation("S"))

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# repro database v1\n\n"
            "# a comment\n"
            "RELATION S (x0)\n"
            "x0 > 0\n\n"
        )
        database = loads_database(text)
        assert database.names() == ("S",)

    def test_format_errors(self):
        for bad in [
            "",                                     # no relations
            "RELATION S (x0)\n",                    # missing formula
            "x0 > 0\n",                             # no header line
            "RELATION s (x0)\nx0 > 0\n",            # lowercase name
            "RELATION S ()\nx0 > 0\n",              # empty schema
            "RELATION S (x0)\nx0 > 0\n"
            "RELATION S (x0)\nx0 < 0\n",            # duplicate
        ]:
            with pytest.raises(ParseError):
                loads_database(bad)


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "db.cdb"
    save_database(sample_database(), path)
    return str(path)


@pytest.fixture
def one_dim_file(tmp_path):
    database = ConstraintDatabase.make({
        "S": ConstraintRelation.make(
            ("x0",),
            parse_formula("(0 < x0 & x0 < 1) | (2 < x0 & x0 < 3)"),
        )
    })
    path = tmp_path / "db1.cdb"
    save_database(database, path)
    return str(path)


def run_cli(*argv) -> tuple[int, str]:
    buffer = io.StringIO()
    code = main(list(argv), out=buffer)
    return code, buffer.getvalue()


class TestCli:
    def test_check(self, db_file):
        code, output = run_cli("check", db_file)
        assert code == 0
        assert "S(x0, x1)" in output
        assert "Zone" in output

    def test_regions(self, one_dim_file):
        code, output = run_cli("regions", one_dim_file)
        assert code == 0
        assert "9 regions" in output
        assert "in S" in output

    def test_query_boolean(self, one_dim_file):
        code, output = run_cli(
            "query", one_dim_file, "exists x. S(x)"
        )
        assert code == 0
        assert "answer: True" in output

    def test_query_relation_answer(self, one_dim_file):
        code, output = run_cli(
            "query", one_dim_file, "S(x) & x < 1"
        )
        assert code == 0
        assert "answer relation over (x)" in output
        assert "sample points" in output

    def test_query_free_region_var_rejected(self, one_dim_file):
        code, output = run_cli("query", one_dim_file, "sub(R, S)")
        assert code == 2
        assert "free region" in output

    def test_query_parse_error(self, one_dim_file):
        code, output = run_cli("query", one_dim_file, "S(x")
        assert code == 1
        assert "error" in output

    def test_arrangement(self, db_file):
        code, output = run_cli("arrangement", db_file)
        assert code == 0
        assert "2-dimensional faces: 7" in output
        assert "incidence edges" in output

    def test_encode(self, one_dim_file):
        code, output = run_cli("encode", one_dim_file)
        assert code == 0
        assert "word:" in output
        assert "small coordinate property: True" in output

    def test_render(self, db_file, tmp_path):
        target = str(tmp_path / "out.svg")
        code, output = run_cli("render", db_file, target)
        assert code == 0
        with open(target) as handle:
            assert handle.read().startswith("<svg")

    def test_render_bad_viewport(self, db_file, tmp_path):
        target = str(tmp_path / "out.svg")
        code, __ = run_cli(
            "render", db_file, target, "--viewport", "1,2"
        )
        assert code == 2

    def test_missing_file(self):
        code, output = run_cli("check", "/nonexistent/db.cdb")
        assert code == 1
        assert "error" in output

    def test_nc1_flag(self, one_dim_file):
        code, output = run_cli(
            "regions", one_dim_file, "--decomposition", "nc1"
        )
        assert code == 0

    def test_trace_flag_prints_span_tree(self, one_dim_file):
        code, output = run_cli(
            "query", one_dim_file, "exists x. S(x)", "--trace"
        )
        assert code == 0
        assert "answer: True" in output
        assert "trace:" in output
        assert "query:" in output          # root span named after command
        assert "evaluate:" in output
        from repro.obs import TRACER
        assert not TRACER.enabled          # collection ended cleanly


class TestProfileCommand:
    def run_profile(self, db_path, query, *extra):
        import json

        code, output = run_cli("profile", db_path, query, *extra)
        assert code == 0
        return json.loads(output)

    def test_golden_span_tree_shape(self, one_dim_file):
        from repro.engine import default_cache
        from repro.geometry.simplex import clear_feasibility_cache

        default_cache().invalidate()       # force a cold build ...
        clear_feasibility_cache()          # ... with real LP solves
        payload = self.run_profile(one_dim_file, "exists x. S(x)")

        assert payload["command"] == "profile"
        assert payload["query"] == "exists x. S(x)"
        assert payload["decomposition"] == "arrangement"
        assert len(payload["fingerprint"]) == 64
        assert payload["answer"] == {"variables": [], "empty": False}

        # The span tree: profile -> {load, evaluate -> extension.build
        # -> arrangement.build -> lp.feasible (aggregated)}.
        spans = payload["spans"]
        assert spans["name"] == "profile"
        assert set(spans) == {"name", "calls", "wall_ms", "children"}
        names = [child["name"] for child in spans["children"]]
        assert names[0] == "load"

        def find(node, name):
            if node["name"] == name:
                return node
            for child in node["children"]:
                found = find(child, name)
                if found is not None:
                    return found
            return None

        evaluate = find(spans, "evaluate")
        assert evaluate is not None
        build = find(evaluate, "extension.build")
        assert build is not None
        assert build["attrs"]["regions"] == 9
        arrangement = find(build, "arrangement.build")
        assert arrangement is not None
        lp = find(spans, "lp.feasible")
        assert lp is not None and lp["calls"] > 1   # aggregated

        # The metrics dump sits next to the tree and covers the layers.
        metrics = payload["metrics"]
        assert metrics["lp.solves"] > 0
        assert metrics["arrangement.dfs_nodes"] > 0
        assert metrics["evaluator.evaluations"] > 0

    def test_second_profile_hits_the_cache(self, one_dim_file):
        from repro.engine import default_cache

        default_cache().invalidate()
        cold = self.run_profile(one_dim_file, "exists x. S(x)")
        warm = self.run_profile(one_dim_file, "exists x. S(x)")
        assert cold["metrics"]["engine.cache.extension.misses"] == 1
        assert warm["metrics"]["engine.cache.extension.hits"] == 1
        assert warm["metrics"].get("engine.cache.extension.misses", 0) == 0
        assert warm["fingerprint"] == cold["fingerprint"]

    def test_profile_rejects_free_region_vars(self, one_dim_file):
        code, output = run_cli("profile", one_dim_file, "sub(R, S)")
        assert code == 2
        assert "free region" in output
        from repro.obs import TRACER
        assert not TRACER.enabled


class TestMetricsCommand:
    def test_bare_dump_is_valid_exposition(self):
        code, output = run_cli("metrics")
        assert code == 0
        assert "# TYPE repro_lp_solves_total counter" in output

    def test_query_populates_histograms(self, one_dim_file):
        code, output = run_cli(
            "metrics", one_dim_file, "exists x. S(x)"
        )
        assert code == 0
        assert "repro_lp_solves_total" in output
        assert "# TYPE repro_engine_evaluate_seconds histogram" in output
        assert "repro_engine_evaluate_seconds_count" in output
        assert 'le="+Inf"' in output

    def test_free_variable_query_rejected(self, one_dim_file):
        code, output = run_cli("metrics", one_dim_file, "sub(R, S)")
        assert code == 2
        assert "free region" in output


class TestSlowlogCommand:
    def test_missing_path_is_an_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_LOG", raising=False)
        code, output = run_cli("slowlog")
        assert code == 2
        assert "REPRO_SLOW_LOG" in output

    def test_reads_records(self, tmp_path):
        import json as _json

        path = tmp_path / "slow.jsonl"
        record = {
            "ts": "2026-08-09T00:00:00+00:00", "tenant": "acme",
            "database": "demo", "query": "S(x0)", "wall_ms": 321.5,
            "threshold_ms": 250.0, "explain": {"plan": {}},
        }
        path.write_text(_json.dumps(record) + "\n")
        code, output = run_cli("slowlog", str(path))
        assert code == 0
        assert "tenant=acme" in output
        assert "321.5ms" in output
        assert "S(x0)" in output

    def test_json_emits_full_records(self, tmp_path):
        import json as _json

        path = tmp_path / "slow.jsonl"
        path.write_text(_json.dumps({"query": "S(x0)", "wall_ms": 1}) + "\n")
        code, output = run_cli("slowlog", str(path), "--json")
        assert code == 0
        assert _json.loads(output)[0]["query"] == "S(x0)"

    def test_env_var_supplies_the_path(self, tmp_path, monkeypatch):
        import json as _json

        path = tmp_path / "slow.jsonl"
        path.write_text(_json.dumps({"query": "S(x0)", "wall_ms": 1}) + "\n")
        monkeypatch.setenv("REPRO_SLOW_LOG", str(path))
        code, output = run_cli("slowlog")
        assert code == 0
        assert "S(x0)" in output

    def test_empty_log_reports_cleanly(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        path.write_text("")
        code, output = run_cli("slowlog", str(path))
        assert code == 0
        assert "no slow-query records" in output
