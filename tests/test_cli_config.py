"""The CLI's knob flags and the CI's ``REPRO_*`` steps still take effect.

Each command builds one :class:`~repro.config.EngineConfig` from its
flags and passes its store and LP mode down explicitly (there is no
ambient override around the commands any more), so every command that
takes ``--cache-dir`` / ``--lp-mode`` is driven here and checked for
both: the store directory receives the arrangement, and the certified
float filter runs under ``filtered`` only.
"""

from __future__ import annotations

import io
import json
import re
import threading
import time

import pytest

from repro.cli import main
from repro.engine import default_cache
from repro.geometry.simplex import clear_feasibility_cache
from repro.obs.metrics import get_registry

DB = "examples/map.cdb"
QUERY = "exists x0. S(x0, x0)"

COMMANDS = {
    "query": ["query", DB, QUERY],
    "explain": ["explain", DB, QUERY, "--analyze", "--json"],
    "profile": ["profile", DB, QUERY],
    "arrangement": ["arrangement", DB],
}


@pytest.fixture
def cold(monkeypatch):
    """No environment knobs, no in-memory arrangement or LP memo."""
    for name in ("REPRO_CACHE_DIR", "REPRO_LP_MODE", "REPRO_CACHE_BUDGET"):
        monkeypatch.delenv(name, raising=False)
    default_cache().invalidate()
    clear_feasibility_cache()
    yield
    default_cache().invalidate()
    clear_feasibility_cache()


def filter_decisions() -> int:
    registry = get_registry()
    return registry.get("lp.filter_hits") + registry.get(
        "lp.filter_fallbacks"
    )


def stored_arrangements(cache_dir) -> list:
    return list(cache_dir.glob("v*/arrangement/*/*.json"))


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("mode", ["exact", "filtered"])
def test_flags_take_effect(command, mode, tmp_path, cold):
    cache_dir = tmp_path / "cache"
    out = io.StringIO()
    argv = COMMANDS[command] + ["--cache-dir", str(cache_dir),
                                "--lp-mode", mode]
    assert main(argv, out=out) == 0, out.getvalue()
    assert len(stored_arrangements(cache_dir)) == 1
    if mode == "exact":
        assert filter_decisions() == 0
    else:
        assert filter_decisions() > 0
    if command == "profile":
        assert json.loads(out.getvalue())["lp_mode"] == mode
    if command == "explain":
        detail = json.loads(out.getvalue())["plan"]["detail"]
        assert detail["lp_mode"] == mode


def test_serve_flags_take_effect(tmp_path, cold):
    from repro.server.loadgen import get_json, post_json

    cache_dir = tmp_path / "cache"
    buffer = io.StringIO()
    result: dict = {}

    def run() -> None:
        result["code"] = main(
            ["serve", DB, "--port", "0", "--max-requests", "2",
             "--cache-dir", str(cache_dir), "--lp-mode", "exact"],
            out=buffer,
        )

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline and "serving" not in buffer.getvalue():
        time.sleep(0.05)
    match = re.search(r"http://127\.0\.0\.1:(\d+)", buffer.getvalue())
    assert match, buffer.getvalue()
    port = int(match.group(1))
    before = filter_decisions()
    status, __ = post_json(port, "/v1/query", {"query": QUERY})
    assert status == 200
    assert filter_decisions() == before
    status, stats = get_json(port, "/v1/stats")
    assert status == 200
    thread.join(timeout=30)
    assert result.get("code") == 0
    assert stats["lp_mode"] == "exact"
    assert stats["config"]["cache_dir"] == str(cache_dir)
    assert len(stored_arrangements(cache_dir)) == 1


REACH_PROGRAM = (
    "Reach(x) :- S(x), x = 0.\n"
    "Reach(y) :- Reach(x), S(y), y - x <= 1, x - y <= 1.\n"
)


@pytest.mark.parametrize("executor", ["compiled", "interpreted"])
def test_ci_executor_variable_changes_what_runs(executor, monkeypatch):
    """``REPRO_EXECUTOR=interpreted`` keeps the compiled tier idle."""
    from repro.datalog import evaluate_program
    from repro.datalog.parser import parse_program
    from repro.workloads.generators import interval_chain

    monkeypatch.setenv("REPRO_EXECUTOR", executor)
    registry = get_registry()
    before = registry.get("datalog.compiled_runs")
    evaluate_program(parse_program(REACH_PROGRAM), interval_chain(3))
    runs = registry.get("datalog.compiled_runs") - before
    assert runs == (1 if executor == "compiled" else 0)


@pytest.mark.parametrize("mode", ["exact", "filtered"])
def test_ci_lp_mode_variable_changes_what_runs(mode, monkeypatch, cold):
    from repro.engine import EngineCache, QueryEngine
    from repro.constraints.io import load_database

    monkeypatch.setenv("REPRO_LP_MODE", mode)
    engine = QueryEngine(load_database(DB), cache=EngineCache())
    before = filter_decisions()
    engine.evaluate(QUERY)
    assert engine.lp_mode == mode
    assert (filter_decisions() > before) == (mode == "filtered")
