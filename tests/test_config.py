"""EngineConfig: the one documented resolution order for every knob.

``EngineConfig.resolve`` pins **explicit argument > environment >
default** once, at construction; a plain ``EngineConfig(...)`` keeps
``None`` fields unresolved (environment consulted at use time), which
is what ``QueryEngine(db)`` builds when given no config.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import ConstraintDatabase, QueryEngine, parse_formula
from repro.config import (
    ENV_CACHE_BUDGET,
    ENV_CACHE_DIR,
    ENV_JOBS,
    ENV_JOURNAL,
    ENV_LP_MODE,
    EngineConfig,
)
from repro.engine import DEFAULT_CACHE_CAPACITY

#: The whole configuration surface, in declaration order.
CONFIG_FIELDS = [
    "lp_mode", "jobs", "executor", "cache_dir", "cache_budget",
    "journal", "optimizer", "slow_log", "slo_latency_ms",
]


@pytest.fixture
def clean_env(monkeypatch):
    for name in (ENV_LP_MODE, ENV_JOBS, ENV_CACHE_DIR,
                 ENV_CACHE_BUDGET, ENV_JOURNAL):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_resolve_defaults(clean_env):
    config = EngineConfig.resolve()
    assert config.lp_mode == "filtered"
    assert config.jobs == 1
    assert config.cache_dir is None
    assert config.cache_budget is None
    assert config.journal is None
    assert [f.name for f in dataclasses.fields(EngineConfig)] == CONFIG_FIELDS
    assert list(config.describe()) == CONFIG_FIELDS


def test_resolve_reads_environment(clean_env, tmp_path):
    clean_env.setenv(ENV_LP_MODE, "exact")
    clean_env.setenv(ENV_JOBS, "3")
    clean_env.setenv(ENV_CACHE_DIR, str(tmp_path))
    clean_env.setenv(ENV_CACHE_BUDGET, "4096")
    clean_env.setenv(ENV_JOURNAL, "events.jsonl")
    config = EngineConfig.resolve()
    assert config.lp_mode == "exact"
    assert config.jobs == 3
    assert config.cache_dir == str(tmp_path)
    assert config.cache_budget == 4096
    assert config.journal == "events.jsonl"
    # Variables of removed knobs are not read at all.
    clean_env.setenv("REPRO_BACKEND", "sqlite")
    clean_env.setenv("REPRO_METRICS_LABELS", "off")
    assert EngineConfig.resolve() == config


def test_explicit_argument_beats_environment(clean_env, tmp_path):
    clean_env.setenv(ENV_LP_MODE, "exact")
    clean_env.setenv(ENV_JOBS, "7")
    config = EngineConfig.resolve(lp_mode="filtered", jobs=2)
    assert config.lp_mode == "filtered"
    assert config.jobs == 2


def test_resolve_pins_once(clean_env):
    """A resolved config never re-reads the environment."""
    config = EngineConfig.resolve()
    clean_env.setenv(ENV_LP_MODE, "exact")
    assert config.lp_mode == "filtered"


def test_frozen_and_with_overrides(clean_env):
    config = EngineConfig.resolve()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.jobs = 4  # type: ignore[misc]
    changed = config.with_overrides(jobs=4)
    assert changed.jobs == 4 and config.jobs == 1


def test_unknown_field_rejected(clean_env):
    with pytest.raises(TypeError, match="unknown EngineConfig field"):
        EngineConfig.resolve(worker_count=4)
    with pytest.raises(TypeError, match="unknown EngineConfig field"):
        EngineConfig.resolve(metrics_labels="on")
    with pytest.raises(TypeError, match="unknown EngineConfig field"):
        EngineConfig.resolve(cache_capacity=3)
    with pytest.raises(TypeError):
        EngineConfig(backend="memory")
    with pytest.raises(TypeError):
        QueryEngine(_interval_db(), jobs=2)


def test_validation_matches_engine_contract(clean_env):
    with pytest.raises(ValueError, match="lp_mode must be one of"):
        EngineConfig(lp_mode="approximate")
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        EngineConfig(jobs=0)
    with pytest.raises(ValueError, match="cache_budget must be positive"):
        EngineConfig(cache_budget=-1)


def _interval_db() -> ConstraintDatabase:
    return ConstraintDatabase.from_formula(
        parse_formula("0 < x0 & x0 < 1"), arity=1
    )


def test_engine_accepts_config(clean_env):
    config = EngineConfig.resolve(jobs=2, lp_mode="exact")
    engine = QueryEngine(_interval_db(), config=config)
    assert engine.config is config
    assert engine.jobs == 2
    assert engine.lp_mode == "exact"
    assert not engine.evaluate("S(x0)").is_empty()


def test_store_pins_explicit_budget(clean_env, tmp_path):
    config = EngineConfig.resolve(
        cache_dir=str(tmp_path / "store"), cache_budget=1 << 20
    )
    store = config.store()
    assert store is not None
    assert store.size_budget == 1 << 20


def test_make_cache_honours_capacity(clean_env):
    config = EngineConfig.resolve()
    cache = config.make_cache()
    assert cache.capacity == DEFAULT_CACHE_CAPACITY


def test_describe_is_json_ready(clean_env, tmp_path):
    import json

    config = EngineConfig.resolve(cache_dir=str(tmp_path))
    described = config.describe()
    assert json.loads(json.dumps(described)) == described
    assert described["cache_dir"] == str(tmp_path)


def test_resolve_executor_precedence(clean_env):
    from repro.config import ENV_EXECUTOR, EXECUTORS, resolve_executor

    clean_env.delenv(ENV_EXECUTOR, raising=False)
    assert EXECUTORS == ("compiled", "interpreted")
    # Defaults.
    assert resolve_executor() == "compiled"
    # Environment beats the default (case/whitespace normalised).
    clean_env.setenv(ENV_EXECUTOR, " Interpreted ")
    assert resolve_executor() == "interpreted"
    # Explicit argument beats the environment.
    assert resolve_executor("compiled") == "compiled"
    # Invalid values are rejected from every source.
    with pytest.raises(ValueError, match="executor must be one of"):
        resolve_executor("jitted")
    clean_env.setenv(ENV_EXECUTOR, "jitted")
    with pytest.raises(ValueError, match="executor must be one of"):
        resolve_executor()


def test_config_resolves_and_describes_executor(clean_env):
    from repro.config import ENV_EXECUTOR

    clean_env.delenv(ENV_EXECUTOR, raising=False)
    config = EngineConfig.resolve()
    assert config.executor == "compiled"
    pinned = EngineConfig.resolve(executor="interpreted")
    assert pinned.executor == "interpreted"
    described = pinned.describe()
    assert described["executor"] == "interpreted"
    assert "backend" not in described
    # A resolved config never re-reads the environment.
    clean_env.setenv(ENV_EXECUTOR, "interpreted")
    assert config.executor == "compiled"
    with pytest.raises(ValueError, match="executor must be one of"):
        EngineConfig(executor="jitted")


def test_engine_stats_report_executor(clean_env):
    from repro.config import ENV_EXECUTOR

    clean_env.delenv(ENV_EXECUTOR, raising=False)
    engine = QueryEngine(
        _interval_db(),
        config=EngineConfig.resolve(executor="interpreted"),
    )
    stats = engine.stats()
    assert stats["executor"] == "interpreted"
    assert "backend" not in stats
    assert engine.evaluator.executor == "interpreted"


def test_explain_lists_only_kept_knobs(clean_env, tmp_path):
    import io

    from repro.cli import main
    from repro.constraints.io import save_database

    clean_env.delenv("REPRO_OPTIMIZER", raising=False)
    path = tmp_path / "db.cdb"
    save_database(_interval_db(), path)
    buffer = io.StringIO()
    assert main(
        ["explain", str(path), "exists x0. S(x0)", "--json"], out=buffer
    ) == 0
    detail = json.loads(buffer.getvalue())["plan"]["detail"]
    knobs = set(detail) - {
        "language", "relations", "result", "optimizer", "chosen", "because",
    }
    assert knobs == {"lp_mode", "jobs", "executor"}
