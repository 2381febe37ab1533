"""EngineConfig: the one documented resolution order for every knob.

Building an ``EngineConfig`` applies **explicit argument > environment
> default** once, so ``EngineConfig(**kw) == EngineConfig.resolve(**kw)``
and a built config never reads the environment again.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import ConstraintDatabase, QueryEngine, parse_formula
from repro.config import (
    DEFAULT_SLO_LATENCY_MS,
    ENV_CACHE_BUDGET,
    ENV_CACHE_DIR,
    ENV_EXECUTOR,
    ENV_LP_MODE,
    ENV_OPTIMIZER,
    ENV_SLO_LATENCY_MS,
    ENV_SLOW_LOG,
    EngineConfig,
)
from repro.geometry import fastlp
from repro.obs.journal import ENV_JOURNAL

#: The whole configuration surface, in declaration order.
CONFIG_FIELDS = [
    "lp_mode", "jobs", "executor", "cache_dir", "cache_budget",
    "optimizer", "slow_log", "slo_latency_ms",
]

#: The removed worker-count knob's environment variable.
ENV_JOBS = "REPRO_JOBS"


@pytest.fixture
def clean_env(monkeypatch):
    for name in (ENV_LP_MODE, ENV_JOBS, ENV_CACHE_DIR, ENV_CACHE_BUDGET,
                 ENV_JOURNAL, ENV_EXECUTOR, ENV_OPTIMIZER, ENV_SLOW_LOG,
                 ENV_SLO_LATENCY_MS):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_resolve_defaults(clean_env):
    config = EngineConfig.resolve()
    assert config.lp_mode == "filtered"
    assert config.jobs == 1
    assert config.cache_dir is None
    assert config.cache_budget is None
    assert config.slo_latency_ms == DEFAULT_SLO_LATENCY_MS
    assert [f.name for f in dataclasses.fields(EngineConfig)] == CONFIG_FIELDS
    # ``jobs`` only accepts 1, so the description leaves it out.
    assert list(config.describe()) == [
        name for name in CONFIG_FIELDS if name != "jobs"
    ]


def test_resolve_reads_environment(clean_env, tmp_path):
    clean_env.setenv(ENV_LP_MODE, "exact")
    clean_env.setenv(ENV_JOBS, "3")
    clean_env.setenv(ENV_CACHE_DIR, str(tmp_path))
    clean_env.setenv(ENV_CACHE_BUDGET, "4096")
    clean_env.setenv(ENV_JOURNAL, "events.jsonl")
    clean_env.setenv(ENV_EXECUTOR, "interpreted")
    clean_env.setenv(ENV_OPTIMIZER, "off")
    clean_env.setenv(ENV_SLOW_LOG, "slow.jsonl")
    clean_env.setenv(ENV_SLO_LATENCY_MS, "75")
    config = EngineConfig.resolve()
    assert config.lp_mode == "exact"
    assert config.jobs == 1  # REPRO_JOBS is no longer read
    assert config.cache_dir == str(tmp_path)
    assert config.cache_budget == 4096
    assert config.executor == "interpreted"
    assert config.optimizer == "off"
    assert config.slow_log == "slow.jsonl"
    assert config.slo_latency_ms == 75.0
    # The journal is the CLI's business, not a config field.
    assert "journal" not in config.describe()
    # Variables of removed knobs are not read at all.
    clean_env.setenv("REPRO_BACKEND", "sqlite")
    clean_env.setenv("REPRO_METRICS_LABELS", "off")
    assert EngineConfig.resolve() == config


def test_explicit_argument_beats_environment(clean_env, tmp_path):
    clean_env.setenv(ENV_LP_MODE, "exact")
    clean_env.setenv(ENV_JOBS, "7")
    config = EngineConfig.resolve(lp_mode="filtered", jobs=1)
    assert config.lp_mode == "filtered"
    assert config.jobs == 1
    with pytest.raises(ValueError, match="parallel .* was removed"):
        EngineConfig.resolve(jobs=2)


def test_resolve_pins_once(clean_env):
    """A built config never re-reads the environment."""
    config = EngineConfig.resolve()
    plain = EngineConfig()
    clean_env.setenv(ENV_LP_MODE, "exact")
    assert config.lp_mode == "filtered"
    assert plain.lp_mode == "filtered"


def test_construction_resolves_every_field(clean_env, tmp_path):
    """No deferred tier: the constructor is the resolver."""
    clean_env.setenv(ENV_CACHE_DIR, str(tmp_path))
    clean_env.setenv(ENV_EXECUTOR, "interpreted")
    for overrides in ({}, {"lp_mode": "exact"}, {"optimizer": "off"},
                      {"cache_dir": str(tmp_path / "other")}):
        built = EngineConfig(**overrides)
        assert built == EngineConfig.resolve(**overrides)
        for name in ("lp_mode", "jobs", "executor", "optimizer",
                     "slo_latency_ms", "cache_dir"):
            assert getattr(built, name) is not None, name
    assert EngineConfig().executor == "interpreted"
    assert EngineConfig().cache_dir == str(tmp_path)
    # The optional resources resolve to None = off, not "ask later".
    clean_env.delenv(ENV_CACHE_DIR)
    config = EngineConfig()
    clean_env.setenv(ENV_CACHE_DIR, str(tmp_path))
    assert config.cache_dir is None and config.store() is None
    with pytest.raises(TypeError):
        EngineConfig(journal="events.jsonl")


def test_lp_mode_default_follows_enclosing_scope(clean_env):
    with fastlp.lp_mode("exact"):
        assert EngineConfig().lp_mode == "exact"
        assert EngineConfig(lp_mode="filtered").lp_mode == "filtered"
    assert EngineConfig().lp_mode == "filtered"


def test_frozen_and_with_overrides(clean_env):
    config = EngineConfig.resolve()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.lp_mode = "exact"  # type: ignore[misc]
    changed = config.with_overrides(lp_mode="exact")
    assert changed.lp_mode == "exact" and config.lp_mode == "filtered"
    with pytest.raises(ValueError, match="jobs must be 1"):
        config.with_overrides(jobs=4)


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
    for jobs in (0, 2, 4):
        with pytest.raises(ValueError, match="jobs must be 1"):
            EngineConfig(jobs=jobs)
    assert EngineConfig(jobs=1).jobs == 1
    assert EngineConfig().jobs == 1
    with pytest.raises(ValueError, match="cache_budget must be positive"):
        EngineConfig(cache_budget=-1)


def test_slo_objective_must_be_positive(clean_env):
    for latency in (0, -10.0):
        with pytest.raises(ValueError, match="slo_latency_ms must be positive"):
            EngineConfig(slo_latency_ms=latency)
    assert EngineConfig(slo_latency_ms=10).slo_latency_ms == 10.0
    # A non-positive environment value is ignored, a malformed one named.
    clean_env.setenv(ENV_SLO_LATENCY_MS, "-5")
    assert EngineConfig().slo_latency_ms == DEFAULT_SLO_LATENCY_MS
    clean_env.setenv(ENV_SLO_LATENCY_MS, "fast")
    with pytest.raises(ValueError, match=ENV_SLO_LATENCY_MS):
        EngineConfig()


def _interval_db() -> ConstraintDatabase:
    return ConstraintDatabase.from_formula(
        parse_formula("0 < x0 & x0 < 1"), arity=1
    )


def test_engine_accepts_config(clean_env):
    config = EngineConfig.resolve(jobs=1, lp_mode="exact")
    engine = QueryEngine(_interval_db(), config=config)
    assert engine.config is config
    assert not hasattr(engine, "jobs")
    assert engine.lp_mode == "exact"
    assert not engine.evaluate("S(x0)").is_empty()


def test_store_pins_explicit_budget(clean_env, tmp_path):
    config = EngineConfig.resolve(
        cache_dir=str(tmp_path / "store"), cache_budget=1 << 20
    )
    store = config.store()
    assert store is not None
    assert store.size_budget == 1 << 20


def test_describe_is_json_ready(clean_env, tmp_path):
    import json

    config = EngineConfig.resolve(cache_dir=str(tmp_path))
    described = config.describe()
    assert json.loads(json.dumps(described)) == described
    assert described["cache_dir"] == str(tmp_path)


def test_resolve_executor_precedence(clean_env):
    from repro.config import EXECUTORS

    assert EXECUTORS == ("compiled", "interpreted")
    # Defaults.
    assert EngineConfig().executor == "compiled"
    # Environment beats the default (case/whitespace normalised).
    clean_env.setenv(ENV_EXECUTOR, " Interpreted ")
    assert EngineConfig().executor == "interpreted"
    # Explicit argument beats the environment.
    assert EngineConfig(executor="compiled").executor == "compiled"
    # Invalid values are rejected from every source.
    with pytest.raises(ValueError, match="executor must be one of"):
        EngineConfig(executor="jitted")
    clean_env.setenv(ENV_EXECUTOR, "jitted")
    with pytest.raises(ValueError, match="executor must be one of"):
        EngineConfig()


def test_config_resolves_and_describes_executor(clean_env):
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
    assert knobs == {"lp_mode", "executor"}
