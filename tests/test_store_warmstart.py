"""Warm-start wiring: engines, CLI and environment resolve the store.

Covers the tentpole's integration surface: a second engine (or process)
pointed at the same cache directory answers from disk; ``--cache-dir``,
``REPRO_CACHE_DIR`` and ``REPRO_CACHE_BUDGET`` all reach the builder;
engines pinned to different stores on concurrent threads never write
to each other's; the naive benchmark baseline bypasses persistence;
and the LRU budget actually bounds the store.
"""

import io
import json

import pytest

from repro import store as store_pkg
from repro.arrangement.builder import build_arrangement
from repro.cli import main
from repro.constraints.io import parse_formula
from repro.constraints.relation import ConstraintRelation
from repro.config import EngineConfig
from repro.engine import EngineCache, QueryEngine, default_cache
from repro.obs.metrics import MetricsRegistry
from repro.store.disk import DiskStore
from repro.workloads.generators import interval_chain


def private_store(tmp_path, **kwargs) -> DiskStore:
    return DiskStore(tmp_path / "cache", metrics=MetricsRegistry(), **kwargs)


def triangle() -> ConstraintRelation:
    return ConstraintRelation.make(
        ("x", "y"), parse_formula("x >= 0 & y >= 0 & x + y <= 1")
    )


def test_second_engine_hits_disk(tmp_path):
    database = interval_chain(3)
    store = private_store(tmp_path)
    first = QueryEngine(
        database, cache=EngineCache(metrics=MetricsRegistry()),
        config=EngineConfig(cache_dir=store),
    )
    cold = first.evaluate("S(x) & x < 1")
    assert store.stats()["writes"] > 0 and store.stats()["hits"] == 0

    # Fresh in-memory caches simulate a new process on the same dir.
    second = QueryEngine(
        database, cache=EngineCache(metrics=MetricsRegistry()),
        config=EngineConfig(cache_dir=store),
    )
    warm = second.evaluate("S(x) & x < 1")
    assert str(warm) == str(cold)
    assert store.stats()["hits"] > 0
    assert second.stats()["store"]["hits"] > 0


def test_engine_cache_store_reaches_builder(tmp_path):
    store = private_store(tmp_path)
    relation = triangle()
    cache = EngineCache(metrics=MetricsRegistry())
    built = cache.arrangement(relation, store=store)
    assert store.stats()["writes"] == 1

    fresh = EngineCache(metrics=MetricsRegistry())
    warm = fresh.arrangement(relation, store=store)
    assert warm.faces == built.faces
    assert warm.relation is relation
    assert store.stats()["hits"] == 1


def test_env_var_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    store = EngineConfig().store()
    assert store is not None
    assert str(store.root).startswith(str(tmp_path))
    # Same (path, budget) resolves to the same instance.
    assert EngineConfig().store() is store

    monkeypatch.setenv("REPRO_CACHE_BUDGET", "4096")
    budgeted = EngineConfig().store()
    assert budgeted.size_budget == 4096

    monkeypatch.setenv("REPRO_CACHE_BUDGET", "not-a-number")
    with pytest.raises(ValueError):
        EngineConfig()

    monkeypatch.delenv("REPRO_CACHE_BUDGET")
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert EngineConfig().store() is None


def test_bare_build_arrangement_persists_under_env_dir(tmp_path, monkeypatch):
    """``build_arrangement(relation)`` resolves its store once on entry."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    store = EngineConfig().store()
    writes = store.stats()["writes"]
    build_arrangement(triangle())
    assert store.stats()["writes"] == writes + 1
    assert any((store.entries_root / "arrangement").rglob("*.json"))


def test_engine_without_store_ignores_a_later_env_dir(tmp_path, monkeypatch):
    """An engine whose config resolved to no store stays storeless: the
    variable set after construction reaches no arrangement build."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    engine = QueryEngine(
        interval_chain(3), cache=EngineCache(metrics=MetricsRegistry())
    )
    assert engine.store is None
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "late"))
    assert not engine.evaluate("S(x) & x < 1").is_empty()
    assert not (tmp_path / "late").exists() or not any(
        (tmp_path / "late").rglob("*.json")
    )


def test_pinned_engines_on_threads_write_only_their_own_store(
    tmp_path, monkeypatch
):
    """Engines pinned to different stores, evaluating concurrently, each
    write only to their own store: the store is passed down explicitly,
    so there is no shared override for the threads to race on."""
    import threading
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    workers = 4
    barrier = threading.Barrier(workers)
    stores = [private_store(tmp_path / f"s{index}") for index in range(workers)]
    cache = EngineCache(metrics=MetricsRegistry())

    def worker(index: int):
        engine = QueryEngine(
            _triangle_db(index), cache=cache,
            config=EngineConfig(cache_dir=stores[index]),
        )
        barrier.wait(timeout=10)  # every engine builds at once
        return engine.evaluate("exists x, y. S(x, y)")

    with ThreadPoolExecutor(max_workers=workers) as pool:
        answers = list(pool.map(worker, range(workers)))

    assert all(not answer.is_empty() for answer in answers)
    for index, store in enumerate(stores):
        entries = list((store.entries_root / "arrangement").rglob("*.json"))
        assert len(entries) == 1, (index, entries)
        assert store.stats()["writes"] == 1
        expected = store_pkg.arrangement_key(
            *_key_parts(_triangle_db(index))
        )
        assert entries[0].stem == expected


def _triangle_db(index: int):
    from repro.constraints.database import ConstraintDatabase

    return ConstraintDatabase.from_formula(
        parse_formula(f"x0 >= 0 & x1 >= 0 & x0 + x1 <= {index + 1}"),
        arity=2,
    )


def _key_parts(database):
    from repro.arrangement.hyperplanes import hyperplanes_of_relation

    relation = database.relation("S")
    return hyperplanes_of_relation(relation), relation.arity, relation


def test_naive_baseline_bypasses_store(tmp_path):
    store = private_store(tmp_path)
    relation = triangle()
    build_arrangement(relation, store=store, witness_reuse=False)
    build_arrangement(relation, store=store, dedup=False)
    assert store.stats() == {
        "hits": 0, "misses": 0, "writes": 0, "corrupt_entries": 0,
        "evictions": 0, "entries": 0, "bytes": 0,
    }


def test_lru_eviction_respects_budget(tmp_path):
    store = private_store(tmp_path, size_budget=4000)
    relations = [
        ConstraintRelation.make(
            ("x", "y"), parse_formula(f"x >= 0 & y >= 0 & x + y <= {k}")
        )
        for k in range(1, 6)
    ]
    for relation in relations:
        build_arrangement(relation, store=store)
    stats = store.stats()
    assert stats["evictions"] > 0
    assert stats["bytes"] <= 4000
    # The most recent entry always survives.
    assert build_arrangement(relations[-1], store=store) is not None
    assert store.stats()["hits"] == 1


def test_cli_cache_dir_warm_starts_profile(tmp_path):
    cache = tmp_path / "clicache"
    query = ["profile", "examples/map.cdb", "exists x. S(x, x)",
             "--cache-dir", str(cache)]
    # Each half runs as a fresh process would: with empty in-memory
    # caches, so the cold half builds A(S) and the warm half loads it.
    default_cache().invalidate()
    cold_out = io.StringIO()
    assert main(query, out=cold_out) == 0
    cold = json.loads(cold_out.getvalue())
    assert cold["cache_dir"] == str(cache)
    assert cold["store"]["writes"] > 0

    default_cache().invalidate()
    warm_out = io.StringIO()
    assert main(query, out=warm_out) == 0
    warm = json.loads(warm_out.getvalue())
    assert warm["answer"] == cold["answer"]
    assert warm["metrics"]["store.hits"] > 0
    # The span tree surfaces where the warm run's time went.
    flat = json.dumps(warm["spans"])
    assert "store.load" in flat


def test_bench_metadata_reports_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "benchcache"))
    out = io.StringIO()
    assert main(["bench", "e2", "--sizes", "4", "--check-only"],
                out=out) == 0
    record = json.loads(out.getvalue())
    assert record["metadata"]["cache_dir"] is not None
    assert record["metadata"]["store"]["writes"] > 0

    warm_out = io.StringIO()
    assert main(["bench", "e2", "--sizes", "4", "--check-only"],
                out=warm_out) == 0
    warm = json.loads(warm_out.getvalue())
    assert warm["all_match"]
    assert warm["metadata"]["store"]["hits"] > 0


#: The raw bytes of a ``statistics`` entry as earlier versions wrote it
#: (the optimizer's persisted per-plan-node measurements, a kind the
#: codec no longer has), with the key those versions filed it under.
OLD_STATISTICS_KEY = (
    "491d2d178f0544e2ffda38ba49e597c570aceeccb63c4fc9f8724273209e90b0"
)
OLD_STATISTICS_BYTES = (
    b'{"checksum":"7f7183d27bb7cc203790da28072fb44f9cd25b930f4b53ed144385'
    b'0db86b977d","kind":"statistics","payload":{"nodes":{"5a31000863353a'
    b'2a36c8c49bcf8299f092e5892cfb62e813f28bd5d41216f5df":{"calls":[1,1],'
    b'"counters":{"lp.solves":[2,1]},"obs":[1,1],"size":[7,1],"wall":[3,1'
    b'000]}},"runs":[1,1],"version":1},"schema":1}'
)


def plant_old_statistics(store: DiskStore):
    path = (
        store.entries_root / "statistics" / OLD_STATISTICS_KEY[:2]
        / f"{OLD_STATISTICS_KEY}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(OLD_STATISTICS_BYTES)
    return path


def test_store_with_old_statistics_entry_still_warms(tmp_path):
    database = interval_chain(3)
    query = "exists y. S(y) & x0 - y <= 1/3 & y - x0 <= 1/3"
    store = private_store(tmp_path)
    planted = plant_old_statistics(store)

    def engine():
        return QueryEngine(
            database, cache=EngineCache(metrics=MetricsRegistry()),
            config=EngineConfig(cache_dir=store, optimizer="on"),
        )

    cold = engine().evaluate(query)
    hits = store.stats()["hits"]
    warm = engine().evaluate(query)
    assert store.stats()["hits"] == hits + 1
    assert str(warm) == str(cold)
    assert store.stats()["corrupt_entries"] == 0
    assert not store.quarantine_root.exists() or not any(
        store.quarantine_root.iterdir()
    )
    assert planted.read_bytes() == OLD_STATISTICS_BYTES


def test_old_statistics_entry_counts_and_ages_out(tmp_path):
    import os

    store = private_store(tmp_path, size_budget=6000)
    planted = plant_old_statistics(store)
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["bytes"] == len(OLD_STATISTICS_BYTES)
    os.utime(planted, (1, 1))  # the least recently used entry
    for k in range(1, 6):
        build_arrangement(
            ConstraintRelation.make(
                ("x", "y"),
                parse_formula(f"x >= 0 & y >= 0 & x + y <= {k}"),
            ),
            store=store,
        )
    assert store.stats()["evictions"] > 0
    assert not planted.exists()


#: A top-level ``relation`` entry as earlier versions wrote it (the kind
#: is gone: relations are only stored nested in arrangements and
#: lineage records), with a key of the kind those versions used.
OLD_RELATION_KEY = (
    "34167155364ea38fe6f6656a09eb87ac9f498a6be7d0a839d2bc1adc8421170a"
)
OLD_RELATION_BYTES = (
    b'{"checksum":"63cd0a039461378a70bcf4c9e0f2e130c8eb5993be9472959ddb67'
    b'24a72cbb8b","kind":"relation","payload":{"formula":{"f":"and","ops'
    b'":[{"a":{"op":"<","t":{"c":[["x",[-1,1]]],"k":[0,1]}},"f":"atom"},'
    b'{"a":{"op":"<","t":{"c":[["x",[1,1]]],"k":[-1,1]}},"f":"atom"}]},"v'
    b'ars":["x"]},"schema":1}'
)


def test_old_relation_entry_counts_and_ages_out(tmp_path):
    import os

    store = private_store(tmp_path, size_budget=6000)
    planted = (
        store.entries_root / "relation" / OLD_RELATION_KEY[:2]
        / f"{OLD_RELATION_KEY}.json"
    )
    planted.parent.mkdir(parents=True)
    planted.write_bytes(OLD_RELATION_BYTES)
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["bytes"] == len(OLD_RELATION_BYTES)
    # Nothing reads the entry: a warm engine leaves it untouched.
    QueryEngine(
        interval_chain(3), cache=EngineCache(metrics=MetricsRegistry()),
        config=EngineConfig(cache_dir=store),
    ).evaluate("S(x) & x < 1")
    assert planted.read_bytes() == OLD_RELATION_BYTES
    assert store.stats()["corrupt_entries"] == 0
    os.utime(planted, (1, 1))  # the least recently used entry
    for k in range(1, 6):
        build_arrangement(
            ConstraintRelation.make(
                ("x", "y"),
                parse_formula(f"x >= 0 & y >= 0 & x + y <= {k}"),
            ),
            store=store,
        )
    assert store.stats()["evictions"] > 0
    assert not planted.exists()
