"""Concurrency contracts: single-flight builds, quotas, shared store.

The three guarantees the server architecture rests on:

* a thundering herd of identical requests computes its arrangement
  **exactly once** (single-flight, at the cache layer and end-to-end
  over HTTP);
* admission control rejects deterministically (429 with a retry hint,
  503 with a queue depth) instead of degrading;
* one :class:`DiskStore` shared by independent engines under
  interleaved load/save stays uncorrupted and serves identical faces.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import ConstraintDatabase, QueryEngine, parse_formula
from repro.config import EngineConfig
from repro.engine import EngineCache
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.server import (
    AdmissionController,
    ConstraintService,
    Overloaded,
    QuotaExceeded,
    ServerThread,
    TokenBucket,
    run_load,
)


def _db(text: str = "(0 < x0 & x0 < 1) | (2 < x0 & x0 < 3)"):
    return ConstraintDatabase.from_formula(parse_formula(text), arity=1)


# ----------------------------------------------------------------------
# Single-flight
# ----------------------------------------------------------------------
@pytest.fixture
def no_disk_store(monkeypatch):
    """These tests count builds; a warm disk store would answer them."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


def test_cache_single_flight_builds_extension_once(no_disk_store):
    """N threads, one cache, one database: one arrangement build."""
    workers = 8
    cache = EngineCache(metrics=MetricsRegistry())
    database = _db()
    engines = [
        QueryEngine(database, cache=cache, config=EngineConfig())
        for _ in range(workers)
    ]
    barrier = threading.Barrier(workers)
    registry = get_registry()
    builds_before = registry.get("arrangement.builds")

    def build(engine: QueryEngine):
        barrier.wait()
        return engine.extension

    with ThreadPoolExecutor(max_workers=workers) as pool:
        extensions = list(pool.map(build, engines))

    assert registry.get("arrangement.builds") - builds_before == 1
    stats = cache.stats()
    assert stats["extension_misses"] == 1, "exactly one thread built"
    assert stats["extension_hits"] == workers - 1
    assert all(ext is extensions[0] for ext in extensions), (
        "every waiter receives the one shared extension object"
    )


def test_http_single_flight_builds_extension_once(no_disk_store):
    """The single-flight contract, end-to-end: N concurrent identical
    queries over HTTP increment ``arrangement.builds`` exactly once."""
    workers = 6
    service = ConstraintService(
        {"demo": _db()}, max_concurrent=workers,
        metrics=MetricsRegistry(),
    )
    registry = get_registry()
    builds_before = registry.get("arrangement.builds")
    with ServerThread(service) as server:
        results = run_load(
            server.port, [{"query": "S(x0)"}] * workers,
            concurrency=workers,
        )
    assert [r["status"] for r in results] == [200] * workers
    assert registry.get("arrangement.builds") - builds_before == 1
    built = [r["body"]["build"] for r in results]
    assert built.count("built") == 1, "exactly one request paid the build"
    assert set(built) <= {"built", "coalesced", "warm"}


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_token_bucket_refills_at_rate():
    clock = [0.0]
    bucket = TokenBucket(rate=2.0, burst=2, clock=lambda: clock[0])
    assert bucket.try_acquire() and bucket.try_acquire()
    assert not bucket.try_acquire(), "burst exhausted"
    assert bucket.retry_after_s() == pytest.approx(0.5)
    clock[0] += 0.5  # one token refilled at 2 tokens/s
    assert bucket.try_acquire()
    assert not bucket.try_acquire()


def test_quota_rejection_is_per_tenant():
    clock = [0.0]
    controller = AdmissionController(
        quota_rate=1.0, quota_burst=1, metrics=MetricsRegistry(),
        clock=lambda: clock[0],
    )

    async def drive():
        async with controller.admit("team-a"):
            pass
        with pytest.raises(QuotaExceeded) as caught:
            async with controller.admit("team-a"):
                pass
        assert caught.value.status == 429
        assert caught.value.retry_after_s > 0
        # team-b has its own bucket and is unaffected.
        async with controller.admit("team-b"):
            pass

    asyncio.run(drive())
    stats = controller.stats()
    assert stats["rejected_quota"] == 1
    assert stats["admitted"] == 2


def test_overload_rejection_reports_queue_depth():
    controller = AdmissionController(
        max_concurrent=1, max_queue=0, metrics=MetricsRegistry(),
    )

    async def drive():
        release = asyncio.Event()

        async def occupant():
            async with controller.admit():
                await release.wait()

        task = asyncio.create_task(occupant())
        await asyncio.sleep(0)  # let the occupant take the slot
        with pytest.raises(Overloaded) as caught:
            async with controller.admit():
                pass
        assert caught.value.status == 503
        release.set()
        await task

    asyncio.run(drive())
    assert controller.stats()["rejected_overload"] == 1


def test_http_quota_rejection_returns_structured_429():
    service = ConstraintService(
        {"demo": _db()},
        quota_rate=0.001, quota_burst=1,  # one request, then starve
        metrics=MetricsRegistry(),
    )
    with ServerThread(service) as server:
        results = run_load(
            server.port, [{"query": "S(x0)"}] * 4, concurrency=1,
            tenant="greedy",
        )
    statuses = [r["status"] for r in results]
    assert statuses[0] == 200
    assert statuses[1:] == [429] * 3
    rejected = results[1]["body"]["error"]
    assert rejected["code"] == "quota_exceeded"
    assert rejected["retry_after_s"] > 0


# ----------------------------------------------------------------------
# Shared disk store
# ----------------------------------------------------------------------
def test_disk_store_shared_by_two_engines_interleaved(tmp_path):
    """Independent engines over one store: no corruption, same faces."""
    from repro.store import resolve_store

    store = resolve_store(str(tmp_path / "store"))
    database = _db()
    queries = [
        "S(x0)",
        "exists y. S(y) & x0 - y <= 1 & y - x0 <= 1",
        "forall x. S(x) -> x < 5",
    ]

    def worker(_index: int):
        # Each worker is its own engine with a private in-memory cache;
        # only the disk store is shared.
        engine = QueryEngine(
            database,
            cache=EngineCache(metrics=MetricsRegistry()),
            config=EngineConfig(cache_dir=store),
        )
        answers = [str(engine.evaluate(q).formula) for q in queries]
        return engine, answers

    with ThreadPoolExecutor(max_workers=4) as pool:
        outcomes = list(pool.map(worker, range(4)))

    baseline_answers = outcomes[0][1]
    for __, answers in outcomes[1:]:
        assert answers == baseline_answers

    stats = store.stats()
    assert stats["corrupt_entries"] == 0
    assert stats["writes"] >= 1
    # Byte-identical faces: every engine's extension describes the same
    # decomposition, region for region.
    signatures = {
        tuple(str(region) for region in engine.extension.regions)
        for engine, __ in outcomes
    }
    assert len(signatures) == 1


# ----------------------------------------------------------------------
# The write path (/v1/update)
# ----------------------------------------------------------------------
def test_http_updates_never_tear_concurrent_reads():
    """Readers racing a sequence of writes only ever see whole
    versions: every response fingerprint is a version the database
    actually was, and its answer is byte-identical to a cold engine's
    answer for exactly that version."""
    from repro.engine import database_fingerprint
    from repro.incremental import apply_delta, make_delta
    from repro.server.loadgen import post_json

    service = ConstraintService(
        {"demo": _db()},
        quota_rate=100000.0, quota_burst=100000,
        max_concurrent=8, max_queue=256,
        metrics=MetricsRegistry(),
    )
    segments = [
        "(10 <= x0 & x0 <= 11)",
        "(12 <= x0 & x0 <= 13)",
        "(14 <= x0 & x0 <= 15)",
    ]
    # The local model: every version the served database can be at.
    versions = [_db()]
    for segment in segments:
        versions.append(apply_delta(
            versions[-1], make_delta(("insert", "S", segment))
        ))
    expected = {}
    for version in versions:
        oracle = QueryEngine(
            version,
            cache=EngineCache(metrics=MetricsRegistry()),
            config=EngineConfig(),
        )
        expected[database_fingerprint(version)] = str(
            oracle.evaluate("S(x0)").formula
        )

    read_results = []
    with ServerThread(service) as server:
        stop = threading.Event()

        def reader():
            out = []
            while not stop.is_set() and len(out) < 80:
                out.append(post_json(
                    server.port, "/v1/query", {"query": "S(x0)"}
                ))
            return out

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(reader) for _ in range(3)]
            update_bodies = []
            for segment in segments:
                status, body = post_json(server.port, "/v1/update", {
                    "delta": [["insert", "S", segment]],
                    "database": "demo",
                })
                assert status == 200, body
                update_bodies.append(body)
            stop.set()
            for future in futures:
                read_results.extend(future.result())
        # After the last write, reads serve the tip version.
        status, body = post_json(
            server.port, "/v1/query", {"query": "S(x0)"}
        )

    # The writes walked exactly the modelled version chain.
    chain = [database_fingerprint(version) for version in versions]
    assert [b["parent"] for b in update_bodies] == chain[:-1]
    assert [b["fingerprint"] for b in update_bodies] == chain[1:]
    assert sorted(update_bodies[0]["aliases"]) == ["default", "demo"]

    assert status == 200 and body["fingerprint"] == chain[-1]
    assert read_results, "readers ran"
    for read_status, read_body in read_results:
        assert read_status == 200, read_body
        fingerprint = read_body["fingerprint"]
        assert fingerprint in expected, "a read saw a torn version"
        assert read_body["answer"]["formula"] == expected[fingerprint]


def test_http_write_quota_applies_to_updates():
    """Writes spend the same per-tenant budget as queries: 429 with a
    retry hint once the bucket is dry."""
    service = ConstraintService(
        {"demo": _db()},
        quota_rate=0.001, quota_burst=1,
        metrics=MetricsRegistry(),
    )
    payloads = [
        {"delta": [["insert", "S", f"({20 + 2 * i} <= x0 & x0 <= "
                    f"{21 + 2 * i})"]]}
        for i in range(3)
    ]
    with ServerThread(service) as server:
        results = run_load(
            server.port, payloads, concurrency=1,
            tenant="writer", path="/v1/update",
        )
    statuses = [r["status"] for r in results]
    assert statuses[0] == 200
    assert statuses[1:] == [429] * 2
    rejected = results[1]["body"]["error"]
    assert rejected["code"] == "quota_exceeded"
    assert rejected["retry_after_s"] > 0


def test_journal_stamps_update_events_with_request_and_tenant():
    """The audit trail covers writes: the update.applied event (and
    every event the write causes) carries the request id and tenant,
    plus the parent/child fingerprints of the version edge."""
    from repro.obs.journal import journal_scope
    from repro.server.loadgen import post_json

    service = ConstraintService(
        {"demo": _db()}, metrics=MetricsRegistry(),
    )
    with ServerThread(service) as server:
        with journal_scope() as journal:
            status, body = post_json(
                server.port, "/v1/update",
                {"delta": [["insert", "S", "(30 <= x0 & x0 <= 31)"]]},
                tenant="team-w",
            )
            events = journal.events()
    assert status == 200
    applied = [e for e in events if e["type"] == "update.applied"]
    assert len(applied) == 1
    event = applied[0]
    assert event["id"] == body["request_id"]
    assert event["request"] == body["request_id"]
    assert event["tenant"] == "team-w"
    assert body["parent"].startswith(event["parent"])
    assert body["fingerprint"].startswith(event["child"])
    # The delta.applied event the engine emits is scoped the same way.
    engine_events = [e for e in events if e["type"] == "delta.applied"]
    assert engine_events and all(
        e["request"] == body["request_id"]
        and e["tenant"] == "team-w"
        for e in engine_events
    )
