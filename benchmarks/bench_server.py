"""SERVER — cold vs warm latency of the async query service.

The server's reason to exist is that the expensive artifacts —
arrangements, region extensions, answer relations — are shared: across
requests (one ``EngineCache``), across engines (the pool) and across
process restarts (the disk store).  This benchmark measures exactly
that claim end-to-end over real HTTP:

* **cold** — a fresh service on an empty disk store; every database
  pays for its arrangement and extension builds.
* **warm** — a *new* service (fresh in-memory cache) over the same
  store directory, driven twice: the first pass warm-starts from disk
  (store hits), the second hits the in-memory engine cache.

The record (``BENCH_SERVER.json``) carries client-side p50/p99
latency and QPS per phase, the server's own cache/store counters, and
— scraped from ``GET /metrics`` — the *server-side* per-endpoint
p50/p90/p99 derived from the request-latency histogram buckets, so
client-observed and server-observed latency can be compared in one
record; ``warm_beats_cold`` asserts the architecture pays for itself.

Run as a script to (re)generate the committed record::

    PYTHONPATH=src python benchmarks/bench_server.py --output BENCH_SERVER.json
"""

from __future__ import annotations

import re
import time
from typing import Any

from repro.config import EngineConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetryRegistry, bucket_quantile
from repro.server import ConstraintService, ServerThread, run_load
from repro.server.loadgen import get_json, get_text, percentile
from repro.workloads.generators import interval_chain

#: Databases served: distinct interval chains (distinct fingerprints).
SEGMENTS = (2, 3, 4, 5)

#: Queries every database is asked, per phase.
QUERIES = (
    "S(x0)",
    "exists y. S(y) & x0 - y <= 1 & y - x0 <= 1",
)


_BUCKET_LINE = re.compile(
    r"^repro_server_request_seconds_bucket\{(?P<labels>[^}]*)\} "
    r"(?P<value>\S+)$"
)


def _parse_labels(text: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    for part in text.split(","):
        key, __, value = part.partition("=")
        labels[key.strip()] = value.strip().strip('"')
    return labels


def server_latency_quantiles(
    metrics_text: str,
) -> dict[str, dict[str, Any]]:
    """Per-endpoint p50/p90/p99 (ms) from scraped ``/metrics`` text.

    Parses the ``repro_server_request_seconds_bucket`` families, sums
    cumulative bucket counts across tenants per endpoint (cumulative
    counts are additive), and interpolates quantiles with the same
    :func:`bucket_quantile` the server's histograms use.
    """
    buckets: dict[str, dict[float, int]] = {}
    for line in metrics_text.splitlines():
        match = _BUCKET_LINE.match(line)
        if match is None:
            continue
        labels = _parse_labels(match.group("labels"))
        endpoint = labels.get("endpoint", "")
        upper = float(labels["le"])
        per_endpoint = buckets.setdefault(endpoint, {})
        per_endpoint[upper] = (
            per_endpoint.get(upper, 0) + int(float(match.group("value")))
        )
    quantiles: dict[str, dict[str, Any]] = {}
    for endpoint, cumulative_by_upper in sorted(buckets.items()):
        uppers = sorted(u for u in cumulative_by_upper if u != float("inf"))
        cumulative = [cumulative_by_upper[u] for u in uppers]
        cumulative.append(cumulative_by_upper.get(float("inf"), 0))
        count = cumulative[-1]
        if count == 0:
            continue
        quantiles[endpoint] = {
            "count": count,
            "p50_ms": round(bucket_quantile(uppers, cumulative, 0.50) * 1000, 3),
            "p90_ms": round(bucket_quantile(uppers, cumulative, 0.90) * 1000, 3),
            "p99_ms": round(bucket_quantile(uppers, cumulative, 0.99) * 1000, 3),
        }
    return quantiles


def _phase(
    service: ConstraintService,
    requests: list[dict[str, Any]],
    concurrency: int,
    passes: int,
) -> dict[str, Any]:
    """Drive one phase over HTTP; client-side latencies + server stats."""
    with ServerThread(service) as server:
        started = time.perf_counter()
        results = []
        for _pass in range(passes):
            results.extend(
                run_load(server.port, requests, concurrency=concurrency)
            )
        wall_s = time.perf_counter() - started
        __, stats = get_json(server.port, "/v1/stats")
        __, metrics_text = get_text(server.port, "/metrics")
    failures = [r for r in results if r["status"] != 200]
    latencies = [r["wall_s"] for r in results]
    return {
        "requests": len(results),
        "failures": len(failures),
        "wall_s": round(wall_s, 4),
        "qps": round(len(results) / wall_s, 2),
        "p50_ms": round(percentile(latencies, 0.50) * 1000, 3),
        "p99_ms": round(percentile(latencies, 0.99) * 1000, 3),
        "endpoints": server_latency_quantiles(metrics_text),
        "stats": stats,
    }


def run_bench_server(
    store_dir: str,
    concurrency: int = 4,
    max_concurrent: int = 4,
) -> dict[str, Any]:
    """The full cold/warm comparison; returns the JSON-ready record."""
    from repro.bench import _metadata

    databases = {
        f"chain{k}": interval_chain(k) for k in SEGMENTS
    }
    requests = [
        {"database": name, "query": query}
        for name in databases
        for query in QUERIES
    ]
    config = EngineConfig.resolve(
        cache_dir=store_dir, jobs=1
    )

    cold_service = ConstraintService(
        dict(databases), config,
        max_concurrent=max_concurrent, metrics=MetricsRegistry(),
        telemetry=TelemetryRegistry(),
    )
    cold = _phase(cold_service, requests, concurrency, passes=1)

    # A fresh service (empty in-memory cache) over the now-populated
    # store: pass 1 warm-starts from disk, pass 2 hits the engine cache.
    warm_service = ConstraintService(
        dict(databases), config,
        max_concurrent=max_concurrent, metrics=MetricsRegistry(),
        telemetry=TelemetryRegistry(),
    )
    warm = _phase(warm_service, requests, concurrency, passes=2)

    warm_cache = warm["stats"]["pool"]["engine_cache"]
    warm_store = warm["stats"]["store"] or {}
    record = {
        "benchmark": "SERVER",
        "subject": "async service cold vs warm (pool + cache + store)",
        "databases": sorted(databases),
        "queries": list(QUERIES),
        "concurrency": concurrency,
        "max_concurrent": max_concurrent,
        "cold": cold,
        "warm": warm,
        "warm_beats_cold": warm["p50_ms"] < cold["p50_ms"],
        "engine_cache_hits": (
            warm_cache["arrangement_hits"] + warm_cache["extension_hits"]
        ),
        "store_hits": warm_store.get("hits", 0),
        "all_match": cold["failures"] == 0 and warm["failures"] == 0,
        "metadata": _metadata(jobs=1),
    }
    return record


def test_server_cold_vs_warm(tmp_path, report):
    record = run_bench_server(str(tmp_path / "store"))
    assert record["all_match"], "every request must return 200"
    assert record["warm_beats_cold"], (
        f"warm p50 {record['warm']['p50_ms']}ms should beat "
        f"cold p50 {record['cold']['p50_ms']}ms"
    )
    assert record["store_hits"] > 0, "warm phase must hit the disk store"
    assert record["engine_cache_hits"] > 0, (
        "second warm pass must hit the in-memory engine cache"
    )
    for phase_name in ("cold", "warm"):
        endpoints = record[phase_name]["endpoints"]
        assert "/v1/query" in endpoints, (
            f"{phase_name} /metrics scrape must yield /v1/query buckets"
        )
        assert endpoints["/v1/query"]["count"] >= len(record["queries"])
    report(
        "SERVER: cold vs warm over HTTP",
        [
            ("cold:", f"p50 {record['cold']['p50_ms']}ms",
             f"p99 {record['cold']['p99_ms']}ms",
             f"{record['cold']['qps']} qps"),
            ("warm:", f"p50 {record['warm']['p50_ms']}ms",
             f"p99 {record['warm']['p99_ms']}ms",
             f"{record['warm']['qps']} qps"),
            ("hits:", f"store {record['store_hits']},",
             f"engine cache {record['engine_cache_hits']}"),
        ],
    )


if __name__ == "__main__":  # pragma: no cover - script entry
    import argparse
    import json
    import tempfile

    from repro.bench import write_record

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the record to PATH as JSON")
    parser.add_argument("--concurrency", type=int, default=4)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="repro-bench-server-") as tmp:
        record = run_bench_server(tmp, concurrency=args.concurrency)
    print(json.dumps(record, indent=2))
    if args.output:
        write_record(record, args.output)
    raise SystemExit(
        0 if record["all_match"] and record["warm_beats_cold"] else 1
    )
