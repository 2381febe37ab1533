"""Server-side telemetry: /metrics, SLO stats and the slow-query log.

Drives :meth:`ConstraintService.handle` directly (like
``test_server_service.py``) with a private metrics + telemetry registry
per service, so assertions never race other tests' observations.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro import ConstraintDatabase, parse_formula
from repro.config import EngineConfig
from repro.explain import plan_cost_totals
from repro.obs import reset_all
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import load_slow_log
from repro.obs.telemetry import TelemetryRegistry
from repro.server import ConstraintService
from repro.server.http import Request, encode


@pytest.fixture(autouse=True)
def _clean_slate():
    reset_all()
    yield
    reset_all()


def _db(text: str = "(0 < x0 & x0 < 1) | (2 < x0 & x0 < 3)"):
    return ConstraintDatabase.from_formula(parse_formula(text), arity=1)


def _request(method: str, path: str, body: bytes = b"",
             headers: dict | None = None) -> Request:
    return Request(method=method, path=path, query={},
                   headers=headers or {}, body=body)


def _call(service: ConstraintService, request: Request):
    return asyncio.run(service.handle(request))


def _call_captured(service: ConstraintService, request: Request):
    """Handle one request, then wait for its slow-query capture."""
    async def run():
        response = await service.handle(request)
        await service.drain_captures()
        return response

    return asyncio.run(run())


def _service(**kwargs) -> ConstraintService:
    kwargs.setdefault("metrics", MetricsRegistry())
    kwargs.setdefault("telemetry", TelemetryRegistry())
    return ConstraintService({"demo": _db()}, **kwargs)


def _gauges(text: str) -> dict[str, float]:
    """The gauge samples of a /metrics scrape, by metric name."""
    names = {
        line.split()[2]
        for line in text.splitlines()
        if line.startswith("# TYPE ") and line.endswith(" gauge")
    }
    samples = {}
    for line in text.splitlines():
        name, __, value = line.partition(" ")
        if name in names:
            samples[name] = float(value)
    return samples


class TestMetricsEndpoint:
    def test_scrape_is_prometheus_text(self):
        service = _service()
        _call(service, _request("POST", "/v1/query",
                                b'{"query": "S(x0)"}'))
        response = _call(service, _request("GET", "/metrics"))
        assert response.status == 200
        assert response.text is not None
        assert response.headers["content-type"].startswith("text/plain")
        assert "# TYPE repro_server_requests_total counter" in response.text
        assert "# TYPE repro_server_request_seconds histogram" \
            in response.text

    def test_wire_body_is_the_raw_text(self):
        service = _service()
        response = _call(service, _request("GET", "/metrics"))
        wire = encode(response, keep_alive=False)
        assert b"content-type: text/plain" in wire
        body = wire.split(b"\r\n\r\n", 1)[1]
        assert body.decode("utf-8") == response.text

    def test_request_series_labeled_by_tenant_and_endpoint(self):
        service = _service()
        _call(service, _request(
            "POST", "/v1/query", b'{"query": "S(x0)"}',
            headers={"x-repro-tenant": "acme"},
        ))
        _call(service, _request(
            "POST", "/v1/query", b'{"query": "S(x0)"}',
            headers={"x-repro-tenant": "globex"},
        ))
        response = _call(service, _request("GET", "/metrics"))
        text = response.text
        assert 'tenant="acme"' in text
        assert 'tenant="globex"' in text
        assert 'endpoint="/v1/query"' in text

    def test_unmatched_path_folds_into_unknown_endpoint(self):
        service = _service()
        _call(service, _request("GET", "/totally/bogus/path"))
        text = _call(service, _request("GET", "/metrics")).text
        assert 'endpoint="unknown"' in text
        assert "bogus" not in text, "raw paths must never mint series"

    def test_method_is_enforced(self):
        service = _service()
        response = _call(service, _request("POST", "/metrics"))
        assert response.status == 405


class TestSloStats:
    def test_stats_carry_slo_block(self):
        service = _service()
        _call(service, _request("POST", "/v1/query",
                                b'{"query": "S(x0)"}'))
        response = _call(service, _request("GET", "/v1/stats"))
        slo = response.payload["slo"]
        assert slo["objective"]["latency_ms"] == service.slo_latency_ms
        tenants = slo["tenants"]
        # The stats request itself is recorded once it has answered.
        assert tenants["public"]["requests"] == 1
        assert 0 <= tenants["public"]["breaches"] <= 1

    def test_breaches_counted_for_slow_requests(self):
        service = _service(
            config=EngineConfig(slo_latency_ms=0.0001)
        )
        for tenant in ("acme", "acme", "globex"):
            _call(service, _request(
                "POST", "/v1/query", b'{"query": "S(x0)"}',
                headers={"x-repro-tenant": tenant},
            ))
        response = _call(service, _request("GET", "/v1/stats"))
        tenants = response.payload["slo"]["tenants"]
        assert tenants["acme"] == {"requests": 2, "breaches": 2}
        assert tenants["globex"] == {"requests": 1, "breaches": 1}

    def test_breaches_exact_at_objective_bound(self):
        """The objective is a bucket bound: at it is good, past it is not."""
        service = _service(config=EngineConfig(slo_latency_ms=60000.0))
        _call(service, _request(
            "GET", "/v1/healthz", headers={"x-repro-tenant": "acme"},
        ))
        series = service.telemetry.histogram(
            "server.request_seconds",
            {"tenant": "acme", "endpoint": "/v1/healthz"},
        )
        bound = 60.0
        assert bound in series.buckets
        for value in (
            math.nextafter(bound, 0.0),
            bound,
            math.nextafter(bound, math.inf),
            61.0,
        ):
            series.observe(value)
        tenants = _call(
            service, _request("GET", "/v1/stats")
        ).payload["slo"]["tenants"]
        assert tenants["acme"] == {"requests": 5, "breaches": 2}
        text = _call(service, _request("GET", "/metrics")).text
        assert (
            'repro_server_request_seconds_bucket{endpoint="/v1/healthz",'
            'tenant="acme",le="60"} 3'
        ) in text

    def test_stats_slow_log_block_reflects_config(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        service = _service(config=EngineConfig(slow_log=str(path)))
        response = _call(service, _request("GET", "/v1/stats"))
        block = response.payload["slow_log"]
        assert block["path"] == str(path)
        assert block["threshold_ms"] == service.slo_latency_ms

    def test_stats_slow_log_disabled_by_default(self):
        service = _service()
        response = _call(service, _request("GET", "/v1/stats"))
        assert response.payload["slow_log"]["path"] is None


class TestSlowQueryCapture:
    def _slow_service(self, tmp_path, **kwargs) -> ConstraintService:
        # A microsecond objective makes every real query "slow".
        return _service(
            config=EngineConfig(
                slow_log=str(tmp_path / "slow.jsonl"),
                slo_latency_ms=0.0001,
            ),
            **kwargs,
        )

    def test_slow_query_captures_analyzed_plan(self, tmp_path):
        service = self._slow_service(tmp_path)
        response = _call_captured(service, _request(
            "POST", "/v1/query", b'{"query": "S(x0)"}',
            headers={"x-repro-tenant": "acme"},
        ))
        assert response.status == 200
        records = load_slow_log(tmp_path / "slow.jsonl")
        assert len(records) == 1
        record = records[0]
        assert record["tenant"] == "acme"
        assert record["query"] == "S(x0)"
        assert record["wall_ms"] > record["threshold_ms"]
        assert record["request_id"] == response.payload["request_id"]
        explain = record["explain"]
        assert explain["analyzed"] is True
        assert explain["totals"]["wall_ms"] > 0

    def test_captured_plan_costs_sum_to_run_totals(self, tmp_path):
        """The EXPLAIN ANALYZE attribution contract holds in the log."""
        service = self._slow_service(tmp_path)
        _call_captured(service, _request("POST", "/v1/query",
                                b'{"query": "exists x. S(x) & x < 1"}'))
        record = load_slow_log(tmp_path / "slow.jsonl")[0]
        explain = record["explain"]
        sums = plan_cost_totals(explain["plan"])
        totals = explain["totals"]
        counters = {k: v for k, v in totals["counters"].items() if v}
        assert sums["self_counters"] == counters, (
            "per-node self counters must sum exactly to the run totals"
        )
        assert sums["self_wall_ms"] == pytest.approx(
            totals["wall_ms"], abs=0.5
        )

    def test_captured_plan_evaluates_the_query(self, tmp_path):
        """The capture measures the query, not the answering engine's memo."""
        service = self._slow_service(tmp_path)
        _call_captured(service, _request("POST", "/v1/query",
                                b'{"query": "exists x. S(x) & x < 1"}'))
        explain = load_slow_log(tmp_path / "slow.jsonl")[0]["explain"]
        formula_node = explain["plan"]["children"][1]
        assert formula_node["cost"]["calls"] >= 1
        assert explain["totals"]["counters"]["evaluator.evaluations"] >= 1

    def test_fast_requests_are_not_captured(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        service = _service(
            config=EngineConfig(slow_log=str(path),
                                slo_latency_ms=60000.0)
        )
        _call_captured(service, _request("POST", "/v1/query",
                                b'{"query": "S(x0)"}'))
        assert load_slow_log(path) == []

    def test_capture_counter_and_journal_record(self, tmp_path):
        metrics = MetricsRegistry()
        service = self._slow_service(tmp_path, metrics=metrics)
        _call_captured(service, _request("POST", "/v1/query",
                                b'{"query": "S(x0)"}'))
        assert metrics.counter("server.slow_queries").value == 1

    def test_response_does_not_wait_for_its_capture(self, tmp_path):
        service = self._slow_service(tmp_path)
        path = tmp_path / "slow.jsonl"

        async def run():
            # Holding the explain lock blocks the capture's re-run.
            async with service._explain_lock:
                response = await asyncio.wait_for(
                    service.handle(_request(
                        "POST", "/v1/query", b'{"query": "S(x0)"}'
                    )),
                    timeout=20,
                )
                assert load_slow_log(path) == []
            await service.drain_captures()
            return response

        response = asyncio.run(run())
        assert response.status == 200
        [record] = load_slow_log(path)
        assert record["request_id"] == response.payload["request_id"]

    def test_serve_awaits_captures_on_shutdown(self, tmp_path):
        from repro.server import ServerThread, post_json

        service = self._slow_service(tmp_path)
        with ServerThread(service) as server:
            status, __ = post_json(
                server.port, "/v1/query", {"query": "S(x0)"}
            )
        assert status == 200
        assert len(load_slow_log(tmp_path / "slow.jsonl")) == 1

    def test_records_are_valid_json_lines(self, tmp_path):
        service = self._slow_service(tmp_path)
        _call_captured(service, _request("POST", "/v1/query",
                                b'{"query": "S(x0)"}'))
        raw = (tmp_path / "slow.jsonl").read_text().splitlines()
        assert all(json.loads(line) for line in raw)


class TestInflightGauge:
    def test_gauge_returns_to_zero(self):
        service = _service()
        _call(service, _request("POST", "/v1/query",
                                b'{"query": "S(x0)"}'))
        assert service.inflight_requests == 0
        text = _call(service, _request("GET", "/metrics")).text
        # The scrape is the one request in flight while it renders.
        assert _gauges(text)["repro_server_inflight_requests"] == 1
        assert service.inflight_requests == 0

    def test_count_returns_to_zero_when_handler_raises(self):
        service = _service()

        async def broken(request, request_id, tenant):
            assert service.inflight_requests == 1
            raise RuntimeError("boom")

        service._routes["/v1/query"] = ("POST", broken)
        with pytest.raises(RuntimeError):
            _call(service, _request("POST", "/v1/query", b"{}"))
        assert service.inflight_requests == 0

    def test_admission_gauges_exist_and_settle(self):
        service = _service()
        _call(service, _request("POST", "/v1/query",
                                b'{"query": "S(x0)"}'))
        text = _call(service, _request("GET", "/metrics")).text
        assert "# TYPE repro_server_admission_active gauge" in text
        assert "# TYPE repro_server_admission_waiting gauge" in text
        gauges = _gauges(text)
        assert gauges["repro_server_admission_active"] == 0
        assert gauges["repro_server_admission_waiting"] == 0

    def test_gauges_read_live_state_at_scrape_time(self):
        service = _service(max_concurrent=1)

        async def drive():
            release = asyncio.Event()

            async def occupant():
                async with service.admission.admit("acme"):
                    await release.wait()

            holders = [asyncio.create_task(occupant()) for __ in range(2)]
            for __ in range(3):
                await asyncio.sleep(0)
            response = await service.handle(_request("GET", "/metrics"))
            stats = service.admission.stats()
            release.set()
            await asyncio.gather(*holders)
            return response.text, stats

        text, stats = asyncio.run(drive())
        assert (stats["active"], stats["waiting"]) == (1, 1)
        assert _gauges(text) == {
            "repro_server_admission_active": stats["active"],
            "repro_server_admission_waiting": stats["waiting"],
            "repro_server_inflight_requests": 1,
        }
