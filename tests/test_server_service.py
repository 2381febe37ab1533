"""ConstraintService routing, schemas, errors and the audit journal.

These tests drive :meth:`ConstraintService.handle` directly on an
event loop (no sockets — ``tests/test_server_http.py`` covers the wire
path), so they pin the service contract: response shapes, structured
error codes, and every journal event a request causes carrying the
request id and tenant.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import ConstraintDatabase, parse_formula
from repro.obs.journal import journal_scope
from repro.obs.metrics import MetricsRegistry
from repro.server import ConstraintService
from repro.server.http import Request


def _db(text: str = "(0 < x0 & x0 < 1) | (2 < x0 & x0 < 3)"):
    return ConstraintDatabase.from_formula(parse_formula(text), arity=1)


def _request(method: str, path: str, body: bytes = b"",
             headers: dict | None = None) -> Request:
    return Request(method=method, path=path, query={},
                   headers=headers or {}, body=body)


def _call(service: ConstraintService, request: Request):
    return asyncio.run(service.handle(request))


@pytest.fixture
def service() -> ConstraintService:
    return ConstraintService({"demo": _db()}, metrics=MetricsRegistry())


def test_first_database_is_default(service):
    assert service.databases["default"] is service.databases["demo"]


def test_query_response_shape(service):
    response = _call(service, _request(
        "POST", "/v1/query", b'{"query": "S(x0)"}'
    ))
    assert response.status == 200
    payload = response.payload
    assert payload["request_id"].startswith("req-")
    assert payload["database"] == "default"
    assert payload["build"] in ("built", "warm", "coalesced")
    answer = payload["answer"]
    assert answer["variables"] == ["x0"]
    assert answer["empty"] is False
    assert answer["sample_points"], "non-empty answers carry witnesses"


def test_render_answer_solves_only_the_shown_witnesses():
    from repro.engine import QueryEngine
    from repro.obs.metrics import get_registry
    from repro.server.service import SAMPLE_POINTS
    from repro.workloads.generators import interval_chain

    answer = QueryEngine(interval_chain(9)).evaluate("S(x0)")
    registry = get_registry()

    def lp_work() -> int:
        return registry.get("lp.solves") + registry.get("lp.cache_hits")

    before = lp_work()
    rendered = ConstraintService._render_answer(answer)
    assert lp_work() - before <= SAMPLE_POINTS == 5
    every = answer.sample_points()
    assert len(every) > SAMPLE_POINTS
    expected = dict(rendered, sample_points=[
        [str(coordinate) for coordinate in point]
        for point in every[:SAMPLE_POINTS]
    ])
    assert json.dumps(rendered, sort_keys=True) == \
        json.dumps(expected, sort_keys=True)


def test_boolean_query_reports_truth(service):
    response = _call(service, _request(
        "POST", "/v1/query",
        b'{"query": "exists x. S(x) & x < 1"}',
    ))
    assert response.status == 200
    assert response.payload["answer"]["truth"] is True
    assert response.payload["answer"]["variables"] == []


def test_named_database_selection(service):
    response = _call(service, _request(
        "POST", "/v1/query", b'{"query": "S(x0)", "database": "demo"}'
    ))
    assert response.status == 200
    assert response.payload["database"] == "demo"


def test_unknown_database_is_404(service):
    response = _call(service, _request(
        "POST", "/v1/query", b'{"query": "S(x0)", "database": "nope"}'
    ))
    assert response.status == 404
    assert response.payload["error"]["code"] == "unknown_database"


def test_missing_query_is_400(service):
    response = _call(service, _request("POST", "/v1/query", b"{}"))
    assert response.status == 400
    assert response.payload["error"]["code"] == "missing_query"


def test_parse_error_is_400_invalid_query(service):
    response = _call(service, _request(
        "POST", "/v1/query", b'{"query": "S(x0"}'
    ))
    assert response.status == 400
    error = response.payload["error"]
    assert error["code"] == "invalid_query"
    assert error["request_id"].startswith("req-")


def test_malformed_json_is_400(service):
    response = _call(service, _request("POST", "/v1/query", b"{nope"))
    assert response.status == 400
    assert response.payload["error"]["code"] == "malformed_json"


def test_unknown_route_is_404_and_wrong_method_405(service):
    assert _call(service, _request("GET", "/nope")).status == 404
    assert _call(service, _request("GET", "/v1/query")).status == 405


def test_explain_reuses_plan_compiler(service):
    response = _call(service, _request(
        "POST", "/v1/explain",
        b'{"query": "S(x0)", "analyze": true}',
    ))
    assert response.status == 200
    payload = response.payload
    assert payload["analyzed"] is True
    assert payload["plan"]["op"]  # the PlanNode tree from explain()
    assert payload["request_id"].startswith("req-")


def test_healthz_and_stats(service):
    health = _call(service, _request("GET", "/v1/healthz"))
    assert health.status == 200
    assert health.payload["status"] == "ok"
    assert "demo" in health.payload["databases"]

    _call(service, _request("POST", "/v1/query", b'{"query": "S(x0)"}'))
    stats = _call(service, _request("GET", "/v1/stats"))
    assert stats.status == 200
    payload = stats.payload
    assert payload["requests"]["total"] >= 2
    assert payload["admission"]["admitted"] >= 1
    assert payload["pool"]["created"] >= 1
    assert "engine_cache" in payload["pool"]
    assert payload["config"]["jobs"] >= 1


def test_journal_is_a_per_request_audit_log(service):
    """Every event a request causes carries its id and tenant."""
    with journal_scope() as journal:
        _call(service, _request(
            "POST", "/v1/query", b'{"query": "S(x0)"}',
            headers={"x-repro-tenant": "team-a"},
        ))
        events = journal.events()
    begin = [e for e in events if e["type"] == "request.begin"]
    end = [e for e in events if e["type"] == "request.end"]
    assert len(begin) == 1 and len(end) == 1
    request_id = begin[0]["id"]
    assert request_id.startswith("req-")
    assert end[0]["id"] == request_id
    assert end[0]["status"] == 200
    # The contextvar scoping stamps *all* events in between — cache,
    # store and span events included — with the same request id.
    scoped = [e for e in events if e.get("request") == request_id]
    assert len(scoped) == len(events), (
        "every event of the request must carry its request id"
    )
    assert all(e.get("tenant") == "team-a" for e in scoped)


def test_max_requests_sets_shutdown(service):
    service.max_requests = 2

    async def drive():
        await service.handle(_request("GET", "/v1/healthz"))
        assert not service.shutdown.is_set()
        await service.handle(_request("GET", "/v1/healthz"))
        return service.shutdown.is_set()

    assert asyncio.run(drive()) is True
