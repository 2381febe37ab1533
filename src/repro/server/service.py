"""`ConstraintService` — the async multi-tenant query service.

One service owns:

* a set of named, immutable :class:`ConstraintDatabase`\\ s (the first
  one registered is also aliased ``"default"``);
* an :class:`~repro.server.pool.EnginePool` over **one** shared
  :class:`~repro.engine.EngineCache` and disk store;
* an :class:`~repro.server.quota.AdmissionController` (per-tenant token
  buckets, bounded concurrency and queue depth);
* the process journal, scoped per request via
  :func:`repro.obs.journal.journal_context` — every event a request
  causes carries its ``request`` id and ``tenant``, which turns the
  JSONL sink into an audit log.

Endpoints (all JSON; see docs/SERVER.md for full schemas):

=========================  ===========================================
``POST /v1/query``         evaluate a query; body ``{"query": ...,
                           "database": "name"?, "tenant": ...?}``
``POST /v1/explain``       EXPLAIN (ANALYZE) a query; body adds
                           ``{"analyze": bool}``
``POST /v1/update``        apply a write; body ``{"delta":
                           [[action, relation, formula], ...],
                           "database": "name"?}``
``GET /v1/healthz``        liveness + the registered databases
``GET /v1/stats``          admission/pool/cache/store/journal counters,
                           per-tenant SLO breaches, slow-log status
``GET /metrics``           Prometheus text exposition (counters,
                           gauges, histograms; tenant/endpoint labels)
=========================  ===========================================

Evaluation is CPU-bound exact arithmetic, so requests run on worker
threads (``asyncio.to_thread``) while the event loop keeps accepting
connections; cold arrangement builds are **single-flight** at two
layers (an async future per fingerprint here, a per-key event inside
``EngineCache``), so a thundering herd on one database computes its
region extension exactly once.

Writes go through :meth:`QueryEngine.apply_delta` — incremental view
maintenance, not rebuild-and-swap — serialised behind one update lock
while reads keep flowing: a read resolves its database object once,
and the write path swaps every alias to the post-delta object in one
step, so a concurrent read sees the old version or the new one in
full, never a torn mix (the returned ``fingerprint`` says which).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from bisect import bisect_left
from typing import Any, Awaitable, Callable, Mapping

from repro.errors import ReproError
from repro.config import EngineConfig
from repro.constraints.database import ConstraintDatabase
from repro.engine import QueryEngine
from repro.incremental import Delta, delta_op, make_delta
from repro.obs.journal import JOURNAL, journal_context
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.telemetry import (
    TelemetryRegistry,
    get_telemetry,
    render_prometheus,
)
from repro.server.http import HttpError, HttpServer, Request, Response
from repro.server.pool import EnginePool
from repro.server.quota import (
    DEFAULT_TENANT,
    AdmissionController,
    AdmissionError,
)

#: Header naming the tenant a request is billed to.
TENANT_HEADER = "x-repro-tenant"

#: Cap on sample witness points returned per answer.
SAMPLE_POINTS = 5

#: Slow-query captures waiting or running at once; a slow request past
#: the cap is counted in ``server.slow_query_captures_dropped`` instead.
MAX_PENDING_CAPTURES = 16


class ConstraintService:
    """The HTTP-facing query service over a shared engine pool."""

    def __init__(
        self,
        databases: Mapping[str, ConstraintDatabase],
        config: EngineConfig | None = None,
        *,
        quota_rate: float = 50.0,
        quota_burst: int = 100,
        max_concurrent: int = 4,
        max_queue: int = 64,
        decomposition: str = "arrangement",
        spatial_name: str = "S",
        metrics: MetricsRegistry | None = None,
        telemetry: TelemetryRegistry | None = None,
        max_requests: int | None = None,
    ) -> None:
        if not databases:
            raise ValueError("the service needs at least one database")
        self.config = config if config is not None else EngineConfig()
        self.databases = dict(databases)
        if "default" not in self.databases:
            first = next(iter(self.databases))
            self.databases["default"] = self.databases[first]
        self.decomposition = decomposition
        self.spatial_name = spatial_name
        self.pool = EnginePool(self.config, metrics=metrics)
        self.admission = AdmissionController(
            max_concurrent=max_concurrent,
            max_queue=max_queue,
            quota_rate=quota_rate,
            quota_burst=quota_burst,
            metrics=metrics,
        )
        self.max_requests = max_requests
        self.requests_handled = 0
        #: Set once ``max_requests`` responses have been sent (or via
        #: :meth:`request_shutdown`); ``serve`` exits when it fires.
        self.shutdown = asyncio.Event()
        self._started = time.monotonic()
        self._request_seq = itertools.count(1)
        #: EXPLAIN ANALYZE drives the process-global tracer, which is
        #: one collection at a time — explain requests are serialised.
        self._explain_lock = asyncio.Lock()
        #: Writes are serialised (single-flight) while reads keep
        #: flowing; one lock also covers aliases sharing a database
        #: object ("default" and the first registered name).
        self._update_lock = asyncio.Lock()
        registry = metrics if metrics is not None else get_registry()
        self._registry = registry
        self.telemetry = (
            telemetry if telemetry is not None else get_telemetry()
        )
        #: The latency objective: a bucket bound of the request
        #: histogram (so breaches read off it exactly, also on a
        #: registry shared with services of other objectives) and the
        #: slow-query capture threshold.
        self.slo_latency_ms = self.config.slo_latency_ms
        self._slo_bound_s = self.slo_latency_ms / 1000.0
        self.telemetry.require_bound(
            "server.request_seconds", self._slo_bound_s
        )
        #: Requests inside :meth:`handle` right now (the event loop is
        #: single-threaded, so a plain int is exact).
        self.inflight_requests = 0
        self.slow_log = (
            SlowQueryLog(self.config.slow_log)
            if self.config.slow_log is not None else None
        )
        #: Slow-query captures still running; they are off the response
        #: path, and :meth:`drain_captures` awaits them.
        self._captures: set[asyncio.Task] = set()
        self._c_requests = registry.counter("server.requests")
        self._c_ok = registry.counter("server.responses.ok")
        self._c_client_err = registry.counter("server.responses.client_error")
        self._c_server_err = registry.counter("server.responses.server_error")
        self._routes: dict[str, tuple[str, Callable[..., Awaitable[Response]]]]
        self._routes = {
            "/v1/query": ("POST", self._handle_query),
            "/v1/explain": ("POST", self._handle_explain),
            "/v1/update": ("POST", self._handle_update),
            "/v1/healthz": ("GET", self._handle_healthz),
            "/v1/stats": ("GET", self._handle_stats),
            "/metrics": ("GET", self._handle_metrics),
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def handle(self, request: Request) -> Response:
        """Route one request; every exit path is counted and journaled."""
        self._c_requests.inc()
        request_id = f"req-{next(self._request_seq):08d}"
        tenant = (
            request.header(TENANT_HEADER).strip() or DEFAULT_TENANT
        )
        route = self._routes.get(request.path)
        started = time.perf_counter()
        self.inflight_requests += 1
        try:
            with journal_context(request=request_id, tenant=tenant):
                if JOURNAL.enabled:
                    JOURNAL.emit(
                        "request.begin", id=request_id,
                        method=request.method, path=request.path,
                    )
                try:
                    if route is None:
                        raise HttpError(
                            404, "not_found", f"no route {request.path!r}"
                        )
                    method, handler = route
                    if request.method != method:
                        raise HttpError(
                            405, "method_not_allowed",
                            f"{request.path} accepts {method} only",
                        )
                    response = await handler(request, request_id, tenant)
                except AdmissionError as error:
                    response = self._admission_response(error)
                except HttpError as error:
                    response = error.to_response()
                except ReproError as error:
                    response = Response(400, {"error": {
                        "code": "invalid_query",
                        "message": str(error),
                        "request_id": request_id,
                    }})
                if response.status < 400:
                    self._c_ok.inc()
                elif response.status < 500:
                    self._c_client_err.inc()
                else:  # pragma: no cover - no 5xx path constructs here
                    self._c_server_err.inc()
                wall_s = time.perf_counter() - started
                # The endpoint label comes from the route table, never
                # the raw path — an unmatched path must not mint a new
                # series.  This observation is the request's one record:
                # SLO breaches are read off the same series.
                labels = {
                    "tenant": tenant,
                    "endpoint": (
                        request.path if route is not None else "unknown"
                    ),
                }
                self.telemetry.histogram(
                    "server.request_seconds", labels
                ).observe(wall_s)
                if JOURNAL.enabled:
                    JOURNAL.emit(
                        "request.end", id=request_id,
                        status=response.status,
                        wall_ms=round(wall_s * 1000, 3),
                    )
        finally:
            self.inflight_requests -= 1
        self.requests_handled += 1
        if (
            self.max_requests is not None
            and self.requests_handled >= self.max_requests
        ):
            self.shutdown.set()
        return response

    @staticmethod
    def _admission_response(error: AdmissionError) -> Response:
        body: dict[str, Any] = {
            "code": error.code, "message": str(error),
        }
        if hasattr(error, "retry_after_s"):
            body["retry_after_s"] = error.retry_after_s
        if hasattr(error, "queue_depth"):
            body["queue_depth"] = error.queue_depth
        headers = {}
        if hasattr(error, "retry_after_s"):
            headers["retry-after"] = str(
                max(1, round(error.retry_after_s))
            )
        return Response(error.status, {"error": body}, headers)

    def request_shutdown(self) -> None:
        """Ask :func:`serve` to exit after in-flight work completes."""
        self.shutdown.set()

    async def drain_captures(self) -> None:
        """Wait until every slow-query capture started so far is written."""
        while self._captures:
            await asyncio.gather(*self._captures, return_exceptions=True)

    # ------------------------------------------------------------------
    # Shared request plumbing
    # ------------------------------------------------------------------
    def _database(self, body: Mapping[str, Any]) -> tuple[str, ConstraintDatabase]:
        name = body.get("database", "default")
        if not isinstance(name, str):
            raise HttpError(400, "bad_database", "database must be a string")
        database = self.databases.get(name)
        if database is None:
            raise HttpError(
                404, "unknown_database",
                f"no database {name!r}; have {sorted(self.databases)}",
            )
        return name, database

    @staticmethod
    def _query_text(body: Mapping[str, Any]) -> str:
        text = body.get("query")
        if not isinstance(text, str) or not text.strip():
            raise HttpError(
                400, "missing_query",
                'the body needs a non-empty string field "query"',
            )
        return text

    async def _ensure_warm(self, engine: QueryEngine) -> str:
        """Make the engine's region extension warm; how it was served.

        A cached extension is touched on the loop thread (a counted hit
        and an LRU refresh) and reads ``"warm"``.  A cold one is built
        on a worker thread through the engine cache, whose per-key
        single-flight lets one request build (``"built"``) while the
        others wait for it (``"coalesced"``).
        """
        if engine.cache.peek_extension(
            engine.database, engine.decomposition, engine.spatial_name
        ):
            engine.extension
            return "warm"

        def build() -> str:
            engine.extension
            return engine.cache.last_outcome()

        return await asyncio.to_thread(build)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    async def _handle_query(
        self, request: Request, request_id: str, tenant: str
    ) -> Response:
        body = request.json()
        name, database = self._database(body)
        text = self._query_text(body)
        async with self.admission.admit(tenant):
            engine = self.pool.checkout(
                database, self.decomposition, self.spatial_name
            )
            try:
                build = await self._ensure_warm(engine)
                started = time.perf_counter()
                answer = await asyncio.to_thread(engine.evaluate, text)
                wall_ms = (time.perf_counter() - started) * 1000
            finally:
                self.pool.checkin(engine)
        executor = self.config.executor
        if JOURNAL.enabled:
            JOURNAL.emit(
                "query.answered", id=request_id, database=name,
                executor=executor, wall_ms=round(wall_ms, 3),
            )
        if self.slow_log is not None and wall_ms >= self.slo_latency_ms:
            if len(self._captures) >= MAX_PENDING_CAPTURES:
                self._registry.counter(
                    "server.slow_query_captures_dropped"
                ).inc()
            else:
                capture = asyncio.ensure_future(self._capture_slow_query(
                    request_id, tenant, name, text, wall_ms
                ))
                self._captures.add(capture)
                capture.add_done_callback(self._captures.discard)
        payload: dict[str, Any] = {
            "request_id": request_id,
            "database": name,
            "fingerprint": engine.fingerprint,
            "build": build,
            "executor": executor,
            "wall_ms": round(wall_ms, 3),
            "answer": self._render_answer(answer),
        }
        return Response(200, payload)

    @staticmethod
    def _render_answer(answer) -> dict[str, Any]:
        rendered: dict[str, Any] = {
            "variables": list(answer.variables),
            "empty": answer.is_empty(),
        }
        if answer.arity == 0:
            rendered["truth"] = not answer.is_empty()
        else:
            rendered["formula"] = str(answer.formula)
            rendered["sample_points"] = [
                [str(coordinate) for coordinate in point]
                for point in answer.sample_points(limit=SAMPLE_POINTS)
            ]
        return rendered

    async def _capture_slow_query(
        self,
        request_id: str,
        tenant: str,
        name: str,
        text: str,
        wall_ms: float,
    ) -> None:
        """Append an EXPLAIN ANALYZE record for a threshold-crossing query.

        Runs as a task the service keeps (:meth:`drain_captures`), so
        the response does not wait for it.  Re-runs the query as
        ``EXPLAIN ANALYZE`` (serialised behind the explain lock — the
        tracer is process-global) so the record carries the full plan
        tree with measured per-node costs.  It
        runs on a fresh engine over the shared cache: the region
        extension is warm, but the evaluator memo is empty, so the plan
        shows what the query costs rather than a memo hit of the pooled
        engine that just answered it.  The capture is diagnostics: any
        failure is counted, never surfaced to the client whose answer
        already succeeded.
        """
        try:
            engine = QueryEngine(
                self.databases[name],
                self.decomposition,
                self.spatial_name,
                cache=self.pool.cache,
                config=self.config,
            )
            async with self._explain_lock:
                result = await asyncio.to_thread(engine.explain, text, True)
            record = {
                "ts": time.time(),
                "request_id": request_id,
                "tenant": tenant,
                "database": name,
                "query": text,
                "wall_ms": round(wall_ms, 3),
                "threshold_ms": self.slo_latency_ms,
                "explain": result.to_dict(),
            }
            await asyncio.to_thread(self.slow_log.record, record)
            self._registry.counter("server.slow_queries").inc()
            if JOURNAL.enabled:
                JOURNAL.emit(
                    "slowquery.captured", id=request_id, database=name,
                    wall_ms=round(wall_ms, 3),
                    path=str(self.slow_log.path),
                )
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 - diagnostics must not fail reads
            self._registry.counter("server.slow_query_capture_failures").inc()

    async def _handle_explain(
        self, request: Request, request_id: str, tenant: str
    ) -> Response:
        body = request.json()
        name, database = self._database(body)
        text = self._query_text(body)
        analyze = bool(body.get("analyze", False))
        async with self.admission.admit(tenant):
            engine = self.pool.checkout(
                database, self.decomposition, self.spatial_name
            )
            try:
                # EXPLAIN drives the process-global tracer: serialise.
                async with self._explain_lock:
                    result = await asyncio.to_thread(
                        engine.explain, text, analyze
                    )
            finally:
                self.pool.checkin(engine)
        payload = result.to_dict()
        payload["request_id"] = request_id
        payload["database"] = name
        payload["executor"] = self.config.executor
        payload["optimizer"] = self.config.optimizer
        return Response(200, payload)

    @staticmethod
    def _parse_delta(body: Mapping[str, Any]) -> Delta:
        """The request's delta, from triples or op objects."""
        raw = body.get("delta")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise HttpError(
                400, "missing_delta",
                'the body needs a non-empty list field "delta"',
            )
        ops = []
        for entry in raw:
            if isinstance(entry, Mapping):
                triple = (
                    entry.get("action"),
                    entry.get("relation"),
                    entry.get("formula"),
                )
            elif isinstance(entry, (list, tuple)) and len(entry) == 3:
                triple = tuple(entry)
            else:
                raise HttpError(
                    400, "bad_delta",
                    "each delta op is [action, relation, formula] or "
                    '{"action": ..., "relation": ..., "formula": ...}',
                )
            if not all(isinstance(part, str) for part in triple):
                raise HttpError(
                    400, "bad_delta", "delta op fields must be strings"
                )
            ops.append(delta_op(*triple))
        return make_delta(*ops)

    async def _handle_update(
        self, request: Request, request_id: str, tenant: str
    ) -> Response:
        """Apply a write to a named database (incremental maintenance).

        Admission-controlled like a query (writes spend the same tenant
        budget), then serialised behind the update lock.  The database
        name — and every alias sharing its object — is atomically
        rebound to the post-delta version; in-flight reads finish
        against whichever version they resolved.
        """
        body = request.json()
        name, __ = self._database(body)
        delta = self._parse_delta(body)
        async with self.admission.admit(tenant):
            async with self._update_lock:
                # Re-read under the lock: an earlier write may have
                # rebound the name since the validation resolve above.
                database = self.databases[name]
                engine = self.pool.checkout(
                    database, self.decomposition, self.spatial_name
                )
                try:
                    started = time.perf_counter()
                    report = await asyncio.to_thread(
                        engine.apply_delta, delta
                    )
                    wall_ms = (time.perf_counter() - started) * 1000
                finally:
                    # Checkin keys by the engine's *current* fingerprint,
                    # so the maintained engine is pooled under the new
                    # version and the next read reuses it warm.
                    self.pool.checkin(engine)
                aliases = sorted(
                    alias
                    for alias, bound in self.databases.items()
                    if bound is database
                )
                for alias in aliases:
                    self.databases[alias] = engine.database
        if JOURNAL.enabled:
            JOURNAL.emit(
                "update.applied", id=request_id, database=name,
                aliases=",".join(aliases),
                parent=report.parent[:12], child=report.child[:12],
                operations=report.operations,
                planes_inserted=report.planes_inserted,
                planes_retracted=report.planes_retracted,
                wall_ms=round(wall_ms, 3),
            )
        return Response(200, {
            "request_id": request_id,
            "database": name,
            "aliases": aliases,
            "parent": report.parent,
            "fingerprint": report.child,
            "operations": report.operations,
            "relations_changed": list(report.relations_changed),
            "planes_inserted": report.planes_inserted,
            "planes_retracted": report.planes_retracted,
            "lineage_seq": report.lineage_seq,
            "compacted": report.compacted,
            "wall_ms": round(wall_ms, 3),
        })

    async def _handle_healthz(
        self, request: Request, request_id: str, tenant: str
    ) -> Response:
        return Response(200, {
            "status": "ok",
            "databases": sorted(self.databases),
            "uptime_s": round(time.monotonic() - self._started, 3),
        })

    async def _handle_stats(
        self, request: Request, request_id: str, tenant: str
    ) -> Response:
        store = self.config.store()
        return Response(200, {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "requests": {
                "total": self._c_requests.value,
                "ok": self._c_ok.value,
                "client_error": self._c_client_err.value,
                "server_error": self._c_server_err.value,
            },
            "config": self.config.describe(),
            "lp_mode": self.config.lp_mode,
            "executor": self.config.executor,
            "optimizer": self.config.optimizer,
            "admission": self.admission.stats(),
            "pool": self.pool.stats(),
            "store": store.stats() if store is not None else None,
            "journal": {
                "enabled": JOURNAL.enabled,
                "events": len(JOURNAL),
                "dropped": JOURNAL.dropped,
                "sink": JOURNAL.sink_path,
            },
            "slo": self._slo_stats(),
            "slow_log": {
                "path": (
                    str(self.slow_log.path)
                    if self.slow_log is not None else None
                ),
                "threshold_ms": self.slo_latency_ms,
                "records": self._registry.get("server.slow_queries"),
                "dropped": self._registry.get(
                    "server.slow_query_captures_dropped"
                ),
            },
            "metrics": self._registry.snapshot(),
        })

    def _slo_stats(self) -> dict[str, Any]:
        """Per-tenant requests and objective breaches, exact.

        Read off ``server.request_seconds``: the objective is a bucket
        bound of every series of the family (required at construction),
        so the requests slower than it are the series' count minus its
        cumulative count at that bound.  Tenants past the family cap
        share the unlabeled series, reported as ``"*"``.
        """
        tenants: dict[str, dict[str, int]] = {}
        for series in self.telemetry.histograms():
            if series.name != "server.request_seconds":
                continue
            cumulative = series.cumulative()
            within = cumulative[bisect_left(series.buckets, self._slo_bound_s)]
            tenant = dict(series.labels).get("tenant", "*")
            entry = tenants.setdefault(tenant, {"requests": 0, "breaches": 0})
            entry["requests"] += cumulative[-1]
            entry["breaches"] += cumulative[-1] - within
        return {
            "objective": {"latency_ms": self.slo_latency_ms},
            "tenants": tenants,
        }

    async def _handle_metrics(
        self, request: Request, request_id: str, tenant: str
    ) -> Response:
        """Prometheus text exposition of counters, gauges and histograms.

        The gauges are read from live state at scrape time; the scrape
        itself counts as one in-flight request.
        """
        admission = self.admission.stats()
        text = render_prometheus(
            self._registry.snapshot(),
            self.telemetry,
            {
                "server.inflight_requests": self.inflight_requests,
                "server.admission.active": admission["active"],
                "server.admission.waiting": admission["waiting"],
            },
        )
        return Response(
            200,
            text=text,
            headers={
                "content-type": "text/plain; version=0.0.4; charset=utf-8"
            },
        )


async def serve(
    service: ConstraintService,
    host: str = "127.0.0.1",
    port: int = 0,
    announce: Callable[[HttpServer], None] | None = None,
) -> None:
    """Run the service until its shutdown event fires.

    ``announce`` is called with the started :class:`HttpServer` (the
    CLI prints the bound address; tests read the ephemeral port).  On
    shutdown the slow-query captures still running are awaited, so
    their records are in the log when this returns.
    """
    server = HttpServer(service.handle, host, port)
    await server.start()
    try:
        if announce is not None:
            announce(server)
        await service.shutdown.wait()
    finally:
        await server.close()
        await service.drain_captures()
