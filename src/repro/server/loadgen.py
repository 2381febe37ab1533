"""Client-side helpers: run a service in-process and drive load at it.

Everything downstream of the server — the concurrency tests, the CI
smoke jobs and ``perfbench/run.py`` — needs the same two things: a way
to run a :class:`ConstraintService` on a background event loop bound
to an ephemeral port, and a plain blocking HTTP client to hit it from
worker threads.  Both live here so the benchmark and the tests drive
the identical code path.

Only the stdlib is used (:mod:`http.client`, :mod:`threading`).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

from repro.server.http import HttpServer
from repro.server.service import ConstraintService, serve


class ServerThread:
    """Run a service on a dedicated event-loop thread (context manager).

    ::

        service = ConstraintService({"db": database})
        with ServerThread(service) as server:
            status, body = post_json(server.port, "/v1/query",
                                     {"query": "S(x0)"})

    The port is ephemeral; ``__enter__`` blocks until it is bound.
    Exit requests a graceful shutdown and joins the thread.
    """

    def __init__(
        self,
        service: ConstraintService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._failure: BaseException | None = None

    def _announce(self, server: HttpServer) -> None:
        self._loop = asyncio.get_running_loop()
        self.port = server.port
        self._ready.set()

    def _run(self) -> None:
        try:
            asyncio.run(
                serve(self.service, self.host, self.port, self._announce)
            )
        except BaseException as error:  # pragma: no cover - startup bugs
            self._failure = error
        finally:
            self._ready.set()  # never leave __enter__ hanging

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._failure is not None:
            raise RuntimeError("server failed to start") from self._failure
        if not self._ready.is_set():  # pragma: no cover - hang guard
            raise RuntimeError("server did not bind within 30s")
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._thread is None:
            return
        # The loop owns the shutdown event; poke it from our thread.
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.service.request_shutdown)
        else:  # pragma: no cover - loop already gone
            self.service.request_shutdown()
        self._thread.join(timeout=30.0)

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"


def request_json(
    port: int,
    method: str,
    path: str,
    payload: Any = None,
    tenant: str | None = None,
    host: str = "127.0.0.1",
    timeout: float = 60.0,
) -> tuple[int, Any]:
    """One blocking HTTP exchange; returns ``(status, parsed body)``."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"}
        if tenant is not None:
            headers["X-Repro-Tenant"] = tenant
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        try:
            parsed = json.loads(raw) if raw else {}
        except ValueError:  # pragma: no cover - server always sends JSON
            parsed = {"raw": raw.decode("latin-1")}
        return response.status, parsed
    finally:
        connection.close()


def post_json(
    port: int,
    path: str,
    payload: Any,
    tenant: str | None = None,
    **kwargs: Any,
) -> tuple[int, Any]:
    return request_json(port, "POST", path, payload, tenant, **kwargs)


def get_json(port: int, path: str, **kwargs: Any) -> tuple[int, Any]:
    return request_json(port, "GET", path, None, **kwargs)


def get_text(
    port: int,
    path: str,
    host: str = "127.0.0.1",
    timeout: float = 60.0,
) -> tuple[int, str]:
    """One blocking GET returning the raw text body (no JSON parsing).

    This is how clients scrape ``GET /metrics``, whose body is the
    Prometheus text exposition format, not JSON.
    """
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        connection.close()


def run_load(
    port: int,
    requests: Sequence[dict[str, Any]],
    concurrency: int = 8,
    tenant: str | None = None,
    path: str = "/v1/query",
) -> list[dict[str, Any]]:
    """POST every payload with ``concurrency`` worker threads.

    Returns one record per request, in input order:
    ``{"status", "wall_s", "body"}`` — ``wall_s`` is the client-side
    end-to-end latency of that exchange.
    """
    import time

    def one(payload: dict[str, Any]) -> dict[str, Any]:
        started = time.perf_counter()
        status, body = post_json(port, path, payload, tenant=tenant)
        return {
            "status": status,
            "wall_s": time.perf_counter() - started,
            "body": body,
        }

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        return list(pool.map(one, requests))


Announce = Callable[[HttpServer], None]
