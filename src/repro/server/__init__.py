"""repro.server — the async multi-tenant constraint-query service.

A stdlib-only asyncio HTTP/JSON API over a pool of warm
:class:`~repro.engine.QueryEngine`\\ s sharing one
:class:`~repro.engine.EngineCache` and one disk store:

* :mod:`repro.server.http` — the handcrafted HTTP/1.1 layer;
* :mod:`repro.server.quota` — per-tenant token buckets and bounded
  concurrency/queueing (structured 429/503);
* :mod:`repro.server.pool` — warm-engine checkout by database
  fingerprint;
* :mod:`repro.server.service` — the routes, per-request journal
  scoping and single-flight cold builds;
* :mod:`repro.server.loadgen` — a threaded HTTP client used by the
  tests, the CI smoke jobs and ``perfbench/run.py``.

Start one from the CLI with ``repro serve DB.json`` or in-process with
:class:`ServerThread` (see docs/SERVER.md).
"""

from repro.server.http import HttpError, HttpServer, Request, Response
from repro.server.loadgen import (
    ServerThread,
    get_json,
    get_text,
    post_json,
    run_load,
)
from repro.server.pool import EnginePool
from repro.server.quota import (
    DEFAULT_TENANT,
    AdmissionController,
    AdmissionError,
    Overloaded,
    QuotaExceeded,
    TokenBucket,
)
from repro.server.service import ConstraintService, serve

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "ConstraintService",
    "DEFAULT_TENANT",
    "EnginePool",
    "HttpError",
    "HttpServer",
    "Overloaded",
    "QuotaExceeded",
    "Request",
    "Response",
    "ServerThread",
    "TokenBucket",
    "get_json",
    "get_text",
    "post_json",
    "run_load",
    "serve",
]
