"""Admission control: per-tenant token buckets and bounded queueing.

The service never "collapses under load" — it sheds it, visibly:

* **per-tenant quotas** — each tenant (the ``X-Repro-Tenant`` header,
  default ``"public"``) owns a token bucket refilled at ``rate``
  requests/second up to ``burst``.  An empty bucket is a **429** with a
  ``retry_after_s`` hint; one tenant's burst cannot starve another's
  bucket.
* **bounded concurrency** — at most ``max_concurrent`` requests
  evaluate at once (queries are CPU-bound; more threads would only
  thrash), with at most ``max_queue`` requests waiting behind them.  A
  full queue is a **503**: the caller learns the depth instead of
  watching a socket time out.

Both rejection paths are structured errors (:class:`QuotaExceeded`,
:class:`Overloaded`) that the HTTP layer renders as JSON, and both are
counted (``server.rejected.quota`` / ``server.rejected.overload``
against ``server.admitted``).
"""

from __future__ import annotations

import asyncio
import time
from contextlib import asynccontextmanager
from typing import AsyncIterator, Callable

from repro.obs.metrics import MetricsRegistry, get_registry

#: Tenant used when a request names none.
DEFAULT_TENANT = "public"


class AdmissionError(Exception):
    """Base class for structured admission rejections."""

    status = 503
    code = "rejected"


class QuotaExceeded(AdmissionError):
    """Tenant bucket empty: reject with a retry hint (HTTP 429)."""

    status = 429
    code = "quota_exceeded"

    def __init__(self, tenant: str, retry_after_s: float) -> None:
        super().__init__(
            f"tenant {tenant!r} exceeded its request quota"
        )
        self.tenant = tenant
        self.retry_after_s = round(max(retry_after_s, 0.001), 3)


class Overloaded(AdmissionError):
    """Wait queue full: reject instead of queueing unboundedly (503)."""

    status = 503
    code = "overloaded"

    def __init__(self, queue_depth: int) -> None:
        super().__init__(
            f"server over capacity ({queue_depth} requests already queued)"
        )
        self.queue_depth = queue_depth


class TokenBucket:
    """A classic token bucket (``rate`` tokens/s, ``burst`` capacity).

    ``clock`` is injectable so tests can drive time deterministically.
    Single-threaded use only (the asyncio event loop); no locking.
    """

    def __init__(
        self,
        rate: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive (requests/second)")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)

    def try_acquire(self) -> bool:
        """Take one token if available."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after_s(self) -> float:
        """Seconds until one token will be available."""
        self._refill()
        missing = max(0.0, 1.0 - self._tokens)
        return missing / self.rate

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens


class AdmissionController:
    """Quota + concurrency + queue-depth gate for the request path."""

    def __init__(
        self,
        max_concurrent: int = 4,
        max_queue: int = 64,
        quota_rate: float = 50.0,
        quota_burst: int = 100,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be at least 1")
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.quota_rate = quota_rate
        self.quota_burst = quota_burst
        self._clock = clock
        self._semaphore = asyncio.Semaphore(max_concurrent)
        self._waiting = 0
        self._active = 0
        self._buckets: dict[str, TokenBucket] = {}
        registry = metrics if metrics is not None else get_registry()
        self._c_admitted = registry.counter("server.admitted")
        self._c_quota = registry.counter("server.rejected.quota")
        self._c_overload = registry.counter("server.rejected.overload")

    def bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(
                self.quota_rate, self.quota_burst, clock=self._clock
            )
            self._buckets[tenant] = bucket
        return bucket

    @asynccontextmanager
    async def admit(self, tenant: str = DEFAULT_TENANT) -> AsyncIterator[None]:
        """Admit one request, or raise a structured rejection.

        Quota is charged before queueing (a rejected request must not
        consume a slot), and the queue check counts only requests that
        would actually have to wait.
        """
        bucket = self.bucket(tenant)
        if not bucket.try_acquire():
            self._c_quota.inc()
            raise QuotaExceeded(tenant, bucket.retry_after_s())
        if self._semaphore.locked() and self._waiting >= self.max_queue:
            self._c_overload.inc()
            raise Overloaded(self._waiting)
        self._waiting += 1
        try:
            await self._semaphore.acquire()
        finally:
            self._waiting -= 1
        self._active += 1
        self._c_admitted.inc()
        try:
            yield
        finally:
            self._active -= 1
            self._semaphore.release()

    def stats(self) -> dict[str, object]:
        return {
            "max_concurrent": self.max_concurrent,
            "max_queue": self.max_queue,
            "quota_rate": self.quota_rate,
            "quota_burst": self.quota_burst,
            "active": self._active,
            "waiting": self._waiting,
            "tenants": sorted(self._buckets),
            "admitted": self._c_admitted.value,
            "rejected_quota": self._c_quota.value,
            "rejected_overload": self._c_overload.value,
        }
