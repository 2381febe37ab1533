"""A pool of warm :class:`QueryEngine` instances over shared caches.

The expensive, immutable artifacts — arrangements, region extensions,
disk-store entries — live in **one** :class:`~repro.engine.EngineCache`
and **one** :class:`~repro.store.disk.DiskStore` shared by every engine
the pool hands out.  The per-engine state (the memoising evaluator and
the per-query answer LRU) is what makes checkout exclusive: an engine
is used by one request at a time, then returned warm, so the next
request against the same database fingerprint inherits its evaluator
memo.  This is the "requests against the same arrangement share a warm
engine" half of request batching; the single-flight build inside
:class:`EngineCache` is the other half.
"""

from __future__ import annotations

import threading

from repro.config import EngineConfig
from repro.constraints.database import ConstraintDatabase
from repro.engine import EngineCache, QueryEngine, database_fingerprint
from repro.obs.metrics import MetricsRegistry, get_registry


class EnginePool:
    """Checkout/checkin of warm engines, keyed by database fingerprint."""

    def __init__(
        self,
        config: EngineConfig,
        cache: EngineCache | None = None,
        metrics: MetricsRegistry | None = None,
        max_idle_per_key: int = 8,
    ) -> None:
        self.config = config
        #: The shared cross-engine cache (explicit — never the implicit
        #: process-global one).
        self.cache = cache if cache is not None else EngineCache(
            metrics=metrics
        )
        self.max_idle_per_key = max_idle_per_key
        self._idle: dict[tuple, list[QueryEngine]] = {}
        self._lock = threading.Lock()
        registry = metrics if metrics is not None else get_registry()
        self._c_created = registry.counter("server.pool.created")
        self._c_reused = registry.counter("server.pool.reused")

    @staticmethod
    def _key(
        database: ConstraintDatabase, decomposition: str, spatial_name: str
    ) -> tuple:
        return (
            database_fingerprint(database), decomposition, spatial_name
        )

    def checkout(
        self,
        database: ConstraintDatabase,
        decomposition: str = "arrangement",
        spatial_name: str = "S",
    ) -> QueryEngine:
        """An engine for this database — warm if one is idle."""
        key = self._key(database, decomposition, spatial_name)
        with self._lock:
            idle = self._idle.get(key)
            if idle:
                self._c_reused.inc()
                return idle.pop()
        self._c_created.inc()
        return QueryEngine(
            database,
            decomposition,
            spatial_name,
            cache=self.cache,
            config=self.config,
        )

    def checkin(self, engine: QueryEngine) -> None:
        """Return an engine to the idle set (bounded per key)."""
        key = (
            engine.fingerprint, engine.decomposition, engine.spatial_name
        )
        with self._lock:
            idle = self._idle.setdefault(key, [])
            if len(idle) < self.max_idle_per_key:
                idle.append(engine)

    def stats(self) -> dict[str, object]:
        with self._lock:
            idle = {key[0][:12]: len(v) for key, v in self._idle.items()}
        return {
            "created": self._c_created.value,
            "reused": self._c_reused.value,
            "idle": idle,
            "engine_cache": self.cache.stats(),
        }
