"""Persistent, content-addressed artifact store (disk warm-start).

The package has two halves:

* :mod:`repro.store.codec` — versioned, checksummed, deterministic
  serialisation of arrangements and constraint relations;
* :mod:`repro.store.disk` — :class:`DiskStore`, the atomic/verified/
  LRU-bounded on-disk cache those envelopes live in.

Process-wide resolution mirrors the LP-mode knob: an explicit
argument (``EngineConfig(cache_dir=…)``, ``--cache-dir``) wins, then the
``REPRO_CACHE_DIR`` environment variable (with ``REPRO_CACHE_BUDGET``
bytes for the LRU limit), then no persistence at all.  Subprocesses
inherit ``REPRO_CACHE_DIR`` through the environment, so a warm parent
store also warms its children.

    >>> from repro.store import store_scope
    >>> with store_scope("/tmp/repro-cache"):
    ...     engine.evaluate(query)   # A(S) loads from disk in a later process
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.store import codec
from repro.store.codec import (
    CodecError,
    SCHEMA_VERSION,
    arrangement_key,
    lineage_key,
)
from repro.store.disk import DiskStore
from repro.store.lineage import LineageRecord

__all__ = [
    "CodecError",
    "DiskStore",
    "LineageRecord",
    "SCHEMA_VERSION",
    "active_store",
    "arrangement_key",
    "codec",
    "configure_store",
    "lineage_key",
    "resolve_store",
    "store_at",
    "store_scope",
]

#: Environment variable naming the cache directory (inherited by
#: subprocesses).
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Environment variable giving the LRU size budget in bytes.
ENV_CACHE_BUDGET = "REPRO_CACHE_BUDGET"

# Explicit override (set by the CLI); None means "no override — fall
# through to the environment".  Context-local so concurrent engines
# (server worker threads) can each pin their own store without racing
# on a shared global; ``asyncio.to_thread`` copies the context, so a
# scope entered on the event loop is visible inside request threads.
_configured: ContextVar["DiskStore | None"] = ContextVar(
    "repro_store_configured", default=None
)

# One DiskStore per (resolved path, budget) so counters and eviction
# state are shared by every engine in the process.
_instances: dict[tuple[str, int | None], DiskStore] = {}


def _env_budget() -> int | None:
    raw = os.environ.get(ENV_CACHE_BUDGET, "").strip()
    if not raw:
        return None
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_CACHE_BUDGET} must be an integer byte count, got {raw!r}"
        ) from None
    return budget if budget > 0 else None


def store_at(path: "str | os.PathLike[str]",
             size_budget: int | None = None) -> DiskStore:
    """The shared :class:`DiskStore` for a directory (one per process)."""
    resolved = os.path.abspath(os.path.expanduser(os.fspath(path)))
    key = (resolved, size_budget)
    store = _instances.get(key)
    if store is None:
        store = DiskStore(resolved, size_budget=size_budget)
        _instances[key] = store
    return store


def resolve_store(
    target: "DiskStore | str | os.PathLike[str] | None",
    size_budget: int | None = None,
) -> DiskStore | None:
    """Normalise a ``cache_dir``-style argument to a store (or None).

    ``size_budget`` pins the LRU byte budget explicitly (the
    :class:`~repro.config.EngineConfig` path); ``None`` keeps the
    legacy behaviour of consulting ``REPRO_CACHE_BUDGET``.
    """
    if target is None:
        return None
    if isinstance(target, DiskStore):
        return target
    budget = size_budget if size_budget is not None else _env_budget()
    return store_at(target, size_budget=budget)


def active_store() -> DiskStore | None:
    """The store the engine should use right now.

    Resolution order: :func:`configure_store` override, then the
    ``REPRO_CACHE_DIR`` environment variable, then ``None`` (no
    persistence).
    """
    configured = _configured.get()
    if configured is not None:
        return configured
    path = os.environ.get(ENV_CACHE_DIR, "").strip()
    if not path:
        return None
    return store_at(path, size_budget=_env_budget())


def configure_store(
    target: "DiskStore | str | os.PathLike[str] | None",
) -> DiskStore | None:
    """Set the store override for this context; returns the previous one.

    Passing ``None`` clears the override, so ``REPRO_CACHE_DIR``
    resolution applies again.
    """
    previous = _configured.get()
    _configured.set(resolve_store(target))
    return previous


@contextmanager
def store_scope(
    target: "DiskStore | str | os.PathLike[str] | None",
) -> Iterator[DiskStore | None]:
    """Temporarily pin the store for the current context (the CLI's
    entry point).

    ``None`` is a no-op scope: the environment fallback stays live, so
    wrapping every CLI dispatch in ``store_scope(args.cache_dir)`` is
    safe whether or not ``--cache-dir`` was given.  The pin is
    context-local: engines scoping their own pinned stores on worker
    threads never clobber each other (or the main thread).
    """
    token = _configured.set(resolve_store(target))
    try:
        yield active_store()
    finally:
        _configured.reset(token)
