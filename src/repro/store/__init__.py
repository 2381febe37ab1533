"""Persistent, content-addressed artifact store (disk warm-start).

The package has two halves:

* :mod:`repro.store.codec` — versioned, checksummed, deterministic
  serialisation of arrangements and constraint relations;
* :mod:`repro.store.disk` — :class:`DiskStore`, the atomic/verified/
  LRU-bounded on-disk cache those envelopes live in.

Which store an engine uses is one field of its configuration:
``EngineConfig(cache_dir=…)`` (the CLI's ``--cache-dir``), else the
``REPRO_CACHE_DIR`` environment variable when the config is built (with
``REPRO_CACHE_BUDGET`` bytes for the LRU limit), else no persistence.
The engine passes :meth:`~repro.config.EngineConfig.store` down to
every build and lineage write explicitly; nothing here is ambient.
Subprocesses inherit ``REPRO_CACHE_DIR`` through the environment, so a
warm parent store also warms its children.

    >>> from repro.config import EngineConfig
    >>> engine = QueryEngine(db, config=EngineConfig(cache_dir="/tmp/c"))
    >>> engine.evaluate(query)   # A(S) loads from disk in a later process
"""

from __future__ import annotations

import os

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
    "arrangement_key",
    "codec",
    "lineage_key",
    "resolve_store",
    "store_at",
]

# One DiskStore per (resolved path, budget) so counters and eviction
# state are shared by every engine in the process.
_instances: dict[tuple[str, int | None], DiskStore] = {}


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
    """Normalise a ``cache_dir``-style argument to a store (or None);
    ``size_budget`` is the LRU byte budget of a store opened by path."""
    if target is None:
        return None
    if isinstance(target, DiskStore):
        return target
    return store_at(target, size_budget=size_budget)
