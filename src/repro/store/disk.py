"""Content-addressed on-disk persistence for engine artifacts.

A :class:`DiskStore` maps ``(kind, key)`` pairs — keys are the SHA-256
content digests of :mod:`repro.store.codec` — to verified envelope
files::

    <root>/v1/arrangement/ab/abcdef….json
    <root>/v1/lineage/c0/c0ffee….json
    <root>/quarantine/…                    # corrupted entries, kept

Design rules (the same trust model as the LP filter: fast when right,
never wrong):

* **atomic writes** — entries are written to a temporary file in the
  same directory and ``os.replace``-d into place, so readers never see
  a half-written entry, even across concurrent processes;
* **verified reads** — every load re-checks the envelope checksum and
  schema version; any mismatch (truncation, bit flip, version bump)
  *quarantines* the entry — it is moved aside into ``quarantine/`` for
  post-mortems, ``store.corrupt_entries`` is incremented, and the load
  reports a miss so the caller rebuilds from scratch.  A corrupted
  entry can cost time, never correctness;
* **bounded size** — with a ``size_budget`` (bytes), every save evicts
  least-recently-used entries (loads refresh an entry's mtime) until
  the store fits the budget again, counting ``store.evictions``;
* **observable** — ``store.hits`` / ``store.misses`` / ``store.writes``
  / ``store.corrupt_entries`` / ``store.evictions`` counters in the
  process registry, plus aggregate ``store.load`` / ``store.save``
  spans visible in ``repro profile`` and ``--trace`` output.

The store layout is versioned by the codec schema, so a codec bump
simply starts a fresh subtree instead of misreading old entries.
"""

from __future__ import annotations

import itertools
import os
import pathlib
import threading

from repro.obs.journal import JOURNAL
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.telemetry import get_telemetry
from repro.obs.tracing import TRACER
from repro.store import codec

#: Latency distributions of store round trips, bound once like the
#: counters (one histogram observe per load/save — disk I/O dwarfs it).
_H_LOAD_SECONDS = get_telemetry().histogram("store.load_seconds")
_H_SAVE_SECONDS = get_telemetry().histogram("store.save_seconds")


class DiskStore:
    """A verified, content-addressed artifact cache on local disk."""

    def __init__(
        self,
        root: "str | os.PathLike[str]",
        size_budget: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.root = pathlib.Path(root).expanduser()
        if size_budget is not None and size_budget <= 0:
            raise ValueError("size_budget must be positive (bytes)")
        self.size_budget = size_budget
        self.root.mkdir(parents=True, exist_ok=True)
        # One store may be shared by many engines across threads (the
        # server pool): writes stay atomic per-file via os.replace, but
        # temp-name allocation, quarantine moves and LRU eviction are
        # serialised so interleaved save/load from two engines can never
        # collide on a temp file or double-evict.
        self._mutate_lock = threading.Lock()
        self._temp_seq = itertools.count()
        registry = metrics if metrics is not None else get_registry()
        self._c_hits = registry.counter("store.hits")
        self._c_misses = registry.counter("store.misses")
        self._c_writes = registry.counter("store.writes")
        self._c_corrupt = registry.counter("store.corrupt_entries")
        self._c_evictions = registry.counter("store.evictions")

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def entries_root(self) -> pathlib.Path:
        """The schema-versioned subtree holding all current entries."""
        return self.root / f"v{codec.SCHEMA_VERSION}"

    @property
    def quarantine_root(self) -> pathlib.Path:
        return self.root / "quarantine"

    def entry_path(self, kind: str, key: str) -> pathlib.Path:
        if kind not in codec.KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}")
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"keys must be hex digests, got {key!r}")
        return self.entries_root / kind / key[:2] / f"{key}.json"

    def _entry_files(self) -> list[pathlib.Path]:
        if not self.entries_root.exists():
            return []
        return [
            path
            for path in self.entries_root.glob("*/*/*.json")
            if path.is_file()
        ]

    # ------------------------------------------------------------------
    # Load / save
    # ------------------------------------------------------------------
    def load(self, kind: str, key: str) -> object | None:
        """The decoded artifact, or ``None`` on miss *or* corruption.

        Corruption (unreadable file, checksum mismatch, foreign schema
        version) quarantines the entry and reports a miss, so callers
        always rebuild instead of trusting damaged bytes.
        """
        path = self.entry_path(kind, key)
        with _H_LOAD_SECONDS.time(), \
                TRACER.span("store.load", aggregate=True) as span:
            span.set("kind", kind)
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                self._c_misses.inc()
                span.add("misses", 1)
                self._journal(kind, key, "miss")
                return None
            except OSError:
                self._c_misses.inc()
                span.add("misses", 1)
                self._journal(kind, key, "miss")
                return None
            try:
                artifact = codec.loads(kind, data)
            except codec.CodecError:
                self._quarantine(path, kind)
                self._c_corrupt.inc()
                self._c_misses.inc()
                span.add("corrupt", 1)
                self._journal(kind, key, "corrupt")
                return None
            self._c_hits.inc()
            span.add("hits", 1)
            span.add("bytes", len(data))
            self._journal(kind, key, "hit")
            self._touch(path)
            return artifact

    def save(self, kind: str, key: str, obj: object) -> pathlib.Path:
        """Write one artifact atomically; returns the entry path."""
        path = self.entry_path(kind, key)
        with _H_SAVE_SECONDS.time(), \
                TRACER.span("store.save", aggregate=True) as span:
            span.set("kind", kind)
            data = codec.dumps(kind, obj)
            path.parent.mkdir(parents=True, exist_ok=True)
            temp = path.parent / (
                f".{key}.{os.getpid()}.{next(self._temp_seq)}.tmp"
            )
            try:
                temp.write_bytes(data)
                os.replace(temp, path)
            finally:
                if temp.exists():  # pragma: no cover - crash-path cleanup
                    try:
                        temp.unlink()
                    except OSError:
                        pass
            self._c_writes.inc()
            span.add("bytes", len(data))
            self._journal(kind, key, "write")
            if self.size_budget is not None:
                with self._mutate_lock:
                    self._evict()
        return path

    @staticmethod
    def _journal(kind: str, key: str, outcome: str) -> None:
        """One ``cache`` journal event per load/save decision."""
        if JOURNAL.enabled:
            JOURNAL.emit(
                "cache", layer="store", kind=kind,
                outcome=outcome, key=key[:12],
            )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _touch(self, path: pathlib.Path) -> None:
        """Refresh an entry's recency stamp (the LRU ordering key)."""
        try:
            os.utime(path, None)
        except OSError:  # pragma: no cover - read-only stores still work
            pass

    def _quarantine(self, path: pathlib.Path, kind: str) -> None:
        """Move a damaged entry aside (kept for inspection, never reused)."""
        with self._mutate_lock:
            self.quarantine_root.mkdir(parents=True, exist_ok=True)
            base = f"{kind}-{path.name}"
            target = self.quarantine_root / base
            suffix = 0
            while target.exists():
                suffix += 1
                target = self.quarantine_root / f"{base}.{suffix}"
            try:
                os.replace(path, target)
            except OSError:  # pragma: no cover - concurrent quarantine
                try:
                    path.unlink()
                except OSError:
                    pass

    def _evict(self) -> int:
        """Drop least-recently-used entries until the budget fits."""
        assert self.size_budget is not None
        files = self._entry_files()
        sized = []
        total = 0
        for path in files:
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - racing process
                continue
            sized.append((stat.st_mtime, str(path), path, stat.st_size))
            total += stat.st_size
        if total <= self.size_budget:
            return 0
        evicted = 0
        # Oldest first; the newest entry is never evicted, so a budget
        # smaller than one entry degrades to "keep only the latest".
        sized.sort()
        for __, __, path, size in sized[:-1]:
            if total <= self.size_budget:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing process
                continue
            total -= size
            evicted += 1
        if evicted:
            self._c_evictions.inc(evicted)
        return evicted

    def stats(self) -> dict[str, int]:
        """Counter values plus the current entry census."""
        files = self._entry_files()
        total = 0
        for path in files:
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - racing process
                continue
        return {
            "hits": self._c_hits.value,
            "misses": self._c_misses.value,
            "writes": self._c_writes.value,
            "corrupt_entries": self._c_corrupt.value,
            "evictions": self._c_evictions.value,
            "entries": len(files),
            "bytes": total,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        budget = (
            f", budget={self.size_budget}" if self.size_budget else ""
        )
        return f"DiskStore({str(self.root)!r}{budget})"
