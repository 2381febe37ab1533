"""Structured event journal — the engine's flight recorder.

The span tree (:mod:`repro.obs.tracing`) and the counter registry
(:mod:`repro.obs.metrics`) answer *where did the time go* and *how much
work happened* as aggregates; the journal records *what the run did*,
in order, as a stream of typed events:

=================  ====================================================
event type         payload (beyond ``seq`` / ``t`` / ``type``)
=================  ====================================================
``trace.begin``    ``id``, ``name`` — a tracer collection started
``span.open``      ``id``, ``parent``, ``name``, ``aggregate``,
                   ``attrs`` — a span opened under ``parent``
``span.close``     ``id``, ``wall_s``, ``calls``, ``attrs`` — the span
                   finished (final attributes)
``trace.end``      ``id``, ``wall_s`` — the collection's root closed
``cache``          ``layer`` (``engine`` | ``store``), ``kind``,
                   ``outcome`` (``hit`` | ``miss`` | ``write`` |
                   ``corrupt``), ``key`` — one cache/store decision
``fixpoint.stage``  ``operator``, ``stage``, ``size``, ``delta`` — one
                   stage of a region fixpoint induction
``datalog.stage``  ``strategy``, ``stage``, ``deltas`` — per-predicate
                   delta disjunct counts of one semi-naive stage
``meta``           free-form (command lines, bench headers, …)
=================  ====================================================

Events land in a bounded in-memory ring buffer (old events are dropped,
counted in :attr:`Journal.dropped`) and are optionally streamed to a
JSONL sink — one JSON object per line — selected by ``--journal PATH``
on the CLI or the ``REPRO_JOURNAL`` environment variable.

:func:`replay` inverts the stream: it folds the ``trace.begin`` /
``span.open`` / ``span.close`` / ``trace.end`` events back into the
exact :class:`~repro.obs.tracing.Span` tree the tracer built (including
aggregate merging, in the original adoption order), which is what
``repro explain --analyze`` renders and the tests compare
byte-for-byte against the live tree.

The journal is **disabled by default**: every emit site guards on one
attribute check, and with no sink attached an enabled journal costs one
dict build plus one deque append per event — the overhead budget on the
BENCH_E2 fast path is measured in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import IO, Any, Iterable, Iterator

from repro.obs.tracing import Span

#: Environment variable naming the JSONL sink path (the CLI's
#: ``--journal`` flag overrides it).
ENV_JOURNAL = "REPRO_JOURNAL"

#: Default ring-buffer capacity (events).  An ``--analyze`` run emits
#: two events per span context, so this comfortably holds the complete
#: record of the example workloads while bounding memory.
DEFAULT_CAPACITY = 262_144

#: Ambient event fields for the current task/thread (see
#: :func:`journal_context`).  A tuple of ``(key, value)`` pairs so the
#: default is immutable and nesting is a cheap concatenation.
_CONTEXT: contextvars.ContextVar[tuple[tuple[str, Any], ...]] = (
    contextvars.ContextVar("repro_journal_context", default=())
)


@contextmanager
def journal_context(**fields: Any) -> Iterator[None]:
    """Stamp every event emitted in this block with extra fields.

    The binding lives in a :mod:`contextvars` variable, so it follows
    ``asyncio`` tasks and ``asyncio.to_thread`` workers but never leaks
    between concurrent requests — this is how the server turns the one
    process-global journal into a **per-request audit log**: each
    request handler wraps its work in
    ``journal_context(request="req-000042", tenant=...)`` and every
    cache/store/span event it causes carries those fields.  Explicit
    ``emit`` fields win over context fields on name clashes; nested
    contexts stack (inner wins).
    """
    token = _CONTEXT.set(_CONTEXT.get() + tuple(fields.items()))
    try:
        yield
    finally:
        _CONTEXT.reset(token)


class Journal:
    """A bounded ring buffer of typed events with an optional JSONL sink."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("journal capacity must be positive")
        self.enabled = False
        self.capacity = capacity
        #: Events evicted from the ring since the last :meth:`reset`.
        self.dropped = 0
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._seq = itertools.count()
        self._t0 = 0.0
        self._sink: IO[str] | None = None
        self._sink_path: str | None = None
        self._owns_sink = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, sink: "IO[str] | str | None" = None) -> "Journal":
        """Begin recording; ``sink`` streams events to JSONL as well.

        ``sink`` may be a path (opened in append mode, closed by
        :meth:`stop`) or an open text file object (left open).  Returns
        the journal itself so ``with JOURNAL.start(...):`` scopes a
        recording.
        """
        self.reset()
        if isinstance(sink, str):
            self._sink = open(sink, "a")
            self._sink_path = sink
            self._owns_sink = True
        elif sink is not None:
            self._sink = sink
            self._owns_sink = False
        self._t0 = time.perf_counter()
        self.enabled = True
        return self

    def stop(self) -> list[dict]:
        """End recording; flush/close an owned sink; return the events."""
        self.enabled = False
        events = list(self._ring)
        sink = self._sink
        if sink is not None:
            try:
                sink.flush()
                if self._owns_sink:
                    sink.close()
            finally:
                self._sink = None
                self._sink_path = None
                self._owns_sink = False
        return events

    def reset(self) -> None:
        """Drop all buffered events and restart the sequence numbers.

        Also detaches (closing, if owned) any attached sink; used by
        :func:`repro.obs.reset_all` to make CLI invocations hermetic.
        """
        was_enabled = self.enabled
        self.stop()
        self.enabled = was_enabled and False
        self._ring.clear()
        self._seq = itertools.count()
        self.dropped = 0

    def __enter__(self) -> "Journal":
        if not self.enabled:
            self.start()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        if self.enabled:
            self.stop()
        return False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def emit(self, type_: str, **fields: Any) -> None:
        """Append one event (no-op unless the journal is enabled)."""
        if not self.enabled:
            return
        event = {
            "seq": next(self._seq),
            "t": round(time.perf_counter() - self._t0, 6),
            "type": type_,
        }
        context = _CONTEXT.get()
        if context:
            event.update(context)
        event.update(fields)
        ring = self._ring
        if len(ring) == self.capacity:
            self.dropped += 1
        ring.append(event)
        sink = self._sink
        if sink is not None:
            with self._lock:
                sink.write(json.dumps(event, default=str) + "\n")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def events(self, type_: str | None = None) -> list[dict]:
        """The buffered events (optionally filtered by type), in order."""
        if type_ is None:
            return list(self._ring)
        return [event for event in self._ring if event["type"] == type_]

    @property
    def sink_path(self) -> str | None:
        return self._sink_path

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"Journal({state}, events={len(self._ring)})"


#: The process-wide journal (disabled by default).
JOURNAL = Journal()

# The tracer mirrors span open/close into the journal; registration goes
# this way round because the replay below builds tracer Span trees.
from repro.obs import tracing as _tracing  # noqa: E402

_tracing._attach_journal(JOURNAL)


def journal_enabled() -> bool:
    return JOURNAL.enabled


def emit(type_: str, **fields: Any) -> None:
    """Module-level shortcut for ``JOURNAL.emit``."""
    if JOURNAL.enabled:
        JOURNAL.emit(type_, **fields)


@contextmanager
def journal_scope(sink: "IO[str] | str | None" = None) -> Iterator[Journal]:
    """Record into the process journal for the duration of a block."""
    JOURNAL.start(sink)
    try:
        yield JOURNAL
    finally:
        JOURNAL.stop()


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def load_events(path: str) -> list[dict]:
    """Parse a JSONL journal file back into its event dicts."""
    events: list[dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


class ReplayResult:
    """Outcome of :func:`replay`: reconstructed span trees + the rest."""

    def __init__(
        self,
        roots: list[Span],
        open_spans: list[Span],
        events: list[dict],
    ) -> None:
        #: Completed trace roots, in ``trace.end`` order.
        self.roots = roots
        #: Spans opened but never closed in the event stream.
        self.open_spans = open_spans
        #: The full event list the replay consumed.
        self.events = events

    @property
    def root(self) -> Span | None:
        """The last completed trace root (the usual single collection)."""
        return self.roots[-1] if self.roots else None

    def events_of_type(self, type_: str) -> list[dict]:
        return [event for event in self.events if event["type"] == type_]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplayResult(roots={len(self.roots)}, "
            f"events={len(self.events)})"
        )


def replay(source: "str | Iterable[dict]") -> ReplayResult:
    """Reconstruct the span tree(s) recorded in a journal.

    ``source`` is a JSONL path or an iterable of event dicts.  The fold
    re-applies exactly the tracer's own algorithm — children are adopted
    into their recorded parent at ``span.close`` time, aggregates merge
    by name — so for a complete single-threaded recording the result's
    :attr:`~ReplayResult.root` satisfies ``root.to_dict() ==
    live_root.to_dict()`` byte-for-byte.
    """
    events = load_events(source) if isinstance(source, str) else list(source)
    live: dict[int, tuple[Span, int | None, bool]] = {}
    roots: list[Span] = []
    for event in events:
        kind = event["type"]
        if kind == "trace.begin":
            span = Span(event["name"])
            live[event["id"]] = (span, None, False)
        elif kind == "span.open":
            span = Span(event["name"], **event.get("attrs", {}))
            live[event["id"]] = (
                span, event.get("parent"), bool(event.get("aggregate"))
            )
        elif kind == "span.close":
            entry = live.pop(event["id"], None)
            if entry is None:
                continue  # opened before the ring's horizon
            span, parent_id, aggregate = entry
            span.wall_s = event["wall_s"]
            span.calls = event.get("calls", 1)
            span.attrs = dict(event.get("attrs", {}))
            parent = live.get(parent_id) if parent_id is not None else None
            if parent is not None:
                parent[0].adopt(span, aggregate)
            else:
                roots.append(span)  # orphan: surface it as its own root
        elif kind == "trace.end":
            entry = live.pop(event["id"], None)
            if entry is None:
                continue
            span, __, __ = entry
            span.wall_s = event["wall_s"]
            roots.append(span)
    open_spans = [span for span, __, __ in live.values()]
    return ReplayResult(roots, open_spans, events)
