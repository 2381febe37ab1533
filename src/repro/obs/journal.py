"""Structured event journal — the engine's flight recorder.

The span tree (:mod:`repro.obs.tracing`) and the counter registry
(:mod:`repro.obs.metrics`) answer *where did the time go* and *how much
work happened* as aggregates; the journal records *what the run did*,
in order, as a stream of typed events:

=================  ====================================================
event type         payload (beyond ``seq`` / ``t`` / ``type``)
=================  ====================================================
``span.open``      ``id``, ``parent``, ``name``, ``key``,
                   ``aggregate``, ``attrs`` — a span opened under
                   ``parent`` (``null`` for a collection's root)
``span.close``     ``id``, ``wall_s``, ``calls``, ``attrs`` — the span
                   finished (final attributes)
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

:func:`repro.obs.tracing.replay` inverts the stream: it folds the
``span.open`` / ``span.close`` events back into the exact
:class:`~repro.obs.tracing.Span` tree the tracer built, through the
same fold the tracer builds it with live (so also for spans closed on
several threads); the tests compare the two byte-for-byte.

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
from typing import IO, Any, Iterator

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
    def start(self, sink: "IO[str] | str | None" = None) -> None:
        """Begin recording; ``sink`` streams events to JSONL as well.

        ``sink`` may be a path (opened in append mode, closed by
        :meth:`stop`) or an open text file object (left open);
        :func:`journal_scope` scopes a recording to a block.
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
        self.stop()
        self._ring.clear()
        self._seq = itertools.count()
        self.dropped = 0

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
    def events(self) -> list[dict]:
        """The buffered events, in order."""
        return list(self._ring)

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


def journal_enabled() -> bool:
    return JOURNAL.enabled


@contextmanager
def journal_scope(sink: "IO[str] | str | None" = None) -> Iterator[Journal]:
    """Record into the process journal for the duration of a block."""
    JOURNAL.start(sink)
    try:
        yield JOURNAL
    finally:
        JOURNAL.stop()


# ----------------------------------------------------------------------
# Reading a journal back (:func:`repro.obs.tracing.replay` folds it)
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
