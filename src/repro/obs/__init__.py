"""repro.obs — observability: spans, metrics and the event journal.

The subsystem has three layers, all with near-zero cost while idle:

* :mod:`repro.obs.metrics` — named counters in (possibly nested)
  registries; the process-wide registry aggregates everything
  (``get_registry().snapshot("lp.")`` reads the LP counters,
  ``Evaluator.metrics.snapshot()`` one evaluator's).
* :mod:`repro.obs.tracing` — a span tree recorded by the process-wide
  :data:`TRACER`, disabled by default; ``repro profile`` and the
  ``--trace`` CLI flag turn it on around one command.
* :mod:`repro.obs.telemetry` — the distribution layer: thread-safe
  histograms (log-spaced buckets, exact count/sum) with optional
  low-cardinality labels, and the Prometheus text renderer behind
  ``GET /metrics`` / ``repro metrics`` (gauges are read from live state
  at render time); :mod:`repro.obs.slowlog` holds the bounded
  slow-query JSONL that auto-captures EXPLAIN ANALYZE.
* :mod:`repro.obs.journal` — the flight recorder: a bounded ring buffer
  of typed events (span open/close, cache and store decisions, fixpoint
  stage summaries), optionally streamed to JSONL via
  ``--journal PATH`` / ``REPRO_JOURNAL``; :func:`~repro.obs.journal.\
  replay` folds a journal back into the exact span tree, which is what
  ``repro explain --analyze`` consumes.

Subsystems register their counters here on first use; the disk
warm-start layer (:mod:`repro.store`) contributes ``store.hits`` /
``store.misses`` / ``store.writes`` / ``store.corrupt_entries`` /
``store.evictions`` plus aggregate ``store.load`` / ``store.save``
spans, all visible in the ``repro profile`` dump.

:func:`reset_all` returns every layer to its pristine state; the CLI
entry point calls it so back-to-back ``repro.cli.main()`` invocations
in one process (the test suite, notebook sessions) cannot leak
counters, open traces or journal buffers into each other.
"""

from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    get_registry,
    metrics_snapshot,
    reset_metrics,
)
from repro.obs.telemetry import (
    ALLOWED_LABELS,
    DEFAULT_BUCKETS,
    Histogram,
    TelemetryRegistry,
    get_telemetry,
    quantile,
    render_prometheus,
    reset_telemetry,
)
from repro.obs.slowlog import (
    ENV_SLOW_LOG,
    SlowQueryLog,
    load_slow_log,
)
from repro.obs.tracing import (
    NULL_SPAN,
    Span,
    TRACER,
    Tracer,
    span,
    traced,
    tracing_enabled,
)
from repro.obs.journal import (
    JOURNAL,
    Journal,
    ReplayResult,
    journal_context,
    journal_enabled,
    journal_scope,
    load_events,
    replay,
)


def reset_all() -> None:
    """Reset spans, metrics and the journal to their pristine state.

    Zeroes every process-wide counter, discards any trace collection in
    progress, and clears the journal ring (detaching its sink).  The
    engine caches (:mod:`repro.engine`, :mod:`repro.store`) are *not*
    touched — they are cross-invocation state by design.
    """
    reset_metrics()
    reset_telemetry()
    TRACER.hard_reset()
    JOURNAL.reset()


__all__ = [
    "Counter",
    "MetricsRegistry",
    "get_registry",
    "metrics_snapshot",
    "reset_metrics",
    "ALLOWED_LABELS",
    "DEFAULT_BUCKETS",
    "Histogram",
    "TelemetryRegistry",
    "get_telemetry",
    "quantile",
    "render_prometheus",
    "reset_telemetry",
    "ENV_SLOW_LOG",
    "SlowQueryLog",
    "load_slow_log",
    "NULL_SPAN",
    "Span",
    "TRACER",
    "Tracer",
    "span",
    "traced",
    "tracing_enabled",
    "JOURNAL",
    "Journal",
    "ReplayResult",
    "journal_context",
    "journal_enabled",
    "journal_scope",
    "load_events",
    "replay",
    "reset_all",
]
