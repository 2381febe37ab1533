"""Distribution-aware telemetry: histograms, gauges, labels, SLOs.

:mod:`repro.obs.metrics` gives the engine monotone counters — enough to
know *how many* LP solves a query cost, useless for knowing whether the
p99 request latency just doubled.  This module adds the production
layer on top of the same registry idiom:

* :class:`Histogram` — thread-safe, fixed log-spaced buckets plus an
  exact ``count``/``sum``, with p50/p90/p99 estimation by linear
  interpolation inside the winning bucket (the standard
  ``histogram_quantile`` rule);
* :class:`Gauge` — a thread-safe instantaneous value (in-flight
  requests, queue depths);
* :class:`TelemetryRegistry` — families of histograms/gauges keyed by
  name plus an optional **low-cardinality** label set.  Only the label
  keys in :data:`ALLOWED_LABELS` (``tenant``, ``endpoint``,
  ``executor``, ``lp_mode``) are accepted, and a family folds into its
  unlabeled aggregate series once it holds :data:`MAX_SERIES_PER_NAME`
  distinct label sets — an unbounded tenant id can never explode the
  registry;
* :func:`render_prometheus` — the text exposition format served by
  ``GET /metrics`` and printed by ``repro metrics``;
* :class:`SloTracker` — per-tenant rolling multi-window burn rates
  against a latency/error objective, surfaced in ``/v1/stats``;
* :func:`quantile` — the one nearest-rank quantile implementation
  over raw samples (perfbench's tail latencies use it).
"""

from __future__ import annotations

import math
import threading
import time as _time
from bisect import bisect_left
from collections import deque
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from typing import Iterator

#: Label keys a series may carry.  Everything here is low-cardinality by
#: construction (endpoints and modes are finite; tenants are admission-
#: controlled) — anything else is rejected at call time.
ALLOWED_LABELS = frozenset({"tenant", "endpoint", "executor", "lp_mode"})

#: Distinct label sets one family may hold before further label sets
#: fold into the family's unlabeled aggregate series.
MAX_SERIES_PER_NAME = 64

#: Default log-spaced latency buckets, in seconds: 100 µs doubling up to
#: ~14 minutes.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(1e-4 * 2**i for i in range(24))


def _check_labels(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    """Validate and canonicalise a label mapping to a sorted tuple."""
    if not labels:
        return ()
    bad = set(labels) - ALLOWED_LABELS
    if bad:
        raise ValueError(
            f"disallowed metric label(s) {sorted(bad)}; "
            f"allowed: {sorted(ALLOWED_LABELS)}"
        )
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of raw samples (``q`` in ``[0, 1]``);
    ``0.0`` for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def bucket_quantile(
    uppers: Sequence[float], cumulative: Sequence[int], q: float
) -> float:
    """Estimate a quantile from cumulative bucket counts.

    ``uppers`` are the finite bucket upper bounds; ``cumulative`` has one
    extra final entry for the ``+Inf`` overflow bucket (exactly the
    shape of Prometheus ``_bucket{le=...}`` series).  Linear
    interpolation inside the winning bucket; the overflow bucket clamps
    to the largest finite bound.
    """
    if len(cumulative) != len(uppers) + 1:
        raise ValueError("cumulative must have one entry per bucket plus +Inf")
    total = cumulative[-1]
    if total <= 0:
        return 0.0
    rank = q * total
    lower = 0.0
    prev = 0
    for upper, cum in zip(uppers, cumulative):
        if cum >= rank and cum > prev:
            fraction = (rank - prev) / (cum - prev)
            return lower + (upper - lower) * max(0.0, min(1.0, fraction))
        lower, prev = upper, cum
    return uppers[-1]


class Histogram:
    """A thread-safe histogram: fixed buckets plus exact count and sum.

    ``observe`` is the hot-path operation: one lock, one linear bucket
    scan bounded by the fixed bucket count (the common sub-millisecond
    observations resolve in the first few comparisons).  ``count`` and
    ``sum`` are exact — only the quantiles are bucket estimates.
    """

    __slots__ = ("name", "labels", "buckets", "_counts", "count", "sum", "_lock")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        ordered = tuple(float(b) for b in buckets)
        if not ordered or any(
            b <= a for a, b in zip(ordered, ordered[1:])
        ) or any(not math.isfinite(b) or b <= 0 for b in ordered):
            raise ValueError("buckets must be finite, positive and increasing")
        self.name = name
        self.labels = labels
        self.buckets = ordered
        self._counts = [0] * (len(ordered) + 1)  # final slot = +Inf overflow
        self.count = 0
        self.sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # bisect_left finds the first bucket with upper >= value (C
        # speed); a value past the last bound lands on the overflow
        # slot.  This is the hot path — one bisect, one lock, three
        # increments — and the E2 overhead measurement in
        # docs/OBSERVABILITY.md holds it to the ≤2 % budget.
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.sum += value

    @contextmanager
    def time(self) -> Iterator[None]:
        """Observe the wall-clock duration of the ``with`` body, in seconds."""
        started = _time.perf_counter()
        try:
            yield
        finally:
            self.observe(_time.perf_counter() - started)

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts, one extra final entry for ``+Inf``."""
        with self._lock:
            counts = list(self._counts)
        out, running = [], 0
        for c in counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (``q`` in ``[0, 1]``)."""
        return bucket_quantile(self.buckets, self.cumulative(), q)

    def percentiles(self) -> dict[str, float]:
        """The standard trio: estimated p50/p90/p99, in the observed unit."""
        cumulative = self.cumulative()
        return {
            "p50": bucket_quantile(self.buckets, cumulative, 0.50),
            "p90": bucket_quantile(self.buckets, cumulative, 0.90),
            "p99": bucket_quantile(self.buckets, cumulative, 0.99),
        }

    def reset(self) -> None:
        with self._lock:
            for i in range(len(self._counts)):
                self._counts[i] = 0
            self.count = 0
            self.sum = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram({self.name}{_label_suffix(self.labels)} "
            f"count={self.count} sum={self.sum:.6g})"
        )


class Gauge:
    """A thread-safe instantaneous value (set / inc / dec)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(
        self, name: str, labels: tuple[tuple[str, str], ...] = ()
    ) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @contextmanager
    def track(self) -> Iterator[None]:
        """Increment for the duration of the ``with`` body (in-flight counts)."""
        self.inc()
        try:
            yield
        finally:
            self.dec()

    def reset(self) -> None:
        self.set(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}{_label_suffix(self.labels)}={self.value})"


class TelemetryRegistry:
    """Families of histograms and gauges, keyed by name + label set.

    Mirrors :class:`~repro.obs.metrics.MetricsRegistry`'s create-on-
    first-use contract.  Label keys are validated against
    :data:`ALLOWED_LABELS`; a family that reaches
    :data:`MAX_SERIES_PER_NAME` distinct label sets silently folds new
    label sets into its unlabeled aggregate series, so a hostile label
    value degrades precision, never memory.
    """

    def __init__(self) -> None:
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, Gauge] = {}
        self._family_sizes: dict[str, int] = {}
        self._lock = threading.Lock()

    def _series_key(self, name: str, labels: tuple[tuple[str, str], ...]) -> str:
        return name + _label_suffix(labels)

    def _admit_labels(
        self, name: str, labels: tuple[tuple[str, str], ...], table: dict
    ) -> tuple[tuple[str, str], ...]:
        if not labels:
            return labels
        if self._series_key(name, labels) in table:
            return labels
        if self._family_sizes.get(name, 0) >= MAX_SERIES_PER_NAME:
            return ()
        return labels

    def histogram(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """The histogram series for this name + label set, created on first use."""
        canonical = _check_labels(labels)
        with self._lock:
            canonical = self._admit_labels(name, canonical, self._histograms)
            key = self._series_key(name, canonical)
            series = self._histograms.get(key)
            if series is None:
                series = Histogram(name, canonical, buckets)
                self._histograms[key] = series
                self._family_sizes[name] = self._family_sizes.get(name, 0) + 1
            return series

    def gauge(self, name: str, labels: Mapping[str, str] | None = None) -> Gauge:
        """The gauge series for this name + label set, created on first use."""
        canonical = _check_labels(labels)
        with self._lock:
            canonical = self._admit_labels(name, canonical, self._gauges)
            key = self._series_key(name, canonical)
            series = self._gauges.get(key)
            if series is None:
                series = Gauge(name, canonical)
                self._gauges[key] = series
                self._family_sizes[name] = self._family_sizes.get(name, 0) + 1
            return series

    def histograms(self) -> list[Histogram]:
        with self._lock:
            return [self._histograms[k] for k in sorted(self._histograms)]

    def gauges(self) -> list[Gauge]:
        with self._lock:
            return [self._gauges[k] for k in sorted(self._gauges)]

    def reset(self) -> None:
        """Zero every series (series identities survive, like counter reset)."""
        for series in self.histograms():
            series.reset()
        for series in self.gauges():
            series.reset()

    def __len__(self) -> int:
        with self._lock:
            return len(self._histograms) + len(self._gauges)


#: The process-wide default telemetry registry.
_TELEMETRY = TelemetryRegistry()


def get_telemetry() -> TelemetryRegistry:
    """The process-wide telemetry registry (histograms and gauges)."""
    return _TELEMETRY


def reset_telemetry() -> None:
    """Zero the process-wide telemetry registry (test isolation)."""
    _TELEMETRY.reset()


# --------------------------------------------------------------------------
# Prometheus text exposition
# --------------------------------------------------------------------------

def _metric_name(name: str, prefix: str) -> str:
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return prefix + sanitized


def _format_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if value == math.floor(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".12g")


def render_prometheus(
    counters: Mapping[str, int] | None = None,
    telemetry: TelemetryRegistry | None = None,
    prefix: str = "repro_",
) -> str:
    """Render counters plus a telemetry registry in Prometheus text format.

    ``counters`` is a ``{name: value}`` snapshot (e.g.
    :func:`repro.obs.metrics.metrics_snapshot`); ``telemetry`` defaults
    to the process-wide registry.  Counter names gain the conventional
    ``_total`` suffix; histogram series emit cumulative
    ``_bucket{le=...}`` lines (ending in ``le="+Inf"``) plus ``_count``
    and ``_sum``.  Output is sorted, so scrapes are diff-stable.
    """
    registry = telemetry if telemetry is not None else _TELEMETRY
    lines: list[str] = []

    for name in sorted(counters or {}):
        metric = _metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {counters[name]}")

    by_family: dict[str, list[Gauge]] = {}
    for series in registry.gauges():
        by_family.setdefault(series.name, []).append(series)
    for name in sorted(by_family):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        for series in by_family[name]:
            lines.append(
                f"{metric}{_label_suffix(series.labels)} "
                f"{_format_value(series.value)}"
            )

    histo_families: dict[str, list[Histogram]] = {}
    for series in registry.histograms():
        histo_families.setdefault(series.name, []).append(series)
    for name in sorted(histo_families):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        for series in histo_families[name]:
            cumulative = series.cumulative()
            for upper, cum in zip(series.buckets, cumulative):
                labels = dict(series.labels)
                labels["le"] = _format_value(upper)
                suffix = "{" + ",".join(
                    f'{k}="{_escape_label(v)}"' for k, v in labels.items()
                ) + "}"
                lines.append(f"{metric}_bucket{suffix} {cum}")
            labels = dict(series.labels)
            labels["le"] = "+Inf"
            suffix = "{" + ",".join(
                f'{k}="{_escape_label(v)}"' for k, v in labels.items()
            ) + "}"
            lines.append(f"{metric}_bucket{suffix} {cumulative[-1]}")
            base = _label_suffix(series.labels)
            lines.append(f"{metric}_count{base} {cumulative[-1]}")
            lines.append(f"{metric}_sum{base} {_format_value(series.sum)}")

    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# SLO tracking
# --------------------------------------------------------------------------

class SloTracker:
    """Per-tenant rolling multi-window SLO burn rates.

    The objective is joint: a request is *good* when it succeeds (no
    server error) **and** finishes within ``latency_ms``.  ``target`` is
    the fraction of requests that must be good (0.99 → a 1% error
    budget).  The burn rate over a window is the observed bad fraction
    divided by the budget: 1.0 means the budget is being consumed
    exactly at the sustainable rate, >1.0 means faster (the multiwindow
    rule from the SRE workbook — a short window catches fast burns, a
    long one slow leaks).

    :meth:`observe` returns an alert dict exactly when the short-window
    burn rate crosses above 1.0 for a tenant (edge-triggered), which the
    server turns into an ``slo.burn`` journal event.
    """

    def __init__(
        self,
        latency_ms: float,
        target: float = 0.99,
        windows: Sequence[float] = (300.0, 3600.0),
        max_events: int = 4096,
        clock=_time.monotonic,
    ) -> None:
        if latency_ms <= 0:
            raise ValueError("latency_ms must be positive")
        if not 0.0 < target < 1.0:
            raise ValueError("target must be in (0, 1)")
        self.latency_ms = float(latency_ms)
        self.target = float(target)
        self.windows = tuple(sorted(float(w) for w in windows))
        self.max_events = max_events
        self._clock = clock
        self._events: dict[str, deque] = {}
        self._burning: dict[str, bool] = {}
        self._lock = threading.Lock()

    def observe(
        self, tenant: str, wall_ms: float, error: bool = False
    ) -> dict | None:
        """Record one request; returns an alert dict on a fresh fast burn."""
        bad = bool(error) or wall_ms > self.latency_ms
        now = self._clock()
        horizon = now - self.windows[-1]
        with self._lock:
            events = self._events.setdefault(
                tenant, deque(maxlen=self.max_events)
            )
            events.append((now, bad))
            while events and events[0][0] < horizon:
                events.popleft()
            burn = self._burn_rate(events, now, self.windows[0])
            was_burning = self._burning.get(tenant, False)
            burning = burn > 1.0
            self._burning[tenant] = burning
        if burning and not was_burning:
            return {
                "tenant": tenant,
                "window_s": self.windows[0],
                "burn_rate": round(burn, 3),
                "latency_ms": self.latency_ms,
                "target": self.target,
            }
        return None

    def _burn_rate(self, events, now: float, window: float) -> float:
        cutoff = now - window
        total = bad = 0
        for t, is_bad in reversed(events):
            if t < cutoff:
                break
            total += 1
            bad += is_bad
        if total == 0:
            return 0.0
        return (bad / total) / (1.0 - self.target)

    def stats(self) -> dict:
        """Per-tenant windowed totals and burn rates, for ``/v1/stats``."""
        now = self._clock()
        out: dict[str, dict] = {
            "objective": {"latency_ms": self.latency_ms, "target": self.target},
            "tenants": {},
        }
        with self._lock:
            items = [(t, list(ev)) for t, ev in self._events.items()]
        for tenant, events in sorted(items):
            windows = {}
            for window in self.windows:
                cutoff = now - window
                recent = [(t, b) for t, b in events if t >= cutoff]
                bad = sum(b for _, b in recent)
                windows[f"{int(window)}s"] = {
                    "total": len(recent),
                    "breaches": bad,
                    "burn_rate": round(
                        self._burn_rate(events, now, window), 3
                    ),
                }
            out["tenants"][tenant] = {"windows": windows}
        return out
