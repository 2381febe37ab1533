"""Distribution-aware telemetry: histograms, labels, Prometheus text.

:mod:`repro.obs.metrics` gives the engine monotone counters — enough to
know *how many* LP solves a query cost, useless for knowing whether the
p99 request latency just doubled.  This module adds the production
layer on top of the same registry idiom:

* :class:`Histogram` — thread-safe, fixed log-spaced buckets plus an
  exact ``count``/``sum``; quantiles are computed from the exposed
  ``_bucket`` series by whoever scrapes them;
* :class:`TelemetryRegistry` — families of histograms keyed by name
  plus an optional **low-cardinality** label set.  Only the label
  keys in :data:`ALLOWED_LABELS` (``tenant``, ``endpoint``,
  ``executor``, ``lp_mode``) are accepted, and a family folds into its
  unlabeled aggregate series once it holds :data:`MAX_SERIES_PER_NAME`
  distinct label sets — an unbounded tenant id can never explode the
  registry;
* :func:`render_prometheus` — the text exposition format served by
  ``GET /metrics`` and printed by ``repro metrics``; gauges are plain
  values the caller reads from live state at render time;
* :func:`quantile` — the one nearest-rank quantile implementation
  over raw samples (perfbench's tail latencies use it).
"""

from __future__ import annotations

import math
import threading
import time as _time
from bisect import bisect_left
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


class Histogram:
    """A thread-safe histogram: fixed buckets plus exact count and sum.

    ``observe`` is the hot-path operation: one bisect over the fixed
    bucket bounds, one lock.  ``count``, ``sum`` and every cumulative
    bucket count are exact, so a bucket bound is an exact threshold:
    ``cumulative()[i]`` observations were at most ``buckets[i]``.
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


class TelemetryRegistry:
    """Families of histograms, keyed by name + label set.

    Mirrors :class:`~repro.obs.metrics.MetricsRegistry`'s create-on-
    first-use contract.  Label keys are validated against
    :data:`ALLOWED_LABELS`; a family that reaches
    :data:`MAX_SERIES_PER_NAME` distinct label sets silently folds new
    label sets into its unlabeled aggregate series, so a hostile label
    value degrades precision, never memory.
    """

    def __init__(self) -> None:
        self._histograms: dict[str, Histogram] = {}
        self._family_sizes: dict[str, int] = {}
        self._lock = threading.Lock()

    def _series_key(self, name: str, labels: tuple[tuple[str, str], ...]) -> str:
        return name + _label_suffix(labels)

    def _admit_labels(
        self, name: str, labels: tuple[tuple[str, str], ...]
    ) -> tuple[tuple[str, str], ...]:
        if not labels:
            return labels
        if self._series_key(name, labels) in self._histograms:
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
        """The histogram series for this name + label set, created on
        first use (``buckets`` applies to the call that creates it)."""
        canonical = _check_labels(labels)
        with self._lock:
            canonical = self._admit_labels(name, canonical)
            key = self._series_key(name, canonical)
            series = self._histograms.get(key)
            if series is None:
                series = Histogram(name, canonical, buckets)
                self._histograms[key] = series
                self._family_sizes[name] = self._family_sizes.get(name, 0) + 1
            return series

    def histograms(self) -> list[Histogram]:
        with self._lock:
            return [self._histograms[k] for k in sorted(self._histograms)]

    def reset(self) -> None:
        """Zero every series (series identities survive, like counter reset)."""
        for series in self.histograms():
            series.reset()

    def __len__(self) -> int:
        with self._lock:
            return len(self._histograms)


#: The process-wide default telemetry registry.
_TELEMETRY = TelemetryRegistry()


def get_telemetry() -> TelemetryRegistry:
    """The process-wide telemetry registry."""
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
    gauges: Mapping[str, float] | None = None,
    prefix: str = "repro_",
) -> str:
    """Render counters, gauges and histograms in Prometheus text format.

    ``counters`` is a ``{name: value}`` snapshot (e.g.
    :func:`repro.obs.metrics.metrics_snapshot`); ``gauges`` is a
    ``{name: value}`` mapping the caller reads from live state at render
    time; ``telemetry`` defaults to the process-wide registry.  Counter
    names gain the conventional ``_total`` suffix; histogram series emit
    cumulative ``_bucket{le=...}`` lines (ending in ``le="+Inf"``) plus
    ``_count`` and ``_sum``.  Output is sorted, so scrapes are
    diff-stable.
    """
    registry = telemetry if telemetry is not None else _TELEMETRY
    lines: list[str] = []

    for name in sorted(counters or {}):
        metric = _metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {counters[name]}")

    for name in sorted(gauges or {}):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauges[name])}")

    histo_families: dict[str, list[Histogram]] = {}
    for series in registry.histograms():
        histo_families.setdefault(series.name, []).append(series)
    for name in sorted(histo_families):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        for series in histo_families[name]:
            cumulative = series.cumulative()
            uppers = [_format_value(upper) for upper in series.buckets]
            for upper, cum in zip(uppers + ["+Inf"], cumulative):
                suffix = _label_suffix((*series.labels, ("le", upper)))
                lines.append(f"{metric}_bucket{suffix} {cum}")
            base = _label_suffix(series.labels)
            lines.append(f"{metric}_count{base} {cumulative[-1]}")
            lines.append(f"{metric}_sum{base} {_format_value(series.sum)}")

    return "\n".join(lines) + "\n"
