"""Process-wide metrics: named monotone counters in registries.

The engine's telemetry used to be scattered — LP counters in a module
global of :mod:`repro.geometry.simplex`, evaluator telemetry in an
ad-hoc ``dict`` — which made it impossible to see a whole query's cost
in one place.  This module centralises it:

* :class:`Counter` — a single named integer with ``inc`` / ``reset``;
* :class:`MetricsRegistry` — a namespace of counters.  A registry may
  have a *parent*: increments then propagate upward (with a prefix), so
  per-component registries (one per :class:`~repro.logic.evaluator.\
  Evaluator`, say) roll up into the process-wide registry while staying
  individually resettable.

The process-wide default registry is :func:`get_registry`; the CLI's
``repro profile`` dumps its snapshot next to the span tree.
"""

from __future__ import annotations


class Counter:
    """A monotone integer counter (resettable for hermetic measurement)."""

    __slots__ = ("name", "value", "_parent")

    def __init__(self, name: str, parent: "Counter | None" = None) -> None:
        self.name = name
        self.value = 0
        self._parent = parent

    def inc(self, amount: int = 1) -> None:
        self.value += amount
        if self._parent is not None:
            self._parent.inc(amount)

    def reset(self) -> None:
        """Zero this counter (parents keep their accumulated totals)."""
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class MetricsRegistry:
    """A namespace of counters, optionally rolling up into a parent.

    ``MetricsRegistry(parent=global_registry, prefix="evaluator.")``
    creates a scoped registry whose counter ``"evaluations"`` also
    increments ``"evaluator.evaluations"`` in the parent — local numbers
    for one component, aggregate numbers for the process.
    """

    def __init__(
        self,
        parent: "MetricsRegistry | None" = None,
        prefix: str = "",
    ) -> None:
        self._counters: dict[str, Counter] = {}
        self._parent = parent
        self._prefix = prefix

    def counter(self, name: str) -> Counter:
        """The counter with this name, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            parent_counter = (
                self._parent.counter(self._prefix + name)
                if self._parent is not None
                else None
            )
            counter = Counter(name, parent_counter)
            self._counters[name] = counter
        return counter

    def get(self, name: str) -> int:
        """Current value of a counter (0 if it was never touched)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def snapshot(self, prefix: str | None = None) -> dict[str, int]:
        """A plain ``{name: value}`` dict, optionally filtered by prefix."""
        return {
            name: counter.value
            for name, counter in sorted(self._counters.items())
            if prefix is None or name.startswith(prefix)
        }

    def reset(self, prefix: str | None = None) -> None:
        """Zero every counter (or every counter under a prefix)."""
        for name, counter in self._counters.items():
            if prefix is None or name.startswith(prefix):
                counter.reset()

    def names(self) -> list[str]:
        return sorted(self._counters)

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def __len__(self) -> int:
        return len(self._counters)


#: The process-wide default registry.
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _GLOBAL


def reset_metrics(prefix: str | None = None) -> None:
    """Zero the process-wide registry (tests call this for isolation)."""
    _GLOBAL.reset(prefix)


def metrics_snapshot(prefix: str | None = None) -> dict[str, int]:
    """Snapshot of the process-wide registry."""
    return _GLOBAL.snapshot(prefix)
