"""Execution statistics keyed by plan-node fingerprint.

The optimizer's memory.  Every profiled run of the engine harvests the
:class:`~repro.explain.NodeProfiler` measurements (per-node self wall,
LP solves, faces, fixpoint deltas) and the observed cardinalities
(relation representation sizes, disjunct counts, fastlp filter-hit
rates) and records them in the :class:`StatisticsBook` of the active
:class:`~repro.store.disk.DiskStore` — one book per store, shared by
every engine of the process.  The book decays lazily: a record touches
only the nodes the run measured, and every ``FLUSH_RUNS`` runs (and
once at interpreter exit) the store writes the book's
:class:`Statistics` snapshot back.  The next run — possibly in a
different process — loads it to order conjuncts, pick elimination
orders and choose knobs.

Numbers are exact :class:`~fractions.Fraction` values so the store
codec round-trips them bit-identically (floats from ``perf_counter``
become exact binary rationals).  Decayed values are rounded onto a
fixed 2⁻³² dyadic grid, so their denominators stay bounded however
many runs are merged, and every merge is deterministic.

Node fingerprints are structural: a SHA-256 over the node's type name
and its printed form.  They are stable across processes and
``PYTHONHASHSEED`` values, and identical sub-formulas share statistics
— which is exactly what a cost model wants.

This module deliberately imports nothing from the rest of the package
(the store codec imports it, and everything else imports the store).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

#: Bump on any change to the statistics payload structure; persisted
#: entries with another version are rejected by the codec (and then
#: quarantined by the disk store) instead of feeding a wrong plan.
STATS_VERSION = 1

#: Exponential decay per recorded run: a node's history is worth 3/4
#: of its previous weight each run, so stale measurements fade while
#: repeated behaviour dominates.
DECAY = Fraction(3, 4)

#: Persisted statistics keep only the hottest nodes (by total wall) so
#: the store entry stays small no matter how many queries run.
MAX_NODES = 512

#: Decayed values are rounded to the nearest multiple of 1/GRID, so
#: their denominators divide 2³² instead of growing 2 bits per run.
GRID = 2**32

#: A shared book is written back to its store once this many recorded
#: runs are pending (and once more at interpreter exit).
FLUSH_RUNS = 32

#: Pseudo-fingerprints for process-wide observations that have no
#: single plan node: the fastlp filter tiers and the arrangement build.
GLOBAL_LP = "global:lp"
GLOBAL_ARRANGEMENT = "global:arrangement"


def node_fingerprint(node: object) -> str:
    """The stable structural fingerprint of one plan node.

    A pure function of the node's type and printed form — identical on
    every process, interpreter and ``PYTHONHASHSEED``.
    """
    digest = hashlib.sha256()
    digest.update(b"stats-node\x00")
    digest.update(type(node).__name__.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(str(node).encode("utf-8"))
    return digest.hexdigest()


def _fraction(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a statistic")
    if isinstance(value, (int, float)):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to an exact statistic")


def _grid_scaled(value: Fraction, num: int, den: int) -> Fraction:
    """``value · num/den`` rounded to the nearest multiple of 1/GRID."""
    den *= value.denominator
    quotient, remainder = divmod(value.numerator * num * GRID, den)
    if 2 * remainder >= den:
        quotient += 1
    return Fraction(quotient, GRID)


@dataclass(frozen=True)
class NodeStats:
    """Accumulated measurements for one plan node.

    ``calls``/``wall`` come from the profiler (self time, children
    excluded); ``size``/``observations`` accumulate observed result
    cardinalities (``representation_size`` and disjunct counts live in
    ``counters``); ``counters`` holds the profiler's counter deltas
    (``lp.solves``, ``arrangement.faces``,
    ``evaluator.fixpoint_stages``, ``lp.filter_hits``, …).
    """

    calls: Fraction = Fraction(0)
    wall: Fraction = Fraction(0)
    size: Fraction = Fraction(0)
    observations: Fraction = Fraction(0)
    counters: Mapping[str, Fraction] = field(default_factory=dict)

    def counter(self, name: str) -> Fraction:
        return self.counters.get(name, Fraction(0))

    def mean_wall(self) -> Fraction:
        """Decayed-average self seconds per call (0 with no calls)."""
        if self.calls == 0:
            return Fraction(0)
        return self.wall / self.calls

    def mean_size(self) -> Fraction:
        """Decayed-average observed representation size per result."""
        if self.observations == 0:
            return Fraction(0)
        return self.size / self.observations

    def decayed(self, steps: int, decay: Fraction = DECAY) -> "NodeStats":
        """These numbers ``steps`` runs later, rounded onto the grid."""
        if steps == 0:
            return self
        num = decay.numerator**steps
        den = decay.denominator**steps
        counters = {}
        for name, value in self.counters.items():
            scaled = _grid_scaled(value, num, den)
            if scaled:
                counters[name] = scaled
        return NodeStats(
            calls=_grid_scaled(self.calls, num, den),
            wall=_grid_scaled(self.wall, num, den),
            size=_grid_scaled(self.size, num, den),
            observations=_grid_scaled(self.observations, num, den),
            counters=counters,
        )

    def plus(self, other: "NodeStats") -> "NodeStats":
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, Fraction(0)) + value
        return NodeStats(
            calls=self.calls + other.calls,
            wall=self.wall + other.wall,
            size=self.size + other.size,
            observations=self.observations + other.observations,
            counters=counters,
        )


def make_node_stats(
    calls: object = 0,
    wall: object = 0,
    size: object = 0,
    observations: object = 0,
    counters: Mapping[str, object] | None = None,
) -> NodeStats:
    """A :class:`NodeStats` with every number coerced to ``Fraction``."""
    return NodeStats(
        calls=_fraction(calls),
        wall=_fraction(wall),
        size=_fraction(size),
        observations=_fraction(observations),
        counters={
            name: _fraction(value)
            for name, value in (counters or {}).items()
            if _fraction(value) != 0
        },
    )


@dataclass(frozen=True)
class Statistics:
    """The versioned, persisted statistics object.

    ``nodes`` maps plan-node fingerprints to their accumulated
    measurements; ``runs`` counts (decayed) contributing runs.
    """

    nodes: Mapping[str, NodeStats] = field(default_factory=dict)
    runs: Fraction = Fraction(0)
    version: int = STATS_VERSION

    def get(self, fingerprint: str) -> NodeStats | None:
        return self.nodes.get(fingerprint)

    def merge(
        self,
        run_nodes: Mapping[str, NodeStats],
        decay: Fraction = DECAY,
    ) -> "Statistics":
        """Fold one run's measurements in, decaying the history.

        The snapshot of a :class:`StatisticsBook` opened on this object
        after recording the run: untouched nodes fade by one step, the
        run's numbers are added at full weight, and the result keeps
        the :data:`MAX_NODES` hottest nodes.
        """
        book = StatisticsBook(self, decay=decay)
        book.record(run_nodes)
        return book.snapshot()

    def hottest(self, limit: int = 10) -> list[tuple[str, NodeStats]]:
        """The ``limit`` nodes with the largest accumulated wall."""
        ranked = sorted(
            self.nodes.items(),
            key=lambda item: (-item[1].wall, item[0]),
        )
        return ranked[:limit]


class StatisticsBook:
    """The live statistics of one store, shared by every engine of a
    process.

    Each node is kept as ``(stats, stamp)``: its numbers as of the run
    clock ``stamp``.  Decay is lazy — :meth:`get` scales by
    ``decay ** (clock - stamp)`` on the way out — so :meth:`record`
    advances the clock and rewrites only the nodes the run measured.
    Decayed values are rounded onto the 1/:data:`GRID` grid.  The book
    prunes itself to the :data:`MAX_NODES` hottest nodes by decayed
    wall once it holds twice that many, and on every
    :meth:`snapshot`.  All methods are thread-safe.
    """

    def __init__(
        self,
        snapshot: Statistics | None = None,
        decay: Fraction = DECAY,
    ) -> None:
        self._lock = threading.Lock()
        self._decay = decay
        self.reset(snapshot)

    def reset(self, snapshot: Statistics | None = None) -> None:
        """Start over from ``snapshot`` (empty without one)."""
        snapshot = snapshot or Statistics()
        with self._lock:
            self._clock = 0
            self._runs = snapshot.runs
            self._nodes: dict[str, tuple[NodeStats, int]] = {
                fingerprint: (stats, 0)
                for fingerprint, stats in snapshot.nodes.items()
            }
            self._pending = 0

    @property
    def pending(self) -> int:
        """Runs recorded since the last :meth:`take_pending`."""
        return self._pending

    def node_count(self) -> int:
        return len(self._nodes)

    def get(self, fingerprint: str) -> NodeStats | None:
        """The node's numbers decayed to the current run clock."""
        with self._lock:
            entry = self._nodes.get(fingerprint)
            if entry is None:
                return None
            stats, stamp = entry
            return stats.decayed(self._clock - stamp, self._decay)

    def record(self, run_nodes: Mapping[str, NodeStats]) -> int:
        """Fold one run in; returns the number of pending runs."""
        with self._lock:
            self._clock += 1
            clock = self._clock
            self._runs = (
                _grid_scaled(
                    self._runs, self._decay.numerator, self._decay.denominator
                )
                + 1
            )
            for fingerprint, stats in run_nodes.items():
                entry = self._nodes.get(fingerprint)
                if entry is not None:
                    base, stamp = entry
                    stats = base.decayed(clock - stamp, self._decay).plus(
                        stats
                    )
                self._nodes[fingerprint] = (stats, clock)
            if len(self._nodes) > 2 * MAX_NODES:
                self._rebase()
            self._pending += 1
            return self._pending

    def snapshot(self) -> Statistics:
        """The persisted form: every node decayed to now, pruned."""
        with self._lock:
            return self._snapshot()

    def take_pending(self) -> Statistics | None:
        """The snapshot to write back, or ``None`` with nothing pending."""
        with self._lock:
            if not self._pending:
                return None
            self._pending = 0
            return self._snapshot()

    def _rebase(self) -> None:
        """Decay every node to the clock and keep the hottest."""
        clock = self._clock
        current = {
            fingerprint: stats.decayed(clock - stamp, self._decay)
            for fingerprint, (stats, stamp) in self._nodes.items()
        }
        if len(current) > MAX_NODES:
            current = dict(
                sorted(
                    current.items(),
                    key=lambda item: (-item[1].wall, item[0]),
                )[:MAX_NODES]
            )
        self._nodes = {
            fingerprint: (stats, clock)
            for fingerprint, stats in current.items()
        }

    def _snapshot(self) -> Statistics:
        self._rebase()
        return Statistics(
            nodes={
                fingerprint: stats
                for fingerprint, (stats, __) in self._nodes.items()
            },
            runs=self._runs,
        )


def harvest_profile(
    profile: Mapping[int, Mapping[str, object]],
    counter_names: tuple[str, ...],
    nodes_by_id: Mapping[int, object],
) -> dict[str, NodeStats]:
    """Turn one run's profiler measurements into fingerprinted stats.

    ``profile`` is ``NodeProfiler.stats`` (``id(node)`` → measurement
    dict with ``calls``/``wall_s``/``self_counters`` and, when the
    evaluator reported result cardinalities, ``sizes`` /
    ``observations``); ``counter_names`` names the profiler's counter
    columns; ``nodes_by_id`` maps the same ids back to the plan nodes.
    Nodes that never ran are skipped; identical sub-formulas merge.

    The harvested ``wall`` is the *inclusive* per-node time: the cost
    model asks "what does evaluating this subtree cost", and that is
    what a conjunct-ordering decision pays or saves.
    """
    harvested: dict[str, NodeStats] = {}
    for node_id, node in nodes_by_id.items():
        measured = profile.get(node_id)
        if not measured:
            continue
        counters = dict(
            zip(counter_names, measured.get("self_counters") or ())
        )
        stats = make_node_stats(
            calls=measured.get("calls", 0),
            wall=measured.get("wall_s", 0.0),
            size=measured.get("sizes", 0),
            observations=measured.get("observations", 0),
            counters=counters,
        )
        if stats.calls == 0 and stats.wall == 0:
            continue
        fingerprint = node_fingerprint(node)
        base = harvested.get(fingerprint, NodeStats())
        harvested[fingerprint] = base.plus(stats)
    return harvested
