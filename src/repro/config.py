"""`EngineConfig` — one object for every engine knob.

The engine's tuning surface used to be a sprawl: constructor kwargs on
:class:`~repro.engine.QueryEngine` (``lp_mode``, ``jobs``,
``cache_dir``), a second set of CLI flags, and four ``REPRO_*``
environment variables read at different times by different layers.
This module consolidates all of it into a single frozen dataclass with
one documented resolution order:

    **explicit argument > environment variable > built-in default**

=================  =====================  ===========================
field              environment variable   default
=================  =====================  ===========================
``lp_mode``        ``REPRO_LP_MODE``      ``"filtered"``
``jobs``           ``REPRO_JOBS``         ``1`` (sequential)
``executor``       ``REPRO_EXECUTOR``     ``"compiled"``
``backend``        ``REPRO_BACKEND``      ``"memory"``
``cache_dir``      ``REPRO_CACHE_DIR``    ``None`` (no persistence)
``cache_budget``   ``REPRO_CACHE_BUDGET``  ``None`` (unbounded)
``journal``        ``REPRO_JOURNAL``      ``None`` (no journal sink)
``optimizer``      ``REPRO_OPTIMIZER``    ``"on"`` (cost-based rewrites)
``slow_log``       ``REPRO_SLOW_LOG``     ``None`` (no slow-query log)
``slo_latency_ms``  ``REPRO_SLO_LATENCY_MS``  ``250.0`` ms objective
``metrics_labels``  ``REPRO_METRICS_LABELS``  ``"on"`` (labeled series)
``cache_capacity``  —                     ``64`` entries
=================  =====================  ===========================

Two construction styles, for two lifetimes:

* :meth:`EngineConfig.resolve` applies the resolution order **once, at
  construction** — the environment is snapshotted and the resulting
  config is fully pinned.  This is what the CLI, the benchmarks and the
  server use: a long-lived process should not change behaviour because
  an environment variable moved under it.
* ``EngineConfig(...)`` with ``None`` fields keeps the legacy *deferred*
  semantics: a ``None`` field means "consult the environment at use
  time", exactly as the old per-kwarg plumbing did.  This is what the
  :class:`~repro.engine.QueryEngine` deprecation shim builds, so
  existing callers observe identical behaviour.

Consumers::

    from repro.config import EngineConfig

    config = EngineConfig.resolve(jobs=4)        # env fills the rest
    engine = QueryEngine(db, config=config)
    store = config.store()                        # the pinned DiskStore
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.geometry import fastlp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.disk import DiskStore

#: Environment variable names, in one place (the store/journal modules
#: remain the authoritative readers for their own deferred paths).
ENV_LP_MODE = "REPRO_LP_MODE"
ENV_JOBS = "REPRO_JOBS"
ENV_EXECUTOR = "REPRO_EXECUTOR"
ENV_BACKEND = "REPRO_BACKEND"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_BUDGET = "REPRO_CACHE_BUDGET"
ENV_JOURNAL = "REPRO_JOURNAL"
ENV_OPTIMIZER = "REPRO_OPTIMIZER"
ENV_SLOW_LOG = "REPRO_SLOW_LOG"
ENV_SLO_LATENCY_MS = "REPRO_SLO_LATENCY_MS"
ENV_METRICS_LABELS = "REPRO_METRICS_LABELS"

#: Default in-memory LRU capacity of an :class:`~repro.engine.EngineCache`.
DEFAULT_CACHE_CAPACITY = 64

#: Fixpoint executor tiers.  ``"compiled"`` lowers datalog rule bodies
#: and ground RegLFP stage formulas to the relational-algebra IR of
#: :mod:`repro.ir` (set-at-a-time evaluation, memoised decision kernels);
#: ``"interpreted"`` keeps the per-stage AST walk and is the oracle the
#: equivalence suite checks the compiled tier against.  Both produce
#: byte-identical stage relations.
EXECUTORS = ("compiled", "interpreted")

#: Ground-fixpoint storage backends.  ``"memory"`` evaluates compiled
#: ground (finite, region-sort) fixpoint stages with python sets;
#: ``"sqlite"`` lowers them to SQL over a SQLite database (recursive
#: CTEs for linear plans) for out-of-core evaluation.
BACKENDS = ("memory", "sqlite")

#: Cost-based optimizer switch.  ``"on"`` applies the answer-preserving
#: plan rewrites of :mod:`repro.optimizer` (NNF + miniscoping, the
#: region lift, cost-ordered conjuncts, statistics-fed knob selection)
#: inside :class:`~repro.engine.QueryEngine`; ``"off"`` is the ablated
#: oracle path the equivalence suite compares against.
OPTIMIZERS = ("on", "off")

#: Labeled-telemetry switch.  ``"on"`` lets the engine and server attach
#: low-cardinality labels (``tenant``, ``endpoint``, ``executor``,
#: ``lp_mode``) to histogram/gauge series; ``"off"`` keeps every series
#: unlabeled (one aggregate per family) for minimal scrape size.
METRICS_LABELS = ("on", "off")

#: Default per-request latency objective, milliseconds.  Feeds both the
#: per-tenant SLO burn-rate tracker and the slow-query capture threshold.
DEFAULT_SLO_LATENCY_MS = 250.0


def resolve_metrics_labels(metrics_labels: "str | None" = None) -> str:
    """Effective label mode: explicit > ``REPRO_METRICS_LABELS`` > on.

    The deferred twin of the ``metrics_labels`` field, mirroring
    :func:`resolve_optimizer` for call sites that receive ``None``.
    """
    if metrics_labels is None:
        metrics_labels = (
            os.environ.get(ENV_METRICS_LABELS, "").strip().lower() or "on"
        )
    if metrics_labels not in METRICS_LABELS:
        raise ValueError(
            f"metrics_labels must be one of {METRICS_LABELS}, "
            f"got {metrics_labels!r}"
        )
    return metrics_labels


def resolve_slow_log(slow_log: "str | None" = None) -> "str | None":
    """Effective slow-log path: explicit > ``REPRO_SLOW_LOG`` > none."""
    if slow_log is not None:
        return slow_log
    return os.environ.get(ENV_SLOW_LOG, "").strip() or None


def resolve_slo_latency_ms(slo_latency_ms: "float | None" = None) -> float:
    """Effective latency objective: explicit > env > 250 ms."""
    if slo_latency_ms is not None:
        latency = float(slo_latency_ms)
        if latency <= 0:
            raise ValueError(
                f"slo_latency_ms must be positive, got {slo_latency_ms!r}"
            )
        return latency
    env_value = _env_slo_latency_ms()
    return env_value if env_value is not None else DEFAULT_SLO_LATENCY_MS


def resolve_optimizer(optimizer: "str | None" = None) -> str:
    """The effective optimizer mode: explicit > ``REPRO_OPTIMIZER`` > on.

    The deferred twin of the ``optimizer`` field, mirroring
    :func:`resolve_executor` for call sites that receive ``None``.
    """
    if optimizer is None:
        optimizer = (
            os.environ.get(ENV_OPTIMIZER, "").strip().lower() or "on"
        )
    if optimizer not in OPTIMIZERS:
        raise ValueError(
            f"optimizer must be one of {OPTIMIZERS}, got {optimizer!r}"
        )
    return optimizer


def resolve_executor(executor: "str | None" = None) -> str:
    """The effective executor: explicit arg > ``REPRO_EXECUTOR`` > default.

    The deferred twin of the ``executor`` field for code paths that
    receive ``None`` (legacy call sites without a config object).
    """
    if executor is None:
        executor = (
            os.environ.get(ENV_EXECUTOR, "").strip().lower() or "compiled"
        )
    if executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    return executor


def resolve_backend(backend: "str | None" = None) -> str:
    """The effective backend: explicit arg > ``REPRO_BACKEND`` > default."""
    if backend is None:
        backend = (
            os.environ.get(ENV_BACKEND, "").strip().lower() or "memory"
        )
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    return backend


@dataclass(frozen=True)
class EngineConfig:
    """Frozen bundle of every engine/runtime knob.

    ``None`` means *unresolved* (defer to the environment at use time)
    for every field except ``cache_capacity``, which always has a
    concrete value.  Use :meth:`resolve` to pin everything now.
    """

    #: LP tier: ``"filtered"`` or ``"exact"`` (``None`` = env at use).
    lp_mode: str | None = None
    #: Worker processes for arrangement construction (``None`` = env at
    #: use time; ``1`` = sequential).
    jobs: int | None = None
    #: Fixpoint executor: ``"compiled"`` (relational-algebra IR,
    #: set-at-a-time) or ``"interpreted"`` (per-stage AST walk, the
    #: oracle).  ``None`` = consult ``REPRO_EXECUTOR`` at use time.
    executor: str | None = None
    #: Ground-fixpoint backend: ``"memory"`` or ``"sqlite"``
    #: (``None`` = consult ``REPRO_BACKEND`` at use time).
    backend: str | None = None
    #: Disk warm-start directory or a :class:`DiskStore` instance
    #: (``None`` = env at use time, which may also mean no persistence).
    cache_dir: "DiskStore | str | os.PathLike[str] | None" = None
    #: Byte budget for the disk store's LRU eviction (``None`` = env at
    #: use time, else unbounded).
    cache_budget: int | None = None
    #: JSONL journal sink path (``None`` = env at use time, else none).
    journal: str | None = None
    #: Cost-based optimizer: ``"on"`` or ``"off"`` (``None`` = consult
    #: ``REPRO_OPTIMIZER`` at use time; the built-in default is on).
    optimizer: str | None = None
    #: Slow-query log JSONL path (``None`` = env at use time, else no
    #: slow-query capture).
    slow_log: str | None = None
    #: Per-request latency objective in milliseconds; feeds the SLO
    #: burn-rate tracker and the slow-query capture threshold (``None``
    #: = env at use time, else :data:`DEFAULT_SLO_LATENCY_MS`).
    slo_latency_ms: float | None = None
    #: Labeled telemetry series: ``"on"`` or ``"off"`` (``None`` =
    #: consult ``REPRO_METRICS_LABELS`` at use time; default on).
    metrics_labels: str | None = None
    #: In-memory LRU capacity of the engine cache.
    cache_capacity: int = DEFAULT_CACHE_CAPACITY

    def __post_init__(self) -> None:
        if self.lp_mode is not None and self.lp_mode not in fastlp.LP_MODES:
            raise ValueError(
                f"lp_mode must be one of {fastlp.LP_MODES}, "
                f"got {self.lp_mode!r}"
            )
        if self.jobs is not None and int(self.jobs) < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs!r}")
        if self.executor is not None and self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, "
                f"got {self.executor!r}"
            )
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.optimizer is not None and self.optimizer not in OPTIMIZERS:
            raise ValueError(
                f"optimizer must be one of {OPTIMIZERS}, "
                f"got {self.optimizer!r}"
            )
        if self.slo_latency_ms is not None and float(self.slo_latency_ms) <= 0:
            raise ValueError(
                f"slo_latency_ms must be positive milliseconds, "
                f"got {self.slo_latency_ms!r}"
            )
        if (
            self.metrics_labels is not None
            and self.metrics_labels not in METRICS_LABELS
        ):
            raise ValueError(
                f"metrics_labels must be one of {METRICS_LABELS}, "
                f"got {self.metrics_labels!r}"
            )
        if self.cache_budget is not None and self.cache_budget <= 0:
            raise ValueError(
                f"cache_budget must be positive bytes, "
                f"got {self.cache_budget!r}"
            )
        if self.cache_capacity < 1:
            raise ValueError(
                f"cache_capacity must be >= 1, got {self.cache_capacity!r}"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def resolve(cls, **overrides: Any) -> "EngineConfig":
        """A fully pinned config: explicit arg > environment > default.

        The environment is read exactly once, here; the returned config
        never consults it again.  Unknown keyword names raise
        ``TypeError`` (same contract as the dataclass constructor).
        """
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise TypeError(
                f"unknown EngineConfig field(s): {sorted(unknown)}"
            )

        def pick(name: str, from_env, default):
            value = overrides.get(name)
            if value is not None:
                return value
            env_value = from_env()
            return env_value if env_value is not None else default

        from repro.arrangement.parallel import resolve_jobs

        lp_mode = pick(
            "lp_mode",
            lambda: os.environ.get(ENV_LP_MODE, "").strip().lower() or None,
            "filtered",
        )
        jobs = overrides.get("jobs")
        jobs = resolve_jobs(jobs if jobs is not None else None)
        executor = resolve_executor(overrides.get("executor"))
        backend = resolve_backend(overrides.get("backend"))
        cache_dir = pick(
            "cache_dir",
            lambda: os.environ.get(ENV_CACHE_DIR, "").strip() or None,
            None,
        )
        cache_budget = pick("cache_budget", _env_cache_budget, None)
        journal = pick(
            "journal",
            lambda: os.environ.get(ENV_JOURNAL, "").strip() or None,
            None,
        )
        optimizer = resolve_optimizer(overrides.get("optimizer"))
        slow_log = pick(
            "slow_log",
            lambda: os.environ.get(ENV_SLOW_LOG, "").strip() or None,
            None,
        )
        slo_latency_ms = pick(
            "slo_latency_ms", _env_slo_latency_ms, DEFAULT_SLO_LATENCY_MS
        )
        metrics_labels = resolve_metrics_labels(
            overrides.get("metrics_labels")
        )
        capacity = overrides.get("cache_capacity")
        if capacity is None:
            capacity = DEFAULT_CACHE_CAPACITY
        return cls(
            lp_mode=lp_mode,
            jobs=jobs,
            executor=executor,
            backend=backend,
            cache_dir=cache_dir,
            cache_budget=cache_budget,
            journal=journal,
            optimizer=optimizer,
            slow_log=slow_log,
            slo_latency_ms=slo_latency_ms,
            metrics_labels=metrics_labels,
            cache_capacity=capacity,
        )

    def with_overrides(self, **changes: Any) -> "EngineConfig":
        """A copy with some fields replaced (the config itself is frozen)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Derived resources
    # ------------------------------------------------------------------
    def store(self) -> "DiskStore | None":
        """The disk store this config pins (``None`` when unresolved
        *and* the environment names no directory)."""
        from repro import store as store_pkg

        if self.cache_dir is None:
            return store_pkg.active_store()
        return store_pkg.resolve_store(
            self.cache_dir, size_budget=self.cache_budget
        )

    def make_cache(self, metrics=None) -> "Any":
        """A fresh :class:`~repro.engine.EngineCache` honouring this
        config's capacity and store pinning."""
        from repro.engine import EngineCache

        return EngineCache(
            capacity=self.cache_capacity,
            metrics=metrics,
            store=self.store() if self.cache_dir is not None else None,
        )

    def describe(self) -> dict[str, Any]:
        """A JSON-ready rendering (for ``/v1/stats`` and bench records)."""
        cache_dir = self.cache_dir
        if cache_dir is not None and not isinstance(cache_dir, str):
            root = getattr(cache_dir, "root", None)
            cache_dir = str(root if root is not None else cache_dir)
        return {
            "lp_mode": self.lp_mode,
            "jobs": self.jobs,
            "executor": self.executor,
            "backend": self.backend,
            "cache_dir": cache_dir,
            "cache_budget": self.cache_budget,
            "journal": self.journal,
            "optimizer": self.optimizer,
            "slow_log": self.slow_log,
            "slo_latency_ms": self.slo_latency_ms,
            "metrics_labels": self.metrics_labels,
            "cache_capacity": self.cache_capacity,
        }


def _env_cache_budget() -> int | None:
    """``REPRO_CACHE_BUDGET`` as a positive int, or ``None``."""
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


def _env_slo_latency_ms() -> float | None:
    """``REPRO_SLO_LATENCY_MS`` as a positive float, or ``None``."""
    raw = os.environ.get(ENV_SLO_LATENCY_MS, "").strip()
    if not raw:
        return None
    try:
        latency = float(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_SLO_LATENCY_MS} must be a millisecond count, got {raw!r}"
        ) from None
    return latency if latency > 0 else None
