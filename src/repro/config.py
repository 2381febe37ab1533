"""`EngineConfig` — one object for every engine knob.

Every runtime knob of the engine, the CLI and the server lives in one
frozen dataclass with one documented resolution order:

    **explicit argument > environment variable > built-in default**

=================  =========================  ===========================
field              environment variable       default
=================  =========================  ===========================
``lp_mode``        ``REPRO_LP_MODE``          ``"filtered"``
``executor``       ``REPRO_EXECUTOR``         ``"compiled"``
``cache_dir``      ``REPRO_CACHE_DIR``        ``None`` (no persistence)
``cache_budget``   ``REPRO_CACHE_BUDGET``     ``None`` (unbounded)
``journal``        ``REPRO_JOURNAL``          ``None`` (no journal sink)
``optimizer``      ``REPRO_OPTIMIZER``        ``"on"`` (cost-based rewrites)
``slow_log``       ``REPRO_SLOW_LOG``         ``None`` (no slow-query log)
``slo_latency_ms`` ``REPRO_SLO_LATENCY_MS``   ``250.0`` ms objective
=================  =========================  ===========================

``jobs`` is a ninth field with no environment variable: it accepts only
``1``, because arrangements are built by one sequential DFS.

Two construction styles, for two lifetimes:

* :meth:`EngineConfig.resolve` applies the resolution order **once, at
  construction** — the environment is snapshotted and the resulting
  config is fully pinned.  This is what ``repro serve`` and the
  benchmarks use: a long-lived process should not change behaviour
  because an environment variable moved under it.
* ``EngineConfig(...)`` with ``None`` fields is *deferred*: a ``None``
  field means "consult the environment at use time, else the
  default".  This is what ``QueryEngine(db)`` builds when given no
  config, and what the one-shot CLI commands build around their flags.

There is no other tier: nothing the engine measures ever sets a knob.

Consumers::

    from repro.config import EngineConfig

    config = EngineConfig.resolve(lp_mode="exact")  # env fills the rest
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
ENV_EXECUTOR = "REPRO_EXECUTOR"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_BUDGET = "REPRO_CACHE_BUDGET"
ENV_JOURNAL = "REPRO_JOURNAL"
ENV_OPTIMIZER = "REPRO_OPTIMIZER"
ENV_SLOW_LOG = "REPRO_SLOW_LOG"
ENV_SLO_LATENCY_MS = "REPRO_SLO_LATENCY_MS"

#: Fixpoint executor tiers.  ``"compiled"`` lowers datalog rule bodies
#: and ground RegLFP stage formulas to the relational-algebra IR of
#: :mod:`repro.ir` (set-at-a-time evaluation, memoised decision kernels);
#: ``"interpreted"`` keeps the per-stage AST walk and is the oracle the
#: equivalence suite checks the compiled tier against.  Both produce
#: byte-identical stage relations.
EXECUTORS = ("compiled", "interpreted")

#: Cost-based optimizer switch.  ``"on"`` applies the answer-preserving
#: plan rewrites of :mod:`repro.optimizer` (NNF + miniscoping, the
#: region lift, cost-ordered conjuncts)
#: inside :class:`~repro.engine.QueryEngine`; ``"off"`` is the ablated
#: oracle path the equivalence suite compares against.
OPTIMIZERS = ("on", "off")

#: Default per-request latency objective, milliseconds.  It is a bucket
#: bound of the server's request histogram (per-tenant SLO breaches are
#: read off it) and the slow-query capture threshold.
DEFAULT_SLO_LATENCY_MS = 250.0


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
    receive ``None`` (an unresolved config field).
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


@dataclass(frozen=True)
class EngineConfig:
    """Frozen bundle of every engine/runtime knob.

    ``None`` means *unresolved* (defer to the environment at use time)
    for every field.  Use :meth:`resolve` to pin everything now.
    """

    #: LP tier: ``"filtered"`` or ``"exact"`` (``None`` = env at use).
    lp_mode: str | None = None
    #: Always ``1`` (``None`` resolves to it): arrangement construction
    #: is sequential and nothing reads this field.  It stays so existing
    #: ``EngineConfig(jobs=1)`` call sites keep constructing.
    jobs: int | None = None
    #: Fixpoint executor: ``"compiled"`` (relational-algebra IR,
    #: set-at-a-time) or ``"interpreted"`` (per-stage AST walk, the
    #: oracle).  ``None`` = consult ``REPRO_EXECUTOR`` at use time.
    executor: str | None = None
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
    #: Per-request latency objective in milliseconds: the SLO breach
    #: bound of the request histogram and the slow-query capture
    #: threshold (``None`` = env at use time, else
    #: :data:`DEFAULT_SLO_LATENCY_MS`).
    slo_latency_ms: float | None = None

    def __post_init__(self) -> None:
        if self.lp_mode is not None and self.lp_mode not in fastlp.LP_MODES:
            raise ValueError(
                f"lp_mode must be one of {fastlp.LP_MODES}, "
                f"got {self.lp_mode!r}"
            )
        if self.jobs is not None and self.jobs != 1:
            raise ValueError(
                f"jobs must be 1, got {self.jobs!r}: process-parallel "
                f"arrangement construction was removed"
            )
        if self.executor is not None and self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, "
                f"got {self.executor!r}"
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
        if self.cache_budget is not None and self.cache_budget <= 0:
            raise ValueError(
                f"cache_budget must be positive bytes, "
                f"got {self.cache_budget!r}"
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

        lp_mode = pick(
            "lp_mode",
            lambda: os.environ.get(ENV_LP_MODE, "").strip().lower() or None,
            "filtered",
        )
        jobs = overrides.get("jobs")
        jobs = 1 if jobs is None else jobs
        executor = resolve_executor(overrides.get("executor"))
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
        return cls(
            lp_mode=lp_mode,
            jobs=jobs,
            executor=executor,
            cache_dir=cache_dir,
            cache_budget=cache_budget,
            journal=journal,
            optimizer=optimizer,
            slow_log=slow_log,
            slo_latency_ms=slo_latency_ms,
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
        config's store pinning."""
        from repro.engine import EngineCache

        return EngineCache(
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
            "executor": self.executor,
            "cache_dir": cache_dir,
            "cache_budget": self.cache_budget,
            "journal": self.journal,
            "optimizer": self.optimizer,
            "slow_log": self.slow_log,
            "slo_latency_ms": self.slo_latency_ms,
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
