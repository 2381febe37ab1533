"""`EngineConfig` — one object for every engine knob.

Every runtime knob of the engine, the CLI and the server lives in one
frozen dataclass with one documented resolution order, applied once,
when the config is built:

    **explicit argument > environment variable > built-in default**

=================  =========================  ===========================
field              environment variable       default
=================  =========================  ===========================
``lp_mode``        ``REPRO_LP_MODE``          ``"filtered"``
``executor``       ``REPRO_EXECUTOR``         ``"compiled"``
``cache_dir``      ``REPRO_CACHE_DIR``        ``None`` (no persistence)
``cache_budget``   ``REPRO_CACHE_BUDGET``     ``None`` (unbounded)
``optimizer``      ``REPRO_OPTIMIZER``        ``"on"`` (cost-based rewrites)
``slow_log``       ``REPRO_SLOW_LOG``         ``None`` (no slow-query log)
``slo_latency_ms`` ``REPRO_SLO_LATENCY_MS``   ``250.0`` ms objective
=================  =========================  ===========================

``jobs`` is an eighth field with no environment variable: it accepts
only ``1``, because arrangements are built by one sequential DFS.

A field passed as ``None`` (or left out) is filled in by the
constructor, so ``EngineConfig(**kw) == EngineConfig.resolve(**kw)``
and a built config never reads the environment again.  ``lp_mode``
takes its fallback from :func:`repro.geometry.fastlp.get_lp_mode` (an
enclosing ``fastlp.lp_mode`` scope, else ``REPRO_LP_MODE``, else
``filtered``), the one reader of that variable.  ``cache_dir``,
``cache_budget`` and ``slow_log`` name optional resources: when neither
the argument nor the environment names one they resolve to ``None`` —
no store, no budget, no slow-query log.

The entry points that accept a missing knob — ``QueryEngine(db)``,
``Evaluator``, ``evaluate_program``, ``explain_datalog`` and
``build_arrangement`` without a ``store`` — build an ``EngineConfig`` once
on entry; everything downstream reads resolved fields (the engine passes
its store down, ``None`` included).

Consumers::

    from repro.config import EngineConfig

    config = EngineConfig(lp_mode="exact")   # env fills the rest
    engine = QueryEngine(db, config=config)
    store = config.store()                   # the DiskStore, or None
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.geometry import fastlp
from repro.geometry.fastlp import ENV_LP_MODE
from repro.obs.slowlog import ENV_SLOW_LOG

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.disk import DiskStore

#: Environment variable names (``REPRO_LP_MODE`` and ``REPRO_SLOW_LOG``
#: are defined next to the code they configure and re-exported here).
ENV_EXECUTOR = "REPRO_EXECUTOR"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_BUDGET = "REPRO_CACHE_BUDGET"
ENV_OPTIMIZER = "REPRO_OPTIMIZER"
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


def _env(name: str) -> str | None:
    """An environment variable's stripped value, or ``None`` if unset."""
    return os.environ.get(name, "").strip() or None


def _env_positive(name: str, kind: type, unit: str) -> "int | float | None":
    """A numeric environment variable; ``None`` if unset or not positive."""
    raw = _env(name)
    if raw is None:
        return None
    try:
        value = kind(raw)
    except ValueError:
        raise ValueError(f"{name} must be {unit}, got {raw!r}") from None
    return value if value > 0 else None


@dataclass(frozen=True)
class EngineConfig:
    """Frozen bundle of every engine/runtime knob, resolved when built.

    Pass ``None`` (or omit a field) to take the environment variable,
    else the default; see the module docstring for the table.
    """

    #: LP tier: ``"filtered"`` or ``"exact"``.
    lp_mode: str | None = None
    #: Always ``1``: arrangement construction is sequential and nothing
    #: reads this field.  It stays so existing ``EngineConfig(jobs=1)``
    #: call sites keep constructing.
    jobs: int | None = None
    #: Fixpoint executor: ``"compiled"`` (relational-algebra IR,
    #: set-at-a-time) or ``"interpreted"`` (per-stage AST walk, the
    #: oracle).
    executor: str | None = None
    #: Disk warm-start directory or a :class:`DiskStore` instance
    #: (``None`` after construction = no persistence).
    cache_dir: "DiskStore | str | os.PathLike[str] | None" = None
    #: Byte budget for the disk store's LRU eviction (``None`` after
    #: construction = unbounded).
    cache_budget: int | None = None
    #: Cost-based optimizer: ``"on"`` or ``"off"``.
    optimizer: str | None = None
    #: Slow-query log JSONL path (``None`` after construction = no
    #: slow-query capture).
    slow_log: str | None = None
    #: Per-request latency objective in milliseconds: the SLO breach
    #: bound of the request histogram and the slow-query capture
    #: threshold.
    slo_latency_ms: float | None = None

    def __post_init__(self) -> None:
        def fill(name: str, value: Any) -> None:
            object.__setattr__(self, name, value)

        if self.lp_mode is None:
            fill("lp_mode", fastlp.get_lp_mode())
        if self.jobs is None:
            fill("jobs", 1)
        if self.executor is None:
            fill("executor", (_env(ENV_EXECUTOR) or "compiled").lower())
        if self.cache_dir is None:
            fill("cache_dir", _env(ENV_CACHE_DIR))
        if self.cache_budget is None:
            fill("cache_budget", _env_positive(
                ENV_CACHE_BUDGET, int, "an integer byte count"
            ))
        if self.optimizer is None:
            fill("optimizer", (_env(ENV_OPTIMIZER) or "on").lower())
        if self.slow_log is None:
            fill("slow_log", _env(ENV_SLOW_LOG))
        if self.slo_latency_ms is None:
            fill("slo_latency_ms", _env_positive(
                ENV_SLO_LATENCY_MS, float, "a millisecond count"
            ) or DEFAULT_SLO_LATENCY_MS)
        fill("slo_latency_ms", float(self.slo_latency_ms))

        if self.lp_mode not in fastlp.LP_MODES:
            raise ValueError(
                f"lp_mode must be one of {fastlp.LP_MODES}, "
                f"got {self.lp_mode!r}"
            )
        if self.jobs != 1:
            raise ValueError(
                f"jobs must be 1, got {self.jobs!r}: process-parallel "
                f"arrangement construction was removed"
            )
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, "
                f"got {self.executor!r}"
            )
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(
                f"optimizer must be one of {OPTIMIZERS}, "
                f"got {self.optimizer!r}"
            )
        if self.slo_latency_ms <= 0:
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
        """The same config as ``EngineConfig(**overrides)``.

        Unknown keyword names raise ``TypeError`` naming the field.
        """
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise TypeError(
                f"unknown EngineConfig field(s): {sorted(unknown)}"
            )
        return cls(**overrides)

    def with_overrides(self, **changes: Any) -> "EngineConfig":
        """A copy with some fields replaced (the config itself is frozen)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Derived resources
    # ------------------------------------------------------------------
    def store(self) -> "DiskStore | None":
        """The disk store this config names (``None`` = no persistence)."""
        from repro import store as store_pkg

        return store_pkg.resolve_store(
            self.cache_dir, size_budget=self.cache_budget
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
            "optimizer": self.optimizer,
            "slow_log": self.slow_log,
            "slo_latency_ms": self.slo_latency_ms,
        }
