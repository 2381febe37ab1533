"""Adaptive knob selection from persisted statistics.

Resolution order per knob, widest authority first::

    explicit config field  >  REPRO_* environment  >  statistics  >  default

Explicit settings and the environment always win — the optimizer only
fills knobs the operator left open, so pinned configurations (CLI
flags, the server's resolved config, CI matrices) behave exactly as
before.  Every choice carries a ``because`` string; ``repro explain``
and ``/v1/explain`` surface the full decision list.

The statistics tiers:

* **lp_mode** — fed by the E3 filter-hit counters under the
  ``global:lp`` pseudo-node: a float-filter fallback rate above 1/2
  means the float tier is wasted work, so choose ``"exact"``;
  otherwise the filtered tier pays for itself.
* **jobs** — fed by the mean observed face count per run under
  ``global:arrangement``: parallel arrangement construction only
  amortises its process startup on big arrangements.
* **executor/backend** — the compiled set-at-a-time tier is the
  measured default (E15: ≥5× on deep fixpoints); sqlite is opt-in via
  environment or explicit config only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from repro import config as config_mod
from repro.optimizer.statistics import (
    GLOBAL_ARRANGEMENT,
    GLOBAL_LP,
    Statistics,
    StatisticsBook,
)

#: Fallback rate at or above which the float LP filter tier is judged
#: counter-productive and the exact tier is chosen directly.
LP_FALLBACK_THRESHOLD = Fraction(1, 2)

#: Mean faces per run above which parallel arrangement construction
#: (jobs > 1) amortises its worker startup cost.
PARALLEL_FACES_THRESHOLD = Fraction(4096)

#: Worker cap when the statistics ask for parallelism.
PARALLEL_JOBS = 4


@dataclass(frozen=True)
class KnobDecision:
    """One resolved knob with its provenance."""

    name: str
    chosen: str
    because: str
    from_stats: bool = False

    def describe(self) -> dict:
        return {
            "knob": self.name,
            "chosen": self.chosen,
            "because": self.because,
        }


def _env(name: str) -> str | None:
    value = os.environ.get(name, "").strip()
    return value or None


def choose_knobs(
    config, statistics: Statistics | StatisticsBook | None = None
) -> list[KnobDecision]:
    """Resolve every adaptive knob for one engine.

    ``config`` is the engine's (possibly unresolved) ``EngineConfig``;
    ``statistics`` the persisted measurements, if a store is active.
    """
    stats = statistics or Statistics()
    return [
        _choose_lp_mode(config, stats),
        _choose_jobs(config, stats),
        _choose_executor(config),
        _choose_backend(config),
    ]


def decided(decisions: list[KnobDecision], name: str) -> KnobDecision:
    for decision in decisions:
        if decision.name == name:
            return decision
    raise KeyError(name)


def _choose_lp_mode(
    config, stats: Statistics | StatisticsBook
) -> KnobDecision:
    if config.lp_mode is not None:
        return KnobDecision(
            "lp_mode", config.lp_mode, "explicit configuration"
        )
    env = _env(config_mod.ENV_LP_MODE)
    if env is not None:
        return KnobDecision(
            "lp_mode", env.lower(), f"{config_mod.ENV_LP_MODE} environment"
        )
    lp = stats.get(GLOBAL_LP)
    if lp is not None:
        hits = lp.counter("lp.filter_hits")
        fallbacks = lp.counter("lp.filter_fallbacks")
        total = hits + fallbacks
        if total > 0:
            rate = fallbacks / total
            if rate >= LP_FALLBACK_THRESHOLD:
                return KnobDecision(
                    "lp_mode",
                    "exact",
                    f"observed filter fallback rate {float(rate):.0%} "
                    "wastes the float tier",
                    from_stats=True,
                )
            return KnobDecision(
                "lp_mode",
                "filtered",
                f"observed filter hit rate {float(1 - rate):.0%} "
                "keeps LP solves in floats",
                from_stats=True,
            )
    return KnobDecision(
        "lp_mode", "filtered", "default float-filter tier (no statistics)"
    )


def _choose_jobs(
    config, stats: Statistics | StatisticsBook
) -> KnobDecision:
    if config.jobs is not None:
        return KnobDecision(
            "jobs", str(config.jobs), "explicit configuration"
        )
    env = _env(config_mod.ENV_JOBS)
    if env is not None:
        return KnobDecision(
            "jobs", env, f"{config_mod.ENV_JOBS} environment"
        )
    arrangement = stats.get(GLOBAL_ARRANGEMENT)
    if arrangement is not None and arrangement.calls > 0:
        mean_faces = (
            arrangement.counter("arrangement.faces") / arrangement.calls
        )
        if mean_faces >= PARALLEL_FACES_THRESHOLD:
            workers = min(PARALLEL_JOBS, os.cpu_count() or 1)
            if workers > 1:
                return KnobDecision(
                    "jobs",
                    str(workers),
                    f"mean of {int(mean_faces)} faces/run amortises "
                    "parallel workers",
                    from_stats=True,
                )
        return KnobDecision(
            "jobs",
            "1",
            f"mean of {int(mean_faces)} faces/run is below the "
            "parallel threshold",
            from_stats=True,
        )
    return KnobDecision(
        "jobs", "1", "default sequential build (no statistics)"
    )


def _choose_executor(config) -> KnobDecision:
    if config.executor is not None:
        return KnobDecision(
            "executor", config.executor, "explicit configuration"
        )
    env = _env(config_mod.ENV_EXECUTOR)
    if env is not None:
        return KnobDecision(
            "executor", env.lower(), f"{config_mod.ENV_EXECUTOR} environment"
        )
    return KnobDecision(
        "executor",
        "compiled",
        "set-at-a-time IR executor is the measured default "
        "(E15: >=5x on deep fixpoints)",
    )


def _choose_backend(config) -> KnobDecision:
    if config.backend is not None:
        return KnobDecision(
            "backend", config.backend, "explicit configuration"
        )
    env = _env(config_mod.ENV_BACKEND)
    if env is not None:
        return KnobDecision(
            "backend", env.lower(), f"{config_mod.ENV_BACKEND} environment"
        )
    return KnobDecision(
        "backend",
        "memory",
        "in-memory stage sets; sqlite is opt-in for out-of-core runs",
    )
