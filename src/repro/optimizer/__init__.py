"""Cost-based optimizer: persisted statistics, plan rewrites, knobs.

The closed loop over the engine's measured costs:

* :mod:`repro.optimizer.statistics` — the versioned, Fraction-exact
  :class:`Statistics` snapshot persisted in the disk store, and the
  :class:`StatisticsBook` each store keeps in memory, shared by every
  engine of a process and decayed lazily across runs;
* :mod:`repro.optimizer.cost` — the calibrated cost model over plan
  nodes (static priors overridden by observed per-node measurements);
* :mod:`repro.optimizer.rewrite` — answer-preserving plan rewrites:
  NNF + miniscoping, cheapest/most-selective-first conjunct order,
  quantifier-chain elimination order, datalog rule-body atom order;
* :mod:`repro.optimizer.lift` — the region lift: element quantifiers
  over ``S(x̄)`` / ``x̄ ∈ R`` atoms become region quantifiers;
* :mod:`repro.optimizer.knobs` — adaptive lp_mode/jobs/executor/backend
  selection from the persisted statistics, with ``chosen``/``because``
  decision records surfaced by ``repro explain`` and ``/v1/explain``.

Only the statistics layer is imported eagerly (the store codec depends
on it); the heavier submodules are imported by their consumers.
"""

from repro.optimizer.statistics import (
    DECAY,
    FLUSH_RUNS,
    GLOBAL_ARRANGEMENT,
    GLOBAL_LP,
    MAX_NODES,
    STATS_VERSION,
    NodeStats,
    Statistics,
    StatisticsBook,
    harvest_profile,
    make_node_stats,
    node_fingerprint,
)

__all__ = [
    "DECAY",
    "FLUSH_RUNS",
    "GLOBAL_ARRANGEMENT",
    "GLOBAL_LP",
    "MAX_NODES",
    "STATS_VERSION",
    "NodeStats",
    "Statistics",
    "StatisticsBook",
    "harvest_profile",
    "make_node_stats",
    "node_fingerprint",
]
