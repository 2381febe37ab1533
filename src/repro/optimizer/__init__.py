"""Cost-based optimizer: answer-preserving plan rewrites.

A plan is a function of the query text alone:

* :mod:`repro.optimizer.cost` — static per-node cost and selectivity
  priors that order a plan's operands;
* :mod:`repro.optimizer.rewrite` — answer-preserving plan rewrites:
  NNF + miniscoping, cheapest/most-selective-first conjunct order,
  quantifier-chain elimination order, datalog rule-body atom order;
* :mod:`repro.optimizer.lift` — the region lift: element quantifiers
  over ``S(x̄)`` / ``x̄ ∈ R`` atoms become region quantifiers.

Runtime knobs (``lp_mode``, ``executor``) are not chosen
here: they resolve explicit > environment > default in
:mod:`repro.config`.  The submodules are imported by their consumers.
"""
