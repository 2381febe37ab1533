"""Pinned per-node EXPLAIN ANALYZE attribution.

Every plan node's deterministic integers — ``calls``, ``memo_hits``,
inclusive ``counters`` and exclusive ``self_counters`` — are compared
against ``tests/golden/explain_attribution.json`` for four runs:

* the E4 ``connectivity_query_lfp(1)`` sentence on two separated
  intervals (the CI EXPLAIN step's database), under the compiled and
  the interpreted fixpoint executor (the interpreted one evaluates each
  stage body through the evaluator memo, so it pins memo hits);
* the ``examples/map.cdb`` CI query;
* reachability datalog on ``interval_chain(3)`` under the compiled
  executor (one cost line per IR node).

Wall times are not pinned; the integers are, so any change in how a
node's work is bracketed shows up here as a diff.  Every knob is pinned
and the process caches are cleared, so the counts do not depend on the
environment or on test order.

Regenerate the file (only for a deliberate attribution change) with
``PYTHONPATH=src python tests/test_explain_attribution.py``.
"""

import json
from pathlib import Path

import pytest

from repro.config import EngineConfig
from repro.constraints.database import ConstraintDatabase
from repro.constraints.io import load_database
from repro.constraints.parser import parse_formula
from repro.datalog.parser import parse_program
from repro.engine import EngineCache, QueryEngine, default_cache
from repro.explain import explain_datalog
from repro.geometry import fastlp
from repro.geometry.simplex import clear_feasibility_cache
from repro.obs import TRACER, reset_all
from repro.queries.connectivity import connectivity_query_lfp
from repro.workloads.generators import interval_chain

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "explain_attribution.json"
CONFIG = dict(lp_mode="filtered", executor="compiled", optimizer="on")
MAP_QUERY = "exists x0. exists x1. S(x0, x1) & Zone(x0, x1)"
REACH_PROGRAM = (
    "Reach(x) :- S(x), x = 0.\n"
    "Reach(y) :- Reach(x), S(y), y - x <= 1, x - y <= 1.\n"
)


def _clean() -> None:
    reset_all()
    default_cache().invalidate()
    clear_feasibility_cache()


def _record(result) -> list:
    """(op, label, calls, memo_hits, counters, self_counters) per node."""
    rows = []
    for node in result.plan.walk():
        cost = node.cost
        if cost is None:
            rows.append([node.op, node.label, None])
            continue
        rows.append([
            node.op,
            node.label,
            cost["calls"],
            cost["memo_hits"],
            dict(sorted(cost["counters"].items())),
            dict(sorted(cost["self_counters"].items())),
        ])
    return rows


def _e4(executor: str = "compiled"):
    database = ConstraintDatabase.from_formula(
        parse_formula("(0 < x0 & x0 < 1) | (2 < x0 & x0 < 3)"), arity=1
    )
    config = EngineConfig(**{**CONFIG, "executor": executor})
    engine = QueryEngine(database, cache=EngineCache(), config=config)
    return engine.explain(connectivity_query_lfp(1), analyze=True)


def _map():
    engine = QueryEngine(
        load_database(ROOT / "examples" / "map.cdb"),
        cache=EngineCache(),
        config=EngineConfig(**CONFIG),
    )
    return engine.explain(MAP_QUERY, analyze=True)


def _reach():
    with fastlp.lp_mode("filtered"):
        return explain_datalog(
            parse_program(REACH_PROGRAM),
            interval_chain(3),
            analyze=True,
            executor="compiled",
            optimizer="on",
        )


CASES = {
    "e4_connectivity": _e4,
    "e4_interpreted": lambda: _e4("interpreted"),
    "map_cdb": _map,
    "reach_compiled": _reach,
}


def _records() -> dict:
    records = {}
    for name, run in CASES.items():
        _clean()
        records[name] = _record(run())
    _clean()
    return records


@pytest.fixture
def no_store(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    yield
    _clean()


@pytest.mark.parametrize("name", sorted(CASES))
def test_per_node_attribution_is_pinned(name, no_store):
    _clean()
    expected = json.loads(GOLDEN.read_text())[name]
    assert _record(CASES[name]()) == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_explain_inside_an_active_collection_costs_every_node(
    name, no_store
):
    """A caller that already runs a trace collection without counters
    gets the same per-node costs."""
    _clean()
    expected = json.loads(GOLDEN.read_text())[name]
    TRACER.start("outer")
    try:
        record = _record(CASES[name]())
    finally:
        TRACER.stop()
    assert record == expected


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import os

    os.environ.pop("REPRO_CACHE_DIR", None)
    GOLDEN.write_text(
        json.dumps(_records(), indent=1, ensure_ascii=False) + "\n"
    )
    print(f"wrote {GOLDEN}")
