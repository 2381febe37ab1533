"""The interface the perfbench oracle (``perfbench/oracle.py``) relies on.

The oracle answers every benchmark request on the program's reference
path: ``EngineConfig(executor="interpreted", optimizer="off",
lp_mode="exact", jobs=1)`` on a fresh :class:`EngineCache`, inside
``fastlp.lp_mode("exact")``, and ``evaluate_program(...,
executor="interpreted", optimizer="off")`` for datalog.  These tests pin
that surface so a change to the engine cannot silently break the
benchmark's answer checks, and they pin that ``jobs`` accepts only 1
now that arrangements are built by one sequential DFS.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.config import EngineConfig
from repro.constraints.io import save_database
from repro.datalog import evaluate_program
from repro.datalog.parser import parse_program
from repro.engine import EngineCache, QueryEngine
from repro.geometry import fastlp
from repro.workloads.generators import interval_chain

#: ``perfbench/oracle.py``'s ``ORACLE_KNOBS``.
ORACLE_KNOBS = {
    "executor": "interpreted",
    "optimizer": "off",
    "lp_mode": "exact",
    "jobs": 1,
}

#: ``perfbench/inputs.py``'s ``REACH_PROGRAM``.
REACH_PROGRAM = (
    "Reach(x) :- S(x), x = 0.\n"
    "Reach(y) :- Reach(x), S(y), y - x <= 1, x - y <= 1.\n"
)


def test_oracle_config_constructs_and_answers():
    config = EngineConfig(**ORACLE_KNOBS)
    engine = QueryEngine(interval_chain(3), cache=EngineCache(), config=config)
    mode_before = fastlp.get_lp_mode()
    with fastlp.lp_mode("exact"):
        assert fastlp.get_lp_mode() == "exact"
        answer = engine.evaluate("S(x) & x < 1")
        truth = engine.evaluate("exists x. (S(x) & 2 < x)")
    assert answer.variables == ("x",)
    assert not answer.is_empty()
    assert truth.arity == 0 and not truth.is_empty()
    assert fastlp.get_lp_mode() == mode_before


def test_resolve_pins_jobs_to_one(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "4")  # not read any more
    assert EngineConfig.resolve().jobs == 1
    assert EngineConfig.resolve(jobs=1).jobs == 1


def test_oracle_datalog_call():
    outcome = evaluate_program(
        parse_program(REACH_PROGRAM),
        interval_chain(3),
        max_stages=10,
        executor="interpreted",
        optimizer="off",
    )
    assert outcome.converged
    assert not outcome["Reach"].is_empty()


def test_parallel_construction_is_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="parallel arrangement "
                       "construction was removed"):
        EngineConfig(jobs=2)
    path = tmp_path / "chain.cdb"
    save_database(interval_chain(2), path)
    with pytest.raises(SystemExit) as exit_info:
        main(["query", str(path), "exists x. S(x)", "--jobs", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
