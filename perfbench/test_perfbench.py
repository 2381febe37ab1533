"""The benchmark's own tests (seconds, not minutes).

Run from the root of the repository::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import pytest

import inputs
from oracle import Oracle, check, datalog_value
from tracer import TARGETS, Tracer, coverage_problems

DATABASES = inputs.SERVE_READ_DBS


def test_request_lists_are_deterministic_per_seed():
    def lists(seed):
        return [
            inputs.read_requests(seed, 0, 300, DATABASES,
                                 inputs.ELEMENT_DBS, inputs.SENTENCE_DBS),
            inputs.write_cycles(seed, 50),
            inputs.cold_ops(seed, 3),
            inputs.fixpoint_ops(seed, 3),
        ]

    assert inputs.request_digest(lists(7)) == inputs.request_digest(lists(7))
    assert inputs.request_digest(lists(7)) != inputs.request_digest(lists(8))


def test_read_mix_shares_and_repeats():
    requests = inputs.read_requests(3, 1, 2000, DATABASES,
                                    inputs.ELEMENT_DBS, inputs.SENTENCE_DBS)
    kinds = [request["kind"] for request in requests]
    fresh = [r["query"] for r in requests if r["kind"] == "fresh"]
    assert len(set(fresh)) == len(fresh), "fresh queries never repeat"
    assert 0.7 < kinds.count("fresh") / len(kinds) < 0.9
    seen = set()
    for request in requests:
        key = (request["database"], request["query"])
        if request["kind"] == "repeat":
            assert key in seen, "a repeat follows its original"
        seen.add(key)


def test_rounds_keep_a_fixed_composition():
    ops = inputs.cold_ops(5, 2)
    for start in (0, len(inputs.COLD_ROUND)):
        chunk = ops[start:start + len(inputs.COLD_ROUND)]
        assert sorted(tuple(op["spec"]) for op in chunk) == sorted(
            inputs.COLD_ROUND
        )


def test_read_blocks_keep_a_fixed_composition():
    requests = inputs.read_requests(4, 0, 3 * inputs.READ_BLOCK, DATABASES,
                                    inputs.ELEMENT_DBS, inputs.SENTENCE_DBS)
    blocks = [requests[i:i + inputs.READ_BLOCK]
              for i in range(0, len(requests), inputs.READ_BLOCK)]
    for block in blocks:
        fresh = sorted((r["database"], r["template"]) for r in block
                       if r["kind"] == "fresh")
        assert fresh == sorted((r["database"], r["template"])
                               for r in blocks[0] if r["kind"] == "fresh")
        assert sum(r["kind"] == "repeat" for r in block) \
            == inputs.REPEATS_PER_BLOCK


def test_metrics_weigh_whole_rounds_only():
    from run import end_to_end

    outcome = {
        "op_kinds": [("a", 0.010), ("b", 0.030), ("a", 0.020),
                     ("b", 0.040), ("a", 0.500)],
        "round_size": 2,
        "setup_times": [1.0, 3.0, 2.0],
        "peak_rss_mb": 40.0,
    }
    metrics = end_to_end("cold-build", outcome)
    # The third, partial round would tilt the mix towards "a".
    assert metrics["norm_cpu_ms_per_op"][0] == pytest.approx(25.0)
    assert metrics["setup_s"][0] == 2.0


def test_reference_scales_to_its_nominal_time():
    from run import REFERENCE_MS, Reference

    reference = Reference()
    scale = reference.scale()
    assert scale == pytest.approx(REFERENCE_MS / 1000
                                  / reference.samples[-1])
    assert reference.scale() == scale, "re-measured only after a while"
    assert len(reference.samples) == 1


def test_sentences_match_the_library_queries():
    from repro.logic.parser import parse_query
    from repro.queries.connectivity import (
        connectivity_query_lfp,
        connectivity_query_tc,
    )

    for dimension in (1, 2):
        assert str(parse_query(inputs.connectivity_sentence(
            "lfp", dimension))) == str(connectivity_query_lfp(dimension))
        assert str(parse_query(inputs.connectivity_sentence(
            "tc", dimension))) == str(connectivity_query_tc(dimension))


def test_oracle_rejects_a_planted_wrong_answer():
    oracle = Oracle()
    spec = ("interval_chain", 2, False)
    query = "exists y. S(y) & x0 - y <= 1/2 & y - x0 <= 1/2"
    expected = oracle.spec_query(spec, query)
    assert check(dict(expected), expected)
    planted = dict(expected, formula="x0 >= -1/2 & x0 <= 3")
    assert not check(planted, expected)
    truth = oracle.spec_query(spec, inputs.connectivity_sentence("tc", 1))
    assert truth is True
    assert not check(False, truth)


def test_oracle_datalog_is_compared_exactly():
    from repro.datalog import evaluate_program
    from repro.datalog.parser import parse_program

    spec = ("interval_chain", 3, False)
    expected = Oracle().datalog(spec, max_stages=20)
    outcome = evaluate_program(parse_program(inputs.REACH_PROGRAM),
                               inputs.make_database(spec), max_stages=20)
    assert check(datalog_value(outcome), expected)
    assert not check(dict(expected, stages=expected["stages"] + 1), expected)


def test_wrapper_install_and_uninstall_are_idempotent():
    from repro.engine import EngineCache, QueryEngine
    from repro.geometry import simplex
    from repro.obs.metrics import get_registry

    original = simplex.feasible
    tracer = Tracer()
    tracer.install()
    patches = len(tracer._patches)
    assert patches >= len(TARGETS)
    tracer.install()
    assert len(tracer._patches) == patches
    assert simplex.feasible is not original

    before = dict(get_registry().snapshot())
    with tracer.op("op"):
        QueryEngine(inputs.make_database(("interval_chain", 2, False)),
                    cache=EngineCache()).evaluate("S(x0) & x0 <= 1/2")
    after = dict(get_registry().snapshot())
    assert tracer.check_ops() == []
    assert coverage_problems(tracer, before, after) == []
    assert tracer.ledger["op"]["arrangement"][0] == 1

    tracer.uninstall()
    assert tracer.restored()
    assert simplex.feasible is original
    tracer.uninstall()
    assert tracer.restored()
