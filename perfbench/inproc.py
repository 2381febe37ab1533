"""The engine process of the in-process workloads ``cold-build`` and
``fixpoint``.

``run.py`` starts one of these per setup.  It sets up, prints ``ready``,
and waits for one line on standard input: ``quit`` ends it, ``go`` runs
the timed loop, checks every answer against the oracle and writes one
JSON result to ``--result``.  The loop runs rounds of every op kind
until ``--seconds`` have passed, and always at least one whole round,
so every kind has a sample.

Usage (normally only through ``run.py``)::

    PYTHONPATH=src python3 perfbench/inproc.py --workload fixpoint \
        --seed 1 --seconds 10 --trace 0 --result out.json \
        --oracle-cache oracle.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import inputs
from oracle import Oracle, check, datalog_value, relation_value
from run import Reference, vm_hwm_mb


class ColdBuild:
    """Never-seen databases to their first answer, one per op.

    Each op gets a freshly generated database object, a fresh
    ``EngineCache``, no store and an empty LP feasibility memo, so
    nothing of an earlier op is reused: the op is the Thm 3.1 path
    from relation to region extension to answer.
    """

    ROUND = len(inputs.COLD_ROUND)

    def __init__(self, seed: int) -> None:
        from repro.config import EngineConfig

        self.config = EngineConfig.resolve()
        self.ops = inputs.cold_ops(seed, rounds=60)
        # Warm-up: the lazy imports and first-call costs of every layer.
        self.run_op({"spec": ["interval_chain", 3, False],
                     "query": "S(x0)"})

    def prepare(self, op: dict):
        return inputs.make_database(tuple(op["spec"]))

    def run_op(self, op: dict, database=None):
        from repro.engine import EngineCache, QueryEngine
        from repro.geometry.simplex import clear_feasibility_cache

        if database is None:
            database = self.prepare(op)
        clear_feasibility_cache()
        engine = QueryEngine(database, cache=EngineCache(),
                             config=self.config)
        return engine.evaluate(op["query"])

    @staticmethod
    def render(answer):
        return relation_value(answer)

    @staticmethod
    def expected(oracle: Oracle, op: dict):
        return oracle.spec_query(op["spec"], op["query"])


class Fixpoint:
    """Recursive programs and sentences over warm region extensions.

    Setup builds the sentence databases' extensions into one shared
    ``EngineCache``.  Each op then runs on a fresh engine (fresh
    evaluator memo) with an empty LP feasibility memo, so ops do not
    depend on their order and their counts repeat exactly.
    """

    ROUND = len(inputs.FIXPOINT_ROUND)

    def __init__(self, seed: int) -> None:
        from repro.config import EngineConfig
        from repro.datalog.parser import parse_program
        from repro.engine import EngineCache, QueryEngine

        self.config = EngineConfig.resolve()
        self.cache = EngineCache()
        self.program = parse_program(inputs.REACH_PROGRAM)
        self.ops = inputs.fixpoint_ops(seed, rounds=60)
        for spec in inputs.SENTENCE_SPECS:
            QueryEngine(inputs.make_database(spec), cache=self.cache,
                        config=self.config).extension
        # Warm-up: the compiled datalog path on a tiny chain.
        self.run_op({"kind": "datalog", "spec": ["interval_chain", 2, False]})

    def prepare(self, op: dict):
        return inputs.make_database(tuple(op["spec"]))

    @staticmethod
    def max_stages(op: dict) -> int:
        return 4 * op["spec"][1] + 8

    def run_op(self, op: dict, database=None):
        from repro.datalog import evaluate_program
        from repro.engine import QueryEngine
        from repro.geometry.simplex import clear_feasibility_cache

        if database is None:
            database = self.prepare(op)
        clear_feasibility_cache()
        if op["kind"] == "datalog":
            return evaluate_program(
                self.program, database, max_stages=self.max_stages(op)
            )
        engine = QueryEngine(database, cache=self.cache, config=self.config)
        return engine.truth(op["query"])

    @staticmethod
    def render(answer):
        if isinstance(answer, bool):
            return answer
        return datalog_value(answer)

    def expected(self, oracle: Oracle, op: dict):
        if op["kind"] == "datalog":
            return oracle.datalog(op["spec"], self.max_stages(op))
        return oracle.spec_query(op["spec"], op["query"])


WORKLOADS = {"cold-build": ColdBuild, "fixpoint": Fixpoint}


def registry_snapshot() -> dict:
    from repro.obs.metrics import get_registry

    return dict(get_registry().snapshot())


def run(args) -> dict:
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    command = sys.stdin.readline().strip()
    if command != "go":
        if tracer is not None:
            tracer.uninstall()
        return {}

    if tracer is not None:
        tracer.calls.clear()
    before = registry_snapshot()
    round_counts = None
    records = []
    reference = Reference()
    started = time.perf_counter()
    deadline = started + args.seconds
    for index, op in enumerate(workload.ops):
        database = workload.prepare(op)
        scale = reference.scale()
        op_started = time.perf_counter()
        cpu_started = time.process_time()
        if tracer is not None:
            with tracer.op(index):
                answer = workload.run_op(op, database)
        else:
            answer = workload.run_op(op, database)
        cpu = time.process_time() - cpu_started
        latency = time.perf_counter() - op_started
        records.append({"op": op, "latency_s": latency, "cpu_s": cpu,
                        "norm_s": cpu * scale, "answer": answer,
                        "round": index // workload.ROUND})
        if round_counts is None and (index + 1) == workload.ROUND:
            # Peak memory after the same work on every run: one round.
            round_counts = registry_snapshot()
            rss = vm_hwm_mb("self")
        if round_counts is not None and time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - started
    after = registry_snapshot()

    result = {
        "elapsed_s": elapsed,
        "rounds": len(records) / workload.ROUND,
        "round_size": workload.ROUND,
        "reference": reference.describe(),
        "peak_rss_mb": rss,
        "ops": [
            {"kind": r["op"].get("kind", "cold"), "round": r["round"],
             "spec": r["op"]["spec"], "latency_s": r["latency_s"],
             "cpu_s": r["cpu_s"], "norm_s": r["norm_s"]}
            for r in records
        ],
        "request_digest": inputs.request_digest(workload.ops),
        "config": workload.config.describe(),
        "counts": {
            "round1": {
                name: value - before.get(name, 0)
                for name, value in round_counts.items()
                if value != before.get(name, 0)
            },
            "total": {
                name: value - before.get(name, 0)
                for name, value in after.items()
                if value != before.get(name, 0)
            },
        },
    }
    if tracer is not None:
        from tracer import coverage_problems

        ops = list(range(len(records)))
        result["trace"] = {
            "layers": tracer.layer_totals(ops),
            "extra": tracer.extra_totals(ops),
            "op_wall_s": [tracer.op_wall[i] for i in ops],
            "sum_mismatches": tracer.check_ops(ops),
            "coverage_problems": coverage_problems(tracer, before, after),
        }
        tracer.uninstall()
        result["trace"]["restored"] = tracer.restored()

    oracle = Oracle(args.oracle_cache)
    from repro.geometry.simplex import clear_feasibility_cache

    clear_feasibility_cache()
    mismatches = []
    for index, record in enumerate(records):
        # Rendered only now: is_empty() solves LPs that must not count
        # in the loop's registry deltas.
        answer = workload.render(record["answer"])
        if not check(answer, workload.expected(oracle, record["op"])):
            mismatches.append(index)
    oracle.save()
    result["wrong"] = mismatches
    result["oracle_computed"] = oracle.computed
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--oracle-cache", required=True)
    args = parser.parse_args(argv)
    result = run(args)
    if result:
        with open(args.result, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
