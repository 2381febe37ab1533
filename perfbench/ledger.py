"""Write the reference ledger: layer shares and tracing overhead.

For each workload, ``PAIRS`` alternating untraced and traced runs of
``run.py`` on seed ``SEED``, ``SECONDS`` long.  The first traced run
gives each layer's share of the op time; the tracing overhead is the
median over the pairs of the traced run's ``norm_cpu_ms_per_op``
against its untraced neighbour's.  Usage, from the root of a checkout::

    python3 perfbench/ledger.py --output perfbench/ledger.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import WORKLOADS

SEED = 1
SECONDS = 15
PAIRS = 3


def run(workload: str, trace: int):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    metrics = {
        name: entry["value"]
        for name, entry in json.loads(lines[-1])["metrics"].items()
    }
    return json.loads(lines[-2])["report"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)
    ledger = {"seed": SEED, "seconds": SECONDS, "pairs": PAIRS,
              "workloads": {}}
    for workload in WORKLOADS:
        pairs = []
        for __ in range(PAIRS):
            plain_report, plain = run(workload, 0)
            traced_report, traced = run(workload, 1)
            pairs.append([plain["norm_cpu_ms_per_op"],
                          traced["trace.norm_cpu_ms_per_op"]])
            if len(pairs) == 1:
                first = (plain_report, plain, traced_report, traced)
        plain_report, plain, traced_report, traced = first
        ledger["workloads"][workload] = {
            "untraced": plain,
            "pairs": pairs,
            "tracing_overhead": statistics.median(
                traced / plain - 1 for plain, traced in pairs
            ),
            "layer_shares": traced_report["layer_shares"],
            "layer_self_s": {
                name[:-len(".self_s")]: value
                for name, value in traced.items()
                if name.endswith(".self_s") and value
            },
            "traced_ops": traced["trace.ops"],
            "counts": plain_report["counts"],
        }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
