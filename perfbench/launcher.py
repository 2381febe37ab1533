"""Start ``repro serve`` for the benchmark, optionally traced.

Everything after ``--`` is passed to ``repro.cli.main(["serve", ...])``.
With ``--trace-out PATH`` the layer wrappers are installed before the
server starts, and when it exits (on SIGINT) the per-request ledgers,
wrapper call counts and registry counters are written to ``PATH``.

Usage (normally only through ``run.py``)::

    PYTHONPATH=src python3 perfbench/launcher.py --trace-out t.json -- \
        db=db.cdb --port 0 --cache-dir store
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv[:split])
    serve_args = argv[split + 1:]

    tracer = None
    before = {}
    if args.trace_out:
        from tracer import Tracer

        from repro.obs.metrics import get_registry

        tracer = Tracer()
        tracer.install()
        before = dict(get_registry().snapshot())

    from repro.cli import main as repro_main

    code = repro_main(["serve", *serve_args])

    if tracer is not None:
        from tracer import coverage_problems

        from repro.obs.metrics import get_registry

        after = dict(get_registry().snapshot())
        record = {
            "ledger": {
                str(op): layers for op, layers in tracer.ledger.items()
            },
            "op_wall_s": {
                str(op): wall for op, wall in tracer.op_wall.items()
            },
            "calls": tracer.calls,
            "op_extra": {
                str(op): extra for op, extra in tracer.op_extra.items()
            },
            "counters_before": before,
            "counters_after": after,
            "coverage_problems": coverage_problems(tracer, before, after),
        }
        tracer.uninstall()
        record["restored"] = tracer.restored()
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
