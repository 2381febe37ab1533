"""Command-line interface for the repro constraint database engine.

Usage (also via ``python -m repro``):

.. code-block:: text

    repro check DB.cdb                     validate + structural report
    repro regions DB.cdb [--decomposition arrangement|refined|nc1]
    repro query DB.cdb "forall x. S(x) -> x < 5"
    repro explain DB.cdb "..." [--analyze] annotated query plan tree
    repro arrangement DB.cdb               face census + incidence stats
    repro encode DB.cdb                    the Theorem 6.4 encoding word
    repro render DB.cdb out.svg            2-D relations only
    repro serve DB.cdb [NAME=DB2.cdb ...]  async multi-tenant HTTP API
    repro metrics [DB.cdb ["query"]]       Prometheus text metrics dump
    repro slowlog [PATH]                   inspect the slow-query log

Databases are text files in the format of :mod:`repro.constraints.io`.

``--journal PATH`` (or ``REPRO_JOURNAL``) streams the structured event
journal of the command — spans, cache and store decisions, fixpoint
stages, worker lifecycle — to PATH as JSON Lines; see
:mod:`repro.obs.journal` and ``repro.obs.replay``.

Every **one-shot** invocation of :func:`main` starts from pristine
observability state (:func:`repro.obs.reset_all`), so back-to-back
calls in one process cannot leak counters, open spans or journal
buffers.  Long-running commands (``serve``) skip the reset: their
counters are live operational state surfaced by ``GET /v1/stats`` and
must survive for the life of the process.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.errors import ReproError
from repro.config import (
    EXECUTORS,
    METRICS_LABELS,
    OPTIMIZERS,
    EngineConfig,
)
from repro.constraints.io import load_database
from repro.engine import QueryEngine
from repro.geometry import fastlp
from repro.logic.parser import parse_query
from repro.logic.properties import (
    coordinate_bound,
    has_small_coordinate_property,
)
from repro.obs import JOURNAL, TRACER, get_registry, reset_all
from repro.obs.journal import ENV_JOURNAL
from repro.store import store_scope
from repro.twosorted.structure import RegionExtension


def _add_decomposition_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--decomposition",
        choices=("arrangement", "refined", "nc1"),
        default="arrangement",
        help="region decomposition to use (default: arrangement)",
    )


def _add_spatial_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spatial",
        default="S",
        help="name of the spatial relation (default: S)",
    )


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print a span tree of where the command's time went",
    )


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for arrangement construction "
        "(default: $REPRO_JOBS, else sequential)",
    )


def _add_cache_dir_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist arrangements and query answers under DIR so later "
        "runs warm-start from disk (default: $REPRO_CACHE_DIR, else no "
        "persistence; $REPRO_CACHE_BUDGET bounds the store in bytes)",
    )


def _add_journal_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append the command's structured event journal to PATH as "
        "JSON Lines (default: $REPRO_JOURNAL, else no journal)",
    )


def _add_lp_mode_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lp-mode",
        choices=fastlp.LP_MODES,
        default=None,
        help="LP tier: 'filtered' = certified float filter with exact "
        "fallback, 'exact' = rational simplex only "
        "(default: $REPRO_LP_MODE, else filtered)",
    )


def _add_optimizer_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--optimizer",
        choices=OPTIMIZERS,
        default=None,
        help="cost-based plan optimizer: 'on' = answer-preserving "
        "rewrites (NNF + miniscoping, cost-ordered operands) fed by "
        "persisted statistics, 'off' = the ablated oracle plans "
        "(default: $REPRO_OPTIMIZER, else on)",
    )


def _add_executor_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="fixpoint executor: 'compiled' = relational-algebra IR "
        "over memoised kernels, 'interpreted' = the rule-at-a-time "
        "oracle; both give byte-identical answers "
        "(default: $REPRO_EXECUTOR, else compiled)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="fixed-point query languages for linear constraint "
                    "databases (Kreutzer, PODS 2000)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="validate a database file")
    check.add_argument("database")
    _add_trace_flag(check)

    regions = commands.add_parser("regions", help="list the region sort")
    regions.add_argument("database")
    _add_decomposition_flag(regions)
    _add_spatial_flag(regions)
    _add_trace_flag(regions)

    query = commands.add_parser("query", help="evaluate a query")
    query.add_argument("database")
    query.add_argument("text", help="query in the region-logic syntax")
    _add_decomposition_flag(query)
    _add_spatial_flag(query)
    _add_trace_flag(query)
    _add_jobs_flag(query)
    _add_lp_mode_flag(query)
    _add_optimizer_flag(query)
    _add_cache_dir_flag(query)
    _add_journal_flag(query)

    explain = commands.add_parser(
        "explain",
        help="compile a query into an annotated plan tree; --analyze "
             "also executes it and attaches per-node measured costs",
    )
    explain.add_argument("database")
    explain.add_argument(
        "text",
        help="query in the region-logic syntax (or a datalog program, "
             "one rule per line, with --datalog)",
    )
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="execute the query and attach per-node wall time, LP "
             "solves, DFS nodes, cache hits and fixpoint stage deltas",
    )
    explain.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the plan (and totals) as JSON instead of a tree",
    )
    explain.add_argument(
        "--datalog",
        action="store_true",
        help="treat the query text as a spatial datalog program",
    )
    _add_decomposition_flag(explain)
    _add_spatial_flag(explain)
    _add_jobs_flag(explain)
    _add_lp_mode_flag(explain)
    _add_executor_flag(explain)
    _add_optimizer_flag(explain)
    _add_cache_dir_flag(explain)
    _add_journal_flag(explain)

    profile = commands.add_parser(
        "profile",
        help="evaluate a query and dump a JSON span tree plus metrics",
    )
    profile.add_argument("database")
    profile.add_argument("text", help="query in the region-logic syntax")
    _add_decomposition_flag(profile)
    _add_spatial_flag(profile)
    _add_jobs_flag(profile)
    _add_lp_mode_flag(profile)
    _add_cache_dir_flag(profile)
    _add_journal_flag(profile)

    arrangement = commands.add_parser(
        "arrangement", help="arrangement census and incidence statistics"
    )
    arrangement.add_argument("database")
    _add_spatial_flag(arrangement)
    _add_trace_flag(arrangement)
    _add_jobs_flag(arrangement)
    _add_lp_mode_flag(arrangement)
    _add_cache_dir_flag(arrangement)

    bench = commands.add_parser(
        "bench",
        help="run a named before/after benchmark and emit its JSON record",
    )
    bench.add_argument(
        "name", choices=("e2", "e3", "e14", "e15", "e16"),
        help="benchmark to run (E2 arrangement scaling, E3 LP filter "
             "microbench, E14 cost-based optimizer, E15 spatial "
             "datalog, E16 incremental view maintenance)",
    )
    bench.add_argument(
        "--sizes",
        default=None,
        help="comma-separated size ladder (default: the benchmark's own)",
    )
    bench.add_argument(
        "--check-only",
        action="store_true",
        help="verify baseline/fast equivalence without requiring a "
             "speedup (exit 1 on mismatch); used by CI",
    )
    bench.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the JSON record to PATH (e.g. BENCH_E2.json)",
    )
    bench.add_argument(
        "--append-history",
        default=None,
        metavar="PATH",
        dest="append_history",
        help="append a one-line summary (git sha, UTC timestamp, python "
             "version, speedup) to PATH as JSON Lines",
    )
    bench.add_argument(
        "--check-regression",
        action="store_true",
        dest="check_regression",
        help="compare this run's fast-path timing against the median of "
             "recent matching history lines; exit 3 on a regression",
    )
    bench.add_argument(
        "--history",
        default="BENCH_HISTORY.jsonl",
        metavar="PATH",
        help="history JSONL file for --check-regression "
             "(default: BENCH_HISTORY.jsonl)",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="FRAC",
        help="slowdown fraction tolerated before flagging a regression "
             "(default: 0.25, i.e. 25%% over the historical median)",
    )
    bench.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="number of recent matching history lines whose median is "
             "the baseline (default: 5)",
    )
    _add_jobs_flag(bench)
    _add_lp_mode_flag(bench)
    _add_executor_flag(bench)
    _add_cache_dir_flag(bench)
    _add_journal_flag(bench)

    stats = commands.add_parser(
        "stats",
        help="inspect the optimizer's persisted execution statistics "
             "(hottest plan nodes, observed vs predicted cost)",
    )
    stats.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="show the N hottest plan nodes by accumulated wall "
             "(default: 10)",
    )
    stats.add_argument(
        "--query",
        default=None,
        metavar="TEXT",
        help="also parse TEXT and report observed vs predicted cost "
             "for each of its sub-formulas with recorded statistics",
    )
    stats.add_argument(
        "--clear",
        action="store_true",
        help="reset the statistics (the in-memory book and the "
             "persisted entry) to an empty object",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the report as JSON instead of a table",
    )
    _add_cache_dir_flag(stats)

    encode = commands.add_parser(
        "encode", help="print the capture encoding word"
    )
    encode.add_argument("database")
    _add_decomposition_flag(encode)
    _add_spatial_flag(encode)
    _add_trace_flag(encode)

    serve = commands.add_parser(
        "serve",
        help="serve databases over the async multi-tenant HTTP/JSON API "
             "(POST /v1/query, /v1/explain; GET /v1/healthz, "
             "/v1/stats, /metrics)",
    )
    serve.add_argument(
        "databases",
        nargs="+",
        metavar="DB",
        help="database file(s) to serve; 'NAME=PATH' registers PATH "
             "under NAME, a bare PATH under its file stem; the first "
             "one is also the 'default' database",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787,
                       help="TCP port; 0 picks an ephemeral port "
                            "(default: 8787)")
    serve.add_argument(
        "--max-concurrent", type=int, default=4, metavar="N",
        help="requests evaluating at once (default: 4)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="requests allowed to wait before 503 (default: 64)",
    )
    serve.add_argument(
        "--quota-rate", type=float, default=50.0, metavar="RPS",
        help="per-tenant token refill rate in requests/second "
             "(default: 50)",
    )
    serve.add_argument(
        "--quota-burst", type=int, default=100, metavar="N",
        help="per-tenant token bucket capacity (default: 100)",
    )
    serve.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        help="exit after serving N requests (smoke tests and CI)",
    )
    serve.add_argument(
        "--slow-log",
        default=None,
        metavar="PATH",
        dest="slow_log",
        help="capture EXPLAIN ANALYZE records for requests slower than "
             "the SLO latency objective to PATH as JSON Lines "
             "(default: $REPRO_SLOW_LOG, else off)",
    )
    serve.add_argument(
        "--slo-latency-ms",
        type=float,
        default=None,
        metavar="MS",
        dest="slo_latency_ms",
        help="per-tenant latency objective in milliseconds; doubles as "
             "the slow-query capture threshold "
             "(default: $REPRO_SLO_LATENCY_MS, else 250)",
    )
    serve.add_argument(
        "--metrics-labels",
        choices=METRICS_LABELS,
        default=None,
        dest="metrics_labels",
        help="attach tenant/endpoint/executor/lp_mode labels to "
             "histogram series; 'off' collapses everything to unlabeled "
             "aggregates (default: $REPRO_METRICS_LABELS, else on)",
    )
    _add_decomposition_flag(serve)
    _add_spatial_flag(serve)
    _add_jobs_flag(serve)
    _add_lp_mode_flag(serve)
    _add_executor_flag(serve)
    _add_optimizer_flag(serve)
    _add_cache_dir_flag(serve)
    _add_journal_flag(serve)

    metrics = commands.add_parser(
        "metrics",
        help="dump process metrics in the Prometheus text exposition "
             "format; with a database (and query) the command evaluates "
             "first so engine/LP/store series are populated",
    )
    metrics.add_argument(
        "database", nargs="?", default=None,
        help="database to load (optional; populates store/engine series)",
    )
    metrics.add_argument(
        "text", nargs="?", default=None,
        help="query to evaluate before the dump (optional)",
    )
    _add_decomposition_flag(metrics)
    _add_spatial_flag(metrics)
    _add_jobs_flag(metrics)
    _add_lp_mode_flag(metrics)
    _add_executor_flag(metrics)
    _add_optimizer_flag(metrics)
    _add_cache_dir_flag(metrics)

    slowlog = commands.add_parser(
        "slowlog",
        help="inspect the slow-query log written by a server "
             "(--slow-log / $REPRO_SLOW_LOG)",
    )
    slowlog.add_argument(
        "path", nargs="?", default=None,
        help="slow-log JSONL file (default: $REPRO_SLOW_LOG)",
    )
    slowlog.add_argument(
        "--limit", type=int, default=10, metavar="N",
        help="show only the newest N records (default: 10)",
    )
    slowlog.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the full records (including the captured EXPLAIN "
             "ANALYZE plans) as JSON instead of a summary table",
    )

    render = commands.add_parser(
        "render", help="render a 2-D database to SVG"
    )
    render.add_argument("database")
    render.add_argument("output")
    render.add_argument(
        "--viewport", default="-1,4,-1,4",
        help="xmin,xmax,ymin,ymax (default -1,4,-1,4)",
    )
    _add_spatial_flag(render)

    return parser


def _cmd_check(args: argparse.Namespace, out) -> int:
    database = load_database(args.database)
    print(f"database: {args.database}", file=out)
    print(f"  relations: {', '.join(database.names())}", file=out)
    print(f"  representation size |B| = {database.size()}", file=out)
    for name, relation in database:
        empty = relation.is_empty()
        print(
            f"  {name}({', '.join(relation.variables)}): "
            f"{len(relation.disjuncts())} disjuncts"
            f"{', EMPTY' if empty else ''}",
            file=out,
        )
    return 0


def _cmd_regions(args: argparse.Namespace, out) -> int:
    database = load_database(args.database)
    extension = RegionExtension.build(
        database, args.decomposition, args.spatial
    )
    print(f"{extension}", file=out)
    for region in extension.regions:
        inside = extension.region_subset_of_spatial(region.index)
        marker = "in S" if inside else ""
        print(f"  {region} {marker}", file=out)
    return 0


def _cmd_query(args: argparse.Namespace, out) -> int:
    database = load_database(args.database)
    formula = parse_query(args.text)
    engine = QueryEngine(
        database, args.decomposition, args.spatial,
        config=EngineConfig(jobs=args.jobs, optimizer=args.optimizer),
    )
    if formula.free_region_vars() or formula.free_set_vars():
        print(
            "error: queries must not have free region or set variables",
            file=out,
        )
        return 2
    answer = engine.evaluate(formula)
    if answer.arity == 0:
        print(f"answer: {not answer.is_empty()}", file=out)
        return 0
    print(f"answer relation over ({', '.join(answer.variables)}):",
          file=out)
    print(f"  {answer.formula}", file=out)
    witnesses = answer.sample_points()
    if witnesses:
        shown = ", ".join(
            "(" + ", ".join(str(c) for c in point) + ")"
            for point in witnesses[:5]
        )
        print(f"  sample points: {shown}", file=out)
    else:
        print("  (empty)", file=out)
    return 0


def _cmd_explain(args: argparse.Namespace, out) -> int:
    """EXPLAIN (ANALYZE) a query: print the annotated plan tree."""
    import json

    database = load_database(args.database)
    if args.datalog:
        from repro.datalog.parser import parse_program
        from repro.explain import explain_datalog

        program = parse_program(args.text)
        result = explain_datalog(
            program, database, analyze=args.analyze,
            executor=args.executor, optimizer=args.optimizer,
        )
    else:
        formula = parse_query(args.text)
        if formula.free_region_vars() or formula.free_set_vars():
            print(
                "error: queries must not have free region or set "
                "variables",
                file=out,
            )
            return 2
        engine = QueryEngine(
            database, args.decomposition, args.spatial,
            config=EngineConfig(jobs=args.jobs, optimizer=args.optimizer),
        )
        result = engine.explain(formula, analyze=args.analyze)
    if args.as_json:
        print(json.dumps(result.to_dict(), indent=2), file=out)
    else:
        print(result.format(), file=out)
    return 0


def _cmd_profile(args: argparse.Namespace, out) -> int:
    """Evaluate a query under tracing; emit a JSON span tree + metrics.

    The metrics registry is reset first so the dump reflects this one
    command; the span tree covers database load, the Theorem-3.1
    construction (or its cache hit), LP activity and the evaluator.
    """
    import json

    registry = get_registry()
    registry.reset()
    TRACER.start("profile")
    try:
        with TRACER.span("load"):
            database = load_database(args.database)
            formula = parse_query(args.text)
        if formula.free_region_vars() or formula.free_set_vars():
            print(
                "error: queries must not have free region or set variables",
                file=out,
            )
            return 2
        engine = QueryEngine(
            database, args.decomposition, args.spatial,
            config=EngineConfig(jobs=args.jobs),
        )
        answer = engine.evaluate(formula)
        empty = answer.is_empty()
    finally:
        root = TRACER.stop()
    payload = {
        "command": "profile",
        "database": args.database,
        "query": args.text,
        "decomposition": args.decomposition,
        "lp_mode": fastlp.get_lp_mode(),
        "cache_dir": args.cache_dir,
        "store": engine.stats().get("store"),
        "fingerprint": engine.fingerprint,
        "answer": {
            "variables": list(answer.variables),
            "empty": empty,
        },
        "spans": root.to_dict(),
        "metrics": registry.snapshot(),
    }
    print(json.dumps(payload, indent=2), file=out)
    return 0


def _cmd_arrangement(args: argparse.Namespace, out) -> int:
    from repro.arrangement.builder import build_arrangement
    from repro.arrangement.incidence import IncidenceGraph

    database = load_database(args.database)
    relation = database.relation(args.spatial)
    arrangement = build_arrangement(relation, parallel=args.jobs)
    census = arrangement.face_count_by_dimension()
    print(f"hyperplanes: {len(arrangement.hyperplanes)}", file=out)
    for dim in sorted(census, reverse=True):
        print(f"  {dim}-dimensional faces: {census[dim]}", file=out)
    print(f"  total faces: {len(arrangement)}", file=out)
    graph = IncidenceGraph.build(arrangement)
    print(f"  incidence edges: {graph.edge_count()}", file=out)
    inside = len(arrangement.faces_in_relation())
    print(f"  faces contained in {args.spatial}: {inside}", file=out)
    return 0


def _cmd_encode(args: argparse.Namespace, out) -> int:
    from repro.capture.encoding import encode_database

    database = load_database(args.database)
    extension = RegionExtension.build(
        database, args.decomposition, args.spatial
    )
    word = encode_database(extension)
    small = has_small_coordinate_property(extension)
    print(f"regions: {len(extension.decomposition)}", file=out)
    print(f"coordinate bound: {coordinate_bound(extension)}", file=out)
    print(f"small coordinate property: {small}", file=out)
    print(f"word: {word}", file=out)
    return 0


def _cmd_render(args: argparse.Namespace, out) -> int:
    import pathlib

    from repro.viz.svg import render_relation

    database = load_database(args.database)
    relation = database.relation(args.spatial)
    parts = [float(v) for v in args.viewport.split(",")]
    if len(parts) != 4:
        print("error: viewport must be xmin,xmax,ymin,ymax", file=out)
        return 2
    svg = render_relation(relation, viewport=tuple(parts))
    pathlib.Path(args.output).write_text(svg)
    print(f"wrote {args.output}", file=out)
    return 0


def _cmd_bench(args: argparse.Namespace, out) -> int:
    """Run a named benchmark; print (and optionally write) its record.

    With ``--check-only`` the exit code reflects only the baseline/fast
    equivalence checks; otherwise a failed equivalence still fails the
    run — the fast paths must never change answers.
    """
    import json

    from repro.bench import (
        BENCHMARKS,
        append_history,
        check_regression,
        write_record,
    )

    runner, __ = BENCHMARKS[args.name]
    kwargs: dict = {"check_only": args.check_only}
    if args.sizes:
        try:
            sizes = tuple(
                int(part) for part in args.sizes.split(",") if part.strip()
            )
        except ValueError:
            print("error: --sizes must be comma-separated integers",
                  file=out)
            return 2
        kwargs["sizes"] = sizes
    if args.name == "e2":
        kwargs["jobs"] = args.jobs
    if args.name == "e15" and args.executor:
        kwargs["executor"] = args.executor
    record = runner(**kwargs)
    print(json.dumps(record, indent=2), file=out)
    if args.output:
        write_record(record, args.output)
        print(f"wrote {args.output}", file=out)
    exit_code = 0 if record["all_match"] else 1
    if args.check_regression:
        regression_kwargs: dict = {}
        if args.window is not None:
            regression_kwargs["window"] = args.window
        if args.tolerance is not None:
            regression_kwargs["tolerance"] = args.tolerance
        verdict = check_regression(
            record, args.history, **regression_kwargs
        )
        print(json.dumps({"regression_check": verdict}, indent=2),
              file=out)
        if verdict["status"] == "regression":
            print(
                f"error: performance regression — current "
                f"{verdict['current_s']}s vs median "
                f"{verdict['median_s']}s over the last "
                f"{verdict['samples']} matching run(s) "
                f"(ratio {verdict['ratio']}, tolerance "
                f"{verdict['tolerance']})",
                file=out,
            )
            exit_code = exit_code or 3
    # History is appended AFTER the regression check: a run must not be
    # compared against itself, and a regressing run still lands in the
    # history so a deliberate slowdown re-baselines after `window` runs.
    if args.append_history:
        append_history(record, args.append_history)
        print(f"appended history to {args.append_history}", file=out)
    return exit_code


def _cmd_stats(args: argparse.Namespace, out) -> int:
    """Inspect (or clear) the optimizer's persisted statistics.

    Works against the active disk store (``--cache-dir`` or
    ``REPRO_CACHE_DIR``): prints the decayed run count and the hottest
    plan-node fingerprints by accumulated wall.  With ``--query`` the
    text is parsed and each sub-formula with recorded measurements is
    shown next to the cost model's static prediction, so calibration
    drift is visible at a glance.  ``--clear`` empties the store's
    shared statistics book and writes an empty entry.  Reads go through
    the book, so runs recorded earlier in this process are included
    even before they are written back.
    """
    import json

    from repro.optimizer import node_fingerprint
    from repro.optimizer.cost import CostModel, _SECONDS_TO_UNITS
    from repro.store import active_store

    store = active_store()
    if store is None:
        print(
            "error: no disk store active (pass --cache-dir or set "
            "REPRO_CACHE_DIR)",
            file=out,
        )
        return 2
    if args.clear:
        store.reset_statistics()
        print(f"cleared statistics in {store.root}", file=out)
        return 0
    statistics = store.statistics_book().snapshot()
    report: dict = {
        "cache_dir": str(store.root),
        "runs": float(statistics.runs),
        "nodes": len(statistics.nodes),
        "hottest": [
            {
                "fingerprint": fingerprint[:16],
                "calls": float(stats.calls),
                "wall_s": round(float(stats.wall), 6),
                "mean_wall_s": round(float(stats.mean_wall()), 6),
                "mean_size": round(float(stats.mean_size()), 2),
            }
            for fingerprint, stats in statistics.hottest(args.top)
        ],
    }
    if args.query:
        formula = parse_query(args.query)
        model = CostModel(statistics)
        rows = []
        seen: set[str] = set()
        pending = [formula]
        while pending:
            node = pending.pop()
            fingerprint = node_fingerprint(node)
            pending.extend(_subformulas(node))
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            stats = statistics.get(fingerprint)
            if stats is None or stats.calls == 0:
                continue
            predicted = float(model.static_cost(node))
            observed = float(
                stats.mean_wall() * _SECONDS_TO_UNITS
            )
            rows.append(
                {
                    "node": str(node)[:60],
                    "predicted_cost": round(predicted, 2),
                    "observed_cost": round(observed, 2),
                    "error_ratio": round(observed / predicted, 3)
                    if predicted > 0
                    else None,
                }
            )
        report["query"] = {"text": args.query, "nodes": rows}
    if args.as_json:
        print(json.dumps(report, indent=2), file=out)
        return 0
    print(f"statistics in {report['cache_dir']}", file=out)
    print(
        f"  runs (decayed): {report['runs']:.2f}   "
        f"nodes: {report['nodes']}",
        file=out,
    )
    if report["hottest"]:
        print(f"  hottest {len(report['hottest'])} nodes:", file=out)
        for row in report["hottest"]:
            print(
                f"    {row['fingerprint']}  calls={row['calls']:.1f}  "
                f"wall={row['wall_s']:.4f}s  "
                f"mean={row['mean_wall_s']:.6f}s  "
                f"mean_size={row['mean_size']}",
                file=out,
            )
    else:
        print("  (no recorded nodes)", file=out)
    for row in report.get("query", {}).get("nodes", ()):
        print(
            f"    {row['node']}\n"
            f"      predicted={row['predicted_cost']}  "
            f"observed={row['observed_cost']}  "
            f"error_ratio={row['error_ratio']}",
            file=out,
        )
    return 0


def _subformulas(node) -> list:
    """Direct sub-formulas of one region-logic AST node."""
    import dataclasses

    from repro.logic import ast as logic_ast

    children = []
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, logic_ast.RegFormula):
            children.append(value)
        elif isinstance(value, tuple):
            children.extend(
                item
                for item in value
                if isinstance(item, logic_ast.RegFormula)
            )
    return children


def _cmd_metrics(args: argparse.Namespace, out) -> int:
    """Dump process metrics as Prometheus text exposition.

    ``main`` resets observability first (one-shot command), so the dump
    reflects exactly the work done here: loading the database populates
    store series, evaluating a query populates the engine, LP and
    arrangement histograms.  Without arguments the dump shows an idle
    (empty) process — useful to check the exposition pipeline itself.
    """
    from repro.obs.telemetry import get_telemetry, render_prometheus

    if args.text is not None and args.database is None:
        print("error: a query needs a database", file=out)
        return 2
    if args.database is not None:
        database = load_database(args.database)
        engine = QueryEngine(
            database, args.decomposition, args.spatial,
            config=EngineConfig(jobs=args.jobs),
        )
        if args.text is not None:
            formula = parse_query(args.text)
            if formula.free_region_vars() or formula.free_set_vars():
                print(
                    "error: queries must not have free region or set "
                    "variables",
                    file=out,
                )
                return 2
            engine.evaluate(formula)
    print(
        render_prometheus(get_registry().snapshot(), get_telemetry()),
        file=out,
        end="",
    )
    return 0


def _cmd_slowlog(args: argparse.Namespace, out) -> int:
    """Inspect the slow-query log (newest records last)."""
    import json

    from repro.obs.slowlog import ENV_SLOW_LOG, load_slow_log

    path = (
        args.path
        or os.environ.get(ENV_SLOW_LOG, "").strip()
        or None
    )
    if path is None:
        print(
            "error: no slow-query log (pass PATH or set REPRO_SLOW_LOG)",
            file=out,
        )
        return 2
    records = load_slow_log(path, limit=args.limit)
    if args.as_json:
        print(json.dumps(records, indent=2), file=out)
        return 0
    if not records:
        print(f"no slow-query records in {path}", file=out)
        return 0
    print(f"slow queries in {path} (newest last):", file=out)
    for record in records:
        wall = record.get("wall_ms")
        wall_text = (
            f"{wall:.1f}ms" if isinstance(wall, (int, float)) else "?"
        )
        print(
            f"  {record.get('ts', '?')}  "
            f"tenant={record.get('tenant', '?')}  "
            f"db={record.get('database', '?')}  "
            f"wall={wall_text}  "
            f"threshold={record.get('threshold_ms', '?')}ms",
            file=out,
        )
        query = str(record.get("query", "")).replace("\n", " ")
        print(f"    {query[:70]}", file=out)
    return 0


def _cmd_serve(args: argparse.Namespace, out) -> int:
    """Run the async multi-tenant HTTP/JSON service until interrupted.

    The engine configuration is pinned once at startup with
    :meth:`EngineConfig.resolve` (flag > ``REPRO_*`` env > default): a
    long-lived server must not change behaviour because an environment
    variable moved under it mid-flight.
    """
    import asyncio
    import pathlib

    from repro.server import ConstraintService
    from repro.server.service import serve as serve_async

    databases = {}
    for spec in args.databases:
        name, sep, path = spec.partition("=")
        if not sep:
            name, path = pathlib.Path(spec).stem, spec
        if not name or name in databases:
            print(f"error: bad or duplicate database name {name!r}",
                  file=out)
            return 2
        databases[name] = load_database(path)
    config = EngineConfig.resolve(
        lp_mode=args.lp_mode, jobs=args.jobs, cache_dir=args.cache_dir,
        executor=args.executor, optimizer=args.optimizer,
        slow_log=args.slow_log, slo_latency_ms=args.slo_latency_ms,
        metrics_labels=args.metrics_labels,
    )
    service = ConstraintService(
        databases,
        config,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        max_concurrent=args.max_concurrent,
        max_queue=args.max_queue,
        decomposition=args.decomposition,
        spatial_name=args.spatial,
        max_requests=args.max_requests,
    )

    def announce(server) -> None:
        names = ", ".join(sorted(databases))
        print(f"serving [{names}] on {server.address}", file=out,
              flush=True)

    try:
        asyncio.run(serve_async(service, args.host, args.port, announce))
    except KeyboardInterrupt:
        print("shutting down", file=out)
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "regions": _cmd_regions,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "profile": _cmd_profile,
    "arrangement": _cmd_arrangement,
    "encode": _cmd_encode,
    "render": _cmd_render,
    "bench": _cmd_bench,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "metrics": _cmd_metrics,
    "slowlog": _cmd_slowlog,
}

#: Commands that start and stop the process tracer themselves; ``main``
#: must not wrap them in a second collection.  ``serve`` is listed
#: because EXPLAIN ANALYZE requests drive the tracer per request.
_SELF_TRACING = ("profile", "explain", "serve")

#: Long-running commands whose counters are live operational state
#: (``GET /v1/stats``): ``main`` must NOT wipe observability for these.
_LONG_RUNNING = ("serve",)


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """Entry point; returns the process exit code.

    One-shot commands start from pristine observability state —
    counters zeroed, no open spans, empty journal — so repeated
    in-process invocations (test suites, notebooks) cannot leak
    telemetry into each other; long-running commands (``serve``) keep
    their counters for the life of the process.  When a
    journal sink is requested (``--journal`` or ``REPRO_JOURNAL``) the
    command runs under the journal, and under the tracer too (without
    printing the trace) so span events reach the sink.
    """
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command not in _LONG_RUNNING:
        # One-shot commands start pristine; a server's counters are its
        # operational state and must survive for the process lifetime.
        reset_all()
    journal_path = (
        getattr(args, "journal", None)
        or os.environ.get(ENV_JOURNAL, "").strip()
        or None
    )
    if journal_path is not None:
        JOURNAL.start(journal_path)
        JOURNAL.emit("meta", command=args.command)
    tracing = getattr(args, "trace", False)
    want_trace = tracing or (
        journal_path is not None and args.command not in _SELF_TRACING
    )
    if want_trace:
        TRACER.start(args.command)
    try:
        with fastlp.lp_mode(getattr(args, "lp_mode", None)), \
                store_scope(getattr(args, "cache_dir", None)):
            return _COMMANDS[args.command](args, out)
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=out)
        return 1
    finally:
        if want_trace:
            root = TRACER.stop()
            if tracing:
                print("\ntrace:", file=out)
                print(root.format(indent=1), file=out)
        if journal_path is not None:
            JOURNAL.stop()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
