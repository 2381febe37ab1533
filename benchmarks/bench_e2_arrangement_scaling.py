"""E2 — Theorem 3.1: arrangements are PTIME computable.

Builds arrangements of n generic lines (tangents to a parabola, so all
pairwise intersection points are distinct) and of n points on the line,
checks the exact combinatorial face counts, and asserts that measured
construction time scales polynomially: the empirical log-log exponent
stays well below a fixed constant.
"""

import time

from repro.arrangement.builder import build_arrangement
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.simplex import clear_feasibility_cache
from repro.obs.metrics import get_registry

from conftest import empirical_exponent


def generic_lines(n: int) -> list[Hyperplane]:
    """Tangents y = 2ix - i² to the parabola: pairwise generic."""
    return [Hyperplane.make([2 * i, -1], i * i) for i in range(1, n + 1)]


def expected_faces_2d(n: int) -> int:
    """Faces of n generic lines: C(n,2) vertices + n² edges +
    (1 + n + C(n,2)) regions."""
    pairs = n * (n - 1) // 2
    return pairs + n * n + 1 + n + pairs


def test_e2_generic_line_counts(report):
    rows = []
    for n in (2, 3, 4, 5):
        arrangement = build_arrangement(
            hyperplanes=generic_lines(n), dimension=2
        )
        assert len(arrangement) == expected_faces_2d(n), n
        rows.append((f"n={n}:", len(arrangement), "faces (exact formula)"))
    report("E2: generic 2-D arrangements match theory", rows)


def test_e2_scaling_dimension_1(report):
    sizes, times = [], []
    for n in (4, 8, 16, 32):
        planes = [Hyperplane.make([1], i) for i in range(n)]
        clear_feasibility_cache()
        start = time.perf_counter()
        arrangement = build_arrangement(hyperplanes=planes, dimension=1)
        times.append(time.perf_counter() - start)
        sizes.append(n)
        assert len(arrangement) == 2 * n + 1
    exponent = empirical_exponent(sizes, times)
    # O(n) levels × O(n) faces × O(n) constraint scans: cubic envelope.
    assert exponent < 4.0, exponent
    report("E2: 1-D scaling (Theorem 3.1)", [
        (f"n={n}:", f"{t * 1000:.1f} ms") for n, t in zip(sizes, times)
    ] + [("empirical exponent:", f"{exponent:.2f} (< 4 required)")])


def test_e2_scaling_dimension_2(report):
    # Start at n=4: the n=2 build is microseconds-level and its noise
    # dominates a log-log fit.
    registry = get_registry()
    sizes, times, solves = [], [], []
    for n in (4, 6, 8, 10):
        before = registry.get("lp.solves") + registry.get("lp.cache_hits")
        clear_feasibility_cache()
        start = time.perf_counter()
        arrangement = build_arrangement(
            hyperplanes=generic_lines(n), dimension=2
        )
        times.append(time.perf_counter() - start)
        sizes.append(n)
        # solves alone depend on cache warmth from earlier tests; the
        # total number of feasibility queries is deterministic.
        solves.append(
            registry.get("lp.solves")
            + registry.get("lp.cache_hits")
            - before
        )
        assert len(arrangement) == expected_faces_2d(n)
    # Feasibility queries: Θ(n) tree levels × Θ(n²) faces ⇒ cubic.
    solve_exponent = empirical_exponent(sizes, solves)
    assert solve_exponent < 3.6, solve_exponent
    exponent = empirical_exponent(sizes, times)
    # Θ(n²) faces, O(n)-row LPs with simplex pivots that also grow with
    # n: a degree-4-to-5 envelope; the point of Theorem 3.1 is that it
    # stays polynomial at all, so assert a fixed-degree ceiling.
    assert exponent < 5.5, exponent
    report("E2: 2-D scaling (Theorem 3.1)", [
        (f"n={n}:", f"{t * 1000:.1f} ms,", f"{s} feasibility queries")
        for n, t, s in zip(sizes, times, solves)
    ] + [
        ("time exponent:", f"{exponent:.2f} (< 5.5 required)"),
        ("query exponent:", f"{solve_exponent:.2f} (< 3.6 required)"),
    ])


def test_e2_build_benchmark(benchmark):
    planes = generic_lines(5)
    arrangement = benchmark(
        build_arrangement, hyperplanes=planes, dimension=2
    )
    assert len(arrangement) == expected_faces_2d(5)


def test_e2_incremental_matches_and_times(report):
    """Ablation: batch DFS vs incremental insertion (Theorem 3.1's
    classical algorithm) — identical combinatorics, comparable cost."""
    from repro.arrangement.incremental import build_arrangement_incremental

    rows = []
    for n in (3, 5, 7):
        planes = generic_lines(n)
        start = time.perf_counter()
        batch = build_arrangement(hyperplanes=planes, dimension=2)
        batch_time = time.perf_counter() - start
        start = time.perf_counter()
        incremental = build_arrangement_incremental(
            hyperplanes=planes, dimension=2
        )
        incremental_time = time.perf_counter() - start
        assert sorted(f.signs for f in batch.faces) == sorted(
            f.signs for f in incremental.faces
        )
        rows.append(
            (f"n={n}:",
             f"batch {batch_time * 1000:.0f} ms,",
             f"incremental {incremental_time * 1000:.0f} ms,",
             f"{len(batch)} faces")
        )
    report("E2: batch vs incremental construction", rows)


def test_e2_incremental_benchmark(benchmark):
    from repro.arrangement.incremental import build_arrangement_incremental

    planes = generic_lines(5)
    arrangement = benchmark(
        build_arrangement_incremental, hyperplanes=planes, dimension=2
    )
    assert len(arrangement) == expected_faces_2d(5)


def test_e2_before_after_fast_path(report):
    """Before/after mode: the witness-reuse fast path against the naive
    DFS — identical face lists, recorded speedup.  Set
    ``REPRO_BENCH_RECORD=1`` to write ``BENCH_E2.json`` (the committed
    record is produced by ``repro bench e2`` at larger sizes)."""
    import os

    from repro.bench import run_bench_e2, write_record

    record = run_bench_e2(sizes=(3, 4, 5))
    assert record["all_match"], record
    if os.environ.get("REPRO_BENCH_RECORD"):
        write_record(record, "BENCH_E2.json")
    report("E2: naive DFS vs witness-reuse fast path", [
        (f"n={row['n']}:",
         f"baseline {row['baseline_s'] * 1000:.0f} ms,",
         f"fast {row['fast_s'] * 1000:.0f} ms,",
         f"{row['lp_skipped']} LP solves skipped")
        for row in record["results"]
    ])
