"""Named before/after equivalence runs with JSON records (``repro bench``).

Each runner measures a *baseline* path and the *fast* path of one
subsystem on a ladder of sizes, verifies that both paths produce
identical results (face sign vectors for E2, feasibility statuses and
exact witnesses for E3 — the fast paths must be free), and returns a
JSON-ready record.  CI re-runs small sizes with ``--check-only`` to
guard the equivalences.  The end-to-end benchmark, which times whole
requests and checks every answer against an oracle, is
``perfbench/run.py`` (see ``docs/PERFORMANCE.md``).

* **E2 (arrangement scaling)** — the naive sign-vector DFS (no witness
  reuse, no system dedup) against the fast path of
  :func:`repro.arrangement.builder.build_arrangement`.
* **E3 (LP filter microbench)** — exact rational feasibility against the
  certified float filter of :mod:`repro.geometry.fastlp` on batches of
  seeded random strict/non-strict systems; both tiers must agree on
  every status and every returned witness must satisfy its system
  exactly.

Every record carries a ``metadata`` block with the active LP mode, the
disk store in effect (directory plus
``store.*`` counter values) and the run's provenance — the repository's
``git_sha`` (``None`` outside a git checkout), the UTC timestamp and
the Python version — so records are self-describing: a warm-start E2
run shows ``store.hits > 0`` and the CI store job compares cold/warm
records on exactly that.

Only the *fast* paths consult the disk store (the naive baselines exist
to measure construction), so cold-run baseline timings are unaffected
by ``REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import json
import pathlib
import platform
import time
from datetime import datetime, timezone
from typing import Sequence

from repro.geometry import fastlp
from repro.obs.metrics import get_registry


def _timed(function, *args, **kwargs):
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


def _git(*args: str) -> str | None:
    """The output of ``git ARGS`` in this checkout; ``None`` outside one."""
    import subprocess

    try:
        completed = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=pathlib.Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout


def _git_sha() -> str | None:
    """The checkout's HEAD commit, or ``None`` outside a git repository."""
    sha = (_git("rev-parse", "HEAD") or "").strip()
    return sha or None


def _git_dirty() -> bool | None:
    """Whether the working tree differs from HEAD (``git status
    --porcelain`` lists anything), so a record made before committing
    does not pass for one of ``git_sha``; ``None`` outside a checkout."""
    status = _git("status", "--porcelain")
    return None if status is None else bool(status.strip())


#: Metadata keys every BENCH_*.json record must carry (and, except for
#: the git keys, carry with a non-``None`` value).  ``write_record``
#: refuses records that miss any of them, so a record without its
#: executor provenance can never be committed silently.
REQUIRED_METADATA = (
    "lp_mode",
    "executor",
    "git_sha",
    "git_dirty",
    "timestamp_utc",
    "python_version",
)


def _metadata() -> dict:
    """The self-description block shared by every BENCH_*.json record.

    Computed after the measurements, so the ``store`` block reflects the
    hits/misses/writes this run performed against the active cache
    directory (``None`` when persistence is off).  ``executor`` is
    surfaced top-level (not only inside ``config``) so a record always
    says which fixpoint tier produced its numbers.
    """
    from repro.config import EngineConfig
    from repro.store import active_store

    store = active_store()
    config = EngineConfig.resolve()
    return {
        "lp_mode": fastlp.get_lp_mode(),
        "executor": config.executor,
        "optimizer": config.optimizer,
        "config": config.describe(),
        "cache_dir": str(store.root) if store is not None else None,
        "store": store.stats() if store is not None else None,
        "git_sha": _git_sha(),
        "git_dirty": _git_dirty(),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python_version": platform.python_version(),
    }


def run_bench_e2(
    sizes: Sequence[int] = (4, 6, 8, 10),
    check_only: bool = False,
) -> dict:
    """Arrangement construction: naive DFS vs witness-reuse fast path.

    ``check_only`` skips nothing but timing *assertions* are left to the
    caller either way; every run verifies that both paths enumerate the
    identical face list.  The feasibility memo is cleared before each
    measurement so timings are hermetic.
    """
    from repro.arrangement.builder import build_arrangement
    from repro.geometry.hyperplane import Hyperplane
    from repro.geometry.simplex import clear_feasibility_cache

    registry = get_registry()
    results = []
    for n in sizes:
        planes = [
            Hyperplane.make([2 * i, -1], i * i) for i in range(1, n + 1)
        ]
        clear_feasibility_cache()
        baseline, baseline_s = _timed(
            build_arrangement,
            hyperplanes=planes,
            dimension=2,
            witness_reuse=False,
            dedup=False,
        )
        clear_feasibility_cache()
        skipped_before = registry.get("arrangement.lp_skipped")
        fast, fast_s = _timed(
            build_arrangement, hyperplanes=planes, dimension=2
        )
        lp_skipped = registry.get("arrangement.lp_skipped") - skipped_before
        match = [f.signs for f in baseline.faces] == [
            f.signs for f in fast.faces
        ]
        results.append(
            {
                "n": n,
                "faces": len(fast),
                "baseline_s": round(baseline_s, 4),
                "fast_s": round(fast_s, 4),
                "speedup": round(baseline_s / fast_s, 2)
                if fast_s > 0
                else None,
                "lp_skipped": lp_skipped,
                "match": match,
            }
        )
    largest = results[-1] if results else None
    return {
        "benchmark": "E2",
        "subject": "arrangement construction (Theorem 3.1 DFS)",
        "baseline": "sign-vector DFS, LP solve per child branch",
        "fast": "witness-reuse pruning + derived witnesses + system dedup",
        "metadata": _metadata(),
        "check_only": check_only,
        "sizes": list(sizes),
        "results": results,
        "all_match": all(row["match"] for row in results),
        "largest_speedup": largest["speedup"] if largest else None,
    }


def run_bench_e3(
    sizes: Sequence[int] = (100, 200, 400),
    seed: int = 20260806,
    check_only: bool = False,
) -> dict:
    """LP feasibility: exact rational simplex vs the certified filter.

    Each size is a batch of seeded random mixed strict/non-strict
    systems in two and three variables (equality rows, duplicated and
    near-parallel rows included), solved once per tier with a cold
    feasibility memo.  Equivalence is exact: identical feasibility
    statuses, and each filtered witness substituted into its system with
    rational arithmetic.
    """
    import random

    from repro.geometry.simplex import (
        clear_feasibility_cache,
        strict_feasible_point,
    )

    registry = get_registry()
    results = []
    for count in sizes:
        rng = random.Random(seed + count)
        systems = [
            _random_lp_system(rng, rng.choice((2, 2, 3)))
            for __ in range(count)
        ]
        with fastlp.lp_mode("exact"):
            clear_feasibility_cache()
            exact_points, exact_s = _timed(
                lambda: [
                    strict_feasible_point(rows, dim) for rows, dim in systems
                ]
            )
        hits_before = registry.get("lp.filter_hits")
        fallbacks_before = registry.get("lp.filter_fallbacks")
        failures_before = registry.get("lp.certify_failures")
        with fastlp.lp_mode("filtered"):
            clear_feasibility_cache()
            filtered_points, filtered_s = _timed(
                lambda: [
                    strict_feasible_point(rows, dim) for rows, dim in systems
                ]
            )
        match = all(
            (exact is None) == (filtered is None)
            and (
                filtered is None
                or all(row.satisfied_by(filtered) for row in rows)
            )
            for (rows, __), exact, filtered in zip(
                systems, exact_points, filtered_points
            )
        )
        results.append(
            {
                "systems": count,
                "baseline_s": round(exact_s, 4),
                "fast_s": round(filtered_s, 4),
                "speedup": round(exact_s / filtered_s, 2)
                if filtered_s > 0
                else None,
                "solves_per_s": round(count / filtered_s, 1)
                if filtered_s > 0
                else None,
                "filter_hits": registry.get("lp.filter_hits") - hits_before,
                "filter_fallbacks": registry.get("lp.filter_fallbacks")
                - fallbacks_before,
                "certify_failures": registry.get("lp.certify_failures")
                - failures_before,
                "match": match,
            }
        )
    largest = results[-1] if results else None
    return {
        "benchmark": "E3",
        "subject": "LP feasibility (strict_feasible_point microbench)",
        "baseline": "exact rational ε-simplex (lp_mode=exact)",
        "fast": "certified float filter with exact fallback "
        "(lp_mode=filtered)",
        "seed": seed,
        "metadata": _metadata(),
        "check_only": check_only,
        "sizes": list(sizes),
        "results": results,
        "all_match": all(row["match"] for row in results),
        "largest_speedup": largest["speedup"] if largest else None,
    }


def _random_lp_system(rng, dim: int):
    """One seeded random constraint system ``(rows, dim)`` for E3.

    Mirrors the property suite's stress shapes: mixed relations, small
    integer data with occasional fractional right-hand sides, duplicate
    rows and near-parallel perturbations that land inside the filter's
    epsilon band.
    """
    from fractions import Fraction

    from repro.geometry.fourier_motzkin import LinearConstraint, Rel

    n_rows = rng.randint(2, dim + 5)
    rows = []
    for __ in range(n_rows):
        coeffs = tuple(
            Fraction(rng.randint(-5, 5)) for __ in range(dim)
        )
        roll = rng.random()
        if roll < 0.15:
            rel = Rel.EQ
        elif roll < 0.6:
            rel = Rel.LT
        else:
            rel = Rel.LE
        rhs = Fraction(rng.randint(-10, 10), rng.choice((1, 1, 1, 2, 3)))
        rows.append(LinearConstraint(coeffs, rel, rhs))
    if rng.random() < 0.3:
        base = rows[rng.randrange(len(rows))]
        rows.append(base)
    if rng.random() < 0.3:
        base = rows[rng.randrange(len(rows))]
        nudged = tuple(
            c + Fraction(1, 10**9) if index == 0 else c
            for index, c in enumerate(base.coeffs)
        )
        rows.append(LinearConstraint(nudged, base.rel, base.rhs))
    return rows, dim


BENCHMARKS = {
    "e2": (run_bench_e2, "BENCH_E2.json"),
    "e3": (run_bench_e3, "BENCH_E3.json"),
}


def write_record(record: dict, path: str) -> None:
    """Write a benchmark record, refusing under-described metadata.

    Every record must carry the :data:`REQUIRED_METADATA` keys (with a
    value, except ``git_sha`` and ``git_dirty``, which are legitimately
    ``None`` outside a git checkout) so committed BENCH_*.json files
    always state the lp_mode/executor provenance of their numbers.
    """
    metadata = record.get("metadata")
    if not isinstance(metadata, dict):
        raise ValueError("benchmark record has no metadata block")
    missing = [key for key in REQUIRED_METADATA if key not in metadata]
    unset = [
        key
        for key in REQUIRED_METADATA
        if not key.startswith("git_") and metadata.get(key, None) is None
    ]
    if missing or unset:
        raise ValueError(
            "refusing to write benchmark record: missing metadata keys "
            f"{sorted(set(missing + unset))}"
        )
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
