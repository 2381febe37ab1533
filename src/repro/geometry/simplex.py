"""Exact rational linear programming via two-phase simplex.

The solver works entirely over :class:`fractions.Fraction` and uses
Bland's anti-cycling rule, so it terminates on every input and returns
exact answers.  On top of the raw solver the module offers the two
predicates the rest of the library leans on:

* :func:`solve_lp` — optimise a linear objective over a conjunction of
  (non-strict) linear constraints with free (sign-unrestricted) variables.
* :func:`feasible` — exact feasibility of a mixed strict/non-strict
  system, decided by maximising a slack ``ε`` (bounded by 1) added to every
  strict row; the open system is feasible iff the optimum is positive.
  :func:`strict_feasible_point` additionally returns a rational witness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Sequence

from repro.errors import LPError
from repro.geometry import fastlp
from repro.geometry.fourier_motzkin import LinearConstraint, Rel
from repro.geometry.linalg import Vector, as_fraction
from repro.obs.metrics import get_registry
from repro.obs.telemetry import get_telemetry
from repro.obs.tracing import TRACER

ZERO = Fraction(0)
ONE = Fraction(1)


class LPStatus(enum.Enum):
    """Outcome of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    """Result of :func:`solve_lp`.

    ``point`` and ``value`` are ``None`` unless the status is OPTIMAL.
    For UNBOUNDED problems ``point`` holds a feasible point witnessing
    feasibility (the objective is unbounded along some ray from it).
    """

    status: LPStatus
    point: Vector | None
    value: Fraction | None


def _pivot(tableau: list[list[Fraction]], row: int, col: int) -> None:
    """In-place pivot of the tableau on ``(row, col)``."""
    pivot_value = tableau[row][col]
    tableau[row] = [entry / pivot_value for entry in tableau[row]]
    pivot_row = tableau[row]
    for r, current in enumerate(tableau):
        if r == row:
            continue
        factor = current[col]
        if factor != 0:
            tableau[r] = [
                entry - factor * pivot_entry
                for entry, pivot_entry in zip(current, pivot_row)
            ]


def _run_simplex(
    tableau: list[list[Fraction]], basis: list[int], n_cols: int
) -> LPStatus:
    """Minimise the objective in the last tableau row (Bland's rule).

    ``tableau`` rows 0..m-1 are constraints (rhs in the last column); the
    final row is the objective with reduced costs.  Returns OPTIMAL or
    UNBOUNDED, leaving the tableau at the final basis.
    """
    m = len(tableau) - 1
    objective = tableau[-1]
    while True:
        entering = next(
            (j for j in range(n_cols) if objective[j] < 0), None
        )
        if entering is None:
            return LPStatus.OPTIMAL
        leaving = None
        best_ratio: Fraction | None = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                better = best_ratio is None or ratio < best_ratio
                tie_break = (
                    best_ratio is not None
                    and ratio == best_ratio
                    and leaving is not None
                    and basis[i] < basis[leaving]
                )
                if better or tie_break:
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            return LPStatus.UNBOUNDED
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        objective = tableau[-1]


def _standard_form_solve(
    matrix: list[list[Fraction]],
    rhs: list[Fraction],
    objective: list[Fraction],
) -> tuple[LPStatus, list[Fraction] | None, Fraction | None]:
    """Solve ``min objective . x`` s.t. ``matrix x = rhs``, ``x >= 0``."""
    m = len(matrix)
    n = len(objective)
    rows = [list(row) for row in matrix]
    b = list(rhs)
    for i in range(m):
        if b[i] < 0:
            rows[i] = [-v for v in rows[i]]
            b[i] = -b[i]

    # Phase 1: artificial variables, minimise their sum.
    total = n + m
    tableau: list[list[Fraction]] = []
    for i in range(m):
        row = rows[i] + [ONE if j == i else ZERO for j in range(m)] + [b[i]]
        tableau.append(row)
    # Reduced costs for phase 1: cost 1 on artificials, then price out.
    cost_row = [ZERO] * n + [ONE] * m + [ZERO]
    for i in range(m):
        cost_row = [c - t for c, t in zip(cost_row, tableau[i])]
    tableau.append(cost_row)
    basis = list(range(n, n + m))
    status = _run_simplex(tableau, basis, total)
    if status is not LPStatus.OPTIMAL:  # pragma: no cover - phase 1 is bounded
        raise LPError("phase 1 cannot be unbounded")
    if -tableau[-1][-1] != 0:
        return LPStatus.INFEASIBLE, None, None

    # Drive artificial variables out of the basis where possible.
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next(
                (j for j in range(n) if tableau[i][j] != 0), None
            )
            if pivot_col is not None:
                _pivot(tableau, i, pivot_col)
                basis[i] = pivot_col
    # Rows still basic in an artificial variable are redundant (all-zero
    # over the original columns); they stay but can never pivot again
    # because we restrict the column range to n in phase 2.

    # Phase 2: rebuild the objective row over original columns only.
    tableau = [row[:n] + [row[-1]] for row in tableau[:-1]]
    obj_row = [as_fraction(c) for c in objective] + [ZERO]
    for i in range(m):
        if basis[i] < n and obj_row[basis[i]] != 0:
            factor = obj_row[basis[i]]
            obj_row = [
                c - factor * t for c, t in zip(obj_row, tableau[i])
            ]
    tableau.append(obj_row)
    status = _run_simplex(tableau, basis, n)
    solution = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            solution[basis[i]] = tableau[i][-1]
    if status is LPStatus.UNBOUNDED:
        return LPStatus.UNBOUNDED, solution, None
    return LPStatus.OPTIMAL, solution, -tableau[-1][-1]


def solve_lp(
    objective: Sequence[object],
    constraints: Sequence[LinearConstraint],
    maximize: bool = False,
) -> LPResult:
    """Optimise ``objective . x`` over free variables subject to constraints.

    Strict constraints are rejected — use :func:`feasible` /
    :func:`strict_feasible_point` for open systems.  Variables are
    unrestricted in sign (handled by the usual ``x = x⁺ - x⁻`` split).
    Each call counts one ``lp.optimizations``.
    """
    _LP_OPTIMIZATIONS.inc()
    return _solve_lp(objective, constraints, maximize)


def _solve_lp(
    objective: Sequence[object],
    constraints: Sequence[LinearConstraint],
    maximize: bool,
) -> LPResult:
    """:func:`solve_lp` without the counter (the feasibility tier's core)."""
    obj = [as_fraction(c) for c in objective]
    n = len(obj)
    for constraint in constraints:
        if constraint.rel is Rel.LT:
            raise LPError("solve_lp does not accept strict constraints")
        if constraint.dimension != n:
            raise LPError(
                f"constraint dimension {constraint.dimension} != objective {n}"
            )
    if maximize:
        obj = [-c for c in obj]

    # Columns: x⁺ (n), x⁻ (n), slack (one per inequality).
    n_slack = sum(1 for c in constraints if c.rel is Rel.LE)
    total = 2 * n + n_slack
    matrix: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    slack_index = 0
    for constraint in constraints:
        row = [ZERO] * total
        for j, coeff in enumerate(constraint.coeffs):
            row[j] = coeff
            row[n + j] = -coeff
        if constraint.rel is Rel.LE:
            row[2 * n + slack_index] = ONE
            slack_index += 1
        matrix.append(row)
        rhs.append(constraint.rhs)
    std_objective = obj + [-c for c in obj] + [ZERO] * n_slack
    status, solution, value = _standard_form_solve(matrix, rhs, std_objective)
    if status is LPStatus.INFEASIBLE:
        return LPResult(LPStatus.INFEASIBLE, None, None)
    assert solution is not None
    point = tuple(solution[j] - solution[n + j] for j in range(n))
    if status is LPStatus.UNBOUNDED:
        return LPResult(LPStatus.UNBOUNDED, point, None)
    assert value is not None
    if maximize:
        value = -value
    return LPResult(LPStatus.OPTIMAL, point, value)


def _with_epsilon(constraints: Sequence[LinearConstraint]) -> list[LinearConstraint]:
    """Append an ε column: strict rows become ``a.x + ε <= b``; cap ε <= 1."""
    widened: list[LinearConstraint] = []
    for constraint in constraints:
        extra = ONE if constraint.rel is Rel.LT else ZERO
        rel = Rel.LE if constraint.rel is Rel.LT else constraint.rel
        widened.append(
            LinearConstraint(constraint.coeffs + (extra,), rel, constraint.rhs)
        )
    dimension = constraints[0].dimension if constraints else 0
    cap = LinearConstraint((ZERO,) * dimension + (ONE,), Rel.LE, ONE)
    widened.append(cap)
    return widened


def _solve_interval(
    constraints: tuple[LinearConstraint, ...]
) -> Vector | None:
    """Direct interval feasibility for one-variable systems.

    Every constraint ``a·x REL b`` with a ≠ 0 is a bound or a point; the
    system is an interval intersection — no simplex needed.  This is the
    hot path: component decomposition reduces most sign-vector and DNF
    feasibility checks to single-variable subsystems.
    """
    lower: Fraction | None = None
    lower_strict = False
    upper: Fraction | None = None
    upper_strict = False
    pinned: Fraction | None = None
    for row in constraints:
        a = row.coeffs[0]
        if a == 0:
            if not row.satisfied_by((ZERO,)):
                return None
            continue
        bound = row.rhs / a
        if row.rel is Rel.EQ:
            if pinned is not None and pinned != bound:
                return None
            pinned = bound
        elif a > 0:  # x <=(<) bound
            if upper is None or bound < upper or (
                bound == upper and row.rel is Rel.LT
            ):
                upper = bound
                upper_strict = row.rel is Rel.LT
        else:  # x >=(>) bound
            if lower is None or bound > lower or (
                bound == lower and row.rel is Rel.LT
            ):
                lower = bound
                lower_strict = row.rel is Rel.LT
    if pinned is not None:
        if lower is not None and (
            pinned < lower or (pinned == lower and lower_strict)
        ):
            return None
        if upper is not None and (
            pinned > upper or (pinned == upper and upper_strict)
        ):
            return None
        return (pinned,)
    if lower is None and upper is None:
        return (ZERO,)
    if lower is None:
        assert upper is not None
        return (upper - 1,)
    if upper is None:
        return (lower + 1,)
    if lower > upper:
        return None
    if lower == upper:
        if lower_strict or upper_strict:
            return None
        return (lower,)
    return ((lower + upper) / 2,)


def _solve_component(
    constraints: tuple[LinearConstraint, ...], dim: int
) -> Vector | None:
    """Feasibility core for one variable-connected subsystem (cached)."""
    cached = _FEASIBILITY_CACHE.get(constraints, _MISS)
    if cached is not _MISS:
        _LP_CACHE_HITS.inc()
        return cached
    _LP_SOLVES.inc()
    started = perf_counter()
    try:
        if TRACER.enabled:
            with TRACER.span("lp.feasible", aggregate=True) as lp_span:
                lp_span.add("rows", len(constraints))
                return _solve_component_inner(constraints, dim)
        return _solve_component_inner(constraints, dim)
    finally:
        _LP_SOLVE_SECONDS.observe(perf_counter() - started)


def _solve_component_inner(
    constraints: tuple[LinearConstraint, ...], dim: int
) -> Vector | None:
    if dim >= 2 and fastlp.filter_enabled():
        decided, point = fastlp.try_certified(constraints, dim, _exact_solve)
        if decided:
            _store_feasibility(constraints, point)
            return point
    if TRACER.enabled:
        with TRACER.span("lp.exact", aggregate=True) as exact_span:
            exact_span.add("rows", len(constraints))
            point = _exact_solve(constraints, dim)
    else:
        point = _exact_solve(constraints, dim)
    _store_feasibility(constraints, point)
    return point


def _exact_solve(
    constraints: tuple[LinearConstraint, ...], dim: int
) -> Vector | None:
    """The exact tier: interval solve in one variable, ε-simplex above.

    Also serves as the certification oracle of :mod:`repro.geometry.\
    fastlp` — the float filter hands it reduced one-variable systems and
    candidate infeasible subsystems, so it must not route back through
    the filter.
    """
    if dim == 1:
        return _solve_interval(constraints)
    has_strict = any(c.rel is Rel.LT for c in constraints)
    if not has_strict:
        result = _solve_lp([ZERO] * dim, constraints, False)
        return (
            result.point
            if result.status is not LPStatus.INFEASIBLE
            else None
        )
    widened = _with_epsilon(constraints)
    objective = [ZERO] * dim + [ONE]
    result = _solve_lp(objective, widened, True)
    if result.status is LPStatus.INFEASIBLE:
        return None
    assert result.point is not None
    epsilon = result.point[dim]
    if result.status is LPStatus.OPTIMAL and epsilon <= 0:
        return None
    return result.point[:dim]


def _store_feasibility(
    constraints: tuple[LinearConstraint, ...], point: Vector | None
) -> None:
    if len(_FEASIBILITY_CACHE) > _CACHE_LIMIT:
        _FEASIBILITY_CACHE.clear()
    _FEASIBILITY_CACHE[constraints] = point


_MISS = object()
_FEASIBILITY_CACHE: dict[tuple, Vector | None] = {}
_CACHE_LIMIT = 200_000

#: Instrumentation counters, owned by the process-wide metrics registry
#: (:mod:`repro.obs.metrics`).  Bound once: ``inc`` on the hot path is a
#: plain attribute add.
_LP_SOLVES = get_registry().counter("lp.solves")
_LP_CACHE_HITS = get_registry().counter("lp.cache_hits")
#: Exact optimisations asked through :func:`solve_lp` (extents,
#: boundedness of polyhedra, the NC¹ cube test).  Feasibility questions
#: count as ``lp.solves`` instead, so each exact LP is counted once.
_LP_OPTIMIZATIONS = get_registry().counter("lp.optimizations")

#: Latency distribution of uncached feasibility solves.  Bound once like
#: the counters; ``observe`` is one lock + a short bucket scan, measured
#: against BENCH_E2 in docs/OBSERVABILITY.md's overhead contract.
_LP_SOLVE_SECONDS = get_telemetry().histogram("lp.solve_seconds")


def clear_feasibility_cache() -> None:
    """Empty the feasibility memo.

    Timing experiments call this so measurements are hermetic — without
    it, earlier tests in the same process pre-warm the cache and skew
    log-log slopes.
    """
    _FEASIBILITY_CACHE.clear()


def snapshot_feasibility_keys() -> frozenset:
    """The memo's current key set (for delta export, see below)."""
    return frozenset(_FEASIBILITY_CACHE)


def export_feasibility_entries(
    exclude: "frozenset | set" = frozenset(),
) -> dict[tuple, Vector | None]:
    """Memo entries not in ``exclude`` — a worker's own contribution.

    Parallel arrangement workers snapshot the key set they inherited
    (fork start) or started with (spawn start), enumerate their subtree,
    and export only the entries they added; the parent folds them back
    with :func:`merge_feasibility_entries` so the process ends in the
    same memo state a sequential build would have produced.
    """
    return {
        key: value
        for key, value in _FEASIBILITY_CACHE.items()
        if key not in exclude
    }


def merge_feasibility_entries(
    entries: dict[tuple, Vector | None],
) -> None:
    """Fold exported memo entries in; existing entries win, no counters."""
    for key, value in entries.items():
        if key not in _FEASIBILITY_CACHE:
            _store_feasibility(key, value)


def _variable_components(
    constraints: Sequence[LinearConstraint], dimension: int
) -> list[list[int]]:
    """Partition variable indices into constraint-connected components."""
    parent = list(range(dimension))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for constraint in constraints:
        support = [i for i, c in enumerate(constraint.coeffs) if c != 0]
        for a, b in zip(support, support[1:]):
            parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for i in range(dimension):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def strict_feasible_point(
    constraints: Sequence[LinearConstraint], dimension: int | None = None
) -> Vector | None:
    """A rational point satisfying a mixed strict/non-strict system.

    Returns ``None`` when the system is infeasible.  Decides exactly:
    maximise the slack ε (capped at 1) added to every strict row; the
    open system has a solution iff the optimum is > 0, and the
    optimiser's point is a witness.

    The system is first split into variable-disjoint components — product
    systems (common when formulas talk about several points at once)
    then cost several small LPs instead of one big one — and component
    results are memoised, which matters enormously during sign-vector
    enumeration where the same subsystems recur.
    """
    if not constraints:
        if dimension is None:
            raise LPError("dimension required for an empty system")
        return (ZERO,) * dimension
    dim = constraints[0].dimension
    trivial_rows = [c for c in constraints if c.is_trivial()]
    for row in trivial_rows:
        if row.trivially_false():
            return None
    live = [c for c in constraints if not c.is_trivial()]
    if not live:
        return (ZERO,) * dim
    components = _variable_components(live, dim)
    point: list[Fraction] = [ZERO] * dim
    for component in components:
        rows = [
            c for c in live
            if any(c.coeffs[i] != 0 for i in component)
        ]
        if not rows:
            continue
        projected = [
            LinearConstraint(
                tuple(c.coeffs[i] for i in component), c.rel, c.rhs
            )
            for c in rows
        ]
        projected.sort(key=lambda c: (c.coeffs, c.rel.value, c.rhs))
        reduced = tuple(projected)
        witness = _solve_component(reduced, len(component))
        if witness is None:
            return None
        for local, global_index in enumerate(component):
            point[global_index] = witness[local]
    return tuple(point)


def feasible(
    constraints: Sequence[LinearConstraint], dimension: int | None = None
) -> bool:
    """Exact feasibility of a mixed strict/non-strict constraint system."""
    return strict_feasible_point(constraints, dimension) is not None
