"""Certified floating-point LP filter with exact rational fallback.

The exact two-phase simplex of :mod:`repro.geometry.simplex` is the cost
centre of the whole reproduction: every sign-vector DFS node, region
extension and topology predicate bottoms out in rational feasibility
solves.  This module implements the standard exact-geometry cure — decide
the easy instances in hardware floats and *certify* the answer exactly:

* a float "feasible" verdict is confirmed by rounding the float witness
  to a rational point (a ladder of ``limit_denominator`` bounds) and
  substituting it into the original rows with exact arithmetic;
* a float "infeasible" verdict is confirmed by reading the Farkas dual
  support off the final tableau — the handful of rows whose multipliers
  are positive form a candidate infeasible subsystem — and exactly
  deciding that (much smaller) subsystem with the rational solver;
* anything inconclusive — a pivot or optimum inside the configured
  epsilon band, an iteration cap, a failed certification — falls back to
  the exact solver.

Because every answer that leaves this module is certified by exact
rational arithmetic, ``feasible`` / ``strict_feasible_point`` keep their
exact contracts bit-for-bit in both modes; the float tier only ever
changes *which* valid witness is returned, never a status.

Equality rows are eliminated exactly first (one rational reduction via
:func:`repro.geometry.linalg.affine_parametrization`): systems pinned to
a point are decided with no LP at all, systems reduced to one free
direction use the exact interval solver, and only genuinely
``>= 2``-dimensional inequality systems reach floating point.  The float
tableau is fed from the cached coprime-integer row form
(:meth:`LinearConstraint.integer_form`), row-scaled into ``[-1, 1]``.

The mode switch (``exact`` disables the filter entirely) is
:func:`get_lp_mode`: the innermost :func:`lp_mode` scope of the current
context, else the ``REPRO_LP_MODE`` environment variable, else
``filtered``.  This module is the one reader of that variable;
:class:`~repro.config.EngineConfig` takes its ``lp_mode`` default from
here when it is built, and ``QueryEngine`` runs every evaluation inside
``lp_mode(config.lp_mode)``.  The scope is a :class:`~contextvars.
ContextVar`, so engines pinned to different tiers on concurrent threads
never see each other's mode.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from repro.geometry.fourier_motzkin import LinearConstraint, Rel
from repro.geometry.linalg import Vector, affine_parametrization, vec_dot
from repro.obs.metrics import get_registry
from repro.obs.tracing import TRACER

ZERO = Fraction(0)

LP_MODES = ("exact", "filtered")

#: Filter telemetry (process-wide registry, see docs/OBSERVABILITY.md):
#: systems decided by the certified float tier, systems handed to the
#: exact solver, and float verdicts that failed exact certification
#: (always a subset of the fallbacks — a failed certificate never
#: produces an answer).
_FILTER_HITS = get_registry().counter("lp.filter_hits")
_FILTER_FALLBACKS = get_registry().counter("lp.filter_fallbacks")
_CERTIFY_FAILURES = get_registry().counter("lp.certify_failures")


@dataclass
class FilterConfig:
    """Tolerances of the float tier.

    ``pivot_eps`` — tableau entries below this magnitude never pivot;
    ``band_eps`` — the epsilon band: an optimal slack ``|ε*|`` inside it
    is treated as inconclusive (the strict-feasibility boundary cannot be
    trusted to float rounding);
    ``dual_eps`` — Farkas multipliers below this are excluded from the
    infeasible-subsystem support;
    ``max_iterations`` — pivot cap; float simplex has no exact
    anti-cycling rule, so stalling falls back instead of looping;
    ``witness_denominators`` — the rounding ladder for float witnesses
    (small denominators first: they certify just as well and keep the
    rational arithmetic downstream cheap).
    """

    pivot_eps: float = 1e-9
    band_eps: float = 1e-7
    dual_eps: float = 1e-7
    max_iterations: int = 500
    witness_denominators: tuple[int, ...] = (2**10, 10**6, 10**13)


CONFIG = FilterConfig()

ExactOracle = Callable[[tuple[LinearConstraint, ...], int], Vector | None]


# --------------------------------------------------------------------------
# Mode resolution


#: Environment variable naming the default LP mode.
ENV_LP_MODE = "REPRO_LP_MODE"

#: The innermost :func:`lp_mode` scope of this context (``None`` = no
#: scope open).  ``asyncio.to_thread`` copies the context, so a scope
#: entered around a worker call is seen inside it and nowhere else.
_MODE: ContextVar[str | None] = ContextVar("repro_lp_mode", default=None)


def get_lp_mode() -> str:
    """The LP mode in effect: the innermost :func:`lp_mode` scope of
    this context, else ``REPRO_LP_MODE``, else ``"filtered"``."""
    mode = _MODE.get()
    if mode is not None:
        return mode
    env = os.environ.get(ENV_LP_MODE, "").strip().lower()
    if not env:
        return "filtered"
    if env not in LP_MODES:
        raise ValueError(
            f"{ENV_LP_MODE} must be one of {LP_MODES}, got {env!r}"
        )
    return env


@contextmanager
def lp_mode(mode: str | None) -> Iterator[None]:
    """Run the body under ``mode`` in this context; ``None`` is a no-op
    (inherit)."""
    if mode is None:
        yield
        return
    if mode not in LP_MODES:
        raise ValueError(f"lp_mode must be one of {LP_MODES}, got {mode!r}")
    token = _MODE.set(mode)
    try:
        yield
    finally:
        _MODE.reset(token)


def filter_enabled() -> bool:
    """True iff the certified float tier should be attempted."""
    return get_lp_mode() == "filtered"


# --------------------------------------------------------------------------
# The certified decision procedure


def try_certified(
    constraints: tuple[LinearConstraint, ...],
    dim: int,
    exact_oracle: ExactOracle,
) -> tuple[bool, Vector | None]:
    """Attempt to decide strict feasibility with the certified tiers.

    Returns ``(decided, witness)``.  ``decided`` is True only when the
    answer is backed by exact arithmetic — a substituted rational
    witness, an exactly-refuted dual-support subsystem, or a pure
    rational reduction (inconsistent equalities, pinned points, one free
    direction).  ``(False, None)`` means the caller must run the exact
    solver; the filter counters are maintained here either way.
    """
    if TRACER.enabled:
        with TRACER.span("lp.filter", aggregate=True) as filter_span:
            filter_span.add("rows", len(constraints))
            decided, point = _try_certified(constraints, dim, exact_oracle)
    else:
        decided, point = _try_certified(constraints, dim, exact_oracle)
    if decided:
        _FILTER_HITS.inc()
    else:
        _FILTER_FALLBACKS.inc()
    return decided, point


def _try_certified(
    constraints: tuple[LinearConstraint, ...],
    dim: int,
    exact_oracle: ExactOracle,
) -> tuple[bool, Vector | None]:
    equalities = [c for c in constraints if c.rel is Rel.EQ]
    inequalities = [c for c in constraints if c.rel is not Rel.EQ]

    if equalities:
        param = affine_parametrization(
            [list(c.coeffs) for c in equalities],
            [c.rhs for c in equalities],
        )
        if param is None:
            return True, None  # the equality rows alone are inconsistent
        origin, basis = param
        free_dim = len(basis)
        rows: list[tuple[tuple[Fraction, ...], Fraction, bool, LinearConstraint]] = []
        for c in inequalities:
            shifted = c.rhs - vec_dot(c.coeffs, origin)
            coeffs_t = tuple(vec_dot(c.coeffs, direction) for direction in basis)
            if all(q == 0 for q in coeffs_t):
                holds = shifted > 0 if c.rel is Rel.LT else shifted >= 0
                if not holds:
                    return True, None  # impossible on the equality subspace
                continue
            rows.append((coeffs_t, shifted, c.rel is Rel.LT, c))
        if free_dim == 0:
            return True, tuple(origin)  # equalities pin a unique point
    else:
        origin, basis = None, None
        free_dim = dim
        rows = []
        for c in inequalities:
            if c.is_trivial():
                if c.trivially_false():
                    return True, None
                continue
            rows.append((c.coeffs, c.rhs, c.rel is Rel.LT, c))

    if not rows:
        if origin is not None:
            return True, tuple(origin)
        return True, (ZERO,) * dim

    if free_dim == 1:
        # One free direction left: the exact interval solver is both
        # faster and exact — no float, no certification needed.
        reduced = tuple(
            LinearConstraint(
                (coeffs[0],), Rel.LT if strict else Rel.LE, rhs
            )
            for coeffs, rhs, strict, _ in rows
        )
        step = exact_oracle(reduced, 1)
        if step is None:
            return True, None
        if origin is None:
            return True, step
        assert basis is not None
        witness = tuple(
            x + step[0] * v for x, v in zip(origin, basis[0])
        )
        return True, witness

    verdict, point, duals = _float_feasible(
        rows, free_dim, CONFIG, direct=origin is None
    )

    if verdict == "feasible":
        assert point is not None
        witness = _certify_witness(constraints, origin, basis, point, CONFIG)
        if witness is not None:
            return True, witness
        _CERTIFY_FAILURES.inc()
        return False, None

    if verdict == "infeasible":
        assert duals is not None
        support = [
            row[3]
            for row, multiplier in zip(rows, duals)
            if multiplier > CONFIG.dual_eps
        ]
        subsystem = tuple(equalities) + tuple(support)
        if support and len(subsystem) < len(constraints):
            if exact_oracle(subsystem, dim) is None:
                return True, None
            _CERTIFY_FAILURES.inc()
        return False, None

    return False, None


def _certify_witness(
    constraints: Sequence[LinearConstraint],
    origin: Sequence[Fraction] | None,
    basis: Sequence[Vector] | None,
    point: Sequence[float],
    cfg: FilterConfig,
) -> Vector | None:
    """Round a float point to rationals and verify it exactly, or fail."""
    if not all(math.isfinite(v) for v in point):
        return None
    for bound in cfg.witness_denominators:
        step = [Fraction(v).limit_denominator(bound) for v in point]
        if origin is None:
            candidate = tuple(step)
        else:
            assert basis is not None
            coords = list(origin)
            for weight, direction in zip(step, basis):
                if weight:
                    coords = [
                        x + weight * v for x, v in zip(coords, direction)
                    ]
            candidate = tuple(coords)
        if all(c.satisfied_by(candidate) for c in constraints):
            return candidate
    return None


# --------------------------------------------------------------------------
# The float simplex tier


def _scaled_float_row(
    constraint: LinearConstraint,
) -> tuple[tuple[float, ...], float]:
    """The constraint's coprime-integer row as floats in ``[-1, 1]``, cached.

    Hangs off the (frozen, immutable) constraint like
    :meth:`LinearConstraint.integer_form` does, so the thousands of
    sign-vector systems sharing a hyperplane's rows pay the conversion
    once.
    """
    cached = constraint.__dict__.get("_float_form")
    if cached is not None:
        return cached
    ints, rhs_int = constraint.integer_form()
    scale = max(max(abs(v) for v in ints), abs(rhs_int), 1)
    form = (tuple(v / scale for v in ints), rhs_int / scale)
    object.__setattr__(constraint, "_float_form", form)
    return form


def _float_feasible(
    rows: Sequence[tuple[tuple[Fraction, ...], Fraction, bool, LinearConstraint]],
    f: int,
    cfg: FilterConfig,
    direct: bool,
) -> tuple[str, list[float] | None, list[float] | None]:
    """Float verdict on ``{a.t (<|<=) b}`` over ``f`` free variables.

    Maximises the shared slack ``ε`` of the strict rows (capped at 1,
    mirroring the exact solver's widening) with a two-phase dense float
    simplex.  Returns one of:

    * ``("feasible", t, None)`` — a float point with ``ε*`` above the
      epsilon band (or any feasible point when no row is strict);
    * ``("infeasible", None, λ)`` — with the Farkas multipliers of the
      inequality rows read off the final tableau's slack columns;
    * ``("unknown", None, None)`` — optimum inside the band, iteration
      cap hit, or numerical degeneracy: the caller must fall back.
    """
    has_strict = any(strict for _, _, strict, _ in rows)
    m = len(rows) + (1 if has_strict else 0)
    n_struct = 2 * f + (2 if has_strict else 0)
    n = n_struct + m

    tableau: list[list[float]] = []
    negated: list[bool] = []
    for index, (coeffs, rhs, strict, original) in enumerate(rows):
        if direct:
            scaled_coeffs, scaled_rhs = _scaled_float_row(original)
            scale = 1.0
        else:
            scaled_coeffs = tuple(float(q) for q in coeffs)
            scaled_rhs = float(rhs)
            scale = max(
                max(abs(v) for v in scaled_coeffs), abs(scaled_rhs), 1.0
            )
        row = [0.0] * (n + 1)
        for j, v in enumerate(scaled_coeffs):
            row[j] = v / scale
            row[f + j] = -v / scale
        if strict:
            row[2 * f] = 1.0 / scale
            row[2 * f + 1] = -1.0 / scale
        row[n_struct + index] = 1.0
        row[n] = scaled_rhs / scale
        tableau.append(row)
        negated.append(False)
    if has_strict:
        cap = [0.0] * (n + 1)
        cap[2 * f] = 1.0
        cap[2 * f + 1] = -1.0
        cap[n_struct + len(rows)] = 1.0
        cap[n] = 1.0
        tableau.append(cap)
        negated.append(False)

    for i in range(m):
        if tableau[i][n] < 0.0:
            tableau[i] = [-v for v in tableau[i]]
            negated[i] = True

    artificial_rows = [i for i in range(m) if negated[i]]
    n_art = len(artificial_rows)
    total = n + n_art
    basis = [n_struct + i for i in range(m)]
    if n_art:
        art_col = {row_i: n + k for k, row_i in enumerate(artificial_rows)}
        for i in range(m):
            extra = [0.0] * n_art
            if i in art_col:
                extra[art_col[i] - n] = 1.0
            tableau[i] = tableau[i][:n] + extra + [tableau[i][n]]
        for row_i in artificial_rows:
            basis[row_i] = art_col[row_i]
        # Phase 1: minimise the artificial sum, priced out over the basis.
        cost = [0.0] * total + [0.0]
        for k in range(n_art):
            cost[n + k] = 1.0
        for row_i in artificial_rows:
            cost = [c - t for c, t in zip(cost, tableau[row_i])]
        tableau.append(cost)
        status = _run_float_simplex(tableau, basis, total, (), cfg)
        if status != "optimal":
            return "unknown", None, None
        infeasibility = -tableau[-1][-1]
        if infeasibility > cfg.band_eps:
            duals = _slack_duals(tableau[-1], n_struct, len(rows), cfg)
            return "infeasible", None, duals
        # Drive leftover artificials out of the basis where possible;
        # rows that resist are redundant and their columns stay banned.
        for i in range(m):
            if basis[i] >= n:
                pivot_col = next(
                    (
                        j
                        for j in range(n)
                        if abs(tableau[i][j]) > cfg.pivot_eps
                    ),
                    None,
                )
                if pivot_col is not None:
                    _float_pivot(tableau, i, pivot_col)
                    basis[i] = pivot_col
        tableau.pop()

    banned = tuple(range(n, total))
    if not has_strict:
        point = _basic_point(tableau, basis, f, m)
        return "feasible", point, None

    cost = [0.0] * total + [0.0]
    cost[2 * f] = -1.0
    cost[2 * f + 1] = 1.0
    for i in range(m):
        weight = cost[basis[i]]
        if weight:
            cost = [c - weight * t for c, t in zip(cost, tableau[i])]
    tableau.append(cost)
    status = _run_float_simplex(tableau, basis, total, banned, cfg)
    if status != "optimal":
        return "unknown", None, None
    solution = [0.0] * total
    for i in range(m):
        solution[basis[i]] = tableau[i][-1]
    epsilon = solution[2 * f] - solution[2 * f + 1]
    if epsilon > cfg.band_eps:
        point = _basic_point(tableau, basis, f, m)
        return "feasible", point, None
    if epsilon < -cfg.band_eps:
        duals = _slack_duals(tableau[-1], n_struct, len(rows), cfg)
        return "infeasible", None, duals
    return "unknown", None, None


def _basic_point(
    tableau: list[list[float]], basis: list[int], f: int, m: int
) -> list[float]:
    values: dict[int, float] = {}
    for i in range(m):
        values[basis[i]] = tableau[i][-1]
    return [values.get(j, 0.0) - values.get(f + j, 0.0) for j in range(f)]


def _slack_duals(
    objective: list[float], n_struct: int, n_rows: int, cfg: FilterConfig
) -> list[float]:
    """Farkas multipliers: the reduced costs at the slack columns.

    At a (phase-1 or phase-2) float optimum the reduced cost of row
    ``i``'s slack column equals the multiplier ``λ_i >= 0`` of the
    infeasibility certificate; tiny negatives are float noise, clamp.
    """
    return [max(objective[n_struct + i], 0.0) for i in range(n_rows)]


def _run_float_simplex(
    tableau: list[list[float]],
    basis: list[int],
    n_cols: int,
    banned: tuple[int, ...],
    cfg: FilterConfig,
) -> str:
    """Minimise the priced-out last row in place (Dantzig rule).

    Floats have no exact anti-cycling guarantee, so a pivot cap turns
    potential stalls into an ``"unknown"`` that the caller treats as a
    fallback; nothing downstream ever trusts a stalled tableau.
    """
    m = len(tableau) - 1
    banned_set = set(banned)
    for _ in range(cfg.max_iterations):
        objective = tableau[-1]
        entering = -1
        most_negative = -cfg.pivot_eps
        for j in range(n_cols):
            if j not in banned_set and objective[j] < most_negative:
                most_negative = objective[j]
                entering = j
        if entering < 0:
            return "optimal"
        leaving = -1
        best_ratio = math.inf
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > cfg.pivot_eps:
                ratio = tableau[i][-1] / coeff
                if ratio < best_ratio:
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _float_pivot(tableau, leaving, entering)
        basis[leaving] = entering
    return "stalled"


def _float_pivot(tableau: list[list[float]], row: int, col: int) -> None:
    pivot_value = tableau[row][col]
    pivot_row = [v / pivot_value for v in tableau[row]]
    tableau[row] = pivot_row
    for r, current in enumerate(tableau):
        if r == row:
            continue
        factor = current[col]
        if factor:
            tableau[r] = [
                v - factor * p for v, p in zip(current, pivot_row)
            ]
