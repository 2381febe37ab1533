"""Vector-form linear constraints and Fourier–Motzkin elimination.

This module defines the library's canonical *vector form* of a linear
constraint — coefficients over positional variables, a relation and a right
hand side — together with exact Fourier–Motzkin elimination of a variable
from a conjunction of such constraints.  Fourier–Motzkin is the engine
behind quantifier elimination for first-order logic over (ℝ, <, +)
(Section 2 of the paper relies on this classical fact;
:mod:`repro.constraints.qelim` runs the same steps on sparse atoms) and
behind several geometric predicates in Appendix A.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from repro.errors import DimensionMismatchError
from repro.geometry.linalg import HashOnce, Vector, as_fraction, vec_dot
from repro.obs.metrics import get_registry
from repro.obs.tracing import TRACER

ZERO = Fraction(0)

#: Elimination telemetry (Giusti–Heintz-style phase accounting): how many
#: variables were projected away and how many rows the combinations made.
_FM_ELIMINATED = get_registry().counter("fm.eliminated_variables")
_FM_GENERATED = get_registry().counter("fm.generated_constraints")


class Rel(enum.Enum):
    """Relation of a constraint ``a . x REL b``.

    Only ``<=``, ``<`` and ``=`` are stored; ``>=``/``>`` are normalised by
    negating both sides at construction time, mirroring the paper's
    convention of using {<, <=, =, >=, >} without negation.
    """

    LE = "<="
    LT = "<"
    EQ = "="

    @property
    def is_strict(self) -> bool:
        return self is Rel.LT

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class LinearConstraint(HashOnce):
    """An exact linear constraint ``coeffs . x REL rhs`` in vector form.

    Hashed once (:class:`~repro.geometry.linalg.HashOnce`): tuples of
    constraints key the LP feasibility memo.
    """

    coeffs: Vector
    rel: Rel
    rhs: Fraction

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = self._keep_hash(hash((self.coeffs, self.rel, self.rhs)))
        return cached

    @staticmethod
    def make(
        coeffs: Iterable[object], rel: Rel | str, rhs: object
    ) -> "LinearConstraint":
        """Build a constraint, accepting ``>=``/``>`` and coercing scalars.

        ``>=`` and ``>`` are normalised to ``<=`` and ``<`` by flipping
        signs, so every stored constraint uses only {<=, <, =}.
        """
        coeff_vec = tuple(as_fraction(c) for c in coeffs)
        rhs_frac = as_fraction(rhs)
        if isinstance(rel, Rel):
            return LinearConstraint(coeff_vec, rel, rhs_frac)
        if rel in ("<=", "=<"):
            return LinearConstraint(coeff_vec, Rel.LE, rhs_frac)
        if rel == "<":
            return LinearConstraint(coeff_vec, Rel.LT, rhs_frac)
        if rel in ("=", "=="):
            return LinearConstraint(coeff_vec, Rel.EQ, rhs_frac)
        if rel in (">=", "=>"):
            return LinearConstraint(
                tuple(-c for c in coeff_vec), Rel.LE, -rhs_frac
            )
        if rel == ">":
            return LinearConstraint(
                tuple(-c for c in coeff_vec), Rel.LT, -rhs_frac
            )
        raise ValueError(f"unknown relation {rel!r}")

    @property
    def dimension(self) -> int:
        return len(self.coeffs)

    def satisfied_by(self, point: Sequence[Fraction]) -> bool:
        """Exact membership test of a rational point."""
        value = vec_dot(self.coeffs, point)
        if self.rel is Rel.LE:
            return value <= self.rhs
        if self.rel is Rel.LT:
            return value < self.rhs
        return value == self.rhs

    def support(self) -> tuple[int, ...]:
        """Indices of the non-zero coefficients, cached like
        :meth:`integer_form`."""
        cached = self.__dict__.get("_support")
        if cached is None:
            cached = tuple(i for i, c in enumerate(self.coeffs) if c)
            object.__setattr__(self, "_support", cached)
        return cached

    def is_trivial(self) -> bool:
        """True iff the constraint has all-zero coefficients."""
        return not self.support()

    def trivially_true(self) -> bool:
        """For all-zero coefficients: does ``0 REL rhs`` hold?"""
        if not self.is_trivial():
            return False
        return self.satisfied_by((ZERO,) * self.dimension)

    def trivially_false(self) -> bool:
        """For all-zero coefficients: does ``0 REL rhs`` fail?"""
        return self.is_trivial() and not self.trivially_true()

    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """The row as coprime integers ``(coeffs, rhs)``, cached.

        Both sides are multiplied by the (positive) lcm of the
        denominators and divided by the gcd of the resulting integers, so
        the relation is preserved and repeated consumers — the certified
        float LP filter above all — pay the normalisation once per
        constraint instead of one gcd per arithmetic operation.
        """
        cached = self.__dict__.get("_integer_form")
        if cached is not None:
            return cached
        scale = math.lcm(
            self.rhs.denominator, *(c.denominator for c in self.coeffs)
        )
        ints = tuple(c.numerator * (scale // c.denominator) for c in self.coeffs)
        rhs_int = self.rhs.numerator * (scale // self.rhs.denominator)
        common = math.gcd(rhs_int, *ints)
        if common > 1:
            ints = tuple(c // common for c in ints)
            rhs_int //= common
        form = (ints, rhs_int)
        object.__setattr__(self, "_integer_form", form)
        return form

    def scaled(self, factor: Fraction) -> "LinearConstraint":
        """Multiply both sides by a *positive* rational factor."""
        if factor <= 0:
            raise ValueError("scaling factor must be positive")
        return LinearConstraint(
            tuple(factor * c for c in self.coeffs), self.rel, factor * self.rhs
        )

    def __str__(self) -> str:
        parts = []
        for index, coeff in enumerate(self.coeffs):
            if coeff == 0:
                continue
            parts.append(f"{coeff}*x{index}")
        lhs = " + ".join(parts) if parts else "0"
        return f"{lhs} {self.rel.value} {self.rhs}"


def constraints_dimension(constraints: Sequence[LinearConstraint]) -> int:
    """Common ambient dimension of a constraint system (must agree)."""
    if not constraints:
        raise ValueError("cannot infer the dimension of an empty system")
    dims = {c.dimension for c in constraints}
    if len(dims) != 1:
        raise DimensionMismatchError(f"mixed constraint dimensions: {sorted(dims)}")
    return dims.pop()


def eliminate_variable(
    constraints: Sequence[LinearConstraint], index: int
) -> list[LinearConstraint]:
    """Project a conjunction of constraints along variable ``index``.

    Returns a system over the *same* ambient dimension whose variable
    ``index`` is unconstrained (all output coefficients at ``index`` are
    zero) and which is satisfiable by ``(x_0, .., x_{index-1}, *,
    x_{index+1}, ..)`` exactly when some value of ``x_index`` satisfies the
    input.  This is classical Fourier–Motzkin extended with equalities
    (used for substitution first) and strict inequalities (a combined bound
    is strict iff either parent is strict).
    """
    if not constraints:
        return []
    dimension = constraints_dimension(constraints)
    if not 0 <= index < dimension:
        raise IndexError(f"variable index {index} out of range for dim {dimension}")

    # If an equality mentions the variable, substitute it away: solve the
    # equality for x_index and add the rewritten forms of every other
    # constraint.  This is both faster and avoids the quadratic blow-up.
    pivot = next(
        (c for c in constraints if c.rel is Rel.EQ and c.coeffs[index] != 0), None
    )
    if pivot is not None:
        _FM_ELIMINATED.inc()
        rewritten = [
            _substitute_equality(c, pivot, index)
            for c in constraints
            if c is not pivot
        ]
        _FM_GENERATED.inc(len(rewritten))
        return rewritten
    _FM_ELIMINATED.inc()

    lower: list[tuple[LinearConstraint, Fraction]] = []  # a.x >= expr forms
    upper: list[tuple[LinearConstraint, Fraction]] = []
    unrelated: list[LinearConstraint] = []
    for constraint in constraints:
        coeff = constraint.coeffs[index]
        if coeff == 0:
            unrelated.append(constraint)
        elif coeff > 0:
            upper.append((constraint, coeff))
        else:
            lower.append((constraint, coeff))

    combined: list[LinearConstraint] = []
    for low, low_coeff in lower:
        for high, high_coeff in upper:
            # low: c_l * x + r_l REL_l b_l with c_l < 0  => x >= (b_l - r_l)/c_l
            # high: c_h * x + r_h REL_h b_h with c_h > 0 => x <= (b_h - r_h)/c_h
            # Combine: c_h * (b_l - r_l(x)) >= c_l * (b_h - r_h(x)) flipped..
            # Implemented by the standard positive combination that cancels
            # the x_index coefficient:
            scale_low = high_coeff
            scale_high = -low_coeff
            coeffs = tuple(
                scale_low * cl + scale_high * ch
                for cl, ch in zip(low.coeffs, high.coeffs)
            )
            rhs = scale_low * low.rhs + scale_high * high.rhs
            rel = Rel.LT if (low.rel is Rel.LT or high.rel is Rel.LT) else Rel.LE
            combined.append(LinearConstraint(coeffs, rel, rhs))

    _FM_GENERATED.inc(len(combined))
    if TRACER.enabled:
        fm_span = TRACER.current()
        fm_span.add("fm.generated", len(combined))
    result = unrelated + combined
    return [_zero_out(c, index) for c in result]


def _zero_out(constraint: LinearConstraint, index: int) -> LinearConstraint:
    """Force the eliminated coefficient to literal zero (it already is)."""
    if constraint.coeffs[index] == 0:
        return constraint
    raise AssertionError("eliminated variable still has a non-zero coefficient")


def _substitute_equality(
    constraint: LinearConstraint, equality: LinearConstraint, index: int
) -> LinearConstraint:
    """Rewrite ``constraint`` using ``equality`` solved for ``x_index``."""
    pivot_coeff = equality.coeffs[index]
    # x_index = (equality.rhs - sum_{j != index} e_j x_j) / pivot_coeff
    factor = constraint.coeffs[index] / pivot_coeff
    coeffs = tuple(
        (c - factor * e) if j != index else ZERO
        for j, (c, e) in enumerate(zip(constraint.coeffs, equality.coeffs))
    )
    rhs = constraint.rhs - factor * equality.rhs
    return LinearConstraint(coeffs, constraint.rel, rhs)


def predicted_blowup(
    constraints: Sequence[LinearConstraint], index: int
) -> int:
    """Predicted row-count change of eliminating one variable.

    An equality row makes elimination a substitution: the system
    shrinks by the equality row and every other mention simplifies, so
    it scores ``-1 - mentions`` (always preferred over an equal-size
    inequality elimination).  Otherwise Fourier–Motzkin replaces the
    ``lower + upper`` rows mentioning the variable by ``lower × upper``
    combinations — the classic quadratic blowup this orderer bounds.
    """
    lower = upper = mentions = 0
    has_equality = False
    for constraint in constraints:
        coeff = constraint.coeffs[index]
        if coeff == 0:
            continue
        mentions += 1
        if constraint.rel is Rel.EQ:
            has_equality = True
        elif coeff > 0:
            upper += 1
        else:
            lower += 1
    if has_equality:
        return -1 - mentions
    return lower * upper - (lower + upper)


def elimination_order(
    constraints: Sequence[LinearConstraint], indices: Iterable[int]
) -> list[int]:
    """Order variables by predicted constraint blowup, smallest first.

    Greedy min-fill on the coefficient occurrence graph: at each step
    pick the variable whose elimination generates the fewest combined
    rows on the *current* system (equalities first — substitution never
    grows the system), simulating only the row bookkeeping, never the
    arithmetic.  Deterministic; ties break on the variable index.
    """
    remaining = list(dict.fromkeys(indices))
    system = list(constraints)
    order: list[int] = []
    while remaining:
        best = min(
            remaining,
            key=lambda i: (predicted_blowup(system, i), i),
        )
        remaining.remove(best)
        order.append(best)
        system = simplify_system(eliminate_variable(system, best)) or []
    return order


def eliminate_variables(
    constraints: Sequence[LinearConstraint],
    indices: Iterable[int],
    order: str = "given",
) -> list[LinearConstraint]:
    """Eliminate several variables in sequence, dropping trivial output.

    ``order="auto"`` lets :func:`elimination_order` pick the sequence
    by predicted blowup (the optimizer's choice); ``"given"`` keeps the
    caller's order.  Both produce equivalent projections — the order
    only changes intermediate system sizes and the (equivalent) output
    representation.
    """
    if order not in ("given", "auto"):
        raise ValueError(
            f"order must be 'given' or 'auto', got {order!r}"
        )
    system = list(constraints)
    if order == "auto":
        indices = elimination_order(system, indices)
    with TRACER.span("fm.eliminate", aggregate=True):
        return _eliminate_variables_inner(system, indices, constraints)


def _eliminate_variables_inner(
    system: list[LinearConstraint],
    indices: Iterable[int],
    constraints: Sequence[LinearConstraint],
) -> list[LinearConstraint]:
    for index in indices:
        system = eliminate_variable(system, index)
        system = simplify_system(system)
        if system is None:
            # Represent an infeasible projection by a canonical false row.
            dimension = constraints[0].dimension if constraints else 0
            return [
                LinearConstraint((ZERO,) * dimension, Rel.LT, ZERO)
            ]
    return system


def simplify_system(
    constraints: Sequence[LinearConstraint],
) -> list[LinearConstraint] | None:
    """Drop trivially-true rows and deduplicate; ``None`` if trivially false."""
    seen: set[tuple] = set()
    output: list[LinearConstraint] = []
    for constraint in constraints:
        if constraint.is_trivial():
            if constraint.trivially_false():
                return None
            continue
        key = (constraint.coeffs, constraint.rel, constraint.rhs)
        if key in seen:
            continue
        seen.add(key)
        output.append(constraint)
    return output
