"""V-representation convex bodies: generator points and rays.

Appendix A of the paper builds regions as *open convex hulls* of finitely
many vertices, possibly together with open rays ``{p + a(p-q) : a > 0}``.
The open convex hull of a union of points and open rays is exactly

    { Σ λ_i p_i + Σ μ_j r_j  :  λ_i > 0, Σ λ_i = 1, μ_j > 0 }

which this module represents directly: a :class:`VPolyhedron` is a set of
generator points and ray directions plus an open/closed flag.  All
predicates (membership, closure membership, segment intersection,
closure containment) reduce to exact LP feasibility over the generator
coefficients.

Generators are canonicalised — duplicate points collapse and rays are
scaled to primitive integer directions — so syntactic equality of
canonical generators is meaningful for the decomposition's region
identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from repro.errors import GeometryError
from repro.geometry.fourier_motzkin import LinearConstraint, Rel
from repro.geometry.linalg import (
    Vector,
    affine_rank,
    vec_add,
    vec_scale,
    vec_sub,
)
from repro.geometry.simplex import strict_feasible_point

ZERO = Fraction(0)
ONE = Fraction(1)


def canonical_ray(direction: Sequence[Fraction]) -> Vector:
    """Scale a ray direction to a primitive integer vector (sign kept)."""
    if all(c == 0 for c in direction):
        raise GeometryError("a ray direction must be non-zero")
    lcm = 1
    for value in direction:
        lcm = lcm * value.denominator // gcd(lcm, value.denominator)
    ints = [int(v * lcm) for v in direction]
    divisor = 0
    for value in ints:
        divisor = gcd(divisor, abs(value))
    return tuple(Fraction(v // divisor) for v in ints)


@dataclass(frozen=True)
class VPolyhedron:
    """Open or closed convex hull of generator points and rays."""

    dimension: int
    points: tuple[Vector, ...]
    rays: tuple[Vector, ...]
    open_hull: bool

    @staticmethod
    def make(
        points: Iterable[Sequence[Fraction]],
        rays: Iterable[Sequence[Fraction]] = (),
        open_hull: bool = True,
    ) -> "VPolyhedron":
        """Canonicalising constructor (dedupes points, normalises rays)."""
        point_list = [tuple(p) for p in points]
        if not point_list:
            raise GeometryError("a V-polyhedron needs at least one point")
        dimension = len(point_list[0])
        if any(len(p) != dimension for p in point_list):
            raise GeometryError("generator points must share one dimension")
        unique_points = tuple(sorted(set(point_list)))
        ray_list = [canonical_ray(r) for r in rays]
        if any(len(r) != dimension for r in ray_list):
            raise GeometryError("ray dimensions must match point dimension")
        unique_rays = tuple(sorted(set(ray_list)))
        return VPolyhedron(dimension, unique_points, unique_rays, open_hull)

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    def is_bounded(self) -> bool:
        """Bounded iff there are no rays."""
        return not self.rays

    def affine_dimension(self) -> int:
        """Dimension of the affine support (paper: dimension of a region)."""
        base = self.points[0]
        spanning = list(self.points) + [vec_add(base, r) for r in self.rays]
        return affine_rank(spanning)

    def sample_point(self) -> Vector:
        """A rational point of the body (barycentre plus ray offsets)."""
        k = len(self.points)
        weight = Fraction(1, k)
        total = (ZERO,) * self.dimension
        for point in self.points:
            total = vec_add(total, vec_scale(weight, point))
        for ray in self.rays:
            total = vec_add(total, ray)
        return total

    def closure(self) -> "VPolyhedron":
        """The closed hull ``conv(points) + cone(rays)``."""
        return VPolyhedron(self.dimension, self.points, self.rays, False)

    # ------------------------------------------------------------------
    # LP-backed predicates
    # ------------------------------------------------------------------
    def _membership_system(
        self, target: Sequence[Fraction], open_hull: bool
    ) -> list[LinearConstraint]:
        """Constraints over (λ, μ) expressing ``target`` ∈ hull."""
        n_points = len(self.points)
        n_rays = len(self.rays)
        total = n_points + n_rays
        system: list[LinearConstraint] = []
        for axis in range(self.dimension):
            coeffs = [p[axis] for p in self.points] + [r[axis] for r in self.rays]
            system.append(
                LinearConstraint(tuple(coeffs), Rel.EQ, target[axis])
            )
        system.append(
            LinearConstraint(
                (ONE,) * n_points + (ZERO,) * n_rays, Rel.EQ, ONE
            )
        )
        bound = Rel.LT if open_hull else Rel.LE
        for j in range(total):
            coeffs = tuple(
                -ONE if i == j else ZERO for i in range(total)
            )
            system.append(LinearConstraint(coeffs, bound, ZERO))
        return system

    def contains(self, point: Sequence[Fraction]) -> bool:
        """Exact membership in the (open or closed) hull."""
        if len(point) != self.dimension:
            raise GeometryError("point dimension mismatch")
        system = self._membership_system(point, self.open_hull)
        return strict_feasible_point(system) is not None

    def closure_contains(self, point: Sequence[Fraction]) -> bool:
        """Membership in the closed hull."""
        system = self._membership_system(point, False)
        return strict_feasible_point(system) is not None

    def ray_in_recession_cone(self, direction: Sequence[Fraction]) -> bool:
        """Is ``direction`` in cone(rays)?  (Recession cone of the closure.)"""
        if not self.rays:
            return all(c == 0 for c in direction)
        n_rays = len(self.rays)
        system: list[LinearConstraint] = []
        for axis in range(self.dimension):
            coeffs = tuple(r[axis] for r in self.rays)
            system.append(LinearConstraint(coeffs, Rel.EQ, direction[axis]))
        for j in range(n_rays):
            coeffs = tuple(-ONE if i == j else ZERO for i in range(n_rays))
            system.append(LinearConstraint(coeffs, Rel.LE, ZERO))
        return strict_feasible_point(system) is not None

    def subset_of_closure(self, other: "VPolyhedron") -> bool:
        """True iff this body lies inside the closure of ``other``.

        By convexity this holds iff every generator point lies in the
        closed hull of ``other`` and every ray direction lies in its
        recession cone.
        """
        if other.dimension != self.dimension:
            raise GeometryError("dimension mismatch")
        if not all(other.closure_contains(p) for p in self.points):
            return False
        return all(other.ray_in_recession_cone(r) for r in self.rays)

    def meets_segment(
        self,
        start: Sequence[Fraction],
        end: Sequence[Fraction],
        include_endpoints: bool = True,
    ) -> bool:
        """Does the segment [start, end] intersect this hull?

        With ``include_endpoints=False`` the open segment is used.  The
        test is one LP over (t, λ, μ): ``start + t (end-start)`` must be a
        hull combination with ``0 (<)= t (<)= 1``.
        """
        n_points = len(self.points)
        n_rays = len(self.rays)
        total = 1 + n_points + n_rays  # t first, then λ, then μ
        direction = vec_sub(end, start)
        system: list[LinearConstraint] = []
        for axis in range(self.dimension):
            coeffs = (
                (-direction[axis],)
                + tuple(p[axis] for p in self.points)
                + tuple(r[axis] for r in self.rays)
            )
            system.append(LinearConstraint(coeffs, Rel.EQ, start[axis]))
        system.append(
            LinearConstraint(
                (ZERO,) + (ONE,) * n_points + (ZERO,) * n_rays, Rel.EQ, ONE
            )
        )
        generator_bound = Rel.LT if self.open_hull else Rel.LE
        for j in range(n_points + n_rays):
            coeffs = tuple(
                -ONE if i == 1 + j else ZERO for i in range(total)
            )
            system.append(LinearConstraint(coeffs, generator_bound, ZERO))
        t_bound = Rel.LE if include_endpoints else Rel.LT
        t_low = tuple(-ONE if i == 0 else ZERO for i in range(total))
        t_high = tuple(ONE if i == 0 else ZERO for i in range(total))
        system.append(LinearConstraint(t_low, t_bound, ZERO))
        system.append(LinearConstraint(t_high, t_bound, ONE))
        return strict_feasible_point(system) is not None

    def generator_key(self) -> tuple:
        """Canonical identity key (sorted points, sorted primitive rays)."""
        return (self.points, self.rays, self.open_hull)

    def __str__(self) -> str:
        kind = "openconv" if self.open_hull else "conv"
        points = ", ".join(str(tuple(map(str, p))) for p in self.points)
        if self.rays:
            rays = ", ".join(str(tuple(map(str, r))) for r in self.rays)
            return f"{kind}(points=[{points}], rays=[{rays}])"
        return f"{kind}([{points}])"
