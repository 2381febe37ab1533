"""Canonicalised hyperplanes and halfspaces in rational space.

A hyperplane ``a . x = b`` is stored in a *canonical* primitive-integer
form: coefficients and offset are scaled to coprime integers with the
first non-zero coefficient positive.  Canonicalisation makes hyperplane
identity purely syntactic, which is what the arrangement construction of
Section 3 needs — the set 𝕳(S) is a *set*, with duplicates arising from
different atoms collapsed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from repro.errors import GeometryError
from repro.geometry.linalg import HashOnce, Vector, as_fraction, vec_dot

ZERO = Fraction(0)


class Side(enum.IntEnum):
    """Position of a point relative to a hyperplane (paper: v_i(p))."""

    BELOW = -1
    ON = 0
    ABOVE = 1


def _canonicalise(
    coeffs: Sequence[Fraction], offset: Fraction
) -> tuple[Vector, Fraction]:
    """Scale ``(coeffs, offset)`` to primitive integers, first coeff > 0."""
    if all(c == 0 for c in coeffs):
        raise GeometryError("a hyperplane needs at least one non-zero coefficient")
    denominators = [c.denominator for c in coeffs] + [offset.denominator]
    lcm = 1
    for den in denominators:
        lcm = lcm * den // gcd(lcm, den)
    ints = [int(c * lcm) for c in coeffs]
    off = int(offset * lcm)
    divisor = 0
    for value in ints + [off]:
        divisor = gcd(divisor, abs(value))
    if divisor > 1:
        ints = [v // divisor for v in ints]
        off //= divisor
    leading = next(v for v in ints if v != 0)
    if leading < 0:
        ints = [-v for v in ints]
        off = -off
    return tuple(Fraction(v) for v in ints), Fraction(off)


@dataclass(frozen=True)
class Hyperplane(HashOnce):
    """The hyperplane ``normal . x = offset`` in canonical form.

    Use :meth:`make` to construct; the raw constructor expects already
    canonical data and is used internally.  The hash is computed once
    (:class:`~repro.geometry.linalg.HashOnce`).
    """

    normal: Vector
    offset: Fraction

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = self._keep_hash(hash((self.normal, self.offset)))
        return cached

    @staticmethod
    def make(coeffs: Iterable[object], offset: object) -> "Hyperplane":
        """Canonicalising constructor accepting any exact scalars."""
        normal = tuple(as_fraction(c) for c in coeffs)
        canonical_normal, canonical_offset = _canonicalise(
            normal, as_fraction(offset)
        )
        return Hyperplane(canonical_normal, canonical_offset)

    @property
    def dimension(self) -> int:
        """Ambient dimension d of the space the hyperplane lives in."""
        return len(self.normal)

    @property
    def axis(self) -> int | None:
        """The coordinate ``i`` when the plane is ``x_i = c`` (exactly one
        non-zero normal coefficient), else ``None``."""
        support = [i for i, c in enumerate(self.normal) if c]
        return support[0] if len(support) == 1 else None

    def side_of(self, point: Sequence[Fraction]) -> Side:
        """The paper's position function: +1 above, 0 on, -1 below."""
        value = vec_dot(self.normal, point)
        if value > self.offset:
            return Side.ABOVE
        if value < self.offset:
            return Side.BELOW
        return Side.ON

    def contains(self, point: Sequence[Fraction]) -> bool:
        """True iff the point lies on the hyperplane."""
        return self.side_of(point) is Side.ON

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """The signed value ``normal . point - offset``."""
        return vec_dot(self.normal, point) - self.offset

    def __str__(self) -> str:
        terms = [
            f"{coeff}*x{i}" for i, coeff in enumerate(self.normal) if coeff != 0
        ]
        return f"{' + '.join(terms)} = {self.offset}"


@dataclass(frozen=True)
class Halfspace:
    """One side of a hyperplane, open or closed.

    ``side`` selects the open side (:data:`Side.ABOVE` means
    ``normal . x > offset``); ``closed`` additionally includes the
    hyperplane itself.
    """

    hyperplane: Hyperplane
    side: Side
    closed: bool

    def __post_init__(self) -> None:
        if self.side is Side.ON:
            raise GeometryError("a halfspace must pick a side, not ON")

    @property
    def dimension(self) -> int:
        return self.hyperplane.dimension

    def contains(self, point: Sequence[Fraction]) -> bool:
        """Exact membership test."""
        position = self.hyperplane.side_of(point)
        if position is self.side:
            return True
        return self.closed and position is Side.ON

    def complement(self) -> "Halfspace":
        """The complementary halfspace (open ↔ closed, side flipped)."""
        flipped = Side.ABOVE if self.side is Side.BELOW else Side.BELOW
        return Halfspace(self.hyperplane, flipped, not self.closed)

    def __str__(self) -> str:
        op = {
            (Side.ABOVE, True): ">=",
            (Side.ABOVE, False): ">",
            (Side.BELOW, True): "<=",
            (Side.BELOW, False): "<",
        }[(self.side, self.closed)]
        terms = [
            f"{coeff}*x{i}"
            for i, coeff in enumerate(self.hyperplane.normal)
            if coeff != 0
        ]
        return f"{' + '.join(terms)} {op} {self.hyperplane.offset}"
