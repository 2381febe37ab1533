"""Linear terms over named real variables.

A :class:`LinearTerm` is an immutable linear expression ``Σ c_v · v + k``
with rational coefficients over string-named variables.  Terms support
exact arithmetic (+, -, rational scaling), substitution of terms for
variables, renaming, evaluation at rational points, and conversion to the
positional vector form used by the geometry layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from repro.errors import NonLinearTermError
from repro.geometry.linalg import HashOnce, Vector, as_fraction

ZERO = Fraction(0)


@dataclass(frozen=True)
class LinearTerm(HashOnce):
    """The linear expression ``Σ coefficients[v] * v + constant``.

    ``coefficients`` is stored as a sorted tuple of (variable, coefficient)
    pairs with zero coefficients dropped, so structurally equal terms
    compare and hash equal.  The hash is computed once (:class:`HashOnce`).
    """

    coefficients: tuple[tuple[str, Fraction], ...]
    constant: Fraction

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = self._keep_hash(hash((self.coefficients, self.constant)))
        return cached

    @staticmethod
    def make(
        coefficients: Mapping[str, object] | None = None,
        constant: object = 0,
    ) -> "LinearTerm":
        """Normalising constructor; drops zero coefficients, sorts names."""
        items: list[tuple[str, Fraction]] = []
        for name, value in (coefficients or {}).items():
            coeff = as_fraction(value)
            if coeff != 0:
                items.append((name, coeff))
        items.sort()
        return LinearTerm(tuple(items), as_fraction(constant))

    @staticmethod
    def variable(name: str) -> "LinearTerm":
        """The term consisting of a single variable."""
        return LinearTerm(((name, Fraction(1)),), ZERO)

    @staticmethod
    def const(value: object) -> "LinearTerm":
        """A constant term."""
        return LinearTerm((), as_fraction(value))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def variables(self) -> tuple[str, ...]:
        """Variable names with non-zero coefficients, sorted."""
        return tuple(name for name, __ in self.coefficients)

    def coefficient(self, name: str) -> Fraction:
        """Coefficient of ``name`` (zero when absent)."""
        for var, coeff in self.coefficients:
            if var == name:
                return coeff
        return ZERO

    def is_constant(self) -> bool:
        """True iff the term mentions no variable."""
        return not self.coefficients

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _combine(self, other: "LinearTerm", sign: int) -> "LinearTerm":
        merged: dict[str, Fraction] = dict(self.coefficients)
        for name, coeff in other.coefficients:
            merged[name] = merged.get(name, ZERO) + sign * coeff
        return LinearTerm.make(merged, self.constant + sign * other.constant)

    def __add__(self, other: object) -> "LinearTerm":
        return self._combine(_coerce(other), 1)

    def __radd__(self, other: object) -> "LinearTerm":
        return self.__add__(other)

    def __sub__(self, other: object) -> "LinearTerm":
        return self._combine(_coerce(other), -1)

    def __rsub__(self, other: object) -> "LinearTerm":
        return _coerce(other)._combine(self, -1)

    def __neg__(self) -> "LinearTerm":
        return self.scale(Fraction(-1))

    def scale(self, factor: object) -> "LinearTerm":
        """Multiply the whole term by a rational scalar."""
        scalar = as_fraction(factor)
        return LinearTerm.make(
            {name: scalar * coeff for name, coeff in self.coefficients},
            scalar * self.constant,
        )

    def __mul__(self, other: object) -> "LinearTerm":
        if isinstance(other, LinearTerm):
            if other.is_constant():
                return self.scale(other.constant)
            if self.is_constant():
                return other.scale(self.constant)
            raise NonLinearTermError(
                "product of two non-constant terms is not linear"
            )
        return self.scale(other)

    def __rmul__(self, other: object) -> "LinearTerm":
        return self.__mul__(other)

    # ------------------------------------------------------------------
    # Substitution / evaluation
    # ------------------------------------------------------------------
    def substitute(self, mapping: Mapping[str, "LinearTerm"]) -> "LinearTerm":
        """Replace variables by terms (simultaneously)."""
        result = LinearTerm.const(self.constant)
        for name, coeff in self.coefficients:
            replacement = mapping.get(name)
            if replacement is None:
                result = result + LinearTerm.variable(name).scale(coeff)
            else:
                result = result + replacement.scale(coeff)
        return result

    def rename(self, mapping: Mapping[str, str]) -> "LinearTerm":
        """Rename variables (must be injective on this term's variables)."""
        targets = [mapping.get(v, v) for v in self.variables]
        if len(set(targets)) != len(targets):
            raise NonLinearTermError("variable renaming must be injective")
        return LinearTerm.make(
            {mapping.get(name, name): coeff for name, coeff in self.coefficients},
            self.constant,
        )

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        """Exact value at a rational assignment covering all variables."""
        total = self.constant
        for name, coeff in self.coefficients:
            total += coeff * assignment[name]
        return total

    def to_vector(self, variable_order: Sequence[str]) -> tuple[Vector, Fraction]:
        """Positional form ``(coeff_vector, constant)`` for the geometry layer.

        Every variable of the term must appear in ``variable_order``.
        """
        order = list(variable_order)
        missing = [v for v in self.variables if v not in order]
        if missing:
            raise NonLinearTermError(
                f"term mentions variables outside the order: {missing}"
            )
        return (
            tuple(self.coefficient(v) for v in order),
            self.constant,
        )

    @staticmethod
    def from_vector(
        coeffs: Sequence[Fraction],
        constant: Fraction,
        variable_order: Sequence[str],
    ) -> "LinearTerm":
        """Inverse of :meth:`to_vector`."""
        return LinearTerm.make(
            dict(zip(variable_order, coeffs)), constant
        )

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        parts: list[str] = []
        for name, coeff in self.coefficients:
            if coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coeff}*{name}")
        if self.constant != 0 or not parts:
            parts.append(str(self.constant))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def _coerce(value: object) -> LinearTerm:
    if isinstance(value, LinearTerm):
        return value
    return LinearTerm.const(value)


def term_sum(terms: Iterable[LinearTerm]) -> LinearTerm:
    """Sum of a (possibly empty) collection of terms."""
    total = LinearTerm.const(0)
    for term in terms:
        total = total + term
    return total
