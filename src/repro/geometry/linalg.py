"""Exact linear algebra over the rationals.

Vectors are tuples of :class:`fractions.Fraction`; matrices are lists (or
tuples) of such row vectors.  All routines are purely functional — inputs
are never mutated — and exact: there is no floating point anywhere.

The module provides the primitives the rest of the geometry layer builds
on: Gaussian elimination to reduced row echelon form, rank computation,
solving linear systems, kernel bases and affine hulls of point sets.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from repro.errors import DimensionMismatchError, SingularSystemError

Vector = tuple[Fraction, ...]
Matrix = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


class HashOnce:
    """Mixin for frozen value types that hash their value only once.

    A subclass's ``__hash__`` computes the value hash on first use and
    keeps it through :meth:`_keep_hash`, in the instance ``__dict__``
    next to the other lazy caches.  It is not a dataclass field, so
    equality and repr ignore it.  Pickles drop it: ``str`` and enum
    hashes depend on ``PYTHONHASHSEED``, so a hash cached in one process
    is wrong in another, and the receiving process recomputes it.
    """

    #: The cached hash; ``None`` until the first ``hash()``.
    _hash = None

    def _keep_hash(self, value: int) -> int:
        object.__setattr__(self, "_hash", value)
        return value

    def __getstate__(self) -> dict:
        state = self.__dict__
        if "_hash" in state:
            state = {k: v for k, v in state.items() if k != "_hash"}
        return state


def as_fraction(value: object) -> Fraction:
    """Coerce an int/str/Fraction into an exact :class:`Fraction`.

    Floats are rejected on purpose: silently converting binary floats would
    smuggle rounding error into an exact pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not valid rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational scalar, got {type(value).__name__}")


def vector(values: Iterable[object]) -> Vector:
    """Build an exact rational vector from any iterable of scalars."""
    return tuple(as_fraction(v) for v in values)


def zero_vector(dimension: int) -> Vector:
    """The origin of ``dimension``-dimensional rational space."""
    return (ZERO,) * dimension


def unit_vector(dimension: int, index: int) -> Vector:
    """The ``index``-th standard basis vector in ``dimension`` dimensions."""
    if not 0 <= index < dimension:
        raise IndexError(f"unit vector index {index} out of range for dim {dimension}")
    return tuple(ONE if i == index else ZERO for i in range(dimension))


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    """Component-wise sum of two vectors of equal dimension."""
    _check_same_dim(u, v)
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    """Component-wise difference ``u - v``."""
    _check_same_dim(u, v)
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(scalar: Fraction, v: Sequence[Fraction]) -> Vector:
    """Scalar multiple ``scalar * v``."""
    return tuple(scalar * a for a in v)


def vec_dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """Standard inner product of two vectors of equal dimension."""
    _check_same_dim(u, v)
    return sum((a * b for a, b in zip(u, v)), ZERO)


def vec_is_zero(v: Sequence[Fraction]) -> bool:
    """True iff every component of ``v`` is zero."""
    return all(a == 0 for a in v)


def vec_midpoint(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    """The midpoint of the segment between ``u`` and ``v``."""
    _check_same_dim(u, v)
    half = Fraction(1, 2)
    return tuple((a + b) * half for a, b in zip(u, v))


def _check_same_dim(u: Sequence[Fraction], v: Sequence[Fraction]) -> None:
    if len(u) != len(v):
        raise DimensionMismatchError(
            f"vector dimensions differ: {len(u)} vs {len(v)}"
        )


def _copy_matrix(rows: Sequence[Sequence[Fraction]]) -> Matrix:
    return [list(row) for row in rows]


def gaussian_elimination(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[Matrix, list[int]]:
    """Reduce a matrix to reduced row echelon form.

    Returns ``(rref, pivot_columns)`` where ``pivot_columns[i]`` is the
    column of the pivot in row ``i``.  Zero rows are moved to the bottom of
    the returned matrix.  The input is not modified.
    """
    matrix = _copy_matrix(rows)
    if not matrix:
        return [], []
    n_rows = len(matrix)
    n_cols = len(matrix[0])
    if any(len(row) != n_cols for row in matrix):
        raise DimensionMismatchError("all matrix rows must have equal length")

    pivot_columns: list[int] = []
    pivot_row = 0
    for col in range(n_cols):
        if pivot_row >= n_rows:
            break
        # Find a row with a non-zero entry in this column at or below pivot_row.
        chosen = next(
            (r for r in range(pivot_row, n_rows) if matrix[r][col] != 0), None
        )
        if chosen is None:
            continue
        matrix[pivot_row], matrix[chosen] = matrix[chosen], matrix[pivot_row]
        pivot_value = matrix[pivot_row][col]
        matrix[pivot_row] = [entry / pivot_value for entry in matrix[pivot_row]]
        for r in range(n_rows):
            if r != pivot_row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [
                    entry - factor * pivot_entry
                    for entry, pivot_entry in zip(matrix[r], matrix[pivot_row])
                ]
        pivot_columns.append(col)
        pivot_row += 1
    return matrix, pivot_columns


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix."""
    __, pivots = gaussian_elimination(rows)
    return len(pivots)


def solve_linear_system(
    coefficients: Sequence[Sequence[Fraction]],
    constants: Sequence[Fraction],
) -> Vector | None:
    """Solve ``A x = b`` exactly.

    Returns one solution (with free variables set to zero), or ``None``
    when the system is inconsistent.  Under-determined systems are allowed.
    """
    if len(coefficients) != len(constants):
        raise DimensionMismatchError("need exactly one constant per equation")
    if not coefficients:
        return ()
    n_cols = len(coefficients[0])
    augmented = [list(row) + [b] for row, b in zip(coefficients, constants)]
    rref, pivots = gaussian_elimination(augmented)
    # Inconsistent iff a pivot lands in the constants column.
    if pivots and pivots[-1] == n_cols:
        return None
    solution = [ZERO] * n_cols
    for row_index, col in enumerate(pivots):
        solution[col] = rref[row_index][n_cols]
    return tuple(solution)


def solve_unique(
    coefficients: Sequence[Sequence[Fraction]],
    constants: Sequence[Fraction],
) -> Vector:
    """Solve ``A x = b`` when the solution must be unique.

    Raises :class:`SingularSystemError` when the system is inconsistent or
    under-determined.  Used for vertex computation, where a d-subset of
    hyperplanes is a vertex candidate only if it meets in exactly one point.
    """
    if not coefficients:
        raise SingularSystemError("empty system has no unique solution")
    n_cols = len(coefficients[0])
    if matrix_rank(coefficients) != n_cols:
        raise SingularSystemError("coefficient matrix is rank deficient")
    solution = solve_linear_system(coefficients, constants)
    if solution is None:
        raise SingularSystemError("system is inconsistent")
    return solution


def kernel_basis(rows: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """A basis of the null space of ``A`` (solutions of ``A x = 0``)."""
    if not rows:
        return []
    n_cols = len(rows[0])
    rref, pivots = gaussian_elimination(rows)
    pivot_set = set(pivots)
    free_columns = [c for c in range(n_cols) if c not in pivot_set]
    basis: list[Vector] = []
    for free in free_columns:
        candidate = [ZERO] * n_cols
        candidate[free] = ONE
        for row_index, pivot_col in enumerate(pivots):
            candidate[pivot_col] = -rref[row_index][free]
        basis.append(tuple(candidate))
    return basis


def affine_parametrization(
    coefficients: Sequence[Sequence[Fraction]],
    constants: Sequence[Fraction],
) -> tuple[Vector, list[Vector]] | None:
    """Parametrise the solution set of ``A x = b`` as ``x0 + span(basis)``.

    Returns ``(x0, basis)`` — a particular solution plus a kernel basis —
    or ``None`` when the system is inconsistent.  One reduction serves
    both, unlike calling :func:`solve_linear_system` and
    :func:`kernel_basis` separately; the certified LP filter uses this to
    eliminate equality rows exactly before handing the remaining
    inequalities to floating point.
    """
    if len(coefficients) != len(constants):
        raise DimensionMismatchError("need exactly one constant per equation")
    if not coefficients:
        return (), []
    n_cols = len(coefficients[0])
    augmented = [list(row) + [b] for row, b in zip(coefficients, constants)]
    rref, pivots = gaussian_elimination(augmented)
    if pivots and pivots[-1] == n_cols:
        return None
    solution = [ZERO] * n_cols
    for row_index, col in enumerate(pivots):
        solution[col] = rref[row_index][n_cols]
    pivot_set = set(pivots)
    free_columns = [c for c in range(n_cols) if c not in pivot_set]
    basis: list[Vector] = []
    for free in free_columns:
        direction = [ZERO] * n_cols
        direction[free] = ONE
        for row_index, pivot_col in enumerate(pivots):
            direction[pivot_col] = -rref[row_index][free]
        basis.append(tuple(direction))
    return tuple(solution), basis


def affine_rank(points: Sequence[Sequence[Fraction]]) -> int:
    """Dimension of the affine hull of a point set.

    Empty input has affine rank ``-1`` (the empty affine space); a single
    point has rank 0; two distinct points rank 1, and so on.
    """
    if not points:
        return -1
    base = points[0]
    differences = [list(vec_sub(p, base)) for p in points[1:]]
    return matrix_rank(differences)


def affine_hull_equations(
    points: Sequence[Sequence[Fraction]],
) -> list[tuple[Vector, Fraction]]:
    """Equations ``a . x = b`` cutting out the affine hull of ``points``.

    Returns a list of ``(normal, offset)`` pairs; the hull is exactly the
    set of points satisfying all of them.  A full-dimensional hull yields
    the empty list.
    """
    if not points:
        raise ValueError("affine hull of an empty point set is undefined")
    base = points[0]
    directions = [list(vec_sub(p, base)) for p in points[1:]]
    normals = kernel_basis(directions) if directions else [
        unit_vector(len(base), i) for i in range(len(base))
    ]
    return [(normal, vec_dot(normal, base)) for normal in normals]


def are_affinely_independent(points: Sequence[Sequence[Fraction]]) -> bool:
    """True iff the points are affinely independent."""
    return affine_rank(points) == len(points) - 1


def lex_less(u: Sequence[Fraction], v: Sequence[Fraction]) -> bool:
    """Strict lexicographic comparison of two vectors of equal dimension."""
    _check_same_dim(u, v)
    return tuple(u) < tuple(v)
