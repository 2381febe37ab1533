"""Pruned DNF algebra — the engine behind polynomial-time evaluation.

Boolean operations on DNF-represented relations distribute conjunctions
over disjunctions; done naively the intermediate representation explodes
exponentially in the number of disjuncts (think of negating a union over
all region pairs).  The classical remedy, and what makes the PTIME bound
of Theorem 4.3 real in an implementation, is *incremental pruning*: while
multiplying factors out, discard every partial conjunction that is
already infeasible over (ℝ, <, +).  Each surviving conjunction denotes a
non-empty set, and distinct surviving conjunctions of atoms over the same
hyperplanes denote distinct cells of the atom arrangement — so the number
of survivors is bounded by the cell count O(m^k) for m atoms in k
variables, polynomial for fixed arity.

The functions here work on the ``Disjunct`` representation of
:mod:`repro.constraints.normal_forms` (tuples of atoms, conjunction
implied, list = disjunction).

Every feasibility verdict goes through :func:`disjunct_feasible`, which
first asks :func:`feasibility_certificate` — an O(atoms) bound sweep
whose ``True`` is an exactly checked point and whose ``False`` is an
empty relaxed box or a one-variable contradiction — and only builds
``LinearConstraint`` rows for the exact LP when the certificate is
undecided.  Both executors and the element-query path therefore share
one decision.  Every pruning entry point accepts an optional
``feasibility`` callable (``Disjunct -> bool``) in its place; the
compiled executor (:mod:`repro.ir.kernels`) passes a memo over
:func:`disjunct_feasible` this way, so both executors run the *same*
control flow over the same disjunct orders and produce byte-identical
formulas.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from repro.geometry.simplex import feasible, interval_point
from repro.constraints.atoms import Atom, Op
from repro.constraints.normal_forms import Disjunct
from repro.obs.metrics import get_registry

#: Signature of a pluggable feasibility decision over a conjunction.
FeasibilityFn = Callable[[Disjunct], bool]

#: Verdicts :func:`disjunct_feasible` took from the certificate, no LP.
_CERTIFIED = get_registry().counter("lp.certified")

_LE_OPS = (Op.LE, Op.LT, Op.EQ)
_GE_OPS = (Op.GE, Op.GT, Op.EQ)


def _bound(
    coeff: Fraction, rest: Fraction, op: Op
) -> tuple[Fraction, int, bool]:
    """``coeff·v + rest OP 0`` (``coeff`` non-zero) as a bound on ``v``.

    Returns ``(value, side, strict)``: ``side`` is 1 for ``v ≤ value``
    (``<`` when ``strict``), -1 for ``v ≥ value`` and 0 for
    ``v = value``.
    """
    if coeff == 1:
        value = -rest
    elif coeff == -1:
        value = rest
    else:
        value = -rest / coeff
    if op is Op.EQ:
        return value, 0, False
    return (
        value,
        1 if (op is Op.LE or op is Op.LT) == (coeff > 0) else -1,
        op is Op.LT or op is Op.GT,
    )


def _tighten(entry: list, value: Fraction, side: int, strict: bool) -> bool:
    """Meet ``entry`` = [lower, lower_strict, upper, upper_strict, pinned]
    with one bound, by the rules of the exact interval solve; ``False``
    on two different pinned values."""
    if side == 0:
        pinned = entry[4]
        if pinned is not None and pinned != value:
            return False
        entry[4] = value
    elif side > 0:
        upper = entry[2]
        if upper is None or value < upper or (value == upper and strict):
            entry[2] = value
            entry[3] = strict
    else:
        lower = entry[0]
        if lower is None or value > lower or (value == lower and strict):
            entry[0] = value
            entry[1] = strict
    return True


def feasibility_certificate(disjunct: Disjunct) -> bool | None:
    """A proof that a conjunction is (non-)empty, ``None`` when undecided.

    One sweep collects every one-variable atom as a bound on its
    variable, strictness included, and places each such variable as the
    exact interval solve would (:func:`~repro.geometry.simplex.\
interval_point`): an empty interval is an exact contradiction, so
    ``False``.  ``False`` also comes from a constant atom that fails and
    from a multi-variable atom that no point of the relaxed (closed)
    bound box satisfies — the LP verdict is then ``False`` as well.
    Variables bounded only through multi-variable atoms are placed next,
    in sorted order, each from the atoms whose other variables are
    already placed (midpoint, ``lower + 1``, ``upper - 1`` or 0).
    ``True`` is returned only when the whole point satisfies every atom
    exactly, strictness included — a witness, so the LP verdict is
    ``True``.  A conjunction of one-variable atoms is always decided.
    """
    # variable -> [lower, lower_strict, upper, upper_strict, pinned]
    bounds: dict[str, list] = {}
    multi: list[Atom] = []
    for atom in disjunct:
        term = atom.term
        coeffs = term.coefficients
        if len(coeffs) != 1:
            if coeffs:
                multi.append(atom)
            elif not atom.op.holds(term.constant):
                return False
            continue
        ((name, coeff),) = coeffs
        entry = bounds.get(name)
        if entry is None:
            entry = bounds[name] = [None, False, None, False, None]
        if not _tighten(entry, *_bound(coeff, term.constant, atom.op)):
            return False
    point: dict[str, Fraction] = {}
    for name, entry in bounds.items():
        value = interval_point(*entry)
        if value is None:
            return False
        point[name] = value
    for atom in multi:
        term = atom.term
        low = high = term.constant
        for name, coeff in term.coefficients:
            entry = bounds.get(name)
            if entry is None:
                low = high = None
                break
            pinned = entry[4]
            if pinned is not None:
                piece_low = piece_high = pinned
            elif coeff > 0:
                piece_low, piece_high = entry[0], entry[2]
            else:
                piece_low, piece_high = entry[2], entry[0]
            low = None if low is None or piece_low is None else (
                low + coeff * piece_low
            )
            high = None if high is None or piece_high is None else (
                high + coeff * piece_high
            )
            if low is None and high is None:
                break
        if low is not None and low > 0 and atom.op in _LE_OPS:
            return False
        if high is not None and high < 0 and atom.op in _GE_OPS:
            return False
    pending = sorted({
        name
        for atom in multi
        for name, __ in atom.term.coefficients
        if name not in point
    })
    for name in pending:
        entry = [None, False, None, False, None]
        for atom in multi:
            term = atom.term
            rest = term.constant
            own = None
            for other, coeff in term.coefficients:
                if other == name:
                    own = coeff
                elif other in point:
                    rest += coeff * point[other]
                else:
                    break
            else:
                if own is not None and not _tighten(
                    entry, *_bound(own, rest, atom.op)
                ):
                    return None
        value = interval_point(*entry)
        if value is None:
            return None
        point[name] = value
    for atom in disjunct:
        term = atom.term
        value = term.constant
        for name, coeff in term.coefficients:
            value += coeff * point[name]
        if not atom.op.holds(value):
            return None
    return True


def disjunct_feasible(disjunct: Disjunct) -> bool:
    """Exact non-emptiness of a conjunction of atoms.

    Decided by :func:`feasibility_certificate` when it can, by the exact
    LP (:func:`repro.geometry.simplex.feasible`) otherwise.
    """
    verdict = feasibility_certificate(disjunct)
    if verdict is not None:
        _CERTIFIED.inc()
        return verdict
    live = [atom for atom in disjunct if not atom.is_trivial()]
    variables = sorted({v for atom in live for v in atom.variables})
    system = [atom.to_linear_constraint(variables) for atom in live]
    return feasible(system, dimension=len(variables))


def _normalise(disjunct: Disjunct) -> Disjunct | None:
    """Dedupe atoms, drop trivially-true ones; None if trivially false."""
    kept: list[Atom] = []
    seen: set[Atom] = set()
    for atom in disjunct:
        if atom.is_trivial():
            if not atom.trivial_truth():
                return None
            continue
        if atom not in seen:
            seen.add(atom)
            kept.append(atom)
    return tuple(kept)


def prune_disjuncts(
    disjuncts: Sequence[Disjunct],
    *,
    feasibility: FeasibilityFn = disjunct_feasible,
) -> list[Disjunct]:
    """Normalise, dedupe and drop infeasible disjuncts."""
    output: list[Disjunct] = []
    seen: set[Disjunct] = set()
    for disjunct in disjuncts:
        reduced = _normalise(disjunct)
        if reduced is None or reduced in seen:
            continue
        seen.add(reduced)
        if feasibility(reduced):
            output.append(reduced)
    return output


def dnf_product(
    factors: Sequence[Sequence[Disjunct]],
    *,
    feasibility: FeasibilityFn = disjunct_feasible,
) -> list[Disjunct]:
    """Conjunction of several DNFs, distributed with incremental pruning.

    Returns the DNF of ``⋀_i ⋁_j C_ij``; every partial product that
    becomes infeasible is cut immediately, so intermediate size never
    exceeds the true cell count times the branching factor.
    """
    partial: list[Disjunct] = [()]
    for factor in factors:
        grown: list[Disjunct] = []
        seen: set[Disjunct] = set()
        for prefix in partial:
            for disjunct in factor:
                candidate = _normalise(prefix + disjunct)
                if candidate is None or candidate in seen:
                    continue
                seen.add(candidate)
                if feasibility(candidate):
                    grown.append(candidate)
        partial = grown
        if not partial:
            return []
    return partial


def remove_redundant_atoms(
    disjunct: Disjunct,
    *,
    feasibility: FeasibilityFn = disjunct_feasible,
) -> Disjunct:
    """Drop atoms implied by the rest of their conjunction.

    Atom a is redundant in C iff (C ∖ {a}) ∧ ¬a is infeasible.  Greedy
    left-to-right removal; the result denotes the same set with a
    minimal-ish representation.  Used by explicit simplification, not by
    the hot evaluation paths.
    """
    kept = list(disjunct)
    index = 0
    while index < len(kept):
        candidate = kept[index]
        rest = kept[:index] + kept[index + 1:]
        negated_feasible = any(
            feasibility(tuple(rest) + (negated,))
            for negated in candidate.negated_atoms()
        )
        if not negated_feasible:
            kept.pop(index)
        else:
            index += 1
    return tuple(kept)


def merge_equality_pairs(disjunct: Disjunct) -> Disjunct:
    """Replace complementary bound pairs ``t ≤ 0 ∧ t ≥ 0`` by ``t = 0``.

    Sign-vector cells express equalities as two opposite non-strict
    bounds; merging them makes simplified output read naturally.
    """
    from repro.constraints.atoms import Op

    atoms = list(disjunct)
    result: list = []
    consumed: set[int] = set()
    for i, atom in enumerate(atoms):
        if i in consumed:
            continue
        partner = None
        if atom.op in (Op.LE, Op.GE):
            for j in range(i + 1, len(atoms)):
                if j in consumed:
                    continue
                other = atoms[j]
                if other.op not in (Op.LE, Op.GE):
                    continue
                if other.term == atom.term and other.op is not atom.op:
                    partner = j
                    break
                if other.term == -atom.term and other.op is atom.op:
                    partner = j
                    break
        if partner is not None:
            from repro.constraints.atoms import Atom

            consumed.add(partner)
            term = atom.term
            if term.coefficients and term.coefficients[0][1] < 0:
                term = -term
            result.append(Atom(term, Op.EQ))
        else:
            result.append(atom)
    return tuple(result)


def _subsumed(
    smaller: Disjunct,
    larger: Disjunct,
    *,
    feasibility: FeasibilityFn = disjunct_feasible,
) -> bool:
    """Does ``larger`` contain ``smaller`` as a set (smaller ⟹ larger)?"""
    return all(
        not feasibility(smaller + (negated,))
        for atom in larger
        for negated in atom.negated_atoms()
    )


def minimise_dnf(
    disjuncts: Sequence[Disjunct],
    *,
    feasibility: FeasibilityFn = disjunct_feasible,
    reduce_disjunct=None,
    subsumes=None,
) -> list[Disjunct]:
    """Feasibility-prune, remove redundant atoms, drop subsumed disjuncts.

    ``reduce_disjunct`` and ``subsumes`` optionally replace the
    per-disjunct reduction (redundant-atom removal + equality merging)
    and the pairwise subsumption test with observationally identical
    implementations — the compiled executor passes memoised versions,
    since fixpoint accumulators re-minimise mostly unchanged disjunct
    sets stage after stage.
    """
    if reduce_disjunct is None:
        def reduce_disjunct(d: Disjunct) -> Disjunct:
            return merge_equality_pairs(
                remove_redundant_atoms(d, feasibility=feasibility)
            )
    if subsumes is None:
        def subsumes(smaller: Disjunct, larger: Disjunct) -> bool:
            return _subsumed(smaller, larger, feasibility=feasibility)
    cleaned = [
        reduce_disjunct(d)
        for d in prune_disjuncts(disjuncts, feasibility=feasibility)
    ]
    cleaned = prune_disjuncts(cleaned, feasibility=feasibility)
    survivors: list[Disjunct] = []
    for index, disjunct in enumerate(cleaned):
        absorbed = False
        for other_index, other in enumerate(cleaned):
            if other_index == index:
                continue
            # Keep the earlier disjunct on mutual subsumption.
            if subsumes(disjunct, other) and not (
                other_index > index and subsumes(other, disjunct)
            ):
                absorbed = True
                break
        if not absorbed:
            survivors.append(disjunct)
    return survivors


def to_dnf_pruned(formula) -> list[Disjunct]:
    """DNF conversion with feasibility pruning at every distribution.

    The naive ``to_dnf`` distributes blindly and can explode on
    conjunctions of disjunctions (e.g. negated unions inside quantifier
    elimination).  This version converts to NNF first and then builds
    the DNF bottom-up, running every conjunction through
    :func:`dnf_product` so infeasible partial products die immediately.
    Output is semantically equal to ``to_dnf`` (trivially-false
    disjuncts dropped either way).
    """
    from repro.constraints.formula import (
        And,
        AtomFormula,
        FalseFormula,
        Or,
        TrueFormula,
    )
    from repro.constraints.normal_forms import to_nnf
    from repro.errors import FormulaError

    def convert(node) -> list[Disjunct]:
        if isinstance(node, TrueFormula):
            return [()]
        if isinstance(node, FalseFormula):
            return []
        if isinstance(node, AtomFormula):
            return [(node.atom,)]
        if isinstance(node, Or):
            collected: list[Disjunct] = []
            for operand in node.operands:
                collected.extend(convert(operand))
            return prune_disjuncts(collected)
        if isinstance(node, And):
            return dnf_product([convert(op) for op in node.operands])
        raise FormulaError(
            f"unexpected node in NNF: {type(node).__name__}"
        )

    return convert(to_nnf(formula))


def negate_disjunct(disjunct: Disjunct) -> list[Disjunct]:
    """¬(a_1 ∧ .. ∧ a_m) as a DNF: one disjunct per complemented atom."""
    result: list[Disjunct] = []
    for atom in disjunct:
        for negated in atom.negated_atoms():
            result.append((negated,))
    return result


def negate_dnf(
    disjuncts: Sequence[Disjunct],
    *,
    feasibility: FeasibilityFn = disjunct_feasible,
) -> list[Disjunct]:
    """Complement of a DNF, with pruning (¬⋁_i C_i = ⋀_i ¬C_i)."""
    if not disjuncts:
        return [()]
    factors = [negate_disjunct(d) for d in disjuncts]
    return dnf_product(factors, feasibility=feasibility)


def cell_complement(
    disjuncts: Sequence[Disjunct],
    variables: Sequence[str],
    *,
    enumerate_cells=None,
    disjunct_holds=None,
    face_atoms=None,
) -> list[Disjunct]:
    """Complement via the arrangement of the formula's own atoms.

    The truth of a DNF is constant on every face of the arrangement of
    the hyperplanes induced by its atoms (the same observation Section 3
    makes for database representations).  So the complement is exactly
    the union of the faces whose witness point falsifies the formula —
    one pointwise evaluation per face instead of an exponential product.
    The face count is O(m^k) for m distinct hyperplanes in k variables,
    so this is the polynomially-bounded path for large disjunct counts.

    ``enumerate_cells`` optionally replaces the cell enumeration: a
    callable ``(planes, k) -> iterable[(signs, witness)]`` that must
    yield the faces ``enumerate_sign_vectors(planes, k)`` would, in the
    same order (witnesses may be any point of the face — truth is
    constant per face).  ``disjunct_holds(disjunct, order, witness)``
    and ``face_atoms(planes, signs, order)`` optionally replace the
    per-face truth test and the face-to-atoms rendering with
    observationally identical implementations.  The compiled executor
    passes an incremental cell index and memoised versions of all
    three — fixpoint accumulators re-complement mostly unchanged
    arrangements stage after stage.
    """
    from repro.arrangement.builder import enumerate_sign_vectors
    from repro.arrangement.faces import sign_vector_constraints
    from repro.constraints.atoms import atom_from_constraint

    if enumerate_cells is None:
        enumerate_cells = enumerate_sign_vectors
    if disjunct_holds is None:
        assignments: dict = {}

        def disjunct_holds(disjunct, order_, witness):
            assignment = assignments.get(witness)
            if assignment is None:
                assignment = dict(zip(order_, witness))
                assignments[witness] = assignment
            return all(a.holds_at(assignment) for a in disjunct)
    if face_atoms is None:
        def face_atoms(planes_, signs, order_):
            rows = sign_vector_constraints(planes_, signs)
            return tuple(
                atom_from_constraint(row, order_) for row in rows
            )

    order = list(variables)
    k = len(order)
    if k == 0:
        # Nullary relation: complement is TRUE iff the DNF is empty.
        return [()] if not disjuncts else []
    plane_set = {}
    for disjunct in disjuncts:
        for atom in disjunct:
            plane = atom.hyperplane(order)
            if plane is not None:
                plane_set[plane] = None
    planes = sorted(plane_set, key=lambda h: (h.normal, h.offset))

    order_t = tuple(order)
    output: list[Disjunct] = []
    for signs, witness in enumerate_cells(planes, k):
        if any(
            disjunct_holds(disjunct, order_t, witness)
            for disjunct in disjuncts
        ):
            continue
        output.append(face_atoms(planes, signs, order_t))
    return output
