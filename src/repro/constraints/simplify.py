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
first asks :func:`feasibility_certificate` and only builds
``LinearConstraint`` rows for the exact LP when the certificate is
undecided.  The certificate closes the conjunction's difference atoms
(one variable, or two with opposite coefficients: the fragment every
fixpoint stage of the paper's reachability programs lives in) as a
difference-bound matrix, :func:`difference_closure`.  A negative cycle
proves the conjunction empty; otherwise back-substitution on the
closure places a point, and ``True`` needs that point to satisfy every
atom exactly, so a pure difference conjunction is always decided and
only conjunctions with general atoms can reach the LP.  Implication
(redundant atoms, subsumed disjuncts) is read off the same closure by
:func:`entailment_certificate`.  Both executors and the element-query
path therefore share one decision.  Every pruning entry point accepts
an optional ``feasibility`` callable (``Disjunct -> bool``) in its
place; the compiled executor (:mod:`repro.ir.kernels`) passes a memo
over :func:`disjunct_feasible` to the products and prunes this way, and
leaves implication to its default, so both executors run the *same*
control flow over the same disjunct orders and produce byte-identical
formulas.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.geometry.simplex import feasible, interval_point
from repro.constraints.atoms import Atom, Op
from repro.constraints.normal_forms import Disjunct
from repro.obs.metrics import get_registry

#: Signature of a pluggable feasibility decision over a conjunction.
FeasibilityFn = Callable[[Disjunct], bool]

#: Verdicts taken from the difference closure, with no LP: feasibility
#: verdicts of :func:`disjunct_feasible` and implication verdicts of
#: :func:`remove_redundant_atoms` and :func:`_subsumed`.
_CERTIFIED = get_registry().counter("lp.certified")

#: A matrix entry ``(c, weak)`` bounds ``x_i − x_j`` by ``≤ c`` when
#: ``weak``, else by ``< c``; tuples order by tightness.  This one is
#: ``x_i − x_i ≤ 0``, the diagonal of a consistent matrix.
_DIAGONAL = (0, True)


def difference_closure(disjunct: Disjunct, *, complete: bool = False):
    """The closed difference-bound matrix of a conjunction's difference
    atoms, or ``None`` when they are inconsistent.

    Node 0 is the constant zero; every variable of an edge
    (:attr:`~repro.constraints.atoms.Atom.difference_edges`) gets the
    next index, in atom order.  Floyd–Warshall closes the matrix: a sum
    of two bounds adds the values and ors the strictness, and a diagonal
    entry below ``(0, ≤)`` is a negative cycle, so ``None`` — sound for
    any conjunction, since these atoms are a subset of it.  Returns
    ``(nodes, matrix, edges, general)``: ``nodes`` maps each variable
    (and ``None``, the zero node) to its index, ``matrix[i][j]`` is the
    tightest implied ``(c, weak)`` bound on ``x_i − x_j`` (``None``
    when unbounded), ``edges`` lists every difference atom's edges, and
    ``general`` the atoms outside the fragment.

    When no atom joins two variables the matrix is a star of interval
    bounds around the zero node; it is left as it is unless
    ``complete``, and an empty interval then shows only when a variable
    is placed.
    """
    nodes: dict = {None: 0}
    edges: list = []
    general: list[Atom] = []
    joined = False
    for atom in disjunct:
        atom_edges = atom.difference_edges
        if atom_edges is None:
            general.append(atom)
            continue
        edges.extend(atom_edges)
        for u, v, __ in atom_edges:
            if u not in nodes:
                nodes[u] = len(nodes)
            if v not in nodes:
                nodes[v] = len(nodes)
            if u is not None and v is not None:
                joined = True
    size = len(nodes)
    matrix: list[list] = [[None] * size for __ in range(size)]
    for i in range(size):
        matrix[i][i] = _DIAGONAL
    for u, v, bound in edges:
        row = matrix[nodes[u]]
        j = nodes[v]
        old = row[j]
        if old is None or bound < old:
            row[j] = bound
    if matrix[0][0] < _DIAGONAL:  # a constant atom that fails
        return None
    if joined or complete:
        # Without a joining edge every path runs through the zero node,
        # so pivoting on it alone closes the matrix.
        for k in range(size) if joined else (0,):
            onward = [
                (j, bound)
                for j, bound in enumerate(matrix[k])
                if bound is not None and j != k
            ]
            for i in range(size):
                row_i = matrix[i]
                to_k = row_i[k]
                if to_k is None or i == k:
                    continue
                value, weak = to_k
                for j, (step, step_weak) in onward:
                    total = value + step
                    old = row_i[j]
                    if old is None or total < old[0] or (
                        total == old[0] and old[1]
                        and not (weak and step_weak)
                    ):
                        row_i[j] = (total, weak and step_weak)
        for i in range(size):
            if matrix[i][i] < _DIAGONAL:
                return None
    return nodes, matrix, edges, general


def feasibility_certificate(disjunct: Disjunct) -> bool | None:
    """A proof that a conjunction is (non-)empty, ``None`` when undecided.

    ``False`` when its difference atoms are inconsistent
    (:func:`difference_closure`).  Otherwise the variables are placed in
    node order by back-substitution on the closure: each takes the value
    the exact interval solve would (:func:`~repro.geometry.simplex.\
interval_point`) between the bounds the closure sets against the
    variables already placed; variables of general atoms only take 0.
    On a closed, consistent matrix that interval is never empty, and on
    a star of one-variable bounds an empty one is an exact
    contradiction, so ``False``.  ``True`` is returned only when the
    whole point satisfies every atom exactly, strictness included — a
    witness.  A pure difference conjunction is therefore always
    decided; one with general atoms may be left to the LP.
    """
    closure = difference_closure(disjunct)
    if closure is None:
        return False
    nodes, matrix, edges, general = closure
    # Integral bounds keep integral values: ints add fast, and
    # interval_point's midpoint of two ints is an exact Fraction.
    values = [0] * len(nodes)
    for i in range(1, len(nodes)):
        lower = upper = None
        lower_strict = upper_strict = False
        row_i = matrix[i]
        for j in range(i):
            placed = values[j]
            above = row_i[j]  # x_i − x_j ≤ c, so x_i ≤ x_j + c
            if above is not None:
                value = placed + above[0]
                strict = not above[1]
                if upper is None or value < upper or (
                    value == upper and strict
                ):
                    upper, upper_strict = value, strict
            below = matrix[j][i]  # x_j − x_i ≤ c, so x_i ≥ x_j − c
            if below is not None:
                value = placed - below[0]
                strict = not below[1]
                if lower is None or value > lower or (
                    value == lower and strict
                ):
                    lower, lower_strict = value, strict
        value = interval_point(lower, lower_strict, upper, upper_strict, None)
        if value is None:
            return False
        values[i] = value
    # The check: every difference atom through its edges, every general
    # atom through its term.
    for u, v, (c, weak) in edges:
        gap = values[nodes[u]] - values[nodes[v]]
        if gap > c or (gap == c and not weak):
            return None
    for atom in general:
        term = atom.term
        value = term.constant
        for name, coeff in term.coefficients:
            index = nodes.get(name)
            if index is not None:
                value += coeff * values[index]
        if not atom.op.holds(value):
            return None
    return True


def entailment_certificate(
    conjunction: Disjunct, atoms: Sequence[Atom]
) -> bool | None:
    """Does ``conjunction`` imply every atom of ``atoms``?  ``None`` when
    undecided.

    Decided when the conjunction and the atoms are all difference
    atoms: an empty conjunction implies everything, and a consistent one
    implies an edge ``u − v ≤ c`` iff its closure entry is at least as
    tight.  That is the verdict of asking the LP whether
    ``conjunction ∧ ¬atom`` is empty for every atom.
    """
    closure = difference_closure(conjunction, complete=True)
    if closure is None:
        return True
    nodes, matrix, __, general = closure
    if general:
        return None
    for atom in atoms:
        edges = atom.difference_edges
        if edges is None:
            return None
        for u, v, bound in edges:
            i = nodes.get(u)
            j = nodes.get(v)
            entry = None if i is None or j is None else matrix[i][j]
            if entry is None or entry > bound:
                return False
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


def _implies(
    conjunction: Disjunct,
    atoms: Sequence[Atom],
    feasibility: FeasibilityFn | None,
) -> bool:
    """Does ``conjunction`` imply every atom of ``atoms``?

    With ``feasibility`` given, it decides each ``conjunction ∧ ¬atom``
    (one call per negated atom).  Without, the difference closure
    decides (:func:`entailment_certificate`) and
    :func:`disjunct_feasible` decides what it leaves open.
    """
    if feasibility is None:
        verdict = entailment_certificate(conjunction, atoms)
        if verdict is not None:
            _CERTIFIED.inc()
            return verdict
        feasibility = disjunct_feasible
    return all(
        not feasibility(conjunction + (negated,))
        for atom in atoms
        for negated in atom.negated_atoms()
    )


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
    feasibility: FeasibilityFn | None = None,
) -> Disjunct:
    """Drop atoms implied by the rest of their conjunction.

    Atom a is redundant in C iff (C ∖ {a}) ∧ ¬a is infeasible.  Greedy
    left-to-right removal; the result denotes the same set with a
    minimal-ish representation.  ``feasibility``, when given, decides
    each such conjunction; by default the difference closure does
    (see :func:`_implies`).
    """
    kept = list(disjunct)
    index = 0
    while index < len(kept):
        rest = tuple(kept[:index] + kept[index + 1:])
        if _implies(rest, (kept[index],), feasibility):
            kept.pop(index)
        else:
            index += 1
    return tuple(kept)


def merge_equality_pairs(disjunct: Disjunct) -> Disjunct:
    """Replace complementary bound pairs ``t ≤ 0 ∧ t ≥ 0`` by ``t = 0``.

    Sign-vector cells express equalities as two opposite non-strict
    bounds; merging them makes simplified output read naturally.
    """
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
    feasibility: FeasibilityFn | None = None,
) -> bool:
    """Does ``larger`` contain ``smaller`` as a set (smaller ⟹ larger)?"""
    return _implies(smaller, larger, feasibility)


def minimise_dnf(
    disjuncts: Sequence[Disjunct],
    *,
    feasibility: FeasibilityFn | None = None,
    reduce_disjunct=None,
    subsumes=None,
) -> list[Disjunct]:
    """Feasibility-prune, remove redundant atoms, drop subsumed disjuncts.

    ``reduce_disjunct`` and ``subsumes`` optionally replace the
    per-disjunct reduction (redundant-atom removal + equality merging)
    and the pairwise subsumption test with observationally identical
    implementations — the compiled executor passes memoised versions,
    since fixpoint accumulators re-minimise mostly unchanged disjunct
    sets stage after stage.  ``feasibility``, when given, decides every
    verdict, implications included; by default the difference closure
    decides implications and :func:`disjunct_feasible` the rest.
    """
    if reduce_disjunct is None:
        def reduce_disjunct(d: Disjunct) -> Disjunct:
            return merge_equality_pairs(
                remove_redundant_atoms(d, feasibility=feasibility)
            )
    if subsumes is None:
        def subsumes(smaller: Disjunct, larger: Disjunct) -> bool:
            return _subsumed(smaller, larger, feasibility=feasibility)
    pruning = feasibility or disjunct_feasible
    cleaned = [
        reduce_disjunct(d)
        for d in prune_disjuncts(disjuncts, feasibility=pruning)
    ]
    cleaned = prune_disjuncts(cleaned, feasibility=pruning)
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


def to_dnf_pruned(
    formula,
    *,
    feasibility: FeasibilityFn = disjunct_feasible,
) -> list[Disjunct]:
    """DNF conversion with feasibility pruning at every distribution.

    The naive ``to_dnf`` distributes blindly and can explode on
    conjunctions of disjunctions (e.g. negated unions inside quantifier
    elimination).  This version converts to NNF first and then builds
    the DNF bottom-up, running every conjunction through
    :func:`dnf_product` so infeasible partial products die immediately.
    Output is semantically equal to ``to_dnf`` (trivially-false
    disjuncts dropped either way).  ``feasibility`` decides every
    verdict; the compiled executor passes its memo.
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
            # A constant atom is decided by normalising it; any other
            # single atom is satisfiable.
            reduced = _normalise((node.atom,))
            return [] if reduced is None else [reduced]
        if isinstance(node, Or):
            collected: list[Disjunct] = []
            for operand in node.operands:
                collected.extend(convert(operand))
            return prune_disjuncts(collected, feasibility=feasibility)
        if isinstance(node, And):
            return dnf_product(
                [convert(op) for op in node.operands],
                feasibility=feasibility,
            )
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
