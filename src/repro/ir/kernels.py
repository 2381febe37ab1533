"""Bulk evaluation kernels with memoised decision procedures.

The compiled executor's speed does **not** come from different algebra —
it runs exactly the pruned-DNF control flow of
:mod:`repro.constraints.simplify` (threaded in via the ``feasibility`` /
``reduce_disjunct`` / ``subsumes`` / ``enumerate_cells`` hooks those
functions expose), which is what makes its output byte-identical to the
interpreted engine by construction.  It comes from *not re-deciding*:

* **Feasibility memo** — semi-naive stages re-prune the accumulated
  relation and re-product it against mostly-unchanged complements, so
  the same conjunctions are LP-checked again and again.  Feasibility is
  a pure function of the atoms, so a memo answers repeats in a dict
  lookup.  Keys are the disjuncts themselves: atoms, terms and
  constraints hash once (:class:`~repro.geometry.linalg.HashOnce`), so
  a value key costs one cached hash per atom, pins nothing beyond the
  key, and hits on structurally equal atoms however they were built.
  A miss calls :func:`~repro.constraints.simplify.disjunct_feasible`,
  whose difference closure decides every difference conjunction without
  an LP — the same decision the interpreted engine takes.
* **Reduction/subsumption memos** — ``remove_redundant_atoms`` +
  ``merge_equality_pairs`` is a pure function of a disjunct, and
  ``_subsumed`` of a disjunct pair; accumulators re-minimise mostly old
  disjuncts every stage.  Both run with their default decision, the
  difference closure, exactly as the interpreted engine's
  ``simplify()`` does.
* **Projection from pruned disjuncts** — a rule's join result is
  already a pruned DNF, and ``relation_from_disjuncts`` keeps it as the
  relation's feasible disjuncts.  :meth:`KernelCache.project` runs
  ``ConstraintRelation.project_out``, which Fourier–Motzkin projects
  those disjuncts; only a relation that does not carry them yet has
  them pruned, through the feasibility memo.
* **Complement memo + incremental cell index** — the complement of a
  relation is cached on the relation object, and large complements that
  enumerate arrangement cells reuse the DFS prefix shared with earlier
  stages: when the sorted plane list of stage *s+1* extends stage *s*'s,
  each old leaf is extended in place via the seeded-prefix mode of
  :func:`repro.arrangement.builder.enumerate_sign_vectors`, which yields
  exactly the contiguous slice of the full enumeration below that
  prefix.

The memos and the cell index are scoped to one :class:`KernelCache`,
that is one compiled fixpoint run.  Each decision they remember is the
one the interpreted engine takes, so the interpreted engine remains the
oracle the compiled executor is checked against.
"""

from __future__ import annotations

from typing import Sequence

from repro.arrangement.faces import sign_vector_constraints
from repro.constraints.atoms import atom_from_constraint
from repro.constraints.normal_forms import Disjunct
from repro.constraints.relation import (
    ConstraintRelation,
    relation_from_disjuncts,
)
from repro.constraints.simplify import (
    cell_complement,
    disjunct_feasible,
    dnf_product,
    merge_equality_pairs,
    minimise_dnf,
    negate_dnf,
    prune_disjuncts,
    remove_redundant_atoms,
    _subsumed,
)
from repro.obs.metrics import get_registry

class _CellEntry:
    """One cached arrangement enumeration: planes, leaves, face atoms.

    ``faces`` memoises whole rendered faces keyed by ``(signs, order)``;
    ``rows`` memoises single row atoms keyed by ``(plane_index, sign,
    order)``.  Indexes are stable under plane-list extension (new planes
    append), so ``rows`` survives across stages while ``faces`` — whose
    sign vectors lengthen — is reset.  Both are keyed by signs, indexes
    and the variable order, so a lookup never compares hyperplanes.

    ``boxes`` holds, aligned with ``leaves``, a closed interval box per
    cell (from its single-variable sign rows, strictness relaxed) that
    over-approximates the cell; ``infos`` caches each plane's
    single-variable bound decomposition.  Together they let an extension
    prove most cells lie strictly on one side of a new plane, skipping
    the seeded DFS — and its on-plane LP — for every uncut cell.
    """

    __slots__ = ("planes", "leaves", "faces", "rows", "boxes", "infos")

    def __init__(self, planes, leaves, boxes, infos):
        self.planes = planes
        self.leaves = leaves
        self.faces: dict = {}
        self.rows: dict = {}
        self.boxes = boxes
        self.infos = infos


def _plane_bound_info(plane):
    """``(var_index, bound, positive)`` for a single-variable plane.

    ``None`` for planes over several variables; those contribute nothing
    to interval boxes (the box stays a sound over-approximation).
    """
    index = plane.axis
    if index is None:
        return None
    coeff = plane.normal[index]
    return (index, plane.offset / coeff, coeff > 0)


def _box_narrow(box: dict, info, sign: int) -> None:
    """Narrow ``box`` in place with one relaxed sign row."""
    if info is None:
        return
    index, bound, positive = info
    low, high = box.get(index, (None, None))
    if sign == 0:
        low = high = bound
    elif (sign > 0) == positive:
        if low is None or bound > low:
            low = bound
    else:
        if high is None or bound < high:
            high = bound
    box[index] = (low, high)


def _certain_side(plane, box: dict):
    """The sign of ``plane`` on every point of ``box``, else ``None``.

    Evaluates the interval of ``normal·x - offset`` over the closed box;
    a strictly negative (positive) interval proves the whole cell sits
    strictly below (above) the plane.  Because the box relaxes strict
    cell bounds, a ``None`` here merely falls back to the exact DFS —
    never an unsound answer.
    """
    low = high = -plane.offset
    for index, coeff in enumerate(plane.normal):
        if not coeff:
            continue
        box_low, box_high = box.get(index, (None, None))
        if coeff > 0:
            piece_low, piece_high = box_low, box_high
        else:
            piece_low, piece_high = box_high, box_low
        if low is not None:
            low = None if piece_low is None else low + coeff * piece_low
        if high is not None:
            high = None if piece_high is None else high + coeff * piece_high
        if low is None and high is None:
            return None
    if high is not None and high < 0:
        return -1
    if low is not None and low > 0:
        return 1
    return None


def _compile_disjunct(disjunct: Disjunct, order: tuple[str, ...]):
    """A fast ``witness -> bool`` evaluator for one disjunct.

    Pre-resolves every atom's variable names to witness-tuple indexes so
    the per-cell truth test is pure ``Fraction`` arithmetic, with no
    assignment dict and no attribute walks.  Exactly equivalent to
    ``all(atom.holds_at(dict(zip(order, witness))) for atom in disjunct)``
    — ``Atom.holds_at`` is ``op.holds(term.evaluate(assignment))`` and
    ``evaluate`` is the same coefficient dot product.
    """
    index = {name: position for position, name in enumerate(order)}
    checks = []
    for atom in disjunct:
        coeffs = tuple(
            (index[name], coeff)
            for name, coeff in atom.term.coefficients
        )
        checks.append((coeffs, atom.term.constant, atom.op.holds))
    def holds(witness) -> bool:
        for coeffs, constant, op_holds in checks:
            value = constant
            for position, coeff in coeffs:
                value += coeff * witness[position]
            if not op_holds(value):
                return False
        return True
    return holds


class KernelCache:
    """Memoised decision procedures + bulk relation operations.

    One instance lives for the duration of one compiled fixpoint run
    (datalog program evaluation or RegLFP induction); all cross-stage
    reuse happens through it, never through module-global state.
    """

    def __init__(self) -> None:
        registry = get_registry()
        self._c_feas_calls = registry.counter("ir.feasibility_calls")
        self._c_feas_hits = registry.counter("ir.feasibility_memo_hits")
        self._c_reduce_hits = registry.counter("ir.reduce_memo_hits")
        self._c_subsume_hits = registry.counter("ir.subsume_memo_hits")
        self._c_complement_hits = registry.counter(
            "ir.complement_memo_hits"
        )
        self._c_cells_extended = registry.counter("ir.cell_index_extensions")
        self._c_cells_full = registry.counter("ir.cell_index_full_builds")
        # Decision memos are keyed by the disjuncts themselves.  Atoms
        # hash once (``HashOnce``), so a key costs one cached hash per
        # atom, and structurally equal atoms built independently — a
        # recompiled plan's constants, say — hit the same entries.
        self._feasible: dict[Disjunct, bool] = {}
        self._reduced: dict[Disjunct, Disjunct] = {}
        self._subsume: dict[tuple[Disjunct, Disjunct], bool] = {}
        # dimension -> list of _CellEntry (sorted planes, leaves, faces).
        self._cells: dict[int, list[_CellEntry]] = {}
        # (disjunct, order) -> compiled witness evaluator.
        self._holds_fns: dict = {}
        # Active-entry protocol: ``enumerate_cells`` records the entry it
        # returned (and the caller's plane-list object), and the
        # ``face_atoms`` hook of the immediately following loop resolves
        # its memo through it.  ``cell_complement`` fully materialises
        # the enumeration before rendering faces, and a KernelCache is
        # single-threaded per run, so the pairing cannot interleave.
        self._active_entry: _CellEntry | None = None
        self._active_caller = None

    # ------------------------------------------------------------------
    # Decision procedures (hooks threaded into repro.constraints.simplify)
    # ------------------------------------------------------------------
    def feasibility(self, disjunct: Disjunct) -> bool:
        cached = self._feasible.get(disjunct)
        if cached is not None:
            self._c_feas_hits.inc()
            return cached
        self._c_feas_calls.inc()
        verdict = self._feasible[disjunct] = disjunct_feasible(disjunct)
        return verdict

    def reduce_disjunct(self, disjunct: Disjunct) -> Disjunct:
        cached = self._reduced.get(disjunct)
        if cached is not None:
            self._c_reduce_hits.inc()
            return cached
        reduced = merge_equality_pairs(remove_redundant_atoms(disjunct))
        self._reduced[disjunct] = reduced
        return reduced

    def subsumes(self, smaller: Disjunct, larger: Disjunct) -> bool:
        key = (smaller, larger)
        cached = self._subsume.get(key)
        if cached is not None:
            self._c_subsume_hits.inc()
            return cached
        verdict = _subsumed(smaller, larger)
        self._subsume[key] = verdict
        return verdict

    def enumerate_cells(self, planes, dimension: int):
        """Drop-in for ``enumerate_sign_vectors(planes, k)`` with reuse.

        Returns the exact (signs, witness) sequence of the full
        enumeration.  When the sorted plane list extends a previously
        enumerated one — the common case for fixpoint accumulators,
        whose new atoms sort after the old — each cached leaf is
        extended through the new planes via the seeded-prefix DFS
        instead of re-walking the shared prefix levels.
        """
        from repro.arrangement.builder import enumerate_sign_vectors

        caller_planes = planes
        planes = list(planes)
        entries = self._cells.setdefault(dimension, [])
        self._active_caller = caller_planes
        best = None
        for index, entry in enumerate(entries):
            old_planes = entry.planes
            if old_planes == planes:
                self._active_entry = entry
                return entry.leaves
            if (
                len(old_planes) < len(planes)
                and planes[: len(old_planes)] == old_planes
                and (
                    best is None
                    or len(old_planes) > len(entries[best].planes)
                )
            ):
                best = index
        if best is not None:
            entry = entries[best]
            leaves = entry.leaves
            boxes = entry.boxes
            infos = entry.infos
            # One plane at a time: a cell whose interval box proves a
            # strict side is extended verbatim (its witness stays valid
            # and it is not cut); only cells the box cannot place run
            # the seeded DFS — and pay its on-plane LP.  Processing
            # leaves in order, children per leaf in (-1, 0, 1) order,
            # reproduces the full enumeration's DFS order level by
            # level.
            for level in range(len(entry.planes), len(planes)):
                plane = planes[level]
                info = _plane_bound_info(plane)
                infos.append(info)
                sub_planes = planes[: level + 1]
                new_leaves = []
                new_boxes = []
                for (signs, witness), box in zip(leaves, boxes):
                    side = _certain_side(plane, box)
                    if side is not None:
                        child_box = dict(box)
                        _box_narrow(child_box, info, side)
                        new_leaves.append((signs + (side,), witness))
                        new_boxes.append(child_box)
                        continue
                    for child in enumerate_sign_vectors(
                        sub_planes,
                        dimension,
                        prefix=signs,
                        prefix_witness=witness,
                    ):
                        child_box = dict(box)
                        _box_narrow(child_box, info, child[0][-1])
                        new_leaves.append(child)
                        new_boxes.append(child_box)
                leaves, boxes = new_leaves, new_boxes
            self._c_cells_extended.inc()
            # Extend in place.  The whole-face memo is stale (its sign
            # vectors are shorter than the new plane list); the row memo
            # survives because plane indexes are stable under append.
            entry.planes = planes
            entry.leaves = leaves
            entry.boxes = boxes
            entry.faces = {}
            self._active_entry = entry
            return leaves
        leaves = list(enumerate_sign_vectors(planes, dimension))
        self._c_cells_full.inc()
        infos = [_plane_bound_info(plane) for plane in planes]
        boxes = []
        for signs, __ in leaves:
            box: dict = {}
            for info, sign in zip(infos, signs):
                _box_narrow(box, info, sign)
            boxes.append(box)
        entry = _CellEntry(planes, leaves, boxes, infos)
        entries.append(entry)
        if len(entries) > 8:
            entries.pop(0)
        self._active_entry = entry
        return leaves

    def disjunct_holds(self, disjunct, order, witness) -> bool:
        """Drop-in for the per-cell truth test of ``cell_complement``.

        Compiles each (disjunct, order) pair once to an index-resolved
        evaluator; repeated stages test the same accumulated disjuncts
        against hundreds of cells, so the compilation amortises within a
        single complement call and is free on every later one.
        """
        fns = self._holds_fns
        key = (disjunct, order)
        holds = fns.get(key)
        if holds is None:
            holds = fns[key] = _compile_disjunct(disjunct, order)
        return holds(witness)

    def face_atoms(self, planes, signs, order):
        """Drop-in for the face rendering of ``cell_complement``.

        Two memo layers, both pure in their keys.  Whole faces are
        cached per arrangement entry keyed by ``(signs, order)`` —
        repeated complements over the same plane list re-emit identical
        faces.  Individual rows are cached by ``(plane, sign, order)``:
        ``sign_vector_constraints`` renders each plane independently, so
        a row atom survives plane-list growth even though the full sign
        vectors do not, and each stage only renders atoms for its *new*
        planes.
        """
        entry = self._active_entry
        if entry is None or not (
            planes is self._active_caller or entry.planes == planes
        ):
            return tuple(
                atom_from_constraint(row, order)
                for row in sign_vector_constraints(planes, signs)
            )
        face = entry.faces.get((signs, order))
        if face is not None:
            return face
        row_memo = entry.rows
        atoms = []
        for index, sign in enumerate(signs):
            key = (index, sign, order)
            atom = row_memo.get(key)
            if atom is None:
                atom = atom_from_constraint(
                    sign_vector_constraints(
                        [entry.planes[index]], (sign,)
                    )[0],
                    order,
                )
                row_memo[key] = atom
            atoms.append(atom)
        face = tuple(atoms)
        entry.faces[(signs, order)] = face
        return face

    # ------------------------------------------------------------------
    # Bulk relation operations (mirror repro.constraints.relation)
    # ------------------------------------------------------------------
    def union(
        self,
        schema: tuple[str, ...],
        relations: Sequence[ConstraintRelation],
    ) -> ConstraintRelation:
        """``union_relations`` with memoised feasibility."""
        collected: list[Disjunct] = []
        for relation in relations:
            collected.extend(relation.disjuncts())
        return relation_from_disjuncts(
            schema, prune_disjuncts(collected, feasibility=self.feasibility)
        )

    def join(
        self,
        schema: tuple[str, ...],
        relations: Sequence[ConstraintRelation],
    ) -> ConstraintRelation:
        """``intersect_relations`` with memoised feasibility."""
        factors = [relation.disjuncts() for relation in relations]
        return relation_from_disjuncts(
            schema, dnf_product(factors, feasibility=self.feasibility)
        )

    def complement(
        self, relation: ConstraintRelation
    ) -> ConstraintRelation:
        """``relation.complement()`` memoised on the relation object."""
        cached = relation._cache.get("ir_complement")
        if cached is not None:
            self._c_complement_hits.inc()
            return cached
        disjuncts = relation.disjuncts()
        if len(disjuncts) <= ConstraintRelation._COMPLEMENT_PRODUCT_LIMIT:
            negated = negate_dnf(disjuncts, feasibility=self.feasibility)
        else:
            negated = cell_complement(
                disjuncts,
                relation.variables,
                enumerate_cells=self.enumerate_cells,
                disjunct_holds=self.disjunct_holds,
                face_atoms=self.face_atoms,
            )
        result = relation_from_disjuncts(relation.variables, negated)
        relation._cache["ir_complement"] = result
        return result

    def difference(
        self, left: ConstraintRelation, right: ConstraintRelation
    ) -> ConstraintRelation:
        """``left.difference(right)`` = join with the memoised complement."""
        return self.join((*left.variables,), [left, self.complement(right)])

    def project(
        self, relation: ConstraintRelation, keep: Sequence[str]
    ) -> ConstraintRelation:
        """``project_out`` of every schema variable not in ``keep``.

        Drops the variables one at a time in schema order through
        ``project_out`` itself, passing the memoised feasibility for a
        relation whose feasible disjuncts are not known yet.  A join
        result carries them from birth, and every projection carries
        its own, so a chain of projections decides nothing.
        """
        for variable in relation.variables:
            if variable not in keep:
                relation = relation.project_out(
                    variable, feasibility=self.feasibility
                )
        return relation

    def minimise(self, relation: ConstraintRelation) -> ConstraintRelation:
        """``relation.simplify()`` with every decision memoised.

        Honours — and populates — the same ``"simplified"`` cache slot
        as the interpreted path, so untouched accumulators are never
        re-minimised by either executor.
        """
        cached = relation._cache.get("simplified")
        if cached is not None:
            return cached
        result = relation_from_disjuncts(
            relation.variables,
            minimise_dnf(
                relation.disjuncts(),
                feasibility=self.feasibility,
                reduce_disjunct=self.reduce_disjunct,
                subsumes=self.subsumes,
            ),
        )
        result._cache["simplified"] = result
        relation._cache["simplified"] = result
        return result
