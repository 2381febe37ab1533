"""Finitely represented relations over (ℝ, <, +).

A :class:`ConstraintRelation` pairs an ordered variable schema with a
quantifier-free formula over those variables, the paper's representation
of an (in general infinite) relation (Section 2).  The class offers the
full first-order algebra — intersection, union, complement, projection
(∃), renaming — with every operation returning a quantifier-free result,
plus the exact semantic predicates (membership, emptiness, equivalence)
the rest of the library needs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from repro.errors import FormulaError
from repro.geometry.polyhedron import Polyhedron
from repro.constraints.atoms import Atom
from repro.constraints.formula import (
    And,
    AtomFormula,
    Formula,
    Not,
    Or,
    FALSE,
    TRUE,
)
from repro.constraints.normal_forms import (
    Disjunct,
    dnf_to_formula,
    formula_dnf,
    to_dnf,
)
from repro.constraints.qelim import (
    eliminate_quantifiers,
    project_disjuncts,
)
from repro.constraints.terms import LinearTerm


def _check_schema(schema: tuple[str, ...], free: Iterable[str]) -> None:
    """Raise unless ``schema`` is duplicate-free and covers ``free``."""
    if len(set(schema)) != len(schema):
        raise FormulaError(f"duplicate variables in schema {schema}")
    stray = set(free) - set(schema)
    if stray:
        raise FormulaError(
            f"formula mentions variables outside the schema: {sorted(stray)}"
        )


@dataclass(frozen=True)
class ConstraintRelation:
    """A relation over schema ``variables`` represented by ``formula``."""

    variables: tuple[str, ...]
    formula: Formula
    _cache: dict = field(
        default_factory=dict, compare=False, repr=False, hash=False
    )

    @staticmethod
    def make(
        variables: Sequence[str], formula: Formula
    ) -> "ConstraintRelation":
        """Validating constructor: formula must be QF over the schema."""
        schema = tuple(variables)
        if not formula.is_quantifier_free():
            formula = eliminate_quantifiers(formula)
        _check_schema(schema, formula.free_variables())
        return ConstraintRelation(schema, formula)

    @staticmethod
    def empty(variables: Sequence[str]) -> "ConstraintRelation":
        return ConstraintRelation.make(variables, FALSE)

    @staticmethod
    def universe(variables: Sequence[str]) -> "ConstraintRelation":
        return ConstraintRelation.make(variables, TRUE)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.variables)

    def disjuncts(self) -> list[Disjunct]:
        """The DNF representation ``⋁_i ⋀_j φ_ij`` (cached)."""
        if "disjuncts" not in self._cache:
            self._cache["disjuncts"] = to_dnf(self.formula)
        return self._cache["disjuncts"]

    def feasible_disjuncts(self, feasibility=None) -> list[Disjunct]:
        """The satisfiable disjuncts: ``to_dnf_pruned(formula)`` (cached).

        Projection and emptiness both run from this list.  A relation
        built by :func:`relation_from_disjuncts` carries it from birth,
        so the algebra's pruned DNF is never decided twice.
        ``feasibility`` decides the verdicts on a miss (the compiled
        executor passes its memo); every decision procedure is exact,
        so the list does not depend on which one ran.
        """
        cached = self._cache.get("feasible")
        if cached is None:
            from repro.constraints.simplify import (
                disjunct_feasible,
                to_dnf_pruned,
            )

            cached = self._cache["feasible"] = to_dnf_pruned(
                self.formula, feasibility=feasibility or disjunct_feasible
            )
        return cached

    def polyhedra(self) -> list[Polyhedron]:
        """One polyhedron per DNF disjunct, over the schema order."""
        return [self._polyhedron(disjunct) for disjunct in self.disjuncts()]

    def _polyhedron(self, disjunct) -> Polyhedron:
        constraints = [
            atom.to_linear_constraint(self.variables) for atom in disjunct
        ]
        return Polyhedron.make(self.arity, constraints)

    def representation_size(self) -> int:
        """The paper's size measure: length of the representing formula."""
        return self.formula.size()

    def fingerprint(self) -> str:
        """Canonical SHA-256 digest of schema + structural formula.

        The digest depends only on the ordered schema and the formula's
        deterministic structural rendering — never on object identity,
        dict/set iteration order or ``PYTHONHASHSEED`` — so it is safe
        as a cross-process disk key (:mod:`repro.store`).  Cached, since
        engine caches and the disk store recompute it on every lookup.
        """
        cached = self._cache.get("fingerprint")
        if cached is None:
            digest = hashlib.sha256()
            digest.update(",".join(self.variables).encode())
            digest.update(b"\x00")
            digest.update(str(self.formula).encode())
            cached = digest.hexdigest()
            self._cache["fingerprint"] = cached
        return cached

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def contains(self, point: Sequence[Fraction]) -> bool:
        """Exact membership of a rational point (ordered by schema)."""
        if len(point) != self.arity:
            raise FormulaError(
                f"point arity {len(point)} != relation arity {self.arity}"
            )
        assignment = dict(zip(self.variables, point))
        return self.formula.evaluate(assignment)

    def is_empty(self) -> bool:
        """True iff no point satisfies the formula (exact).

        No disjunct survives pruning; free once the feasible disjuncts
        are known (see :meth:`feasible_disjuncts`).
        """
        return not self.feasible_disjuncts()

    def is_universal(self) -> bool:
        """True iff every point satisfies the formula (exact)."""
        return self.complement().is_empty()

    def equivalent(self, other: "ConstraintRelation") -> bool:
        """Do both representations define the same relation?

        Schemas are aligned positionally: the other relation's variables
        are renamed to this schema first.  Decided as emptiness of both
        differences, which routes through the pruned/cell-based
        complement and stays polynomial even for large representations.
        """
        aligned = self._aligned(other)
        if self.formula == aligned.formula:
            return True
        return (
            self.difference(aligned).is_empty()
            and aligned.difference(self).is_empty()
        )

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _aligned(self, other: "ConstraintRelation") -> "ConstraintRelation":
        if other.variables == self.variables:
            return other
        if other.arity != self.arity:
            raise FormulaError(
                f"arity mismatch: {self.arity} vs {other.arity}"
            )
        return other.rename_to(self.variables)

    def intersect(self, other: "ConstraintRelation") -> "ConstraintRelation":
        """Intersection, built as a pruned DNF product.

        Infeasible cross-products of disjuncts are discarded during
        distribution, keeping the representation polynomial (see
        :mod:`repro.constraints.simplify`).
        """
        from repro.constraints.simplify import dnf_product

        aligned = self._aligned(other)
        product = dnf_product([self.disjuncts(), aligned.disjuncts()])
        return relation_from_disjuncts(self.variables, product)

    def union(self, other: "ConstraintRelation") -> "ConstraintRelation":
        from repro.constraints.simplify import prune_disjuncts

        aligned = self._aligned(other)
        merged = prune_disjuncts(
            list(self.disjuncts()) + list(aligned.disjuncts())
        )
        return relation_from_disjuncts(self.variables, merged)

    # Above this many disjuncts, complement switches from the pruned
    # product (compact output, exponential worst case) to enumeration of
    # the atoms' arrangement cells (output and time both bounded by the
    # cell count O(m^k)).
    _COMPLEMENT_PRODUCT_LIMIT = 4

    def complement(self) -> "ConstraintRelation":
        """Complement, staying polynomial in the representation size.

        Small DNFs are negated by pruned distribution (¬⋁_i C_i = ⋀_i
        ¬C_i with infeasible partial products cut immediately), which
        yields compact output.  Large DNFs — typically unions over region
        pairs produced by region quantifiers — are complemented by
        enumerating the faces of the arrangement of their own atoms and
        keeping the falsifying ones; truth is constant per face, so this
        is exact and bounded by the cell count.
        """
        from repro.constraints.simplify import cell_complement, negate_dnf

        disjuncts = self.disjuncts()
        if len(disjuncts) <= self._COMPLEMENT_PRODUCT_LIMIT:
            negated = negate_dnf(disjuncts)
        else:
            negated = cell_complement(disjuncts, self.variables)
        return relation_from_disjuncts(self.variables, negated)

    def difference(self, other: "ConstraintRelation") -> "ConstraintRelation":
        return self.intersect(other.complement())

    def project_out(
        self, variable: str, *, feasibility=None
    ) -> "ConstraintRelation":
        """Existential projection: ``∃ variable . formula``.

        The variable leaves the schema.  Each of the relation's feasible
        disjuncts is Fourier–Motzkin projected
        (:func:`~repro.constraints.qelim.project_disjuncts`); projections
        of non-empty sets are non-empty, so the result carries its own
        feasible disjuncts and its emptiness costs no further decision.
        ``feasibility`` is passed to :meth:`feasible_disjuncts`.
        """
        if variable not in self.variables:
            raise FormulaError(f"{variable!r} is not in the schema")
        projected = project_disjuncts(
            self.feasible_disjuncts(feasibility), variable
        )
        remaining = tuple(v for v in self.variables if v != variable)
        return relation_from_disjuncts(remaining, projected)

    def rename_to(self, new_variables: Sequence[str]) -> "ConstraintRelation":
        """Positional schema rename.

        One pass of :meth:`Atom.rename`: the schema has no duplicates
        and covers every free variable, so the mapping is a bijection
        and overlapping old and new names cannot collide, and the
        renamed formula needs no re-validation.  Cached DNFs are
        carried over through the same renamed atoms; renaming changes
        no verdict.
        """
        schema = tuple(new_variables)
        if len(schema) != self.arity:
            raise FormulaError("renaming must preserve arity")
        if schema == self.variables:
            return self
        if len(set(schema)) != len(schema):
            raise FormulaError(f"duplicate variables in schema {schema}")
        mapping = dict(zip(self.variables, schema))
        renamed_atoms: dict[Atom, Atom] = {}

        def rename(atom: Atom) -> Atom:
            image = renamed_atoms.get(atom)
            if image is None:
                image = renamed_atoms[atom] = atom.rename(mapping)
            return image

        renamed = ConstraintRelation(
            schema, _rename_atoms(self.formula, rename)
        )
        for key in ("disjuncts", "feasible"):
            cached = self._cache.get(key)
            if cached is not None:
                renamed._cache[key] = [
                    tuple(map(rename, disjunct)) for disjunct in cached
                ]
        return renamed

    def widen(self, schema: Sequence[str]) -> "ConstraintRelation":
        """The same formula over ``schema``, a superset or permutation
        of this schema (cylindrification).

        The formula is shared, not walked.  Neither DNF depends on the
        schema, so the widened relation takes this relation's
        :meth:`disjuncts` (computed here once, and kept here for the
        next widening) and its feasible disjuncts when known.
        """
        schema = tuple(schema)
        if schema == self.variables:
            return self
        if len(set(schema)) != len(schema) or not set(
            self.variables
        ) <= set(schema):
            raise FormulaError(
                f"cannot widen schema {self.variables} to {schema}"
            )
        widened = ConstraintRelation(schema, self.formula)
        widened._cache["disjuncts"] = self.disjuncts()
        feasible = self._cache.get("feasible")
        if feasible is not None:
            widened._cache["feasible"] = feasible
        return widened

    def substitute(
        self, mapping: Mapping[str, LinearTerm]
    ) -> Formula:
        """The formula with schema variables replaced by arbitrary terms.

        This is how the evaluator instantiates ``S(t̄)`` and ``t̄ ∈ R``
        atoms: the defining formula with the tuple's terms plugged in.
        """
        return self.formula.substitute(mapping)

    # ------------------------------------------------------------------
    # Simplification
    # ------------------------------------------------------------------
    def simplify(self) -> "ConstraintRelation":
        """A leaner, equivalent representation (cached).

        Drops LP-infeasible disjuncts, removes atoms implied by the rest
        of their conjunction, and eliminates disjuncts subsumed by
        others (see :func:`repro.constraints.simplify.minimise_dnf`).
        The canonical form is memoised on the relation — and on the
        result itself — so fixpoint engines that re-touch unchanged
        relations never re-minimise them.
        """
        cached = self._cache.get("simplified")
        if cached is not None:
            return cached
        from repro.constraints.simplify import minimise_dnf

        result = relation_from_disjuncts(
            self.variables, minimise_dnf(self.disjuncts())
        )
        result._cache["simplified"] = result
        self._cache["simplified"] = result
        return result

    def sample_points(
        self, limit: int | None = None
    ) -> list[tuple[Fraction, ...]]:
        """One rational witness per non-empty disjunct, in DNF order.

        ``limit`` stops after that many witnesses, so no LP is solved
        for the disjuncts past them; the witnesses returned are the
        first ``limit`` of the unlimited list.
        """
        witnesses = []
        for disjunct in self.disjuncts():
            if limit is not None and len(witnesses) >= limit:
                break
            point = self._polyhedron(disjunct).feasible_point()
            if point is not None:
                witnesses.append(point)
        return witnesses

    def __str__(self) -> str:
        schema = ", ".join(self.variables)
        return f"{{({schema}) : {self.formula}}}"


def _rename_atoms(formula: Formula, rename) -> Formula:
    """A quantifier-free formula with ``rename`` applied to every atom."""
    if isinstance(formula, AtomFormula):
        return AtomFormula(rename(formula.atom))
    if isinstance(formula, And):
        return And(tuple(_rename_atoms(f, rename) for f in formula.operands))
    if isinstance(formula, Or):
        return Or(tuple(_rename_atoms(f, rename) for f in formula.operands))
    if isinstance(formula, Not):
        return Not(_rename_atoms(formula.operand, rename))
    return formula


def relation_from_disjuncts(
    variables: Sequence[str], disjuncts: Iterable[Disjunct]
) -> ConstraintRelation:
    """Build a relation directly from satisfiable DNF disjuncts.

    Every disjunct must be satisfiable.  Every caller passes a pruned
    list (``prune_disjuncts``, ``dnf_product``, ``minimise_dnf``,
    projections of feasible disjuncts) or arrangement cells, which are
    non-empty by construction.  The list, in the form ``to_dnf`` gives
    the built formula (``formula_dnf``), then seeds both
    :meth:`ConstraintRelation.disjuncts` and
    :meth:`ConstraintRelation.feasible_disjuncts`.  The formula is
    quantifier-free by construction, so the schema check reads the
    atoms' variables instead of walking the built formula.
    """
    disjuncts = list(disjuncts)
    schema = tuple(variables)
    _check_schema(
        schema,
        (
            name
            for disjunct in disjuncts
            for atom in disjunct
            for name in atom.term.variables
        ),
    )
    relation = ConstraintRelation(schema, dnf_to_formula(disjuncts))
    relation._cache["disjuncts"] = relation._cache["feasible"] = (
        formula_dnf(disjuncts)
    )
    return relation


def union_relations(
    relations: Sequence[ConstraintRelation],
) -> ConstraintRelation:
    """N-ary union over one schema, pruned once.

    Much cheaper than folding binary unions, which would re-prune the
    accumulated disjunct list quadratically.
    """
    from repro.constraints.simplify import prune_disjuncts

    if not relations:
        raise FormulaError("union of no relations is undefined")
    schema = relations[0].variables
    collected: list[Disjunct] = []
    for relation in relations:
        if relation.variables != schema:
            raise FormulaError("union requires identical schemas")
        collected.extend(relation.disjuncts())
    return relation_from_disjuncts(schema, prune_disjuncts(collected))


def intersect_relations(
    relations: Sequence[ConstraintRelation],
) -> ConstraintRelation:
    """N-ary intersection over one schema as a single pruned product."""
    from repro.constraints.simplify import dnf_product

    if not relations:
        raise FormulaError("intersection of no relations is undefined")
    schema = relations[0].variables
    factors = []
    for relation in relations:
        if relation.variables != schema:
            raise FormulaError("intersection requires identical schemas")
        factors.append(relation.disjuncts())
    return relation_from_disjuncts(schema, dnf_product(factors))
