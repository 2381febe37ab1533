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
    Exists,
    Formula,
    FALSE,
    TRUE,
)
from repro.constraints.normal_forms import (
    Disjunct,
    dnf_to_formula,
    to_dnf,
)
from repro.constraints.qelim import (
    eliminate_quantifiers,
    is_satisfiable_qf,
)
from repro.constraints.terms import LinearTerm


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
        if len(set(schema)) != len(schema):
            raise FormulaError(f"duplicate variables in schema {schema}")
        if not formula.is_quantifier_free():
            formula = eliminate_quantifiers(formula)
        stray = formula.free_variables() - set(schema)
        if stray:
            raise FormulaError(
                f"formula mentions variables outside the schema: {sorted(stray)}"
            )
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

    def polyhedra(self) -> list[Polyhedron]:
        """One polyhedron per DNF disjunct, over the schema order."""
        return [self._polyhedron(disjunct) for disjunct in self.disjuncts()]

    def _polyhedron(self, disjunct) -> Polyhedron:
        constraints = [
            atom.to_linear_constraint(self.variables) for atom in disjunct
        ]
        return Polyhedron.make(self.arity, constraints)

    def all_atoms(self) -> frozenset[Atom]:
        return self.formula.atoms()

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
        """True iff no point satisfies the formula (exact)."""
        if "is_empty" not in self._cache:
            self._cache["is_empty"] = not is_satisfiable_qf(self.formula)
        return self._cache["is_empty"]

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

    def project_out(self, variable: str) -> "ConstraintRelation":
        """Existential projection: ``∃ variable . formula``.

        The variable leaves the schema; the result is quantifier-free by
        construction (Fourier–Motzkin).
        """
        if variable not in self.variables:
            raise FormulaError(f"{variable!r} is not in the schema")
        eliminated = eliminate_quantifiers(Exists(variable, self.formula))
        remaining = tuple(v for v in self.variables if v != variable)
        return ConstraintRelation.make(remaining, eliminated)

    def rename_to(self, new_variables: Sequence[str]) -> "ConstraintRelation":
        """Positional schema rename."""
        schema = tuple(new_variables)
        if len(schema) != self.arity:
            raise FormulaError("renaming must preserve arity")
        if schema == self.variables:
            return self
        # Two-step rename through fresh names avoids collisions when the
        # old and new schemas overlap.
        temp = tuple(f"__tmp_{i}" for i in range(self.arity))
        step1 = self.formula.rename(dict(zip(self.variables, temp)))
        step2 = step1.rename(dict(zip(temp, schema)))
        return ConstraintRelation.make(schema, step2)

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

        result = ConstraintRelation.make(
            self.variables, dnf_to_formula(minimise_dnf(self.disjuncts()))
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


def relation_from_disjuncts(
    variables: Sequence[str], disjuncts: Iterable[Disjunct]
) -> ConstraintRelation:
    """Build a relation directly from DNF disjuncts."""
    return ConstraintRelation.make(
        variables, dnf_to_formula(list(disjuncts))
    )


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
