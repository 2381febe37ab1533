"""The region lift: element quantifiers decided on the region sort.

The faces of A(S) partition ℝᵈ, and ``S(x̄)`` and ``x̄ ∈ R`` are constant
on every face (§4, proofs of Thms 4.3 and 6.1).  So an element
quantifier whose variables occur only in such atoms is a finite ∧/∨
over regions: :func:`lift_regions` rewrites it into a region quantifier,
which the evaluator decides region by region with no complement and no
Fourier–Motzkin projection.  :func:`repro.optimizer.rewrite.rewrite_query`
runs the lift after NNF + miniscoping and before operand ordering;
``optimizer="off"`` keeps the elimination path as the oracle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.logic import ast
from repro.optimizer.rewrite import _walk


@dataclass(frozen=True)
class RegionSort:
    """What planning knows of the region sort, read off the schema.

    ``unions`` names the relations that are unions of regions of the
    decomposition: on every region such a relation is either everywhere
    true or everywhere false.  Knowing it
    needs only the decomposition's name and the schema, so planning
    never builds the extension.
    """

    dimension: int
    unions: frozenset[str]

    @staticmethod
    def of(
        database, decomposition: str, spatial_name: str
    ) -> "RegionSort | None":
        """The region sort of a decomposition, or ``None`` (no lift).

        ``arrangement`` regions are the faces of A(S): only S is a union
        of them.  ``refined`` regions are the faces of the arrangement of
        every relation's hyperplanes: every relation is.  ``nc1``
        regions overlap and do not cover ℝᵈ, so nothing lifts there.
        """
        if spatial_name not in database:
            return None
        dimension = database.relation(spatial_name).arity
        if dimension == 0:
            return None
        if decomposition == "arrangement":
            unions = frozenset({spatial_name})
        elif decomposition == "refined":
            unions = frozenset(database.names())
        else:
            return None
        return RegionSort(dimension, unions)


def lift_regions(
    formula: ast.RegFormula, sort: RegionSort
) -> tuple[ast.RegFormula, list[tuple[str, str, str]]]:
    """The lifted formula and one ``(region variable, chosen, because)``
    record per lift, the variable being the lift's first fresh one."""
    lifter = _RegionLift(sort, formula)
    return lifter.visit(formula), lifter.decisions


_LIFT_BECAUSE = (
    "the regions partition ℝᵈ and S(x̄) (S a union of regions) and "
    "x̄ ∈ R are constant on every region, so the quantifier is a finite "
    "∧/∨ over regions (no complement, no elimination)"
)


class _RegionLift:
    """Lifts element-quantifier chains onto the region sort, bottom-up.

    A maximal chain of same-kind element quantifiers lifts when its
    variables split into whole d-tuples ("blocks") and every atom that
    mentions them is ``S(x̄)`` with S a union of regions or ``x̄ ∈ R``,
    its arguments exactly one block of plain variables.  Each block x̄
    then ranges over the regions instead of ℝᵈ: ``S(x̄)`` becomes
    ``sub(R_x̄, S)``, ``x̄ ∈ R`` becomes ``R_x̄ = R``, and the one-point
    rule ``∃R.(R_x̄ = R ∧ ψ) ⇒ ψ[R ↦ R_x̄]`` (dually ``∀R.(R_x̄ ≠ R ∨ ψ)``)
    drops the region quantifiers the membership atoms fed.
    """

    def __init__(self, sort: RegionSort, formula: ast.RegFormula) -> None:
        self.sort = sort
        self.formula = formula
        #: ``(first fresh variable, chosen, because)`` per lift.
        self.decisions: list[tuple[str, str, str]] = []
        #: Every name the formula uses (fresh region names avoid them),
        #: collected at the first lift.
        self.taken: set[str] | None = None
        #: The region variables introduced so far.
        self.lifted: set[str] = set()

    def visit(self, formula: ast.RegFormula) -> ast.RegFormula:
        if not isinstance(formula, (ast.ExistsElem, ast.ForallElem)):
            return _map_children(formula, self.visit)
        kind = type(formula)
        chain: list[str] = []
        inner: ast.RegFormula = formula
        while isinstance(inner, kind):
            chain.append(inner.variable)
            inner = inner.body
        body = self.visit(inner)
        blocks = self._blocks(chain, body)
        if blocks is not None:
            return self._lift(kind, blocks, body)
        if body is inner:
            return formula
        for variable in reversed(chain):
            body = kind(variable, body)
        return body

    def _lift(
        self,
        kind: type,
        blocks: list[tuple[str, ...]],
        body: ast.RegFormula,
    ) -> ast.RegFormula:
        names = {block: self._fresh(block) for block in blocks}
        lifted = _one_point(_to_regions(body, names), self.lifted)
        region_kind = (
            ast.ExistsRegion if kind is ast.ExistsElem else ast.ForallRegion
        )
        for block in reversed(blocks):
            lifted = region_kind(names[block], lifted)
        chosen = "; ".join(
            f"{', '.join(block)} → {names[block]}" for block in blocks
        )
        self.decisions.append(
            (names[blocks[0]], f"region lift {chosen}", _LIFT_BECAUSE)
        )
        return lifted

    def _blocks(
        self, chain: list[str], body: ast.RegFormula
    ) -> list[tuple[str, ...]] | None:
        """The chain's blocks in chain order, or ``None`` (no lift)."""
        bound = set(chain)
        found: set[tuple[str, ...]] = set()
        for node in _walk(body):
            if _rebinds(node) & bound:
                return None  # a shadowed rebinding
            if not isinstance(
                node, (ast.LinearAtom, ast.RelationAtom, ast.InRegion)
            ):
                continue
            if not node.free_element_vars() & bound:
                continue
            if isinstance(node, ast.LinearAtom) or (
                isinstance(node, ast.RelationAtom)
                and node.name not in self.sort.unions
            ):
                return None
            block = _plain_block(node.args)
            if block is None or len(block) != self.sort.dimension:
                return None
            found.add(block)
        covered = [variable for block in found for variable in block]
        if len(covered) != len(set(covered)) or set(covered) != bound:
            return None  # overlapping, partial or mixed blocks
        position = {variable: index for index, variable in enumerate(chain)}
        return sorted(found, key=lambda block: position[block[0]])

    def _fresh(self, block: tuple[str, ...]) -> str:
        """``R⟨x̄⟩``: the parser cannot produce ``⟨``, and primes are
        appended until no name of the formula collides."""
        if self.taken is None:
            self.taken = _names_in(self.formula)
        name = f"R⟨{','.join(block)}⟩"
        while name in self.taken:
            name += "'"
        self.taken.add(name)
        self.lifted.add(name)
        return name


def _plain_block(args: tuple) -> tuple[str, ...] | None:
    """The arguments as plain variables, or ``None``."""
    block = []
    for term in args:
        if term.constant != 0 or len(term.coefficients) != 1:
            return None
        variable, coefficient = term.coefficients[0]
        if coefficient != 1:
            return None
        block.append(variable)
    return tuple(block)


def _rebinds(node: ast.RegFormula) -> set[str]:
    """The element variables a node binds."""
    if isinstance(node, (ast.ExistsElem, ast.ForallElem)):
        return {node.variable}
    if isinstance(node, ast.RBit):
        return {node.element_var}
    return set()


def _to_regions(
    formula: ast.RegFormula, names: dict[tuple[str, ...], str]
) -> ast.RegFormula:
    """Replace each block atom by its region-sort atom."""
    if isinstance(formula, ast.RelationAtom):
        block = _plain_block(formula.args)
        if block in names:
            return ast.SubsetAtom(names[block], formula.name)
        return formula
    if isinstance(formula, ast.InRegion):
        block = _plain_block(formula.args)
        if block in names:
            return ast.RegionEq(names[block], formula.region)
        return formula
    return _map_children(formula, lambda child: _to_regions(child, names))


def _one_point(
    formula: ast.RegFormula, lifted: set[str]
) -> ast.RegFormula:
    """Apply ``∃R.(L = R ∧ ψ) ⇒ ψ[R ↦ L]`` and ``∀R.(L ≠ R ∨ ψ) ⇒
    ψ[R ↦ L]`` bottom-up, for the lifted region variables L.  A lifted
    binder is never dropped: it carries its lift's decision."""
    formula = _map_children(formula, lambda child: _one_point(child, lifted))
    if (
        not isinstance(formula, (ast.ExistsRegion, ast.ForallRegion))
        or formula.variable in lifted
    ):
        return formula
    existential = isinstance(formula, ast.ExistsRegion)
    body = formula.body
    joint = ast.RAnd if existential else ast.ROr
    operands = body.operands if isinstance(body, joint) else (body,)
    for index, operand in enumerate(operands):
        equality = operand
        if not existential:
            if not isinstance(operand, ast.RNot):
                continue
            equality = operand.operand
        if not isinstance(equality, ast.RegionEq):
            continue
        sides = {equality.left, equality.right}
        if formula.variable not in sides or len(sides) != 2:
            continue
        (other,) = sides - {formula.variable}
        if other not in lifted:
            continue
        rest = operands[:index] + operands[index + 1:]
        join = ast.reg_conjunction if existential else ast.reg_disjunction
        return _rename_region(join(rest), formula.variable, other)
    return formula


def _rename_region(
    formula: ast.RegFormula, old: str, new: str
) -> ast.RegFormula:
    """``formula[old ↦ new]`` on free region occurrences.

    ``new`` is a lifted variable: fresh, and bound once, around the
    whole scope being renamed, so no binder inside can capture it.
    """
    if old not in formula.free_region_vars():
        return formula

    def rename(name: str) -> str:
        return new if name == old else name

    if isinstance(formula, (ast.InRegion, ast.SubsetAtom)):
        return dataclasses.replace(formula, region=rename(formula.region))
    if isinstance(formula, (ast.Adj, ast.RegionEq)):
        return dataclasses.replace(
            formula, left=rename(formula.left), right=rename(formula.right)
        )
    if isinstance(formula, (ast.SetAtom, ast.Fixpoint)):
        # A fixpoint body's free region variables are its bound ones.
        return dataclasses.replace(
            formula, args=tuple(map(rename, formula.args))
        )
    if isinstance(formula, (ast.TC, ast.DTC)):
        return dataclasses.replace(
            formula,
            left_args=tuple(map(rename, formula.left_args)),
            right_args=tuple(map(rename, formula.right_args)),
        )
    if isinstance(formula, ast.RBit):
        return dataclasses.replace(
            formula,
            body=_rename_region(formula.body, old, new),
            numerator=rename(formula.numerator),
            denominator=rename(formula.denominator),
        )
    return _map_children(
        formula, lambda child: _rename_region(child, old, new)
    )


def _map_children(formula: ast.RegFormula, fn) -> ast.RegFormula:
    """``formula`` with ``fn`` applied to each direct subformula; the
    same object when nothing changed."""
    if isinstance(formula, (ast.RAnd, ast.ROr)):
        operands = tuple(fn(part) for part in formula.operands)
        if all(new is old for new, old in zip(operands, formula.operands)):
            return formula
        return type(formula)(operands)
    if isinstance(formula, ast.RNot):
        operand = fn(formula.operand)
        return formula if operand is formula.operand else ast.RNot(operand)
    body = getattr(formula, "body", None)
    if body is None:
        return formula  # an atom
    mapped = fn(body)
    if mapped is body:
        return formula
    return dataclasses.replace(formula, body=mapped)


def _names_in(formula: ast.RegFormula) -> set[str]:
    """Every variable, set and relation name a formula mentions."""
    names: set[str] = set()
    for node in _walk(formula):
        names |= node.free_element_vars()
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            parts = value if isinstance(value, tuple) else (value,)
            names.update(part for part in parts if isinstance(part, str))
    return names
