"""Relational-algebra IR for compiled fixpoint evaluation.

A plan is a tree of small node objects describing, once, the relational
computation a datalog rule (or a semi-naive stage combiner) performs —
instead of re-walking the rule AST and re-deciding what to join at every
stage.  The executor (:mod:`repro.ir.executor`) evaluates a plan against
an :class:`ExecutionContext` holding the current IDB accumulators and
last-stage deltas; the kernels (:mod:`repro.ir.kernels`) supply the bulk
set operations with memoised decision procedures.

Node glossary (see also ``docs/PERFORMANCE.md``):

========== ===========================================================
node       meaning
========== ===========================================================
Scan       read a relation from the context (IDB / delta / fresh)
Const      a relation materialised at compile time (EDB pieces,
           rule constraints, complements of already-fixed strata)
Rename     positional schema rename (``rename_to``)
Widen      cylindrification: reinterpret the formula over a larger
           schema (``ConstraintRelation.widen``)
Join       n-ary intersection over one schema (pruned DNF product)
Union      n-ary union over one schema (pruned disjunct merge)
Diff       left minus right (pruned product with the complement)
Complement complement of the child (pruned negation or cell
           enumeration over the child's own atom arrangement)
Project    existential projection of every schema variable not kept
Guard      evaluate the child only when the named delta is non-empty
Simplify   canonical minimised representation (``simplify()``)
========== ===========================================================

Every constructor records its children; :func:`walk` and
:meth:`IRNode.describe` drive the ``repro explain --datalog`` rendering.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.constraints.relation import ConstraintRelation


class IRNode:
    """Base class: every node knows its operator name and children."""

    op: str = "node"
    children: tuple["IRNode", ...] = ()

    def describe(self) -> str:
        """One-line label for plan rendering."""
        return self.op

    def __str__(self) -> str:
        return self.describe()


class Scan(IRNode):
    """Read a named relation from the execution context.

    ``space`` selects the binding: ``"idb"`` (accumulated relation),
    ``"delta"`` (last stage's delta) or ``"fresh"`` (this stage's newly
    derived delta, used by the accumulate combiner).
    """

    op = "scan"

    def __init__(self, space: str, name: str) -> None:
        if space not in ("idb", "delta", "fresh"):
            raise ValueError(f"unknown scan space {space!r}")
        self.space = space
        self.name = name

    def describe(self) -> str:
        return f"scan {self.space}.{self.name}"


class Const(IRNode):
    """A relation fixed at compile time (hoisted out of the stage loop)."""

    op = "const"

    def __init__(self, relation: ConstraintRelation, note: str = "") -> None:
        self.relation = relation
        self.note = note

    def describe(self) -> str:
        suffix = f" [{self.note}]" if self.note else ""
        return f"const({len(self.relation.variables)}-ary){suffix}"


class Rename(IRNode):
    """Positional rename of the child's schema."""

    op = "rename"

    def __init__(self, child: IRNode, schema: Sequence[str]) -> None:
        self.children = (child,)
        self.schema = tuple(schema)

    def describe(self) -> str:
        return f"rename → ({', '.join(self.schema)})"


class Widen(IRNode):
    """Cylindrify the child relation to a larger schema."""

    op = "widen"

    def __init__(self, child: IRNode, schema: Sequence[str]) -> None:
        self.children = (child,)
        self.schema = tuple(schema)

    def describe(self) -> str:
        return f"widen → ({', '.join(self.schema)})"


class Join(IRNode):
    """N-ary intersection over one shared schema."""

    op = "join"

    def __init__(self, children: Sequence[IRNode]) -> None:
        self.children = tuple(children)

    def describe(self) -> str:
        return f"join ×{len(self.children)}"


class Union(IRNode):
    """N-ary union over one shared schema; guard-skipped children are
    dropped, and an all-skipped union evaluates to *no derivation*."""

    op = "union"

    def __init__(self, children: Sequence[IRNode]) -> None:
        self.children = tuple(children)

    def describe(self) -> str:
        return f"union ∪{len(self.children)}"


class Diff(IRNode):
    """Left minus right (intersection with the right's complement)."""

    op = "diff"

    def __init__(self, left: IRNode, right: IRNode) -> None:
        self.children = (left, right)


class Complement(IRNode):
    """Complement of the child relation."""

    op = "complement"

    def __init__(self, child: IRNode) -> None:
        self.children = (child,)


class Project(IRNode):
    """Project out every schema variable not in ``keep`` (schema order)."""

    op = "project"

    def __init__(self, child: IRNode, keep: Sequence[str]) -> None:
        self.children = (child,)
        self.keep = tuple(keep)

    def describe(self) -> str:
        return f"project ∃ → ({', '.join(self.keep)})"


class Guard(IRNode):
    """Evaluate the child only when ``delta[delta_pred]`` is non-empty.

    This is the IR form of the semi-naive rule ``if body_delta.is_empty():
    continue`` — a skipped guard yields no derivation at all rather than
    an empty relation, so unions over guards match the interpreted
    engine's ``derived`` list exactly.
    """

    op = "guard"

    def __init__(self, child: IRNode, delta_pred: str) -> None:
        self.children = (child,)
        self.delta_pred = delta_pred

    def describe(self) -> str:
        return f"guard Δ{self.delta_pred}"


class Simplify(IRNode):
    """Canonical minimised representation of the child."""

    op = "simplify"

    def __init__(self, child: IRNode) -> None:
        self.children = (child,)


def walk(node: IRNode) -> Iterator[IRNode]:
    """Pre-order traversal of a plan tree."""
    yield node
    for child in node.children:
        yield from walk(child)


def render(node: IRNode, indent: int = 0) -> str:
    """Plain-text plan tree (used by tests and docs examples)."""
    lines = ["  " * indent + node.describe()]
    for child in node.children:
        lines.append(render(child, indent + 1))
    return "\n".join(lines)
