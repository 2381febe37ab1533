"""Evaluation of relational-algebra IR plans.

The executor walks a plan tree bottom-up, producing
:class:`ConstraintRelation` values through the memoised kernels.  Two
conventions keep it byte-identical to the interpreted engine:

* A :class:`~repro.ir.nodes.Guard` whose delta is empty evaluates to
  ``None`` — *no derivation*, not an empty relation — and ``None``
  propagates up through Union/Diff/Simplify.  The stage driver maps a
  ``None`` stage result to ``ConstraintRelation.empty(schema)``, exactly
  mirroring the interpreted ``if derived: ... else: empty`` branch.
* Every relation-producing step calls the same underlying algebra
  (rename/widen reuse :class:`ConstraintRelation` methods directly;
  join/union/diff/project/simplify go through the kernels, which
  thread memoised decisions into the *same* simplify-module and
  Fourier–Motzkin control flow).

While tracing, every node evaluation is one span keyed by the node's
id, so ``repro explain --datalog --analyze`` attributes wall time and
counter deltas to exact plan nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.constraints.relation import ConstraintRelation
from repro.errors import EvaluationError
from repro.ir.kernels import KernelCache
from repro.ir import nodes as ir
from repro.obs.tracing import TRACER


@dataclass
class ExecutionContext:
    """Relation bindings a plan reads via :class:`~repro.ir.nodes.Scan`."""

    idb: Mapping[str, ConstraintRelation] = field(default_factory=dict)
    delta: Mapping[str, ConstraintRelation] = field(default_factory=dict)
    fresh: Mapping[str, ConstraintRelation] = field(default_factory=dict)


def execute(
    node: ir.IRNode,
    context: ExecutionContext,
    kernels: KernelCache,
) -> ConstraintRelation | None:
    """Evaluate a plan; ``None`` means every derivation was guard-skipped."""
    if TRACER.enabled:
        with TRACER.span("ir." + node.op, aggregate=True, key=id(node)):
            return _execute(node, context, kernels)
    return _execute(node, context, kernels)


def _execute(
    node: ir.IRNode,
    context: ExecutionContext,
    kernels: KernelCache,
) -> ConstraintRelation | None:
    if isinstance(node, ir.Const):
        return node.relation
    if isinstance(node, ir.Scan):
        space = getattr(context, node.space)
        try:
            return space[node.name]
        except KeyError:
            raise EvaluationError(
                f"unbound {node.space} relation {node.name!r}"
            ) from None
    if isinstance(node, ir.Guard):
        if context.delta[node.delta_pred].is_empty():
            return None
        return execute(node.children[0], context, kernels)
    if isinstance(node, ir.Rename):
        child = execute(node.children[0], context, kernels)
        return None if child is None else child.rename_to(node.schema)
    if isinstance(node, ir.Widen):
        child = execute(node.children[0], context, kernels)
        return None if child is None else child.widen(node.schema)
    if isinstance(node, ir.Join):
        parts = [
            execute(child, context, kernels)
            for child in node.children
        ]
        if any(part is None for part in parts):
            return None
        return kernels.join(parts[0].variables, parts)
    if isinstance(node, ir.Union):
        parts = [
            execute(child, context, kernels)
            for child in node.children
        ]
        live = [part for part in parts if part is not None]
        if not live:
            return None
        return kernels.union(live[0].variables, live)
    if isinstance(node, ir.Diff):
        left = execute(node.children[0], context, kernels)
        if left is None:
            return None
        right = execute(node.children[1], context, kernels)
        return kernels.difference(left, right)
    if isinstance(node, ir.Complement):
        child = execute(node.children[0], context, kernels)
        return None if child is None else kernels.complement(child)
    if isinstance(node, ir.Project):
        child = execute(node.children[0], context, kernels)
        return None if child is None else kernels.project(child, node.keep)
    if isinstance(node, ir.Simplify):
        child = execute(node.children[0], context, kernels)
        return None if child is None else kernels.minimise(child)
    raise EvaluationError(f"unknown IR node {type(node).__name__}")
