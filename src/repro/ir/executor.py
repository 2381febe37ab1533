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

When a :class:`repro.explain.NodeProfiler` is supplied, every node
evaluation is bracketed with ``enter``/``exit`` keyed on the node
object, so ``repro explain --datalog --analyze`` attributes wall time
and counter deltas to exact plan nodes with the PR-5 "self costs sum to
totals" invariant intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.constraints.relation import ConstraintRelation
from repro.errors import EvaluationError
from repro.ir.kernels import KernelCache
from repro.ir import nodes as ir


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
    profiler=None,
) -> ConstraintRelation | None:
    """Evaluate a plan; ``None`` means every derivation was guard-skipped."""
    if profiler is None:
        return _execute(node, context, kernels, None)
    profiler.enter(node)
    try:
        return _execute(node, context, kernels, profiler)
    finally:
        profiler.exit(node)


def _recurse(node, context, kernels, profiler):
    if profiler is None:
        return _execute(node, context, kernels, None)
    profiler.enter(node)
    try:
        return _execute(node, context, kernels, profiler)
    finally:
        profiler.exit(node)


def _execute(
    node: ir.IRNode,
    context: ExecutionContext,
    kernels: KernelCache,
    profiler,
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
        return _recurse(node.children[0], context, kernels, profiler)
    if isinstance(node, ir.Rename):
        child = _recurse(node.children[0], context, kernels, profiler)
        return None if child is None else child.rename_to(node.schema)
    if isinstance(node, ir.Widen):
        child = _recurse(node.children[0], context, kernels, profiler)
        return None if child is None else child.widen(node.schema)
    if isinstance(node, ir.Join):
        parts = [
            _recurse(child, context, kernels, profiler)
            for child in node.children
        ]
        if any(part is None for part in parts):
            return None
        return kernels.join(parts[0].variables, parts)
    if isinstance(node, ir.Union):
        parts = [
            _recurse(child, context, kernels, profiler)
            for child in node.children
        ]
        live = [part for part in parts if part is not None]
        if not live:
            return None
        return kernels.union(live[0].variables, live)
    if isinstance(node, ir.Diff):
        left = _recurse(node.children[0], context, kernels, profiler)
        if left is None:
            return None
        right = _recurse(node.children[1], context, kernels, profiler)
        return kernels.difference(left, right)
    if isinstance(node, ir.Complement):
        child = _recurse(node.children[0], context, kernels, profiler)
        return None if child is None else kernels.complement(child)
    if isinstance(node, ir.Project):
        child = _recurse(node.children[0], context, kernels, profiler)
        return None if child is None else kernels.project(child, node.keep)
    if isinstance(node, ir.Simplify):
        child = _recurse(node.children[0], context, kernels, profiler)
        return None if child is None else kernels.minimise(child)
    raise EvaluationError(f"unknown IR node {type(node).__name__}")
