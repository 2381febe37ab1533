"""Compilation of ground (region-sort) fixpoint stage bodies.

RegLFP induction over a finite region extension evaluates the stage
body once per candidate region tuple per stage — and the interpreted
evaluator pays full dispatch (memo-key construction over region/set
environments, node-type dispatch, relation boxing) for every candidate.
This module compiles the *boolean skeleton* of the body once:

* ``RTrue`` / ``RFalse`` / ``RAnd`` / ``ROr`` / ``RNot`` become plain
  boolean combinators;
* ``SetAtom`` over the fixpoint's own set variable becomes a membership
  test against the current stage set, and over an outer set variable a
  test against that (fixed) set;
* ``ExistsRegion`` / ``ForallRegion`` become loops over region indices;
* every other subformula that is closed over elements and does not
  mention the fixpoint's set variable becomes an **oracle leaf**: it is
  evaluated through :meth:`repro.logic.evaluator.Evaluator.truth` — the
  same code path the interpreted engine runs — once per distinct
  assignment of its free region variables, then memoised for the rest
  of the induction.

Truth values are therefore *identical by construction* to the
interpreted stage: the skeleton is semantics-preserving and the leaves
are the interpreted evaluator itself.  Bodies outside the fragment (a
set-variable occurrence under an element quantifier, say) return
``None`` from :func:`compile_fixpoint_step` and the caller silently
falls back to the interpreted step.
"""

from __future__ import annotations

from typing import Callable

from repro.logic import ast

#: A compiled stage test: (region env, current stage set) -> bool.
StepTest = Callable[[dict, frozenset], bool]

_ABSENT = object()
_MISS = object()


def compile_fixpoint_step(
    formula: "ast.Fixpoint", evaluator, set_env: dict
) -> StepTest | None:
    """Compile ``formula.body`` into a per-candidate truth test.

    ``None`` when the body falls outside the compilable fragment; the
    caller then uses the interpreted per-candidate evaluation.  The
    returned test mutates the environment dict it is given (quantifier
    bindings are saved and restored), so callers should pass a fresh or
    reusable dict per candidate, exactly as the driver in
    :meth:`Evaluator.fixpoint_run` does.
    """
    count = evaluator.extension.region_count()
    return _compile(
        formula.body, formula.set_var, set_env, evaluator, count
    )


def _oracle_leaf(node, set_env, evaluator) -> StepTest:
    """A memoised interpreted-evaluator call for an S-free subformula."""
    names = tuple(sorted(node.free_region_vars()))
    memo: dict = {}

    def test(env: dict, current: frozenset) -> bool:
        key = tuple(env[name] for name in names)
        verdict = memo.get(key, _MISS)
        if verdict is _MISS:
            verdict = evaluator.truth(
                node, dict(zip(names, key)), set_env
            )
            memo[key] = verdict
        return verdict

    return test


def _compile(node, set_var, set_env, evaluator, count) -> StepTest | None:
    if isinstance(node, ast.RTrue):
        return lambda env, current: True
    if isinstance(node, ast.RFalse):
        return lambda env, current: False
    if isinstance(node, ast.SetAtom):
        args = node.args
        if node.set_var == set_var:
            if len(args) == 1:
                name = args[0]
                return lambda env, current: (env[name],) in current
            return lambda env, current: (
                tuple(env[a] for a in args) in current
            )
        fixed = set_env.get(node.set_var)
        if fixed is None:
            return None
        return lambda env, current: tuple(env[a] for a in args) in fixed
    if set_var not in node.free_set_vars():
        # S-free subtree: interpreted oracle, one call per distinct
        # region assignment.  Requires element-closedness — truth() of
        # an open formula is not a boolean.
        if node.free_element_vars():
            return None
        return _oracle_leaf(node, set_env, evaluator)
    if isinstance(node, ast.RNot):
        sub = _compile(node.operand, set_var, set_env, evaluator, count)
        if sub is None:
            return None
        return lambda env, current: not sub(env, current)
    if isinstance(node, (ast.RAnd, ast.ROr)):
        subs = [
            _compile(operand, set_var, set_env, evaluator, count)
            for operand in node.operands
        ]
        if any(sub is None for sub in subs):
            return None
        if isinstance(node, ast.RAnd):
            return lambda env, current: all(
                sub(env, current) for sub in subs
            )
        return lambda env, current: any(sub(env, current) for sub in subs)
    if isinstance(node, (ast.ExistsRegion, ast.ForallRegion)):
        sub = _compile(node.body, set_var, set_env, evaluator, count)
        if sub is None:
            return None
        variable = node.variable
        exists = isinstance(node, ast.ExistsRegion)

        def quantified(env: dict, current: frozenset) -> bool:
            saved = env.get(variable, _ABSENT)
            try:
                for region in range(count):
                    env[variable] = region
                    if sub(env, current) is exists:
                        return exists
                return not exists
            finally:
                if saved is _ABSENT:
                    env.pop(variable, None)
                else:
                    env[variable] = saved

        return quantified
    # A set-variable occurrence inside a construct the skeleton cannot
    # model (element quantifier, nested fixpoint, TC, ...).
    return None
