"""Instantiating ``S(ȳ)`` by renaming, and widening a relation's schema.

``Evaluator._relation_atom`` builds ``S(ȳ)`` on distinct plain variables
with ``rename_to`` and re-schemas it to sorted order with
``ConstraintRelation.widen``; any other arguments substitute terms into
the formula.  Both paths must give the relation the substitution gives:
the same schema, the same formula and the same text.  ``widen`` (used by
the evaluator's cylindrification and the IR's ``Widen``) shares the
formula and the source's DNF lists, so it never runs ``to_dnf`` again.
"""

import pytest

import repro.constraints.relation as relation_module
import repro.constraints.simplify as simplify_module
from repro.constraints.database import ConstraintDatabase
from repro.constraints.normal_forms import to_dnf
from repro.constraints.parser import parse_formula
from repro.constraints.relation import ConstraintRelation
from repro.engine import QueryEngine
from repro.errors import FormulaError
from repro.ir import nodes as ir
from repro.ir.executor import ExecutionContext, execute
from repro.ir.kernels import KernelCache
from repro.logic.parser import parse_query
from repro.workloads.generators import interval_chain

PLANE = "x0 < x1 & x1 <= 3 | x0 = 1 & x1 > 0 | x0 + 2*x1 >= 5 & x0 < 4"


def engine(text, arity):
    return QueryEngine(ConstraintDatabase.from_formula(
        parse_formula(text), arity
    ))


def substituted(relation, args):
    """``S(t̄)`` the way every argument list can be instantiated."""
    instantiated = relation.substitute(dict(zip(relation.variables, args)))
    variables = tuple(sorted(instantiated.free_variables()))
    return ConstraintRelation.make(variables, instantiated)


def instantiate(query_engine, text):
    atom = parse_query(text)
    relation = query_engine.database.relation(atom.name)
    return query_engine.evaluator._relation_atom(atom), substituted(
        relation, atom.args
    )


def refuse(*args, **kwargs):
    raise AssertionError("this path must not run")


@pytest.mark.parametrize(
    "text, arity, query",
    [
        ("x0 >= 0 & x0 <= 1 | x0 > 2 & x0 < 3", 1, "S(y)"),
        (PLANE, 2, "S(x0, y)"),
        (PLANE, 2, "S(x1, x0)"),
        (PLANE, 2, "S(u, x1)"),
        (PLANE, 2, "S(x0, x1)"),
    ],
)
def test_renaming_is_the_substitution(monkeypatch, text, arity, query):
    query_engine = engine(text, arity)
    relation = query_engine.database.relation("S")
    relation.disjuncts()
    relation.feasible_disjuncts()
    expected = substituted(relation, parse_query(query).args)
    expected_dnfs = (to_dnf(expected.formula), expected.feasible_disjuncts())
    monkeypatch.setattr(ConstraintRelation, "substitute", refuse)
    monkeypatch.setattr(relation_module, "to_dnf", refuse)
    monkeypatch.setattr(simplify_module, "to_dnf_pruned", refuse)
    result = query_engine.evaluator._relation_atom(parse_query(query))
    assert result.variables == expected.variables
    assert result.formula == expected.formula
    assert str(result) == str(expected)
    # The database relation's DNFs came along, renamed.
    assert (result.disjuncts(), result.feasible_disjuncts()) == expected_dnfs


@pytest.mark.parametrize(
    "text, arity, query",
    [
        (PLANE, 2, "S(x, x)"),
        (PLANE, 2, "S(x + 1, y)"),
        (PLANE, 2, "S(0, y)"),
        (PLANE, 2, "S(2*x, y)"),
        # A schema variable the formula never mentions leaves the
        # substitution's schema, so renaming would widen it.
        ("x0 > 0", 2, "S(u, v)"),
    ],
)
def test_other_arguments_substitute(monkeypatch, text, arity, query):
    query_engine = engine(text, arity)
    monkeypatch.setattr(ConstraintRelation, "rename_to", refuse)
    result, expected = instantiate(query_engine, query)
    assert result.variables == expected.variables
    assert result.formula == expected.formula
    assert str(result) == str(expected)


class TestWiden:
    def relation(self):
        return ConstraintRelation.make(
            ("x0", "x1"), parse_formula(PLANE)
        )

    def test_reuses_the_dnf_lists(self, monkeypatch):
        source = self.relation()
        disjuncts = source.disjuncts()
        feasible = source.feasible_disjuncts()
        monkeypatch.setattr(relation_module, "to_dnf", refuse)
        monkeypatch.setattr(simplify_module, "to_dnf_pruned", refuse)
        for schema in (("x1", "x0"), ("a", "x0", "x1"), ("x1", "z", "x0")):
            widened = source.widen(schema)
            assert widened.variables == schema
            assert widened.formula is source.formula
            assert widened.disjuncts() is disjuncts
            assert widened.feasible_disjuncts() is feasible

    def test_computes_the_dnf_once_on_the_source(self, monkeypatch):
        source = self.relation()
        first = source.widen(("a", "x0", "x1"))
        assert first.disjuncts() is source.disjuncts()
        assert "feasible" not in first._cache
        monkeypatch.setattr(relation_module, "to_dnf", refuse)
        assert source.widen(("x0", "x1", "b")).disjuncts() is (
            first.disjuncts()
        )

    def test_same_schema_is_the_relation(self):
        source = self.relation()
        assert source.widen(("x0", "x1")) is source

    @pytest.mark.parametrize(
        "schema", [("x0",), ("x0", "y"), ("x0", "x1", "x0")]
    )
    def test_rejects_what_is_not_a_widening(self, schema):
        with pytest.raises(FormulaError):
            self.relation().widen(schema)

    def test_ir_widen_carries_the_dnfs(self):
        source = self.relation()
        disjuncts = source.disjuncts()
        node = ir.Widen(ir.Const(source), ("x0", "x1", "x2"))
        result = execute(node, ExecutionContext(), KernelCache())
        assert result.variables == ("x0", "x1", "x2")
        assert result.disjuncts() is disjuncts


def test_element_query_leaves_the_database_dnf_alone(monkeypatch):
    """A fresh 1-D template on a warm engine: the memoised ``S(y)`` is
    widened to ``(x0, y)`` without putting it through ``to_dnf``."""
    query_engine = QueryEngine(interval_chain(4))
    template = "exists y. S(y) & x0 - y <= {c} & y - x0 <= {c}"
    query_engine.evaluate(template.format(c="1/3"))
    s_formula = query_engine.evaluator._relation_atom(
        parse_query("S(y)")
    ).formula
    seen = []

    def counting(formula):
        seen.append(formula)
        return to_dnf(formula)

    monkeypatch.setattr(relation_module, "to_dnf", counting)
    query_engine.evaluate(template.format(c="2/7"))
    assert seen and s_formula not in seen
