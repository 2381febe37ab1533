"""A relation's feasible disjuncts against the formula they stand for.

``ConstraintRelation.feasible_disjuncts()`` is one cached list:
``to_dnf_pruned(formula)`` by default, or the pruned list a relation was
built from (``relation_from_disjuncts``).  Projection and emptiness run
from it, and ``rename_to`` carries it.  Each is held to the path it
replaced, on random quantifier-free formulas (nested ``And``/``Or``/
``Not``, equalities, strict ties, constant atoms) and on relations built
from them by the algebra:

* ``project_out(v)`` renders exactly ``eliminate_quantifiers(∃v. φ)``;
* ``is_empty()`` is ``not is_satisfiable_qf(φ)``;
* a seeded ``disjuncts()`` is ``to_dnf(φ)``, and a seeded
  ``feasible_disjuncts()`` is ``to_dnf_pruned(φ)``;
* ``rename_to`` builds the formula the two-step rename through
  temporary names built.

A count test pins the decisions one element query takes on a warm
engine, so re-deciding the answer's DNF shows up as a failure.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.atoms import Atom, Op
from repro.constraints.formula import (
    FALSE,
    TRUE,
    And,
    AtomFormula,
    Exists,
    Not,
    Or,
)
from repro.constraints.normal_forms import to_dnf
from repro.constraints.qelim import eliminate_quantifiers, is_satisfiable_qf
from repro.constraints.relation import (
    ConstraintRelation,
    relation_from_disjuncts,
)
from repro.constraints.simplify import prune_disjuncts, to_dnf_pruned
from repro.constraints.terms import LinearTerm
from repro.obs.metrics import get_registry

SCHEMA = ("x", "y", "z")
OPS = (Op.LT, Op.LE, Op.EQ, Op.GE, Op.GT)


@st.composite
def atoms(draw):
    """Atoms over 0–2 schema variables; constants are small halves, so
    strict ties (``x < 1 & x > 1``) and equalities meet often."""
    names = draw(
        st.lists(st.sampled_from(SCHEMA), max_size=2, unique=True)
    )
    coefficients = {
        name: draw(st.sampled_from((-2, -1, 1, 2))) for name in names
    }
    constant = draw(
        st.fractions(min_value=-2, max_value=2, max_denominator=2)
    )
    op = draw(st.sampled_from(OPS))
    return Atom(LinearTerm.make(coefficients, constant), op)


def formulas():
    leaves = st.one_of(
        atoms().map(AtomFormula),
        st.sampled_from((TRUE, FALSE)),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=3).map(
                lambda parts: And(tuple(parts))
            ),
            st.lists(children, min_size=2, max_size=3).map(
                lambda parts: Or(tuple(parts))
            ),
            children.map(Not),
        ),
        max_leaves=6,
    )


def disjunct_lists():
    """Pruned disjuncts, sometimes with ``()`` or a constant-only
    disjunct among them (both satisfiable)."""
    return st.tuples(
        st.lists(st.lists(atoms(), min_size=1, max_size=3).map(tuple),
                 max_size=4),
        st.sampled_from(("plain", "top", "constant")),
        st.integers(min_value=0, max_value=4),
    ).map(_with_extra)


def _with_extra(drawn):
    raw, extra, position = drawn
    disjuncts = prune_disjuncts(raw)
    if extra == "top":
        disjuncts.insert(min(position, len(disjuncts)), ())
    elif extra == "constant":
        true_constant = Atom(LinearTerm.const(1), Op.GT)
        disjuncts.insert(min(position, len(disjuncts)), (true_constant,))
    return disjuncts


def relations():
    """Relations from formulas or disjunct lists, then one to two
    algebra steps (the steps seed the result's cached DNFs)."""
    base = st.one_of(
        formulas().map(lambda f: ConstraintRelation.make(SCHEMA, f)),
        disjunct_lists().map(lambda d: relation_from_disjuncts(SCHEMA, d)),
    )
    return st.recursive(
        base,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda p: p[0].intersect(p[1])),
            st.tuples(children, children).map(lambda p: p[0].union(p[1])),
            children.map(lambda r: r.complement()),
            children.map(_reschema),
        ),
        max_leaves=2,
    )


def _reschema(relation):
    """A round trip through a permuted schema (rename carries the DNFs)."""
    return relation.rename_to(("z", "x", "y")).rename_to(SCHEMA)


def two_step_rename(relation, schema):
    """The rename ``rename_to`` replaced: through temporary names."""
    temp = tuple(f"__tmp_{i}" for i in range(relation.arity))
    step = relation.formula.rename(dict(zip(relation.variables, temp)))
    return step.rename(dict(zip(temp, schema)))


@settings(max_examples=80, deadline=None)
@given(relation=relations(), variable=st.sampled_from(SCHEMA))
def test_project_out_is_quantifier_elimination(relation, variable):
    projected = relation.project_out(variable)
    expected = eliminate_quantifiers(Exists(variable, relation.formula))
    assert str(projected.formula) == str(expected)
    assert projected.variables == tuple(v for v in SCHEMA if v != variable)
    assert projected.is_empty() == (not is_satisfiable_qf(expected))


@settings(max_examples=80, deadline=None)
@given(relation=relations())
def test_is_empty_is_satisfiability(relation):
    assert relation.is_empty() == (not is_satisfiable_qf(relation.formula))


@settings(max_examples=80, deadline=None)
@given(relation=relations())
def test_cached_dnfs_are_the_formulas(relation):
    assert relation.disjuncts() == to_dnf(relation.formula)
    assert relation.feasible_disjuncts() == to_dnf_pruned(relation.formula)


@settings(max_examples=80, deadline=None)
@given(disjuncts=disjunct_lists())
def test_seeded_dnfs_are_the_formulas(disjuncts):
    relation = relation_from_disjuncts(SCHEMA, disjuncts)
    seeded = (relation._cache["disjuncts"], relation._cache["feasible"])
    assert seeded == (
        to_dnf(relation.formula), to_dnf_pruned(relation.formula)
    )
    if () in disjuncts:
        assert relation.formula == TRUE and seeded[0] == [()]


@settings(max_examples=80, deadline=None)
@given(
    relation=relations(),
    schema=st.sampled_from(
        (("y", "x", "z"), ("z", "x", "w"), ("a", "b", "c"), ("y", "z", "x"))
    ),
)
def test_rename_to_is_the_two_step_rename(relation, schema):
    relation.disjuncts()
    renamed = relation.rename_to(schema)
    expected = two_step_rename(relation, schema)
    assert renamed.formula == expected
    assert str(renamed.formula) == str(expected)
    assert renamed.disjuncts() == to_dnf(expected)
    assert renamed.feasible_disjuncts() == to_dnf_pruned(expected)


class TestConstantAtoms:
    """A formula that is one constant atom is decided, not assumed
    satisfiable (``to_dnf_pruned`` normalises a lone atom)."""

    def test_lone_constant_atoms(self):
        false_atom = AtomFormula(Atom(LinearTerm.const(0), Op.LT))
        true_atom = AtomFormula(Atom(LinearTerm.const(1), Op.GT))
        assert to_dnf_pruned(false_atom) == []
        assert to_dnf_pruned(true_atom) == [()]
        assert not is_satisfiable_qf(false_atom)
        assert ConstraintRelation.make(("x",), false_atom).is_empty()
        assert not ConstraintRelation.make(("x",), true_atom).is_empty()

    def test_instantiated_atom_is_false(self):
        from repro.constraints.database import ConstraintDatabase
        from repro.constraints.parser import parse_formula
        from repro.engine import QueryEngine

        engine = QueryEngine(
            ConstraintDatabase.from_formula(parse_formula("x0 < 0"), 1)
        )
        assert engine.truth("S(-1)")
        assert not engine.truth("S(1)")
        assert not engine.truth("1 < 0")


class TestElementQueryDecisions:
    """One fresh 1-D element query (the first 1-D perfbench template) on
    a warm ``interval_chain(8)`` engine: the evaluator decides the join
    once, and rendering the answer decides nothing — only the sample
    points solve their LPs."""

    QUERY = "exists y. S(y) & x0 - y <= {c} & y - x0 <= {c}"

    def counts(self):
        registry = get_registry()
        return {
            name: registry.get(name)
            for name in ("lp.certified", "lp.solves", "lp.cache_hits")
        }

    def test_decision_counts(self):
        from repro.engine import QueryEngine
        from repro.geometry.simplex import clear_feasibility_cache
        from repro.server.service import ConstraintService
        from repro.workloads.generators import interval_chain

        engine = QueryEngine(interval_chain(8))
        engine.evaluate(self.QUERY.format(c="1/7"))
        clear_feasibility_cache()
        before = self.counts()
        answer = engine.evaluate(self.QUERY.format(c="2/9"))
        evaluated = self.counts()
        ConstraintService._render_answer(answer)
        rendered = self.counts()
        assert evaluated["lp.certified"] - before["lp.certified"] <= 24
        assert rendered["lp.certified"] == evaluated["lp.certified"]
        assert (
            rendered["lp.solves"] + rendered["lp.cache_hits"]
            - evaluated["lp.solves"] - evaluated["lp.cache_hits"]
        ) <= 5
