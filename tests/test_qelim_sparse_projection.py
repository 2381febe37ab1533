"""Sparse Fourier–Motzkin projection against the vector-form path.

``qelim._project_disjunct`` eliminates a variable directly on the atoms'
sparse terms.  It must give exactly what the vector form gives: build
dense ``LinearConstraint`` rows over the disjunct's sorted variables,
run ``eliminate_variable`` and ``simplify_system``, and turn the rows
back into atoms (``dense_project`` below, kept here as the reference).
Random disjuncts mix general rational coefficients, ``=`` pivots,
``≥``/``>`` atoms, constant atoms and repeats; for each one the test
asserts equal tuples, equal text and equal ``fm.*`` counter moves, and
equal ``fm.generated`` span attributes when tracing.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constraints.atoms import Atom, Op, atom_from_constraint
from repro.constraints.qelim import _project_disjunct
from repro.constraints.terms import LinearTerm
from repro.geometry.fourier_motzkin import (
    LinearConstraint,
    eliminate_variable,
    simplify_system,
)
from repro.obs.metrics import get_registry
from repro.obs.tracing import TRACER

NAMES = ("x", "y", "z", "w")
COUNTERS = ("fm.eliminated_variables", "fm.generated_constraints")


def dense_project(disjunct, variable):
    """The vector-form projection the sparse one replaced."""
    variables = sorted({v for atom in disjunct for v in atom.variables})
    if variable not in variables:
        return disjunct
    index = variables.index(variable)
    system = [atom.to_linear_constraint(variables) for atom in disjunct]
    cleaned = simplify_system(eliminate_variable(system, index))
    if cleaned is None:
        return None
    remaining = [v for v in variables if v != variable]
    return tuple(
        atom_from_constraint(
            LinearConstraint(
                tuple(c for i, c in enumerate(row.coeffs) if i != index),
                row.rel,
                row.rhs,
            ),
            remaining,
        )
        for row in cleaned
    )


def atom(coefficients, constant, op):
    return Atom(LinearTerm.make(coefficients, constant), op)


@st.composite
def atoms(draw, variable):
    """Atoms over 0–4 variables with general rational coefficients,
    mentioning ``variable`` more often than not."""
    names = draw(st.lists(st.sampled_from(NAMES), max_size=3, unique=True))
    if variable not in names and draw(st.booleans()):
        names.append(variable)
    coefficients = {
        name: draw(
            st.fractions(min_value=-3, max_value=3, max_denominator=3)
            .filter(bool)
        )
        for name in names
    }
    constant = draw(
        st.fractions(min_value=-3, max_value=3, max_denominator=2)
    )
    return Atom(LinearTerm.make(coefficients, constant), draw(
        st.sampled_from(tuple(Op))
    ))


@st.composite
def cases(draw):
    """A variable and a conjunction of up to seven atoms, sometimes
    with repeats."""
    variable = draw(st.sampled_from(NAMES))
    drawn = draw(st.lists(atoms(variable), max_size=7))
    repeats = draw(st.lists(st.sampled_from(drawn), max_size=2)) \
        if drawn else []
    return tuple(drawn + repeats), variable


def counters():
    registry = get_registry()
    return tuple(registry.get(name) for name in COUNTERS)


def untraced(project, disjunct, variable):
    """``project``'s image and counter moves."""
    before = counters()
    image = project(disjunct, variable)
    return image, tuple(b - a for a, b in zip(before, counters()))


def traced(project, disjunct, variable):
    """``project``'s image, counter moves and ``fm.generated`` total."""
    before = counters()
    with TRACER.start("projection") as root:
        image = project(disjunct, variable)
    moved = tuple(b - a for a, b in zip(before, counters()))
    return image, moved, root.attrs.get("fm.generated")


MIXED = (
    # An `=` pivot with `≥`/`>` atoms, a constant atom and a repeat.
    ((atom({"x": 1, "y": -1}, 0, Op.EQ), atom({"x": 2}, -1, Op.GE),
      atom({"x": 1, "y": 1}, Fraction(1, 2), Op.GT),
      atom({}, 1, Op.GT), atom({"x": 2}, -1, Op.GE)), "x"),
    # Lower × upper bounds, strict and weak, over general coefficients.
    ((atom({"x": Fraction(2, 3), "z": 1}, -1, Op.LE),
      atom({"x": -3, "y": 2}, 2, Op.LT),
      atom({"x": -1}, 0, Op.LE), atom({"y": 1, "z": -1}, 0, Op.GE)), "x"),
    # Elimination collapses to a false constant row: x < 0 & x > 1.
    ((atom({"x": 1}, 0, Op.LT), atom({"x": 1}, -1, Op.GT)), "x"),
    # A false constant atom that survives the elimination.
    ((atom({"x": 1}, 0, Op.LE), atom({}, 0, Op.LT)), "x"),
    # The variable is absent: the disjunct is returned as it is.
    ((atom({"y": 1}, 0, Op.GE),), "x"),
    # Duplicates only after normalisation: y ≥ 0 and -y ≤ 0.
    ((atom({"y": 1}, 0, Op.GE), atom({"y": -1}, 0, Op.LE),
      atom({"x": 1, "y": 1}, 0, Op.EQ)), "x"),
    # Two equalities on the variable: the first is the pivot.
    ((atom({"x": 2, "y": 1}, 0, Op.EQ), atom({"x": 1, "z": 1}, 3, Op.EQ),
      atom({"x": 1}, 0, Op.GT)), "x"),
    # Two lower × two upper bounds: the combinations' order shows.
    ((atom({"x": 1}, 0, Op.GE), atom({"x": 1, "y": -1}, 0, Op.GT),
      atom({"x": 1}, -1, Op.LE), atom({"x": 1, "z": -1}, 0, Op.LT)), "x"),
    # Only upper bounds: the bounds vanish, nothing is combined.
    ((atom({"x": 1, "y": 1}, 0, Op.LE), atom({"x": 1}, 2, Op.LT)), "x"),
)


def _with_examples(test):
    for case in MIXED:
        test = example(case=case)(test)
    return test


@_with_examples
@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_sparse_projection_is_the_vector_form(case):
    disjunct, variable = case
    dense, dense_moved = untraced(dense_project, disjunct, variable)
    sparse, sparse_moved = untraced(_project_disjunct, disjunct, variable)
    assert sparse == dense
    assert repr(sparse) == repr(dense)
    if dense is not None:
        assert [str(a) for a in sparse] == [str(a) for a in dense]
    assert sparse_moved == dense_moved


@_with_examples
@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_traced_span_attributes_move_alike(case):
    disjunct, variable = case
    assert traced(_project_disjunct, disjunct, variable) == traced(
        dense_project, disjunct, variable
    )
