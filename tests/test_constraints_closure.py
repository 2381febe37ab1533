"""The difference-bound closure against the exact LP it replaces.

A difference conjunction (every atom has one variable, or two with
opposite coefficients) is decided by closing its difference-bound
matrix (:func:`repro.constraints.simplify.difference_closure`).  Three
layers are held to the exact LP (``simplex.feasible`` over
``to_linear_constraint`` rows):

* **Feasibility** — :func:`feasibility_certificate` never contradicts
  the LP, and never leaves a pure difference conjunction undecided, on
  1–4 variables: strict ties, equalities, zero-weight cycles with one
  strict edge, parallel and duplicate edges, constant atoms, and mixes
  with general-coefficient atoms.
* **Implication** — ``_subsumed``, ``remove_redundant_atoms`` and
  ``minimise_dnf`` return the same tuples decided by the closure as
  decided by an LP-only ``feasibility`` callable.
* **End to end** — with both closure decisions patched to "undecided",
  every verdict comes from the LP, and compiled reachability datalog
  and the 1-D connectivity sentences answer exactly as by default.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constraints import simplify
from repro.constraints.atoms import Atom, Op
from repro.constraints.simplify import (
    _subsumed,
    entailment_certificate,
    feasibility_certificate,
    minimise_dnf,
    remove_redundant_atoms,
)
from repro.constraints.terms import LinearTerm
from repro.geometry.simplex import feasible
from repro.obs.metrics import get_registry

VARIABLES = ("x0", "x1", "x2", "x3")
OPS = (Op.LT, Op.LE, Op.EQ, Op.GE, Op.GT)


def lp_feasible(disjunct) -> bool:
    """The exact LP verdict on a conjunction, with no closure."""
    if any(
        atom.is_trivial() and not atom.trivial_truth() for atom in disjunct
    ):
        return False
    live = [atom for atom in disjunct if not atom.is_trivial()]
    variables = sorted({v for atom in live for v in atom.variables})
    return feasible(
        [atom.to_linear_constraint(variables) for atom in live],
        dimension=len(variables),
    )


def difference_atom(u, v, scale, constant, op) -> Atom:
    """``scale·u − scale·v + constant op 0``; ``None`` is the constant 0."""
    coefficients: dict = {}
    if u is not None:
        coefficients[u] = coefficients.get(u, 0) + scale
    if v is not None:
        coefficients[v] = coefficients.get(v, 0) - scale
    return Atom(LinearTerm.make(coefficients, constant), op)


@st.composite
def difference_conjunctions(draw, max_atoms=6):
    """Difference atoms over 1–4 variables, constants in [-3, 3] with
    denominators up to 2: ties, parallel edges and duplicates are common.
    """
    count = draw(st.integers(min_value=1, max_value=4))
    nodes = st.sampled_from(VARIABLES[:count] + (None,))
    atoms = draw(
        st.lists(
            st.builds(
                difference_atom,
                nodes,
                nodes,
                st.sampled_from((1, -1, 2, -3)),
                st.fractions(min_value=-3, max_value=3, max_denominator=2),
                st.sampled_from(OPS),
            ),
            min_size=1,
            max_size=max_atoms,
        )
    )
    # Duplicate some atoms verbatim.
    repeats = draw(st.lists(st.sampled_from(atoms), max_size=2))
    return tuple(atoms + repeats)


@st.composite
def general_atoms(draw):
    coefficients = {
        name: draw(st.integers(min_value=-3, max_value=3))
        for name in draw(
            st.lists(
                st.sampled_from(VARIABLES), min_size=2, max_size=3,
                unique=True,
            )
        )
    }
    constant = draw(st.integers(min_value=-4, max_value=4))
    return Atom(
        LinearTerm.make(coefficients, constant), draw(st.sampled_from(OPS))
    )


class TestClosureCertificate:
    @settings(max_examples=300, deadline=None)
    @given(disjunct=difference_conjunctions())
    # x0 ≤ 1 ∧ x0 ≥ 1 ∧ x0 < 1: a strict tie after a closed one.
    @example(disjunct=(
        difference_atom("x0", None, 1, -1, Op.LE),
        difference_atom("x0", None, 1, -1, Op.GE),
        difference_atom("x0", None, 1, -1, Op.LT),
    ))
    # x0 − x1 = 1 ∧ x1 − x0 ≥ −1 ∧ 2·x0 − 2·x1 < 2.
    @example(disjunct=(
        difference_atom("x0", "x1", 1, -1, Op.EQ),
        difference_atom("x1", "x0", 1, 1, Op.GE),
        difference_atom("x0", "x1", 2, -2, Op.LT),
    ))
    # A failing constant atom next to a satisfiable bound.
    @example(disjunct=(
        difference_atom("x0", None, 1, 0, Op.LE),
        difference_atom(None, None, 1, 0, Op.LT),
    ))
    def test_closure_decides_difference_conjunctions(self, disjunct):
        verdict = feasibility_certificate(disjunct)
        assert verdict is not None, disjunct
        assert verdict == lp_feasible(disjunct), disjunct

    @settings(max_examples=150, deadline=None)
    @given(
        length=st.integers(min_value=1, max_value=4),
        weights=st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=3),
            min_size=4,
            max_size=4,
        ),
        strict_at=st.one_of(st.none(), st.integers(0, 4)),
        order=st.randoms(use_true_random=False),
    )
    def test_closure_zero_weight_cycles(
        self, length, weights, strict_at, order
    ):
        # The cycle x0 → x1 → … → x0 (through the zero node when it has
        # one variable) has total weight exactly 0: it is satisfiable iff
        # no edge of it is strict.
        cycle = list(VARIABLES[:length]) + [None] if length == 1 else list(
            VARIABLES[:length]
        )
        steps = weights[: len(cycle) - 1]
        steps.append(-sum(steps))
        atoms = [
            difference_atom(
                cycle[index], cycle[(index + 1) % len(cycle)], 1, -weight,
                Op.LT if index == strict_at else Op.LE,
            )
            for index, weight in enumerate(steps)
        ]
        order.shuffle(atoms)
        disjunct = tuple(atoms)
        has_strict = strict_at is not None and strict_at < len(steps)
        assert feasibility_certificate(disjunct) is (not has_strict)
        assert lp_feasible(disjunct) is (not has_strict)

    @settings(max_examples=200, deadline=None)
    @given(
        disjunct=difference_conjunctions(max_atoms=4),
        extra=st.lists(general_atoms(), min_size=1, max_size=2),
        order=st.randoms(use_true_random=False),
    )
    def test_closure_certificate_with_general_atoms(
        self, disjunct, extra, order
    ):
        atoms = list(disjunct) + extra
        order.shuffle(atoms)
        mixed = tuple(atoms)
        verdict = feasibility_certificate(mixed)
        if verdict is not None:
            assert verdict == lp_feasible(mixed), mixed
        if feasibility_certificate(disjunct) is False:
            # The difference atoms alone are empty, so the whole is.
            assert verdict is False

    @settings(max_examples=200, deadline=None)
    @given(
        disjunct=difference_conjunctions(max_atoms=4),
        atoms=difference_conjunctions(max_atoms=3),
    )
    def test_closure_entailment_matches_lp(self, disjunct, atoms):
        verdict = entailment_certificate(disjunct, atoms)
        assert verdict is not None
        assert verdict == all(
            not lp_feasible(disjunct + (negated,))
            for atom in atoms
            for negated in atom.negated_atoms()
        ), (disjunct, atoms)


class TestClosureImplication:
    """Closure-decided implication returns the LP-decided tuples."""

    @settings(max_examples=150, deadline=None)
    @given(
        smaller=difference_conjunctions(max_atoms=4),
        larger=difference_conjunctions(max_atoms=3),
    )
    def test_closure_subsumption_matches_lp(self, smaller, larger):
        assert _subsumed(smaller, larger) == _subsumed(
            smaller, larger, feasibility=lp_feasible
        )

    @settings(max_examples=150, deadline=None)
    @given(disjunct=difference_conjunctions(max_atoms=5))
    def test_closure_redundancy_matches_lp(self, disjunct):
        assert remove_redundant_atoms(disjunct) == remove_redundant_atoms(
            disjunct, feasibility=lp_feasible
        )

    @settings(max_examples=60, deadline=None)
    @given(
        disjuncts=st.lists(
            difference_conjunctions(max_atoms=3), min_size=1, max_size=4
        )
    )
    def test_closure_minimise_matches_lp(self, disjuncts):
        assert minimise_dnf(disjuncts) == minimise_dnf(
            disjuncts, feasibility=lp_feasible
        )

    def test_closure_implication_falls_back_on_general_atoms(self):
        # x0 + x1 ≤ 2 is no difference atom: the closure leaves it open.
        general = Atom(LinearTerm.make({"x0": 1, "x1": 1}, -2), Op.LE)
        box = (
            difference_atom("x0", None, 1, 0, Op.LE),
            difference_atom("x1", None, 1, 0, Op.LE),
        )
        assert entailment_certificate(box, (general,)) is None
        assert entailment_certificate(box + (general,), box) is None
        assert _subsumed(box, (general,))
        assert remove_redundant_atoms(box + (general,)) == box


REACH_PROGRAM = (
    "Reach(x) :- S(x), x = 0.\n"
    "Reach(y) :- Reach(x), S(y), y - x <= 1, x - y <= 1.\n"
)


def _run_reference_workload():
    """Compiled reach datalog and the 1-D connectivity sentences."""
    from repro.datalog import evaluate_program
    from repro.datalog.parser import parse_program
    from repro.engine import EngineCache, QueryEngine
    from repro.geometry.simplex import clear_feasibility_cache
    from repro.queries.connectivity import (
        connectivity_query_lfp,
        connectivity_query_tc,
    )
    from repro.workloads.generators import interval_chain

    clear_feasibility_cache()
    program = parse_program(REACH_PROGRAM)
    outcomes = []
    for segments, gap in ((8, False), (6, True)):
        outcome = evaluate_program(program, interval_chain(segments, gap=gap))
        outcomes.append((
            outcome.stages,
            outcome.converged,
            str(outcome["Reach"].formula),
        ))
    for gap in (False, True):
        engine = QueryEngine(interval_chain(4, gap=gap), cache=EngineCache())
        for sentence in (connectivity_query_lfp(1), connectivity_query_tc(1)):
            outcomes.append(engine.truth(sentence))
    return outcomes


class TestLpOnlyReference:
    """Every verdict from the LP gives the default run's answers."""

    def test_closure_off_matches_default_end_to_end(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "compiled")
        registry = get_registry()
        exact_lps = []

        def counting_feasible(*args, **kwargs):
            exact_lps.append(1)
            return feasible(*args, **kwargs)

        monkeypatch.setattr(simplify, "feasible", counting_feasible)
        certified = registry.get("lp.certified")
        default = _run_reference_workload()
        # No feasibility or implication verdict reached the exact LP.
        assert exact_lps == []
        assert registry.get("lp.certified") > certified

        monkeypatch.setattr(
            simplify, "feasibility_certificate", lambda disjunct: None
        )
        monkeypatch.setattr(
            simplify, "entailment_certificate", lambda conjunction, atoms: None
        )
        certified = registry.get("lp.certified")
        lp_only = _run_reference_workload()
        assert registry.get("lp.certified") == certified
        assert exact_lps, "the LP-only run must decide by LP"
        assert lp_only == default
        # The chain is connected, the chain with gaps is not.
        assert default[2:] == [True, True, False, False]
