"""E15 — spatial datalog (the paper's related work, Geerts & Kuijpers).

The paper positions its region languages against spatial datalog:
connectivity-style recursion *can* terminate there on good inputs, but
the language has no termination guarantee.  This experiment runs a
unit-step reachability program on bounded inputs (terminates, matches
the region-logic component), and the successor program on an unbounded
domain (diverges at the stage cap), with the region-sort LFP as the
always-terminating contrast.
"""

from fractions import Fraction

from repro.constraints.database import ConstraintDatabase
from repro.constraints.parser import parse_formula
from repro.datalog import evaluate_program
from repro.datalog.parser import parse_program
from repro.queries.reachability import connected_component
from repro.workloads.generators import interval_chain

F = Fraction

REACH = parse_program(
    """
    Reach(x) :- S(x), x = 0.
    Reach(y) :- Reach(x), S(y), y - x <= 1, x - y <= 1.
    """
)

SUCCESSOR = parse_program(
    """
    P(x) :- S(x), x = 0.
    P(y) :- P(x), S(y), y = x + 1.
    """
)


def db(text: str) -> ConstraintDatabase:
    return ConstraintDatabase.from_formula(parse_formula(text), 1)


def test_e15_reach_terminates_and_matches_component(report):
    rows = []
    for k in (1, 2, 3):
        database = interval_chain(k)
        outcome = evaluate_program(REACH, database)
        assert outcome.converged
        component = connected_component(database, (F(0),))
        assert outcome["Reach"].rename_to(("x0",)).equivalent(component)
        rows.append(
            (f"chain k={k}:",
             f"converged in {outcome.stages} stages,",
             "matches region-logic component")
        )
    report("E15: datalog reach vs region-logic component", rows)


def test_e15_reach_respects_gaps():
    # Gap of width 2 — wider than the unit step, so unreachable.
    database = db("(0 <= x0 & x0 <= 1) | (3 <= x0 & x0 <= 4)")
    outcome = evaluate_program(REACH, database)
    assert outcome.converged
    assert outcome["Reach"].contains((F(1),))
    assert not outcome["Reach"].contains((F(3),))


def test_e15_successor_diverges_unbounded(report):
    outcome = evaluate_program(SUCCESSOR, db("x0 >= 0"), max_stages=8)
    assert not outcome.converged
    report("E15: datalog has no termination guarantee", [
        ("successor program on x >= 0:",
         f"diverged at the stage cap ({outcome.stages} stages),",
         f"sizes {outcome.stage_sizes}"),
        ("the region-sort languages:", "terminate on every input "
         "(Theorems 4.3/6.1)"),
    ])


def test_e15_successor_converges_bounded():
    outcome = evaluate_program(SUCCESSOR, db("0 <= x0 & x0 <= 4"))
    assert outcome.converged
    assert outcome["P"].contains((F(4),))
    assert not outcome["P"].contains((F(1, 2),))


def test_e15_reach_benchmark(benchmark):
    database = interval_chain(2)
    outcome = benchmark(evaluate_program, REACH, database)
    assert outcome.converged


def test_e15_seminaive_agrees_with_naive(report):
    """Semi-naive delta evaluation is a pure speedup: identical IDB
    relations and stage counts on both converging and diverging runs."""
    rows = []
    for k in (1, 2, 3):
        database = interval_chain(k)
        naive = evaluate_program(REACH, database, strategy="naive")
        fast = evaluate_program(REACH, database, strategy="seminaive")
        assert fast.converged == naive.converged
        assert fast.stages == naive.stages
        for predicate in fast.relations:
            assert fast[predicate].equivalent(naive[predicate])
        rows.append(
            (f"chain k={k}:",
             f"both converge in {fast.stages} stages,",
             "identical Reach relation")
        )
    report("E15: semi-naive ≡ naive evaluation", rows)


def test_e15_seminaive_agrees_on_divergence():
    database = db("x0 >= 0")
    naive = evaluate_program(
        SUCCESSOR, database, max_stages=8, strategy="naive"
    )
    fast = evaluate_program(
        SUCCESSOR, database, max_stages=8, strategy="seminaive"
    )
    assert not naive.converged and not fast.converged
    assert fast.stages == naive.stages == 8
    assert fast["P"].equivalent(naive["P"])


def test_e15_executors_agree_small_chains(report):
    """The compiled IR executor is byte-identical to the interpreted
    semi-naive engine on small chains, including the divergent
    successor program."""
    rows = []
    for k in (1, 2, 3):
        database = interval_chain(k)
        interpreted = evaluate_program(
            REACH, database, executor="interpreted"
        )
        compiled = evaluate_program(REACH, database, executor="compiled")
        assert compiled.converged == interpreted.converged
        assert compiled.stages == interpreted.stages
        assert compiled.stage_sizes == interpreted.stage_sizes
        for predicate in compiled.relations:
            assert str(compiled[predicate].formula) == str(
                interpreted[predicate].formula
            )
        rows.append(
            (f"chain k={k}:",
             f"both executors converge in {compiled.stages} stages,",
             "byte-identical Reach relation")
        )
    diverging_db = db("x0 >= 0")
    interpreted = evaluate_program(
        SUCCESSOR, diverging_db, max_stages=8, executor="interpreted"
    )
    compiled = evaluate_program(
        SUCCESSOR, diverging_db, max_stages=8, executor="compiled"
    )
    assert not compiled.converged and not interpreted.converged
    assert str(compiled["P"].formula) == str(interpreted["P"].formula)
    report("E15: compiled ≡ interpreted executor", rows)
