"""Cross-executor equivalence: compiled IR vs interpreted semi-naive.

The compiled executor (:mod:`repro.datalog.compile` over
:mod:`repro.ir`) must be *byte-identical* to the interpreted engine —
not just equivalent relations but structurally identical formulas,
equal stage counts and per-stage accumulated sizes, equal divergence
behaviour, and equal ``datalog.*`` telemetry deltas.  Anything weaker
would let the memoised kernels drift from the oracle's simplification
order unnoticed.

Covers seeded program shapes (recursion, mutual recursion across one
stratum, stratified negation, multi-variable joins, divergence at the
stage cap) plus a hypothesis fuzz over random interval databases and
step bounds.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.database import ConstraintDatabase
from repro.constraints.parser import parse_formula
from repro.datalog import evaluate_program
from repro.datalog.compile import evaluate_program_compiled
from repro.datalog.parser import parse_program
from repro.obs.journal import JOURNAL
from repro.obs.metrics import get_registry
from repro.workloads.generators import interval_chain

F = Fraction

#: Telemetry that must move identically under both executors.  The
#: compiled tier additionally increments ``datalog.compiled_runs``;
#: that counter is the *only* permitted difference.
SHARED_COUNTERS = (
    "datalog.runs",
    "datalog.seminaive_runs",
    "datalog.stages",
    "datalog.delta_disjuncts",
)


def db(text: str, arity: int = 1) -> ConstraintDatabase:
    return ConstraintDatabase.from_formula(parse_formula(text), arity)


def run_both(program, database, max_stages: int = 25):
    """Both executors plus their shared-counter deltas."""
    registry = get_registry()

    def snapshot():
        return {name: registry.get(name) for name in SHARED_COUNTERS}

    before = snapshot()
    interpreted = evaluate_program(
        program, database, max_stages=max_stages, executor="interpreted"
    )
    interpreted_delta = {
        name: value - before[name]
        for name, value in snapshot().items()
    }
    before = snapshot()
    compiled = evaluate_program(
        program, database, max_stages=max_stages, executor="compiled"
    )
    compiled_delta = {
        name: value - before[name]
        for name, value in snapshot().items()
    }
    return interpreted, compiled, interpreted_delta, compiled_delta


def assert_byte_identical(program, database, max_stages: int = 25):
    interpreted, compiled, interp_delta, comp_delta = run_both(
        program, database, max_stages
    )
    assert compiled.converged == interpreted.converged
    assert compiled.stages == interpreted.stages
    assert compiled.stage_sizes == interpreted.stage_sizes
    assert set(compiled.relations) == set(interpreted.relations)
    for predicate in compiled.relations:
        fast = compiled[predicate]
        slow = interpreted[predicate]
        assert fast.variables == slow.variables, predicate
        assert str(fast.formula) == str(slow.formula), predicate
    assert comp_delta == interp_delta, (comp_delta, interp_delta)
    return interpreted, compiled


REACH = parse_program(
    "Reach(x) :- S(x), x = 0.\n"
    "Reach(y) :- Reach(x), S(y), y - x <= 1, x - y <= 1.\n"
)

MUTUAL = parse_program(
    "A(x) :- S(x), x = 0.\n"
    "A(y) :- B(x), S(y), y - x <= 1, x - y <= 1.\n"
    "B(x) :- A(x).\n"
)

STRATIFIED = parse_program(
    "Reach(x) :- S(x), x = 0.\n"
    "Reach(y) :- Reach(x), S(y), y - x <= 1, x - y <= 1.\n"
    "Stranded(x) :- S(x), !Reach(x).\n"
)

TWO_VAR = parse_program(
    "T(x, y) :- E(x, y).\n"
    "T(x, z) :- T(x, y), E(y, z).\n"
)

SWAPPED = parse_program(
    "Q(x, y) :- B(x), B(y), x - y >= 1.\n"
    "Q(x, y) :- Q(y, x), B(x), x - y >= 1.\n"
)

SUCCESSOR = parse_program(
    "P(x) :- S(x), x = 0.\n"
    "P(y) :- P(x), S(y), y = x + 1.\n"
)


class TestSeededEquivalence:
    def test_reachability_chains(self):
        for k in (1, 2, 4, 8):
            assert_byte_identical(
                REACH, interval_chain(k), max_stages=4 * k + 8
            )

    def test_chain_stage_counts(self):
        # Reachability over interval_chain(k) converges after exactly
        # k + 1 stages, under both executors.
        for k in (1, 2):
            __, compiled = assert_byte_identical(
                REACH, interval_chain(k), max_stages=4 * k + 8
            )
            assert compiled.converged
            assert compiled.stages == k + 1

    def test_reach_with_gap(self):
        database = db("(0 <= x0 & x0 <= 1) | (3 <= x0 & x0 <= 4)")
        interpreted, compiled = assert_byte_identical(REACH, database)
        assert compiled.converged
        assert compiled["Reach"].contains((F(1),))
        assert not compiled["Reach"].contains((F(3),))

    def test_mutual_recursion_one_stratum(self):
        assert_byte_identical(MUTUAL, interval_chain(2), max_stages=20)

    def test_stratified_negation(self):
        database = db("(0 <= x0 & x0 <= 1) | (3 <= x0 & x0 <= 4)")
        interpreted, compiled = assert_byte_identical(STRATIFIED, database)
        assert compiled["Stranded"].contains((F(7, 2),))
        assert not compiled["Stranded"].contains((F(1, 2),))

    def test_two_variable_transitive_closure(self):
        database = ConstraintDatabase.from_formula(
            parse_formula(
                "(0 <= x0 & x0 <= 1 & x1 = x0 + 2) | "
                "(2 <= x0 & x0 <= 3 & x1 = x0 + 2)"
            ),
            arity=2,
            name="E",
        )
        assert_byte_identical(TWO_VAR, database, max_stages=12)

    def test_swapped_head_recursion(self):
        database = ConstraintDatabase.make(
            {"B": db("0 <= x0 & x0 <= 3").relation("S")}
        )
        assert_byte_identical(SWAPPED, database, max_stages=12)

    def test_divergence_at_stage_cap(self):
        assert_byte_identical(SUCCESSOR, db("x0 >= 0"), max_stages=6)

    def test_compiled_runs_counter_moves_only_for_compiled(self):
        registry = get_registry()
        database = interval_chain(1)
        before = registry.get("datalog.compiled_runs")
        evaluate_program(REACH, database, executor="interpreted")
        assert registry.get("datalog.compiled_runs") == before
        evaluate_program(REACH, database, executor="compiled")
        assert registry.get("datalog.compiled_runs") == before + 1

    def test_journal_stage_events_identical_modulo_executor(self):
        database = interval_chain(2)
        events = {}
        for executor in ("interpreted", "compiled"):
            JOURNAL.start()
            try:
                evaluate_program(
                    REACH, database, max_stages=20, executor=executor
                )
            finally:
                recorded = JOURNAL.stop()
            stages = [
                {
                    key: value
                    for key, value in event.items()
                    if key in ("stage", "deltas", "strategy")
                }
                for event in recorded
                if event["type"] == "datalog.stage"
            ]
            tags = {
                event["executor"]
                for event in recorded
                if event["type"] == "datalog.stage"
            }
            assert tags == {executor}
            events[executor] = stages
        assert events["compiled"] == events["interpreted"]


@st.composite
def interval_databases(draw):
    """A 1-ary database of up to three disjoint rational intervals."""
    count = draw(st.integers(min_value=1, max_value=3))
    endpoints = draw(
        st.lists(
            st.integers(min_value=0, max_value=8),
            min_size=2 * count,
            max_size=2 * count,
            unique=True,
        )
    )
    endpoints.sort()
    pieces = []
    for index in range(count):
        low, high = endpoints[2 * index], endpoints[2 * index + 1]
        pieces.append(f"({low} <= x0 & x0 <= {high})")
    return db(" | ".join(pieces))


class TestFuzzEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(database=interval_databases(),
           step=st.integers(min_value=1, max_value=2))
    def test_reach_programs(self, database, step):
        program = parse_program(
            "Reach(x) :- S(x), x = 0.\n"
            f"Reach(y) :- Reach(x), S(y), y - x <= {step}, "
            f"x - y <= {step}.\n"
        )
        assert_byte_identical(program, database, max_stages=16)

    @settings(max_examples=8, deadline=None)
    @given(database=interval_databases())
    def test_stratified_programs(self, database):
        assert_byte_identical(STRATIFIED, database, max_stages=16)
