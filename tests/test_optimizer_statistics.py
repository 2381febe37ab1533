"""Persistence round-trips for the optimizer's statistics (satellite of E14).

The statistics entry is the optimizer's only cross-process memory, so it
gets the same guarantees as every other store kind: *bit-identical*
codec round-trips for arbitrary ``Fraction``-valued measurements,
corruption handled as quarantine-and-miss (a damaged file can slow the
next run down, never feed it a wrong plan), and fingerprints/keys that
survive ``PYTHONHASHSEED`` randomisation so statistics written by one
process are found by the next.
"""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer.statistics import (
    DECAY,
    FLUSH_RUNS,
    GRID,
    STATS_VERSION,
    NodeStats,
    Statistics,
    StatisticsBook,
    make_node_stats,
    node_fingerprint,
)
from repro.obs.metrics import MetricsRegistry
from repro.store import codec
from repro.store.disk import DiskStore

F = Fraction

fractions = st.builds(
    F,
    st.integers(min_value=0, max_value=10**30),
    st.integers(min_value=1, max_value=10**30),
)

counter_names = st.sampled_from(
    ("lp.solves", "arrangement.faces", "evaluator.fixpoint_stages",
     "lp.filter_hits", "lp.filter_fallbacks")
)

node_stats = st.builds(
    make_node_stats,
    calls=fractions,
    wall=fractions,
    size=fractions,
    observations=fractions,
    counters=st.dictionaries(counter_names, fractions, max_size=4),
)

fingerprints = st.text(
    alphabet="0123456789abcdef:", min_size=1, max_size=64
)

statistics = st.builds(
    Statistics,
    nodes=st.dictionaries(fingerprints, node_stats, max_size=8),
    runs=fractions,
)


class TestCodecRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(statistics)
    def test_round_trip_is_exact_and_bit_identical(self, stats):
        blob = codec.dumps("statistics", stats)
        loaded = codec.loads("statistics", blob)
        assert loaded == stats
        assert codec.dumps("statistics", loaded) == blob

    @settings(max_examples=30, deadline=None)
    @given(statistics, st.dictionaries(fingerprints, node_stats, max_size=4))
    def test_merge_then_round_trip_stays_exact(self, stats, run_nodes):
        merged = stats.merge(run_nodes)
        blob = codec.dumps("statistics", merged)
        assert codec.loads("statistics", blob) == merged

    def test_wrong_version_is_a_codec_error(self):
        import pytest

        payload = codec.encode("statistics", Statistics())
        payload["version"] = STATS_VERSION + 1
        with pytest.raises(codec.CodecError):
            codec.decode("statistics", payload)

    def test_negative_numbers_are_rejected(self):
        import pytest

        payload = codec.encode("statistics", Statistics())
        payload["nodes"] = {
            "deadbeef": {
                "calls": [-1, 1],
                "wall": [0, 1],
                "size": [0, 1],
                "obs": [0, 1],
                "counters": {},
            }
        }
        with pytest.raises(codec.CodecError):
            codec.decode("statistics", payload)


class TestDiskStoreQuarantine:
    def test_corrupt_statistics_entry_is_quarantined_and_missed(
        self, tmp_path
    ):
        # A private registry: corruption staged here must not leak into
        # the process-global store counters other tests assert on.
        store = DiskStore(tmp_path, metrics=MetricsRegistry())
        key = codec.statistics_key()
        stats = Statistics().merge(
            {"aa": make_node_stats(calls=1, wall=F(1, 3))}
        )
        path = store.save("statistics", key, stats)
        assert store.load("statistics", key) == stats

        # Flip the fingerprint inside the stored payload: the envelope
        # checksum no longer matches, so the entry must be quarantined
        # and reported as a miss — never decoded into a wrong plan.
        path.write_text(path.read_text().replace('"aa"', '"ab"', 1))
        assert store.load("statistics", key) is None  # miss, not garbage
        quarantined = list(store.quarantine_root.rglob("*"))
        assert len([p for p in quarantined if p.is_file()]) == 1
        # The store stays usable after the quarantine.
        store.save("statistics", key, stats)
        assert store.load("statistics", key) == stats

    def test_truncated_entry_is_a_miss(self, tmp_path):
        store = DiskStore(tmp_path, metrics=MetricsRegistry())
        key = codec.statistics_key()
        path = store.save("statistics", key, Statistics())
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.load("statistics", key) is None


PROBE = r"""
import json
from fractions import Fraction
from repro.logic.parser import parse_query
from repro.optimizer.statistics import node_fingerprint
from repro.store import codec
from repro.optimizer.statistics import Statistics, make_node_stats

formula = parse_query("exists x. exists y. (S(x) & S(y) & x < 1)")
stats = Statistics().merge({
    node_fingerprint(formula): make_node_stats(
        calls=3, wall=Fraction(7, 9),
        counters={"lp.solves": Fraction(5)},
    ),
})
print(json.dumps({
    "key": codec.statistics_key(),
    "fingerprint": node_fingerprint(formula),
    "blob": codec.dumps("statistics", stats).decode()
        if isinstance(codec.dumps("statistics", stats), bytes)
        else codec.dumps("statistics", stats),
}, sort_keys=True))
"""


def _run_probe(hashseed: str) -> str:
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(src)
    env.pop("REPRO_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout


class TestCrossProcessReuse:
    def test_keys_and_fingerprints_survive_hash_randomisation(self):
        outputs = {seed: _run_probe(seed) for seed in ("0", "42", "31337")}
        assert len(set(outputs.values())) == 1, outputs

    def test_statistics_written_by_one_process_warm_the_next(
        self, tmp_path
    ):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        script = r"""
import json, sys
from repro.config import EngineConfig
from repro.engine import QueryEngine
from repro.logic.parser import parse_query
from repro.workloads.generators import interval_chain

engine = QueryEngine(
    interval_chain(4),
    config=EngineConfig.resolve(cache_dir=sys.argv[1], optimizer="on"),
)
engine.evaluate(parse_query("exists x. exists y. (S(x) & S(y) & x < 1)"))
print(json.dumps(engine.stats()["optimizer"]))
"""
        outputs = []
        for seed in ("0", "4242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = str(src)
            env.pop("REPRO_CACHE_DIR", None)
            proc = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path)],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(json.loads(proc.stdout))
        cold, warm = outputs
        assert cold["stats_hits"] == 0
        assert cold["stats_updates"] == 1
        # The second process — under a different hash seed — found the
        # first process's measurements by fingerprint.
        assert warm["stats_hits"] > 0
        assert warm["persisted_nodes"] >= cold["persisted_nodes"]


class TestDecaySemantics:
    def test_merge_decays_history_and_adds_run_at_full_weight(self):
        first = Statistics().merge({"aa": make_node_stats(calls=4, wall=8)})
        second = first.merge({"aa": make_node_stats(calls=4, wall=8)})
        node = second.get("aa")
        assert node.calls == 4 * DECAY + 4
        assert node.wall == 8 * DECAY + 8
        assert second.runs == DECAY + 1

    def test_untouched_nodes_fade_out(self):
        stats = Statistics().merge({"aa": make_node_stats(calls=1, wall=1)})
        for __ in range(3):
            stats = stats.merge({})
        assert stats.get("aa").wall == DECAY**3

    def test_node_fingerprint_distinguishes_types_and_text(self):
        from repro.logic.parser import parse_query

        a = parse_query("exists x. S(x)")
        b = parse_query("exists x. S(x)")
        c = parse_query("forall x. S(x)")
        assert node_fingerprint(a) == node_fingerprint(b)
        assert node_fingerprint(a) != node_fingerprint(c)


# ---------------------------------------------------------------------------
# The shared in-memory book
# ---------------------------------------------------------------------------
#: Lazy decay rounds a node at most once per run clock tick; those
#: errors (each at most half a grid step) fade by DECAY per run, so
#: they sum to at most 1/2 · 1/(1 - 3/4) = 2 steps, plus half a step
#: for the rounding on the way out of ``get``.
GRID_TOLERANCE = F(5, 2) / GRID

FIELDS = ("calls", "wall", "size", "observations")


def _eager_scale(stats: NodeStats, factor: Fraction) -> NodeStats:
    return NodeStats(
        calls=stats.calls * factor,
        wall=stats.wall * factor,
        size=stats.size * factor,
        observations=stats.observations * factor,
        counters={n: v * factor for n, v in stats.counters.items()},
    )


def _eager_merge(nodes, runs, run_nodes):
    """The exact-Fraction reference: decay everything, add the run."""
    merged = {fp: _eager_scale(s, DECAY) for fp, s in nodes.items()}
    for fp, stats in run_nodes.items():
        merged[fp] = merged.get(fp, NodeStats()).plus(stats)
    return merged, runs * DECAY + 1


def _random_run(rng, pool, floats):
    run = {}
    for fp in rng.sample(pool, rng.randint(0, 4)):
        wall = rng.random() * 1e-2
        size = float(rng.randint(0, 40))
        floats.append(F(wall))
        run[fp] = make_node_stats(
            calls=rng.randint(1, 3),
            wall=wall,
            size=size,
            observations=1,
            counters={"lp.solves": rng.randint(0, 9)},
        )
    return run


class TestStatisticsBook:
    def test_lazy_decay_matches_the_eager_exact_merge(self):
        import random

        for seed in range(8):
            rng = random.Random(seed)
            pool = [f"{i:02x}" for i in range(12)]
            book = StatisticsBook()
            nodes, runs = {}, F(0)
            for step in range(120):
                run = _random_run(rng, pool, [])
                book.record(run)
                nodes, runs = _eager_merge(nodes, runs, run)
                if rng.random() < 0.1:
                    book.snapshot()  # rebases: one more rounding
                if step % 10:
                    continue
                snapshot = book.snapshot()
                assert abs(snapshot.runs - runs) <= GRID_TOLERANCE
                assert set(snapshot.nodes) <= set(nodes)
                for fp, exact in nodes.items():
                    lazy = book.get(fp) or NodeStats()
                    for name in FIELDS:
                        assert abs(
                            getattr(lazy, name) - getattr(exact, name)
                        ) <= GRID_TOLERANCE, (seed, step, fp, name)
                    assert abs(
                        lazy.counter("lp.solves")
                        - exact.counter("lp.solves")
                    ) <= GRID_TOLERANCE

    def test_statistics_merge_is_the_book(self):
        run = {"aa": make_node_stats(calls=1, wall=F(1, 3))}
        base = Statistics().merge({"bb": make_node_stats(calls=2, wall=1)})
        book = StatisticsBook(base)
        book.record(run)
        assert base.merge(run) == book.snapshot()

    def test_denominators_stay_bounded_over_5000_merges(self):
        import random

        rng = random.Random(5000)
        pool = [f"{i:02x}" for i in range(16)]
        floats: list[Fraction] = []
        book = StatisticsBook()
        for __ in range(5000):
            book.record(_random_run(rng, pool, floats))
        bound = GRID * max(f.denominator for f in floats)
        snapshot = book.snapshot()
        assert snapshot.runs.denominator <= GRID
        for stats in snapshot.nodes.values():
            for name in FIELDS:
                assert getattr(stats, name).denominator <= bound
            for value in stats.counters.values():
                assert value.denominator <= bound

    def test_record_leaves_untouched_nodes_as_they_were(self):
        book = StatisticsBook()
        book.record({
            fp: make_node_stats(calls=1, wall=F(1, 8)) for fp in "abcd"
        })
        before = dict(book._nodes)
        book.record({"a": make_node_stats(calls=1, wall=1)})
        for fp in "bcd":
            assert book._nodes[fp] is before[fp]
        assert book._nodes["a"] is not before["a"]
        assert book.get("b").wall == F(1, 8) * DECAY  # decayed lazily

    def test_book_prunes_to_the_hottest_nodes(self):
        from repro.optimizer.statistics import MAX_NODES

        book = StatisticsBook()
        for i in range(2 * MAX_NODES + 1):
            book.record({f"{i:04x}": make_node_stats(calls=1, wall=i + 1)})
        assert book.node_count() <= 2 * MAX_NODES
        snapshot = book.snapshot()
        assert len(snapshot.nodes) == MAX_NODES
        assert book.node_count() == MAX_NODES
        # The newest node is the hottest by decayed wall.
        assert f"{2 * MAX_NODES:04x}" in snapshot.nodes

    def test_take_pending_counts_runs_once(self):
        book = StatisticsBook()
        assert book.take_pending() is None
        assert book.record({}) == 1
        assert book.record({}) == 2
        assert book.take_pending() is not None
        assert book.pending == 0
        assert book.take_pending() is None


def _shared_engine(database, tmp_path):
    from repro.config import EngineConfig
    from repro.engine import QueryEngine

    return QueryEngine(
        database,
        config=EngineConfig.resolve(cache_dir=str(tmp_path), optimizer="on"),
    )


class TestSharedBook:
    def test_engines_sharing_a_store_keep_each_others_statistics(
        self, tmp_path
    ):
        from repro.store import store_at
        from repro.workloads.generators import chain_of_boxes, interval_chain

        one = _shared_engine(interval_chain(3), tmp_path)
        two = _shared_engine(chain_of_boxes(1), tmp_path)
        query_one = "exists y. S(y) & x0 - y <= 1/3 & y - x0 <= 1/3"
        query_two = "exists y. S(x0, y) & y <= 1/2"
        # Both engines plan (and so open their statistics) before
        # either records: per-engine copies lost the first writer's
        # nodes when the second one wrote its copy back.
        plan_one = one.plan(query_one)[0]
        plan_two = two.plan(query_two)[0]
        one.evaluate(query_one)
        two.evaluate(query_two)
        store = store_at(tmp_path)
        book = store.statistics_book()
        assert one.statistics() is book is two.statistics()
        fingerprints = {node_fingerprint(plan_one), node_fingerprint(plan_two)}
        for fp in fingerprints:
            assert book.get(fp) is not None
        assert store.flush_statistics()
        persisted = store.load("statistics", codec.statistics_key())
        assert fingerprints <= set(persisted.nodes)

    def test_engine_writes_back_every_flush_runs(self, tmp_path):
        from repro.obs.metrics import get_registry
        from repro.store import store_at
        from repro.workloads.generators import interval_chain

        engine = _shared_engine(interval_chain(2), tmp_path)
        store = store_at(tmp_path)
        key = codec.statistics_key()
        flushes = get_registry().get("optimizer.stats_flushes")
        for i in range(FLUSH_RUNS):
            assert store.load("statistics", key) is None
            engine.evaluate(f"exists y. S(y) & y - x0 <= {i + 1}/{i + 2}")
        assert get_registry().get("optimizer.stats_flushes") == flushes + 1
        assert store.statistics_book().pending == 0
        persisted = store.load("statistics", key)
        assert persisted == store.statistics_book().snapshot()

    def test_stats_command_reads_and_clears_the_book(self, tmp_path):
        import io

        from repro import cli
        from repro.store import store_at
        from repro.workloads.generators import interval_chain

        engine = _shared_engine(interval_chain(2), tmp_path)
        engine.evaluate("exists y. S(y) & y - x0 <= 1/2")
        book = store_at(tmp_path).statistics_book()
        assert book.pending == 1  # recorded, not yet written back

        out = io.StringIO()
        cli.main(["stats", "--cache-dir", str(tmp_path), "--json"], out=out)
        report = json.loads(out.getvalue())
        assert report["nodes"] == book.node_count() > 0

        cli.main(["stats", "--cache-dir", str(tmp_path), "--clear"],
                 out=io.StringIO())
        assert book.node_count() == 0
        assert store_at(tmp_path).load(
            "statistics", codec.statistics_key()
        ) == Statistics()
