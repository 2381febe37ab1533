"""Tests for repro.engine: fingerprints, the cross-query cache and
the QueryEngine entry point.

The satellite criteria: structurally equal databases hit the cache; a
mutated formula or a renamed relation misses; invalidation drops the
entries; an engine on the process-default cache agrees with one on a
fresh cache; the public engine path emits no deprecation warnings;
the evaluator memo answers repeats with or without a store, is dropped
by a write, and no answer is filed in the store.
"""

import warnings

import pytest

from repro.config import EngineConfig
from repro.errors import EvaluationError
from repro.constraints.database import ConstraintDatabase
from repro.constraints.parser import parse_formula
from repro.constraints.relation import ConstraintRelation
from repro.engine import (
    EngineCache,
    QueryEngine,
    database_fingerprint,
    default_cache,
    relation_fingerprint,
)
from repro.incremental import make_delta
from repro.logic.parser import parse_query
from repro.obs.metrics import MetricsRegistry
from repro.store.disk import DiskStore


def interval_db(text: str = "(0 < x0 & x0 < 1) | (2 < x0 & x0 < 3)",
                name: str = "S") -> ConstraintDatabase:
    return ConstraintDatabase.make({
        name: ConstraintRelation.make(("x0",), parse_formula(text)),
    })


def fresh_cache() -> EngineCache:
    return EngineCache(metrics=MetricsRegistry())


class TestFingerprints:
    def test_structurally_equal_databases_share_fingerprint(self):
        assert database_fingerprint(interval_db()) == \
            database_fingerprint(interval_db())

    def test_mutated_formula_changes_fingerprint(self):
        original = interval_db()
        mutated = interval_db("(0 < x0 & x0 < 1) | (2 < x0 & x0 < 4)")
        assert database_fingerprint(original) != \
            database_fingerprint(mutated)

    def test_renamed_relation_changes_fingerprint(self):
        assert database_fingerprint(interval_db(name="S")) != \
            database_fingerprint(interval_db(name="T"))

    def test_schema_matters(self):
        left = ConstraintRelation.make(("x0",), parse_formula("x0 > 0"))
        right = ConstraintRelation.make(("x1",), parse_formula("x1 > 0"))
        assert relation_fingerprint(left) != relation_fingerprint(right)

    def test_fingerprint_is_cached_on_the_database(self):
        database = interval_db()
        first = database_fingerprint(database)
        assert database.__dict__.get("_fingerprint") == first
        assert database_fingerprint(database) == first


class TestEngineCache:
    def test_same_database_hits(self):
        cache = fresh_cache()
        first = cache.extension(interval_db())
        second = cache.extension(interval_db())   # distinct object
        assert second is first
        stats = cache.stats()
        assert stats["extension_hits"] == 1
        assert stats["extension_misses"] == 1

    def test_mutated_formula_misses(self):
        cache = fresh_cache()
        cache.extension(interval_db())
        cache.extension(interval_db("(0 < x0 & x0 < 1)"))
        stats = cache.stats()
        assert stats["extension_hits"] == 0
        assert stats["extension_misses"] == 2

    def test_renamed_relation_misses(self):
        cache = fresh_cache()
        cache.extension(interval_db(name="S"), spatial_name="S")
        cache.extension(interval_db(name="T"), spatial_name="T")
        stats = cache.stats()
        assert stats["extension_hits"] == 0
        assert stats["extension_misses"] == 2

    def test_decomposition_is_part_of_the_key(self):
        cache = fresh_cache()
        arr = cache.extension(interval_db(), "arrangement")
        nc1 = cache.extension(interval_db(), "nc1")
        assert arr is not nc1
        assert cache.stats()["extension_misses"] == 2

    def test_arrangement_reused_across_databases(self):
        # Two different databases sharing the spatial relation S reuse
        # the Theorem-3.1 arrangement even though the extensions differ.
        cache = fresh_cache()
        shared = "(0 < x0 & x0 < 1)"
        first = ConstraintDatabase.make({
            "S": ConstraintRelation.make(
                ("x0",), parse_formula(shared)
            ),
        })
        second = ConstraintDatabase.make({
            "S": ConstraintRelation.make(
                ("x0",), parse_formula(shared)
            ),
            "Zone": ConstraintRelation.make(
                ("x0",), parse_formula("x0 > 5")
            ),
        })
        assert database_fingerprint(first) != database_fingerprint(second)
        cache.extension(first)
        cache.extension(second)
        stats = cache.stats()
        assert stats["extension_misses"] == 2
        assert stats["arrangement_hits"] == 1

    def test_invalidate_all(self):
        cache = fresh_cache()
        cache.extension(interval_db())
        assert len(cache) > 0
        cache.invalidate()
        assert len(cache) == 0
        assert cache.stats()["invalidations"] > 0

    def test_invalidate_one_database(self):
        cache = fresh_cache()
        keep = interval_db("(0 < x0 & x0 < 1)")
        drop = interval_db()
        cache.extension(keep)
        cache.extension(drop)
        cache.invalidate(drop)
        # keep is still warm, drop is gone.
        cache.extension(keep)
        stats = cache.stats()
        assert stats["extension_hits"] == 1
        cache.extension(drop)
        assert cache.stats()["extension_misses"] == 3

    def test_lru_eviction(self):
        cache = EngineCache(capacity=1, metrics=MetricsRegistry())
        cache.extension(interval_db("0 < x0 & x0 < 1"))
        cache.extension(interval_db("1 < x0 & x0 < 2"))
        assert cache.stats()["extensions_cached"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EngineCache(capacity=0)


class TestQueryEngine:
    def test_truth_and_evaluate(self):
        engine = QueryEngine(interval_db(), cache=fresh_cache())
        assert engine.truth("exists x. S(x)")
        answer = engine.evaluate("S(x) & x < 1")
        assert answer.variables == ("x",)
        assert not answer.is_empty()

    def test_accepts_parsed_formulas(self):
        engine = QueryEngine(interval_db(), cache=fresh_cache())
        assert engine.truth(parse_query("exists x. S(x)"))

    def test_rejects_free_region_vars(self):
        engine = QueryEngine(interval_db(), cache=fresh_cache())
        with pytest.raises(EvaluationError):
            engine.evaluate("sub(R, S)")

    def test_truth_rejects_free_element_vars(self):
        engine = QueryEngine(interval_db(), cache=fresh_cache())
        with pytest.raises(EvaluationError):
            engine.truth("S(x)")

    def test_two_engines_share_the_cache(self):
        cache = fresh_cache()
        first = QueryEngine(interval_db(), cache=cache)
        second = QueryEngine(interval_db(), cache=cache)
        first.truth("exists x. S(x)")
        second.truth("exists x. S(x)")
        assert second.extension is first.extension
        assert cache.stats()["extension_hits"] == 1

    def test_invalidate_resets_the_engine(self):
        cache = fresh_cache()
        engine = QueryEngine(interval_db(), cache=cache)
        engine.truth("exists x. S(x)")
        engine.invalidate()
        assert len(cache) == 0
        engine.truth("exists x. S(x)")   # rebuilds without error
        assert cache.stats()["extension_misses"] == 2

    def test_stats_shape(self):
        engine = QueryEngine(interval_db(), cache=fresh_cache())
        engine.truth("exists x. S(x)")
        stats = engine.stats()
        assert "cache" in stats
        assert stats["evaluator"]["evaluations"] > 0
        assert stats["regions"] == 9

    def test_agrees_with_default_cache_engine(self):
        # An engine on the process-default cache (what QueryEngine(db)
        # uses) answers exactly like one on a fresh cache.
        database = interval_db()
        engine = QueryEngine(database, cache=fresh_cache())
        query = "forall x. S(x) -> x < 3"
        relational = "S(x) & x < 1"
        default_engine = QueryEngine(database, cache=default_cache())
        from_helper_truth = default_engine.truth(parse_query(query))
        from_helper = default_engine.evaluate(parse_query(relational))
        assert engine.truth(query) == from_helper_truth
        assert engine.evaluate(relational).equivalent(from_helper)

    def test_shared_cache_is_the_default(self):
        engine = QueryEngine(interval_db())
        assert engine.cache is default_cache()

    def test_query_engine_emits_no_deprecation_warnings(self):
        database = interval_db()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine = QueryEngine(database)
            assert engine.truth("exists x. S(x)")
            engine.evaluate("S(x) & x < 1")
            engine.stats()

    def test_repr_mentions_fingerprint(self):
        engine = QueryEngine(interval_db(), cache=fresh_cache())
        assert engine.fingerprint[:12] in repr(engine)


class TestAnswerCache:
    """The evaluator memo is the one answer cache."""

    def test_repeat_after_delta_returns_post_delta_answer(self):
        engine = QueryEngine(interval_db(), cache=fresh_cache())
        query = "S(x) & x > 4"
        assert engine.evaluate(query).is_empty()
        engine.apply_delta(
            make_delta(("insert", "S", parse_formula("4 < x0 & x0 < 5")))
        )
        after = engine.evaluate(query)
        expected = QueryEngine(
            engine.database, cache=fresh_cache()
        ).evaluate(query)
        assert not after.is_empty()
        assert str(after.formula) == str(expected.formula)

    def test_store_gets_no_answer_entries(self, tmp_path):
        store = DiskStore(tmp_path, metrics=MetricsRegistry())
        engine = QueryEngine(
            interval_db(),
            cache=fresh_cache(),
            config=EngineConfig(cache_dir=store),
        )
        for query in ("S(x) & x < 1", "exists x. S(x)", "S(x) & x > 2"):
            engine.evaluate(query)
        assert (store.entries_root / "arrangement").exists()
        assert not (store.entries_root / "relation").exists()

    def test_repeat_without_store_is_remembered(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        engine = QueryEngine(interval_db(), cache=fresh_cache())
        assert engine._store() is None
        query = "S(x) & x < 1"
        assert engine.explain(query).plan.detail["result"] == "compute"
        first = engine.evaluate(query)
        assert engine.explain(query).plan.detail["result"] == "memory"
        metrics = engine.evaluator.metrics
        hits, evaluations = metrics.get("memo_hits"), metrics.get("evaluations")
        assert engine.evaluate(parse_query(query)) is first
        # The repeat is one root memo hit; nothing is re-evaluated.
        assert metrics.get("memo_hits") == hits + 1
        assert metrics.get("evaluations") == evaluations
        # EXPLAIN ANALYZE of the repeat reports that memo hit.
        analyzed = engine.explain(query, analyze=True).plan
        assert analyzed.children[1].cost["memo_hits"] == 1
