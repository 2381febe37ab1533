"""Fault injection: corrupted store entries never change an answer.

The contract of :class:`repro.store.disk.DiskStore` is that a damaged
entry — truncated, bit-flipped, or written under a foreign schema
version — is *quarantined* (moved into ``<root>/quarantine/``), counted
in ``store.corrupt_entries``, and reported as a miss, after which the
engine rebuilds and produces results identical to a cold run.
"""

import json

import pytest

from repro.arrangement.builder import build_arrangement
from repro.constraints.io import parse_formula
from repro.constraints.relation import ConstraintRelation
from repro.config import EngineConfig
from repro.engine import EngineCache, QueryEngine
from repro.obs.metrics import MetricsRegistry
from repro.store import codec
from repro.store.disk import DiskStore
from repro.workloads.generators import interval_chain


@pytest.fixture
def store(tmp_path):
    # A private metrics registry isolates the store.* counters from the
    # process-wide ones other tests increment.
    return DiskStore(tmp_path / "cache", metrics=MetricsRegistry())


def triangle() -> ConstraintRelation:
    return ConstraintRelation.make(
        ("x", "y"), parse_formula("x >= 0 & y >= 0 & x + y <= 1")
    )


def only_entry(store: DiskStore):
    entries = store._entry_files()
    assert len(entries) == 1
    return entries[0]


def truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def bit_flip(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x40
    path.write_bytes(bytes(data))


def version_bump(path):
    # A well-formed envelope from a future codec: the checksum matches
    # its own (bumped) version, so only the version check can reject it.
    envelope = json.loads(path.read_text())
    bumped = codec.SCHEMA_VERSION + 1
    envelope["schema"] = bumped
    envelope["checksum"] = codec.checksum(
        bumped, envelope["kind"], envelope["payload"]
    )
    path.write_bytes(codec.canonical_json(envelope))


CORRUPTIONS = {
    "truncate": truncate,
    "bit-flip": bit_flip,
    "version-bump": version_bump,
}


@pytest.mark.parametrize("damage", sorted(CORRUPTIONS))
def test_corrupt_arrangement_is_quarantined_and_rebuilt(store, damage):
    relation = triangle()
    cold = build_arrangement(relation, store=store)
    entry = only_entry(store)
    CORRUPTIONS[damage](entry)

    rebuilt = build_arrangement(relation, store=store)
    assert rebuilt.faces == cold.faces
    assert rebuilt.hyperplanes == cold.hyperplanes

    stats = store.stats()
    assert stats["corrupt_entries"] == 1
    assert stats["hits"] == 0
    # The bad bytes were moved aside (kept for inspection) and the
    # rebuild re-persisted a clean entry: a third build is a pure hit.
    assert list(store.quarantine_root.iterdir())
    assert codec.loads("arrangement", entry.read_bytes()) is not None
    warm = build_arrangement(relation, store=store)
    assert warm.faces == cold.faces
    assert store.stats()["hits"] == 1


@pytest.mark.parametrize("damage", sorted(CORRUPTIONS))
def test_corrupt_result_never_changes_query_answers(tmp_path, damage):
    database = interval_chain(2)
    query = "S(x) & x < 1"

    def run(store):
        engine = QueryEngine(
            database,
            cache=EngineCache(metrics=MetricsRegistry()),
            config=EngineConfig(cache_dir=store),
        )
        return engine.evaluate(query), engine.truth("exists x. S(x)")

    def answer_bytes(answer):
        return codec.canonical_json(codec._enc_relation(answer))

    store = DiskStore(tmp_path / "cache", metrics=MetricsRegistry())
    cold_answer, cold_truth = run(store)
    cold_bytes = answer_bytes(cold_answer)

    # Damage every stored entry (answer relations and the arrangement).
    for entry in store._entry_files():
        CORRUPTIONS[damage](entry)

    warm_answer, warm_truth = run(store)
    assert warm_truth == cold_truth
    assert answer_bytes(warm_answer) == cold_bytes
    stats = store.stats()
    assert stats["corrupt_entries"] >= 1
    assert stats["hits"] == 0
    assert list(store.quarantine_root.iterdir())

    # After the rebuild re-persisted clean entries, a fresh engine warm-
    # starts from them with byte-identical output.
    final_answer, final_truth = run(store)
    assert final_truth == cold_truth
    assert answer_bytes(final_answer) == cold_bytes
    assert store.stats()["hits"] > 0


def test_quarantine_names_do_not_collide(store):
    relation = triangle()
    for __ in range(3):
        build_arrangement(relation, store=store)
        entry = only_entry(store)
        bit_flip(entry)
        assert build_arrangement(relation, store=store) is not None
        # The freshly re-saved entry is damaged again on the next loop;
        # each round must land a new file in quarantine.
        bit_flip(only_entry(store))
        assert store.load("arrangement", entry.stem) is None
    assert len(list(store.quarantine_root.iterdir())) >= 3


def test_unreadable_key_is_rejected_before_disk(store):
    with pytest.raises(ValueError):
        store.load("arrangement", "../../etc/passwd")
    with pytest.raises(ValueError):
        store.entry_path("no-such-kind", "ab" * 32)


def test_unreadable_entry_is_a_miss_not_an_error(store):
    # A directory squatting on an entry path makes read_bytes() raise
    # OSError; the store must degrade to a miss, not propagate.
    key = "ab" * 32
    path = store.entry_path("arrangement", key)
    path.mkdir(parents=True)
    assert store.load("arrangement", key) is None
    assert store.stats()["misses"] == 1


def test_non_positive_size_budget_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        DiskStore(tmp_path / "cache", size_budget=0)
    with pytest.raises(ValueError):
        DiskStore(tmp_path / "cache", size_budget=-1)
