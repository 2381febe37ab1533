"""Tests for the structured event journal and tracing edge cases.

Covers the ring buffer (bounds, drop counting), the JSONL sink, and the
central replay contract: folding a journal back into the exact span
tree the tracer built — byte-identical ``to_dict`` output — whether the
events come from the in-memory ring or from a JSONL file on disk.  Also
pins down the tracer behaviours the journal relies on: spans close and
re-raise on exceptions, and concurrent spans from a thread pool never
corrupt the tree.
"""

import concurrent.futures
import json
import sys

import pytest

from repro.obs import reset_all
from repro.obs.journal import (
    JOURNAL,
    Journal,
    journal_enabled,
    journal_scope,
    load_events,
)
from repro.obs.tracing import TRACER, replay, span


@pytest.fixture(autouse=True)
def _clean_slate():
    reset_all()
    yield
    reset_all()


def _tree(root) -> str:
    return json.dumps(root.to_dict(), sort_keys=True)


class TestJournalBuffer:
    def test_disabled_by_default(self):
        assert not journal_enabled()
        JOURNAL.emit("meta", note="dropped on the floor")
        assert len(JOURNAL) == 0

    def test_emit_and_stop(self):
        JOURNAL.start()
        JOURNAL.emit("meta", note="one")
        JOURNAL.emit("cache", layer="store", outcome="hit")
        events = JOURNAL.stop()
        assert [e["type"] for e in events] == ["meta", "cache"]
        assert [e["seq"] for e in events] == [0, 1]
        assert not JOURNAL.enabled

    def test_ring_is_bounded_and_counts_drops(self):
        journal = Journal(capacity=4)
        journal.start()
        for i in range(10):
            journal.emit("meta", i=i)
        events = journal.stop()
        assert len(events) == 4
        assert journal.dropped == 6
        assert [e["i"] for e in events] == [6, 7, 8, 9]

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "run.jsonl"
        JOURNAL.start(str(path))
        JOURNAL.emit("meta", command="test")
        JOURNAL.emit("counter", name="lp.solves", delta=3)
        JOURNAL.stop()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        loaded = load_events(path)
        assert loaded[0]["command"] == "test"
        assert loaded[1]["delta"] == 3

    def test_journal_scope(self, tmp_path):
        path = tmp_path / "scoped.jsonl"
        with journal_scope(str(path)) as journal:
            journal.emit("meta", scoped=True)
            assert journal_enabled()
        assert not journal_enabled()
        assert load_events(path)[0]["scoped"] is True


class TestReplay:
    def _run_traced_work(self):
        TRACER.start("unit")
        with TRACER.span("outer") as outer:
            outer.set("k", 1)
            with TRACER.span("inner", aggregate=True) as inner:
                inner.add("calls_like", 2)
            with TRACER.span("inner", aggregate=True):
                pass
        return TRACER.stop()

    def test_replay_matches_live_tree_from_ring(self):
        JOURNAL.start()
        live = self._run_traced_work()
        events = JOURNAL.stop()
        result = replay(events)
        assert _tree(result.root) == _tree(live)

    def test_replay_matches_live_tree_from_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        JOURNAL.start(str(path))
        live = self._run_traced_work()
        JOURNAL.stop()
        result = replay(str(path))
        assert _tree(result.root) == _tree(live)

    def test_replay_keeps_non_span_events(self):
        JOURNAL.start()
        JOURNAL.emit("cache", layer="engine", outcome="miss")
        self._run_traced_work()
        events = JOURNAL.stop()
        result = replay(events)
        assert result.events_of_type("cache")
        assert result.root is not None


class TestTracingEdges:
    def test_exception_closes_span_and_reraises(self):
        TRACER.start("unit")
        with pytest.raises(ValueError, match="boom"):
            with TRACER.span("failing"):
                raise ValueError("boom")
        # The span must have been closed and adopted despite the raise:
        # a sibling span opened afterwards lands at the same depth.
        with TRACER.span("after"):
            pass
        root = TRACER.stop()
        assert [child.name for child in root.children] == \
            ["failing", "after"]

    def test_thread_pool_spans_do_not_corrupt_tree(self):
        TRACER.start("unit")

        def work(index: int) -> int:
            with span(f"worker-{index}"):
                with span("step"):
                    pass
            return index

        with TRACER.span("fanout"):
            with concurrent.futures.ThreadPoolExecutor(
                max_workers=4
            ) as pool:
                assert sorted(pool.map(work, range(8))) == list(range(8))
        root = TRACER.stop()
        names = {child.name for child in root.children}
        # Worker threads have no parent frame on their own stacks, so
        # their spans adopt at the root, never inside each other.
        assert "fanout" in names
        workers = [
            child for child in root.children
            if child.name.startswith("worker-")
        ]
        assert len(workers) == 8
        for worker in workers:
            assert [c.name for c in worker.children] == ["step"]

    def test_thread_pool_under_journal_replays_cleanly(self):
        JOURNAL.start()
        TRACER.start("unit")

        def work(index: int) -> None:
            with span("job", aggregate=True):
                pass

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(work, range(16)))
        live = TRACER.stop()
        events = JOURNAL.stop()
        assert _tree(replay(events).root) == _tree(live)

    def test_two_threads_replay_to_the_live_tree(self):
        """Spans closing on two threads at once: the journal records the
        closes in the order the live tree adopted them, so the replay
        equals the live root — child order and last-wins attributes
        included."""
        import threading

        barrier = threading.Barrier(2)

        def work(worker: int) -> None:
            barrier.wait(timeout=10)
            for index in range(200):
                with span(f"w{worker}-{index}", worker=worker):
                    with span("step", aggregate=True, last=index):
                        pass
                with span("shared", aggregate=True, last=f"{worker}"):
                    pass

        JOURNAL.start()
        TRACER.start("unit")
        threads = [
            threading.Thread(target=work, args=(worker,))
            for worker in range(2)
        ]
        # Switch threads as often as possible, so closes interleave.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        live = TRACER.stop()
        events = JOURNAL.stop()
        assert len(live.children) == 401
        assert replay(events).root.to_dict() == live.to_dict()

