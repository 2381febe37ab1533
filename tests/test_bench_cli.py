"""Smoke tests for ``repro bench`` and the benchmark runners."""

import io
import json

from repro.bench import BENCHMARKS, run_bench_e2, run_bench_e3
from repro.cli import main


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestBenchRunners:
    def test_e2_record_shape(self):
        record = run_bench_e2(sizes=(2, 3))
        assert record["benchmark"] == "E2"
        assert record["sizes"] == [2, 3]
        assert record["all_match"] is True
        assert record["largest_speedup"] is not None
        for row in record["results"]:
            assert row["match"] is True
            assert row["faces"] > 0
            assert row["lp_skipped"] > 0

    def test_e3_record_shape(self):
        record = run_bench_e3(sizes=(20,))
        assert record["benchmark"] == "E3"
        assert record["all_match"] is True
        assert "jobs" not in record["metadata"]
        assert record["metadata"]["lp_mode"] in ("exact", "filtered")
        for row in record["results"]:
            assert row["match"] is True
            assert row["systems"] == 20
            # The float tier must decide most systems; fallbacks and
            # certification retries are legal but bounded by the batch.
            assert row["filter_hits"] > 0
            assert row["filter_hits"] + row["filter_fallbacks"] >= 0

    def test_e3_is_deterministic_under_its_seed(self):
        first = run_bench_e3(sizes=(10,), seed=7)
        second = run_bench_e3(sizes=(10,), seed=7)
        assert [row["filter_hits"] for row in first["results"]] == \
            [row["filter_hits"] for row in second["results"]]

    def test_registry_names_files(self):
        assert BENCHMARKS["e2"][1] == "BENCH_E2.json"
        assert BENCHMARKS["e3"][1] == "BENCH_E3.json"

    def test_records_carry_lp_mode_metadata(self):
        record = run_bench_e2(sizes=(2,))
        assert record["metadata"]["lp_mode"] in ("exact", "filtered")
        assert "jobs" not in record and "jobs" not in record["metadata"]

    def test_records_carry_executor_backend_metadata(self):
        record = run_bench_e2(sizes=(2,))
        assert record["metadata"]["executor"] in ("compiled", "interpreted")
        # Ground fixpoints have one (in-memory) backend; no key names it.
        assert "backend" not in record["metadata"]

    def test_write_record_refuses_missing_metadata(self, tmp_path):
        import pytest

        from repro.bench import write_record

        record = run_bench_e2(sizes=(2,), check_only=True)
        del record["metadata"]["executor"]
        with pytest.raises(ValueError, match="executor"):
            write_record(record, str(tmp_path / "bad.json"))
        assert not (tmp_path / "bad.json").exists()

    def test_write_record_refuses_unset_required_values(self, tmp_path):
        import pytest

        from repro.bench import write_record

        record = run_bench_e2(sizes=(2,), check_only=True)
        record["metadata"]["executor"] = None
        with pytest.raises(ValueError, match="executor"):
            write_record(record, str(tmp_path / "bad.json"))

    def test_write_record_allows_null_git_sha(self, tmp_path):
        from repro.bench import write_record

        record = run_bench_e2(sizes=(2,), check_only=True)
        record["metadata"]["git_sha"] = None
        write_record(record, str(tmp_path / "ok.json"))
        assert (tmp_path / "ok.json").exists()


class TestBenchCommand:
    def test_bench_e2_check_only(self):
        code, text = run_cli(
            "bench", "e2", "--sizes", "2,3", "--check-only"
        )
        assert code == 0
        record = json.loads(text)
        assert record["check_only"] is True
        assert record["all_match"] is True

    def test_bench_e3_writes_output(self, tmp_path):
        target = tmp_path / "BENCH_E3.json"
        code, text = run_cli(
            "bench", "e3", "--sizes", "5", "--check-only",
            "--output", str(target),
        )
        assert code == 0
        record = json.loads(target.read_text())
        assert record["benchmark"] == "E3"
        assert f"wrote {target}" in text

    def test_bench_rejects_bad_sizes(self):
        code, text = run_cli("bench", "e2", "--sizes", "2,banana")
        assert code == 2
        assert "comma-separated integers" in text

    def test_bench_e3_check_only(self):
        code, text = run_cli(
            "bench", "e3", "--sizes", "15", "--check-only"
        )
        assert code == 0
        record = json.loads(text)
        assert record["benchmark"] == "E3"
        assert record["all_match"] is True

    def test_bench_respects_lp_mode_flag(self):
        code, text = run_cli(
            "bench", "e2", "--sizes", "2", "--check-only",
            "--lp-mode", "exact",
        )
        assert code == 0
        record = json.loads(text)
        assert record["metadata"]["lp_mode"] == "exact"


class TestBenchMetadataAndHistory:
    def test_metadata_carries_provenance(self):
        from datetime import datetime
        import platform

        record = run_bench_e2(sizes=(2,), check_only=True)
        metadata = record["metadata"]
        assert metadata["python_version"] == platform.python_version()
        # Parseable ISO-8601 UTC stamp.
        stamp = datetime.fromisoformat(metadata["timestamp_utc"])
        assert stamp.tzinfo is not None
        sha = metadata["git_sha"]
        assert sha is None or (
            len(sha) == 40 and all(c in "0123456789abcdef" for c in sha)
        )
        assert metadata["git_dirty"] in (None, True, False)
        assert (metadata["git_dirty"] is None) == (sha is None)

    def test_git_dirty_reads_porcelain_status(self, monkeypatch):
        import repro.bench as bench

        outputs = {"": False, " M src/repro/bench.py\n": True,
                   "?? notes.txt\n": True, None: None}
        for status, dirty in outputs.items():
            monkeypatch.setattr(bench, "_git", lambda *args: status)
            assert bench._git_dirty() is dirty

    def test_write_record_allows_null_git_dirty(self, tmp_path):
        from repro.bench import write_record

        record = run_bench_e2(sizes=(2,), check_only=True)
        record["metadata"]["git_dirty"] = None
        write_record(record, str(tmp_path / "ok.json"))
        del record["metadata"]["git_dirty"]
        import pytest

        with pytest.raises(ValueError, match="git_dirty"):
            write_record(record, str(tmp_path / "bad.json"))
