"""Smoke tests for ``repro bench`` and the benchmark runners."""

import io
import json

from repro.bench import (
    BENCHMARKS,
    run_bench_e2,
    run_bench_e3,
    run_bench_e14,
    run_bench_e15,
)
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
        assert record["metadata"]["jobs"] == 1
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

    def test_e15_record_shape(self):
        record = run_bench_e15(sizes=(1, 2))
        assert record["benchmark"] == "E15"
        assert record["all_match"] is True
        for row in record["results"]:
            assert row["match"] is True
            assert row["converged"] is True
            assert row["stages"] == row["k"] + 1

    def test_e14_record_shape(self):
        record = run_bench_e14(sizes=(3,))
        assert record["benchmark"] == "E14"
        assert record["all_match"] is True
        assert record["geomean_speedup"] is not None
        for row in record["results"]:
            assert row["match"] is True

    def test_registry_names_files(self):
        assert BENCHMARKS["e2"][1] == "BENCH_E2.json"
        assert BENCHMARKS["e3"][1] == "BENCH_E3.json"
        assert BENCHMARKS["e14"][1] == "BENCH_E14.json"
        assert BENCHMARKS["e15"][1] == "BENCH_E15.json"

    def test_records_carry_lp_mode_metadata(self):
        record = run_bench_e2(sizes=(2,))
        assert record["metadata"]["lp_mode"] in ("exact", "filtered")
        assert record["metadata"]["jobs"] == record["jobs"]

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

    def test_bench_e15_writes_output(self, tmp_path):
        target = tmp_path / "BENCH_E15.json"
        code, text = run_cli(
            "bench", "e15", "--sizes", "1", "--check-only",
            "--output", str(target),
        )
        assert code == 0
        record = json.loads(target.read_text())
        assert record["benchmark"] == "E15"
        assert f"wrote {target}" in text

    def test_bench_rejects_bad_sizes(self):
        code, text = run_cli("bench", "e2", "--sizes", "2,banana")
        assert code == 2
        assert "comma-separated integers" in text

    def test_bench_e2_jobs_flag(self):
        code, text = run_cli(
            "bench", "e2", "--sizes", "2", "--check-only", "--jobs", "2",
        )
        assert code == 0
        record = json.loads(text)
        assert record["jobs"] == 2

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

    def test_history_line_shape(self):
        from repro.bench import history_line

        record = run_bench_e2(sizes=(2,), check_only=True)
        line = history_line(record)
        assert line["benchmark"] == "E2"
        assert line["sizes"] == [2]
        assert line["all_match"] is True
        assert line["timestamp_utc"] == \
            record["metadata"]["timestamp_utc"]
        assert line["git_sha"] == record["metadata"]["git_sha"]

    def test_append_history_cli_accumulates(self, tmp_path):
        path = tmp_path / "BENCH_HISTORY.jsonl"
        for _ in range(2):
            code, text = run_cli(
                "bench", "e2", "--sizes", "2", "--check-only",
                "--append-history", str(path),
            )
            assert code == 0
            assert f"appended history to {path}" in text
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            entry = json.loads(line)
            assert entry["benchmark"] == "E2"
            assert entry["python_version"]

    def test_history_line_carries_regression_signal(self):
        from repro.bench import history_line

        record = run_bench_e2(sizes=(2,), check_only=True)
        line = history_line(record)
        assert line["executor"] is not None
        assert line["fast_total_s"] > 0


class TestRegressionSentryCli:
    def test_no_history_passes_with_verdict(self, tmp_path):
        path = tmp_path / "history.jsonl"
        code, text = run_cli(
            "bench", "e2", "--sizes", "2", "--check-only",
            "--check-regression", "--history", str(path),
        )
        assert code == 0
        assert '"status": "no-history"' in text

    def test_matching_history_is_ok(self, tmp_path):
        path = tmp_path / "history.jsonl"
        for __ in range(2):
            code, __text = run_cli(
                "bench", "e2", "--sizes", "2", "--check-only",
                "--append-history", str(path),
            )
            assert code == 0
        code, text = run_cli(
            "bench", "e2", "--sizes", "2", "--check-only",
            "--check-regression", "--history", str(path),
            "--tolerance", "10.0",  # generous: CI machines are noisy
        )
        assert code == 0
        assert '"status": "ok"' in text

    def test_regression_exits_3(self, tmp_path):
        from repro.bench import history_line

        path = tmp_path / "history.jsonl"
        record = run_bench_e2(sizes=(2,), check_only=True)
        # Fabricate an impossibly fast history so the real (honest) run
        # reads as a regression against it.
        line = history_line(record)
        line["fast_total_s"] = 1e-9
        with open(path, "w") as handle:
            handle.write(json.dumps(line) + "\n")
        code, text = run_cli(
            "bench", "e2", "--sizes", "2", "--check-only",
            "--check-regression", "--history", str(path),
        )
        assert code == 3
        assert '"status": "regression"' in text
        assert "error: performance regression" in text

    def test_regressing_run_still_lands_in_history(self, tmp_path):
        from repro.bench import history_line

        path = tmp_path / "history.jsonl"
        record = run_bench_e2(sizes=(2,), check_only=True)
        line = history_line(record)
        line["fast_total_s"] = 1e-9
        with open(path, "w") as handle:
            handle.write(json.dumps(line) + "\n")
        code, __ = run_cli(
            "bench", "e2", "--sizes", "2", "--check-only",
            "--check-regression", "--history", str(path),
            "--append-history", str(path),
        )
        assert code == 3
        assert len(path.read_text().strip().splitlines()) == 2
