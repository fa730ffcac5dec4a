"""The perf plane end-to-end through the CLI: --perf, perf record|flame|diff,
obs explain --perf, obs trend --metric perf.* --check."""

import json
import os

import pytest

from repro.cli import main
from repro.perf import core as perf_core


@pytest.fixture(autouse=True)
def clean_perf_state():
    yield
    # A failed assertion mid-command must not leak an ambient session or
    # the env gate into later tests.
    perf_core.set_active(None)
    os.environ.pop("REPRO_PERF", None)


def _read_records(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class TestPerfFlag:
    def test_gap_with_perf_emits_records(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        code = main(["gap", "--quick", "--reps", "2", "--seed", "1",
                     "--telemetry", str(log), "--perf"])
        assert code == 0
        records = _read_records(log)
        profiles = [r for r in records if r["kind"] == "perf_profile"]
        assert len(profiles) == 1
        assert profiles[0]["samples"] >= 0
        assert profiles[0]["hz"] == 97
        spans = [r for r in records if r["kind"] == "perf_span"]
        assert {"engine.run", "engine.slot_batch"} <= {s["label"] for s in spans}
        assert "[perf]" in capsys.readouterr().out
        # Session torn down and env gate restored.
        assert perf_core.get_active() is None
        assert "REPRO_PERF" not in os.environ

    def test_perf_out_writes_artifacts(self, tmp_path, capsys):
        base = tmp_path / "prof"
        code = main(["gap", "--quick", "--reps", "2", "--seed", "1",
                     "--perf", "--perf-hz", "250", "--perf-out", str(base)])
        assert code == 0
        folded = (tmp_path / "prof.folded").read_text(encoding="utf-8")
        html = (tmp_path / "prof.html").read_text(encoding="utf-8")
        assert html.startswith("<!doctype html>")
        out = capsys.readouterr().out
        assert "250 Hz" in out
        # Without --telemetry the span attribution prints to stdout.
        assert "engine.run" in out

    def test_manifest_excludes_perf_config(self, tmp_path):
        log = tmp_path / "run.jsonl"
        code = main(["gap", "--quick", "--reps", "2", "--seed", "1",
                     "--telemetry", str(log), "--perf"])
        assert code == 0
        manifest = json.loads(
            (tmp_path / "run.jsonl.manifest.json").read_text(encoding="utf-8")
        )
        assert "perf" not in manifest["config"]
        assert "perf_hz" not in manifest["config"]


class TestPerfRecord:
    def test_record_writes_folded_and_flamegraph(self, tmp_path, capsys):
        base = tmp_path / "rec"
        code = main(["perf", "record", "--out", str(base), "--hz", "250",
                     "gap", "--quick", "--reps", "2", "--seed", "1"])
        assert code == 0
        assert (tmp_path / "rec.folded").exists()
        assert (tmp_path / "rec.html").read_text(encoding="utf-8").startswith(
            "<!doctype html>"
        )
        out = capsys.readouterr().out
        assert "[perf]" in out
        assert "Hottest frames" in out

    def test_record_requires_a_command(self):
        with pytest.raises(SystemExit):
            main(["perf", "record"])

    def test_record_refuses_recursion(self):
        with pytest.raises(SystemExit):
            main(["perf", "record", "perf", "record", "gap"])


class TestPerfFlameAndDiff:
    def test_flame_from_folded(self, tmp_path, capsys):
        folded = tmp_path / "p.folded"
        folded.write_text("main;hot 9\nmain;cold 1\n", encoding="utf-8")
        out_html = tmp_path / "p.html"
        code = main(["perf", "flame", str(folded), "--out", str(out_html)])
        assert code == 0
        assert "hot" in out_html.read_text(encoding="utf-8")

    def test_flame_is_byte_stable(self, tmp_path):
        folded = tmp_path / "p.folded"
        folded.write_text("main;hot 9\nmain;cold 1\n", encoding="utf-8")
        a, b = tmp_path / "a.html", tmp_path / "b.html"
        main(["perf", "flame", str(folded), "--out", str(a)])
        main(["perf", "flame", str(folded), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_flame_rejects_empty_input(self, tmp_path):
        empty = tmp_path / "empty.folded"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["perf", "flame", str(empty), "--out", str(tmp_path / "x.html")])

    def test_diff_reports_drift(self, tmp_path, capsys):
        before = tmp_path / "before.folded"
        after = tmp_path / "after.folded"
        before.write_text("main;fast 90\nmain;slow 10\n", encoding="utf-8")
        after.write_text("main;fast 50\nmain;slow 50\n", encoding="utf-8")
        code = main(["perf", "diff", str(before), str(after), "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["frame"] == "slow"
        assert rows[0]["delta_share"] == pytest.approx(0.4)


class TestObsPerf:
    @pytest.fixture()
    def ingested(self, tmp_path):
        log = tmp_path / "run.jsonl"
        db = tmp_path / "runs.db"
        code = main(["gap", "--quick", "--reps", "2", "--seed", "1",
                     "--telemetry", str(log), "--perf",
                     "--obs-db", str(db)])
        assert code == 0
        return db

    def test_obs_perf_overview(self, ingested, capsys):
        code = main(["obs", "explain", str(ingested), "--perf", "--json"])
        assert code == 0
        overview = json.loads(capsys.readouterr().out)
        assert overview["samples"] is not None
        labels = {row["label"] for row in overview["spans"]}
        assert "engine.run" in labels
        assert "hotspots" not in overview

    def test_obs_perf_metric_trend_gate(self, ingested, capsys):
        # One point: nothing to compare against -> the gate passes.
        code = main(["obs", "trend", str(ingested),
                     "--metric", "perf.span.engine.run.secs", "--check"])
        assert code == 0

    def test_obs_explain_perf(self, ingested, capsys):
        code = main(["obs", "explain", str(ingested), "--perf"])
        assert code == 0
        out = capsys.readouterr().out
        assert "perf.span.engine.run.secs" in out
        assert "Span costs (sampled time + traced memory)" in out
        # The flag selects what to print; it must NOT profile the
        # explain command itself.
        assert "[perf]" not in out

    def test_obs_perf_without_perf_metrics_fails(self, tmp_path, capsys):
        log = tmp_path / "plain.jsonl"
        db = tmp_path / "plain.db"
        code = main(["gap", "--quick", "--reps", "2", "--seed", "1",
                     "--telemetry", str(log), "--obs-db", str(db)])
        assert code == 0
        # Bad invocation (no perf data to inspect) is exit code 2 —
        # distinct from 1, the regression verdict of --check.
        code = main(["obs", "explain", str(db), "--perf"])
        assert code == 2
        assert "no perf metrics" in capsys.readouterr().err
