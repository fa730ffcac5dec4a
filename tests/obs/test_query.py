"""Trend series, the regression detector, A/B compare, store explain."""

import pytest

from repro.errors import ExperimentError
from repro.obs import (
    RunStore,
    compare_runs,
    detect_regression,
    explain_from_store,
    metric_direction,
    trend_points,
)


def _seed_runs(store, values, metric="slots_per_sec"):
    ids = []
    for i, value in enumerate(values):
        run_id, _ = store.upsert_run(
            f"fp{i:04d}",
            {"created": float(i), "records": 1, "command": "gap", "seed": i},
        )
        store.add_metrics(run_id, {metric: value})
        ids.append(run_id)
    return ids


class TestDirections:
    def test_throughput_up_is_better(self):
        assert metric_direction("slots_per_sec") == "up"
        assert metric_direction("combined_slots_per_sec") == "up"

    def test_costs_down_is_better(self):
        assert metric_direction("collisions") == "down"
        assert metric_direction("wall_s") == "down"


class TestDetectRegression:
    def test_injected_20pct_drop_flags(self):
        verdict = detect_regression(
            [100.0, 101.0, 99.0, 79.0], metric="slots_per_sec"
        )
        assert verdict["regressed"]
        assert verdict["baseline"] == 100.0
        assert verdict["change"] == pytest.approx(-0.21)

    def test_small_wobble_passes(self):
        verdict = detect_regression(
            [100.0, 101.0, 99.0, 95.0], metric="slots_per_sec"
        )
        assert not verdict["regressed"]

    def test_median_baseline_shrugs_off_one_outlier(self):
        # One freak slow run in the window must not poison the baseline:
        # median of [100, 5, 101] is 100, not ~69 as a mean would give.
        verdict = detect_regression(
            [100.0, 5.0, 101.0, 99.0], metric="slots_per_sec",
        )
        assert verdict["baseline"] == pytest.approx(100.0)
        assert not verdict["regressed"]

    def test_downward_metric_regresses_upward(self):
        verdict = detect_regression(
            [10.0, 10.0, 10.0, 13.0], metric="collisions"
        )
        assert verdict["direction"] == "down"
        assert verdict["regressed"]

    def test_short_series_never_regresses(self):
        assert not detect_regression([50.0], metric="slots_per_sec")["regressed"]
        assert not detect_regression([], metric="slots_per_sec")["regressed"]

    def test_zero_baseline(self):
        up = detect_regression([0.0, 0.0], metric="slots_per_sec")
        assert not up["regressed"]
        down = detect_regression([0.0, 3.0], metric="collisions")
        assert down["regressed"]

    def test_custom_threshold_and_window(self):
        values = [100.0, 90.0, 95.0, 88.0]
        strict = detect_regression(values, threshold=0.05, metric="slots_per_sec")
        assert strict["regressed"]
        lax = detect_regression(values, threshold=0.5, metric="slots_per_sec")
        assert not lax["regressed"]
        k1 = detect_regression(values, baseline_k=1, metric="slots_per_sec")
        assert k1["baseline"] == 95.0

    def test_bad_parameters(self):
        with pytest.raises(ExperimentError):
            detect_regression([1.0], threshold=0.0)
        with pytest.raises(ExperimentError):
            detect_regression([1.0], baseline_k=0)
        with pytest.raises(ExperimentError):
            detect_regression([1.0], direction="sideways")


class TestTrendPoints:
    def test_runs_source(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            _seed_runs(store, [10.0, 20.0, 30.0])
            points = trend_points(store, "slots_per_sec")
            assert [p.value for p in points] == [10.0, 20.0, 30.0]

    def test_bench_source(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            for i, v in enumerate([100.0, 110.0]):
                store.add_bench_point(f"b{i}", {
                    "schema": "repro-bench-engine/1", "recorded": float(i),
                    "git_sha": f"sha{i}", "combined_slots_per_sec": v,
                    "topologies": {"grid-16x16": {"slots_per_sec": v / 2}},
                })
            combined = trend_points(store, "combined_slots_per_sec", source="bench")
            assert [p.value for p in combined] == [100.0, 110.0]
            per_topo = trend_points(store, "grid-16x16.slots_per_sec", source="bench")
            assert [p.value for p in per_topo] == [50.0, 55.0]

    def test_unknown_source(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            with pytest.raises(ExperimentError, match="unknown trend source"):
                trend_points(store, "slots_per_sec", source="nope")


class TestCompare:
    def test_diff_rows(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            a, b = _seed_runs(store, [100.0, 150.0])
            result = compare_runs(store, "prev", "latest")
            assert result["a"]["id"] == a and result["b"]["id"] == b
            (row,) = [r for r in result["diff"] if r["metric"] == "slots_per_sec"]
            assert row["delta"] == pytest.approx(50.0)
            assert row["pct"] == pytest.approx(50.0)

    def test_one_sided_metric(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            a, b = _seed_runs(store, [100.0, 150.0])
            store.add_metrics(b, {"faults": 3.0})
            result = compare_runs(store, a, b)
            (row,) = [r for r in result["diff"] if r["metric"] == "faults"]
            assert row["a"] is None and row["b"] == 3.0
            assert row["delta"] is None and row["pct"] is None


class TestExplainFromStore:
    def _store_with_prov(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        run_id, _ = store.upsert_run("fp0", {"created": 1.0})
        store.add_provenance(run_id, [
            {"engine_run": "r1", "slot": 4, "node": "v",
             "outcome": "collision", "tx": ["a", "b"]},
            {"engine_run": "r2", "slot": 4, "node": "v",
             "outcome": "delivered", "tx": ["a"]},
            {"engine_run": "r1", "slot": 9, "node": "v",
             "outcome": "silence", "tx": []},
        ])
        return store, run_id

    def test_hit_counts_other_engine_runs(self, tmp_path):
        store, run_id = self._store_with_prov(tmp_path)
        result = explain_from_store(store, run_id, "v", 4)
        assert result["found"]
        assert result["others"] == 1
        assert "COLLISION" in result["answer"]
        assert "[engine run r1]" in result["answer"]

    def test_engine_run_filter(self, tmp_path):
        store, run_id = self._store_with_prov(tmp_path)
        result = explain_from_store(store, run_id, "v", 4, engine_run="r2")
        assert result["others"] == 0
        assert "RECEIVED" in result["answer"]

    def test_miss_reports_nearby_slots(self, tmp_path):
        store, run_id = self._store_with_prov(tmp_path)
        result = explain_from_store(store, run_id, "v", 7)
        assert not result["found"]
        assert {e["slot"] for e in result["nearby"]} == {4, 9}

    def test_no_provenance_raises(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            run_id, _ = store.upsert_run("fp0", {"created": 1.0})
            with pytest.raises(ExperimentError, match="no provenance rows"):
                explain_from_store(store, run_id, "v", 0)


class TestTrendUnknownMetric:
    """``obs trend --check`` exits 2 for a metric no point of the source
    carries, so a typo'd gate never reads as a pass."""

    def _trend(self, capsys, db, metric, *extra):
        from repro.cli import main

        code = main(["obs", "trend", str(db), "--metric", metric, "--check", *extra])
        return code, capsys.readouterr().err

    def test_runs_source(self, capsys, tmp_path):
        db = tmp_path / "runs.db"
        with RunStore(db) as store:
            _seed_runs(store, [10.0, 20.0, 30.0])
        code, err = self._trend(capsys, db, "slots_per_sek")
        assert code == 2
        assert "slots_per_sek" in err

    def test_bench_source(self, capsys, tmp_path):
        db = tmp_path / "runs.db"
        with RunStore(db) as store:
            store.add_bench_point("b0", {
                "recorded": 0.0, "combined_slots_per_sec": 100.0,
                "topologies": {"grid-16x16": {"slots_per_sec": 50.0}},
            })
        code, err = self._trend(capsys, db, "torus.slots_per_sec", "--source", "bench")
        assert code == 2
        assert "torus.slots_per_sec" in err

    def test_known_metric_with_few_points_passes(self, capsys, tmp_path):
        db = tmp_path / "runs.db"
        RunStore(db).close()
        # No runs yet: zero points checked nothing, as `monitor --gate`
        # over an empty log.
        code, err = self._trend(capsys, db, "slots_per_sec")
        assert code == 2
        assert "checked nothing" in err
        with RunStore(db) as store:
            _seed_runs(store, [10.0])
        assert self._trend(capsys, db, "slots_per_sec")[0] == 0
