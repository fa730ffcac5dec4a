"""Terminal tables, sparklines, and the HTML dashboards."""

from repro.obs import (
    RunStore,
    TrendPoint,
    detect_regression,
    render_run_html,
    render_trend_html,
    run_tables,
    sparkline,
    trend_points,
    trend_table,
)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_is_mid_blocks(self):
        out = sparkline([5.0, 5.0, 5.0])
        assert len(out) == 3
        assert len(set(out)) == 1

    def test_monotone_series_ends_at_extremes(self):
        out = sparkline([0.0, 1.0, 2.0, 3.0])
        assert out[0] == "▁"  # lowest block
        assert out[-1] == "█"  # highest block

    def test_width_buckets_down(self):
        out = sparkline(list(range(100)), width=10)
        assert len(out) == 10


def _seeded_store(tmp_path):
    store = RunStore(tmp_path / "runs.db")
    run_id, _ = store.upsert_run("fp0cafe0", {
        "command": "gap", "seed": 3, "created": 10.0, "git_sha": "abc",
        "host": "box", "package_version": "0.1", "records": 12,
        "config_fingerprint": "cfg0", "ingested_at": 11.0,
        "source_path": "g.jsonl",
    })
    store.add_metrics(run_id, {
        "slots": 400.0, "slots_per_sec": 1234.5, "collisions": 7.0,
        "deliveries": 30.0, "engine_runs": 4.0, "wall_s": 0.3,
        "transmissions": 50.0, "faults": 0.0, "chunks": 0.0, "campaigns": 0.0,
        "jam_transmissions": 0.0,
    })
    store.add_series(run_id, "slots_per_sec", [(256, 1000.0), (512, 1400.0)])
    store.add_phases(run_id, [
        {"proto": "decay", "idx": 0, "count": 4, "slot_mean": 8.0,
         "mean_length": 9.0},
    ])
    return store, store.resolve_run(run_id)


class TestRunTables:
    def test_tables_render(self, tmp_path):
        store, run = _seeded_store(tmp_path)
        text = "\n\n".join(t.render() for t in run_tables(store, run))
        assert "fp0cafe0" in text
        assert "slots_per_sec" in text
        assert "decay" in text


class TestTrendTable:
    def test_rows_and_spark(self):
        points = [TrendPoint(label=f"p{i}", value=v)
                  for i, v in enumerate([100.0, 110.0, 90.0])]
        verdict = detect_regression([p.value for p in points])
        text = trend_table("slots_per_sec", points, verdict).render()
        assert "p0" in text and "p2" in text
        assert "slots_per_sec" in text


class TestHtml:
    def test_run_dashboard_self_contained(self, tmp_path):
        store, run = _seeded_store(tmp_path)
        html = render_run_html(store, run)
        assert html.startswith("<!DOCTYPE html>" ) or "<html" in html
        assert "<svg" in html  # the slots/sec series chart
        assert "fp0cafe0" in html
        # self-contained: no external fetches (the only URL is the SVG
        # xmlns namespace identifier, which browsers never dereference)
        assert "https://" not in html
        assert "<script" not in html and "<link" not in html

    def test_trend_dashboard_marks_regression(self):
        values = [100.0, 101.0, 99.0, 60.0]
        points = [TrendPoint(label=f"p{i}", value=v)
                  for i, v in enumerate(values)]
        verdict = detect_regression(values, metric="slots_per_sec")
        assert verdict["regressed"]
        html = render_trend_html("slots_per_sec", points, verdict)
        assert "<svg" in html
        assert "REGRESSED" in html
        assert "floor" in html  # the tripwire line is drawn and labelled
        assert "https://" not in html

    def test_pages_are_byte_identical_across_renders(self, tmp_path):
        # Two renders from one store must agree byte for byte, so a
        # page can be diffed or cached as a CI artifact.
        store, run = _seeded_store(tmp_path)
        store.upsert_run("fp1beef1", {
            "command": "gap", "seed": 4, "created": 20.0, "records": 9,
            "ingested_at": 21.0, "source_path": "h.jsonl",
        })
        store.add_metrics(store.resolve_run("fp1beef1")["id"],
                          {"slots_per_sec": 1100.0})
        points = trend_points(store, "slots_per_sec")
        assert len(points) == 2
        verdict = detect_regression([p.value for p in points],
                                    metric="slots_per_sec")
        run_pages = [render_run_html(store, run).encode() for _ in range(2)]
        trend_pages = [
            render_trend_html("slots_per_sec", points, verdict).encode()
            for _ in range(2)
        ]
        assert run_pages[0] == run_pages[1]
        assert trend_pages[0] == trend_pages[1]
        assert b"<svg" in run_pages[0] and b"<svg" in trend_pages[0]
