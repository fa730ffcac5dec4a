"""Campaign autopsy: timeline replay, attribution, cross-checks."""

import json

import pytest

from repro.errors import ExperimentError
from repro.fabric.store import LeaseStore, store_event_record
from repro.fabric.autopsy import autopsy, land_autopsy, render_autopsy_html

FINGERPRINT = "feed" * 16


def scripted_store(tmp_path):
    """A deterministic two-chunk drill: one takeover, one stale commit.

    w0 and w1 each claim a chunk; w1 is killed, its lease expires, w0
    takes chunk 1 over under fence 2 and commits both chunks; w1's
    late commit under fence 1 bounces off the fencing check.
    """
    store = LeaseStore(tmp_path / "fab.db")
    campaign_id = store.create_campaign(
        FINGERPRINT, spec="slow-squares", params={"n": 2},
        items=2, chunksize=1,
    )
    store.log_worker_event(campaign_id, "w0", "worker_start")
    store.log_worker_event(campaign_id, "w1", "worker_start")
    lease0 = store.claim(campaign_id, "w0", ttl=30.0, now=0.0)
    stale = store.claim(campaign_id, "w1", ttl=1.0, now=0.1)
    assert (lease0.index, stale.index) == (0, 1)
    store.log_worker_event(campaign_id, "w1", "fault", idx=1, fence=1,
                           detail="kill")
    taken = store.claim(campaign_id, "w0", ttl=1.0, now=2.0)
    assert taken.index == 1 and taken.fence == 2
    assert store.commit(taken, "w0", payload=json.dumps([1]), now=2.1)
    assert not store.commit(stale, "w1", payload=json.dumps([666]), now=2.2)
    assert store.commit(lease0, "w0", payload=json.dumps([0]), now=2.3)
    store.log_worker_event(campaign_id, "w0", "worker_exit",
                           detail="done, committed=2")
    return store, campaign_id


def write_journal(path, payloads, *, fingerprint=FINGERPRINT):
    with path.open("w", encoding="utf-8") as stream:
        stream.write(json.dumps({"kind": "header", "fingerprint": fingerprint})
                     + "\n")
        for index, payload in sorted(payloads.items()):
            stream.write(json.dumps({"kind": "chunk", "index": index,
                                     "payload": payload}) + "\n")
    return path


class TestReplay:
    def test_clean_drill_passes_with_full_attribution(self, tmp_path):
        store, _ = scripted_store(tmp_path)
        store.close()
        report = autopsy(tmp_path / "fab.db")
        assert report.passed, report.render()
        assert report.violations == []
        assert report.takeovers == 1
        assert report.fence_rejects == 1
        # Every committed chunk is attributable to exactly one fenced
        # holder — the acceptance criterion, read off the report.
        assert report.attribution() == {0: ("w0", 1), 1: ("w0", 2)}
        assert report.workers["w1"]["fence_rejects"] == 1
        assert report.workers["w1"]["faults"] == 1
        assert report.workers["w0"]["exit_detail"] == "done, committed=2"

    def test_render_is_byte_stable(self, tmp_path):
        store, _ = scripted_store(tmp_path)
        store.close()
        first = autopsy(tmp_path / "fab.db")
        second = autopsy(tmp_path / "fab.db")
        assert first.render() == second.render()
        assert (json.dumps(first.to_json(), sort_keys=True, default=repr)
                == json.dumps(second.to_json(), sort_keys=True, default=repr))
        assert render_autopsy_html(first) == render_autopsy_html(second)

    def test_forged_duplicate_commit_is_a_violation(self, tmp_path):
        store, campaign_id = scripted_store(tmp_path)
        # Forge a second commit event for chunk 0: the replay must flag
        # it even though the chunks table itself looks consistent.
        store.log_worker_event(campaign_id, "w1", "commit", idx=0, fence=1)
        store.close()
        report = autopsy(tmp_path / "fab.db")
        assert not report.passed
        assert any("chunk 0" in v for v in report.violations)

    def test_empty_store_raises(self, tmp_path):
        LeaseStore(tmp_path / "fab.db").close()
        with pytest.raises(ExperimentError):
            autopsy(tmp_path / "fab.db")

    def test_campaign_prefix_selects(self, tmp_path):
        store, _ = scripted_store(tmp_path)
        store.close()
        report = autopsy(tmp_path / "fab.db", FINGERPRINT[:8])
        assert report.fingerprint == FINGERPRINT
        with pytest.raises(ExperimentError):
            autopsy(tmp_path / "fab.db", "bogus")


class TestJournalCheck:
    def test_matching_journal_passes(self, tmp_path):
        store, campaign_id = scripted_store(tmp_path)
        payloads = store.completed_payloads(campaign_id)
        store.close()
        journal = write_journal(tmp_path / "fab.journal.jsonl", payloads)
        report = autopsy(tmp_path / "fab.db", journal=journal)
        assert report.journal_check["matched"], report.journal_check
        assert report.passed

    def test_diverged_journal_fails_the_autopsy(self, tmp_path):
        store, campaign_id = scripted_store(tmp_path)
        payloads = store.completed_payloads(campaign_id)
        store.close()
        payloads[1] = json.dumps([999])  # the splice lied
        journal = write_journal(tmp_path / "fab.journal.jsonl", payloads)
        report = autopsy(tmp_path / "fab.db", journal=journal)
        assert not report.journal_check["matched"]
        assert not report.passed
        assert any("chunk 1" in p for p in report.journal_check["problems"])

    def test_foreign_journal_is_flagged(self, tmp_path):
        store, campaign_id = scripted_store(tmp_path)
        payloads = store.completed_payloads(campaign_id)
        store.close()
        journal = write_journal(tmp_path / "other.jsonl", payloads,
                                fingerprint="beef" * 16)
        report = autopsy(tmp_path / "fab.db", journal=journal)
        assert any("belongs to campaign" in p
                   for p in report.journal_check["problems"])

    def test_non_object_line_is_a_problem_not_a_crash(self, tmp_path):
        store, campaign_id = scripted_store(tmp_path)
        payloads = store.completed_payloads(campaign_id)
        store.close()
        journal = write_journal(tmp_path / "fab.journal.jsonl", payloads)
        header, *chunks = journal.read_text(encoding="utf-8").splitlines(True)
        journal.write_text("".join([header, "[1, 2]\n", *chunks]),
                           encoding="utf-8")
        report = autopsy(tmp_path / "fab.db", journal=journal)
        assert not report.journal_check["matched"]
        assert not report.passed
        assert any("not JSON objects" in p
                   for p in report.journal_check["problems"])
        # The good chunk records around the bad line still compare.
        assert report.journal_check["chunks"] == 2


def drill_log(store, campaign_id, path, *, drop=None):
    """The store's events as the coordinator forwards them into its
    telemetry log, optionally without the first ``drop`` lease event."""
    lines = []
    for event in store.events(campaign_id):
        if event["kind"] == drop:
            drop = None
            continue
        lines.append(json.dumps(store_event_record(event)) + "\n")
    path.write_text("".join(lines), encoding="utf-8")
    return path


class TestTelemetryCheck:
    def test_untouched_log_has_no_problems(self, tmp_path):
        store, campaign_id = scripted_store(tmp_path)
        log = drill_log(store, campaign_id, tmp_path / "telemetry.jsonl")
        store.close()
        report = autopsy(tmp_path / "fab.db", telemetry_log=log)
        assert report.telemetry_check["problems"] == []
        assert report.telemetry_check["lease_records"] == 6
        assert report.telemetry_check["store_events"] == 6

    def test_dropped_takeover_line_is_a_problem(self, tmp_path):
        store, campaign_id = scripted_store(tmp_path)
        log = drill_log(store, campaign_id, tmp_path / "telemetry.jsonl",
                        drop="takeover")
        store.close()
        report = autopsy(tmp_path / "fab.db", telemetry_log=log)
        problems = report.telemetry_check["problems"]
        assert any("takeovers" in p for p in problems), problems
        # Chunk 1's holder differs: w1 still holds it in the log.
        assert any(p.startswith("chunk 1:") for p in problems), problems
        assert report.telemetry_check["lease_records"] == 5


class TestLanding:
    def test_land_autopsy_is_idempotent(self, tmp_path):
        from repro.obs import RunStore

        store, _ = scripted_store(tmp_path)
        store.close()
        report = autopsy(tmp_path / "fab.db")
        with RunStore(tmp_path / "obs.db") as obs:
            first = land_autopsy(report, obs)
            second = land_autopsy(report, obs)
            assert first == second
            metrics = obs.metrics_for(first)
        assert metrics["fabric.takeovers"] == 1.0
        assert metrics["fabric.fence_rejects"] == 1.0
        assert metrics["fabric.chunks_committed"] == 2.0
        assert metrics["fabric.violations"] == 0.0


class TestHtml:
    def test_dashboard_is_scriptless_and_complete(self, tmp_path):
        store, _ = scripted_store(tmp_path)
        store.close()
        report = autopsy(tmp_path / "fab.db")
        page = render_autopsy_html(report)
        assert "<script" not in page
        assert "chunk 0" in page and "chunk 1" in page
        assert "PASSED" in page
        assert 'class="bar takeover"' in page
        assert 'class="mark reject"' in page
        assert page.count('class="mark commit"') == 2
