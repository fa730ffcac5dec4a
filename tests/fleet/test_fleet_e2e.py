"""End-to-end fleet observability: a real faulted fabric run must yield
one merged, validator-clean Chrome trace with per-worker lanes, a
telemetry log whose lease records reconcile with the store's audit log,
and a passing byte-stable autopsy.
"""

import json

import pytest

from repro.fabric.coordinator import FabricConfig, run_fabric
from repro.fabric.faultplan import FaultPlan
from repro.fabric.autopsy import autopsy
from repro.monitor.chrome_trace import chrome_trace, validate_chrome_trace
from repro.monitor.live import fleet_records
from repro.monitor.tail import read_log_records
from repro.telemetry import Telemetry, activate


@pytest.fixture(scope="module")
def drill(tmp_path_factory):
    """One seeded kill drill, shared by every assertion below."""
    tmp_path = tmp_path_factory.mktemp("fleet_drill")
    config = FabricConfig(
        spec="slow-squares",
        params={"n": 8, "delay": 0.05},
        store=tmp_path / "fab.db",
        workers=2,
        lease_ttl=1.0,
        fault_plan=FaultPlan.parse("kill@w1#0"),
        journal=tmp_path / "fab.journal.jsonl",
        timeout=120.0,
        worker_telemetry=True,
    )
    log = tmp_path / "fab.telemetry.jsonl"
    recorder = Telemetry.to_path(log)
    recorder.write_manifest(command="fabric", seed=0,
                            config={"spec": "slow-squares"})
    with recorder, activate(recorder):
        result = run_fabric(config)
    return tmp_path, config, result, log


class TestDrillOutcome:
    def test_kill_forced_a_takeover(self, drill):
        _, _, result, _ = drill
        assert result.takeovers >= 1
        assert -9 in result.worker_exits.values()
        assert [r * r for r in range(8)] == list(result.results)


class TestMergedTrace:
    def test_worker_logs_exist_and_carry_no_trace_ids(self, drill):
        _, _, result, log = drill
        assert set(result.worker_logs) == {"w0", "w1"}
        logs = {"coordinator": log, **result.worker_logs}
        for name, path in logs.items():
            records = read_log_records(path)
            assert records, f"{name} wrote no records"
            # Lanes key on worker and chunk; no record carries trace ids.
            assert not any({"trace", "span", "parent"} & r.keys() for r in records)

    def test_merged_chrome_trace_validates_with_worker_lanes(self, drill):
        tmp_path, _, result, _ = drill
        trace = chrome_trace(fleet_records(tmp_path / "fab.db", result.fingerprint))
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        # One process lane per worker plus the coordinator's.
        lanes = {e["pid"] for e in events if "pid" in e}
        assert len(lanes) >= 3
        names = {e.get("name") for e in events}
        assert "lease:takeover" in names  # the kill left its instant behind


class TestAuditReconcile:
    def test_log_summary_matches_the_store_audit(self, drill):
        tmp_path, _, result, log = drill
        from repro.fabric.store import LeaseStore
        from repro.telemetry.summary import read_records, summarize

        fleet = summarize(read_records(log))["fleet"]
        with LeaseStore(tmp_path / "fab.db") as store:
            row = store.campaign(result.fingerprint)
            events = store.events(int(row["id"]))
        by_kind = {}
        for event in events:
            by_kind[event["kind"]] = by_kind.get(event["kind"], 0) + 1
        assert fleet["takeovers"] == by_kind.get("takeover", 0) == result.takeovers
        assert fleet["lease_events"]["commit"] == by_kind["commit"] == result.chunks
        assert fleet["fence_rejects"] == result.fence_rejects


class TestAutopsyAcceptance:
    def test_autopsy_passes_and_attributes_every_chunk(self, drill):
        tmp_path, _, result, log = drill
        report = autopsy(tmp_path / "fab.db",
                         journal=tmp_path / "fab.journal.jsonl",
                         telemetry_log=log)
        assert report.passed, report.render()
        attribution = report.attribution()
        assert sorted(attribution) == list(range(result.chunks))
        for worker, fence in attribution.values():
            assert worker in ("w0", "w1")
            assert fence >= 1
        assert report.journal_check["matched"]
        assert report.telemetry_check["problems"] == []

    def test_log_missing_a_takeover_fails_the_cross_check(self, drill):
        tmp_path, _, _, log = drill
        lines = log.read_text(encoding="utf-8").splitlines(True)
        takeover = next(i for i, line in enumerate(lines)
                        if '"event": "takeover"' in line)
        copy = tmp_path / "fab.telemetry.copy.jsonl"
        copy.write_text("".join(lines[:takeover] + lines[takeover + 1:]),
                        encoding="utf-8")
        report = autopsy(tmp_path / "fab.db", telemetry_log=copy)
        assert report.telemetry_check["problems"], report.render()
        assert autopsy(tmp_path / "fab.db",
                       telemetry_log=log).telemetry_check["problems"] == []

    def test_autopsy_is_byte_stable_across_invocations(self, drill):
        tmp_path, _, _, log = drill
        kwargs = dict(journal=tmp_path / "fab.journal.jsonl",
                      telemetry_log=log)
        first = autopsy(tmp_path / "fab.db", **kwargs)
        second = autopsy(tmp_path / "fab.db", **kwargs)
        assert first.render() == second.render()
        assert (json.dumps(first.to_json(), sort_keys=True, default=repr)
                == json.dumps(second.to_json(), sort_keys=True, default=repr))
