"""End-to-end monitoring: monitor_log, the --monitor flag, and the CLI."""

import argparse
import json

import pytest

from repro.cli import _run_logged, main
from repro.graphs import generators
from repro.monitor import Alert, MonitorConfig, monitor_log
from repro.monitor.tail import read_log_records
from repro.protocols import run_decay_broadcast
from repro.sim.faults import FaultSchedule, JamFault
from repro.telemetry import Telemetry, activate
from repro.telemetry.summary import validate_log

JAM_ALL = FaultSchedule(jam_faults=[JamFault(node=1, start=0, end=10**6)])


def write_campaign_log(path, *, reps=10, faults=None, command="experiment"):
    recorder = Telemetry.to_path(path)
    recorder.write_manifest(command=command, seed=0, config={"epsilon": 0.1})
    with recorder, activate(recorder):
        for rep in range(reps):
            run_decay_broadcast(generators.line(8), 0, seed=rep, epsilon=0.1,
                                faults=faults)
    return path


class TestMonitorLog:
    def test_nominal_log_passes(self, tmp_path):
        log = write_campaign_log(tmp_path / "ok.jsonl")
        report = monitor_log(log, config=MonitorConfig())
        assert report.alerts == [] and not report.gate_failed
        assert report.records > 20
        assert report.board["runs"]["ended"] == 10

    def test_jammed_log_fails_and_persists_alerts(self, tmp_path):
        log = write_campaign_log(tmp_path / "jam.jsonl", faults=JAM_ALL)
        report = monitor_log(log, config=MonitorConfig())
        assert report.gate_failed
        assert {a.rule for a in report.alerts} >= {"theorem1-decay"}
        # Alerts land in the log as schema-valid records...
        alerts_in_log = [r for r in read_log_records(log) if r["kind"] == "alert"]
        assert len(alerts_in_log) == len(report.alerts)
        assert alerts_in_log[0]["source"] == "monitor"
        assert validate_log(log) == []
        # ...and a second pass never re-checks them.
        again = monitor_log(log, config=MonitorConfig(), write_alerts=False)
        assert len(again.alerts) == len(report.alerts)

    def test_no_write_alerts_leaves_log_untouched(self, tmp_path):
        log = write_campaign_log(tmp_path / "jam.jsonl", faults=JAM_ALL)
        before = log.read_bytes()
        report = monitor_log(log, config=MonitorConfig(), write_alerts=False)
        assert report.gate_failed
        assert log.read_bytes() == before

    def test_follow_with_idle_timeout_terminates(self, tmp_path):
        log = write_campaign_log(tmp_path / "ok.jsonl", reps=3)
        report = monitor_log(
            log, config=MonitorConfig(), follow=True, poll_interval=0.01,
            idle_timeout=0.1,
        )
        assert report.board["runs"]["ended"] == 3


class TestAttachMonitor:
    """The ``--monitor`` flag: a command's telemetry log is monitored
    once the command is done, and the verdict printed."""

    @staticmethod
    def monitored_jammed_campaign(log, capsys):
        def jammed_campaign(args):
            for rep in range(10):
                run_decay_broadcast(generators.line(8), 0, seed=rep,
                                    epsilon=0.1, faults=JAM_ALL)
            return 0

        args = argparse.Namespace(command="experiment", func=jammed_campaign,
                                  seed=0, epsilon=0.1, monitor=True)
        assert _run_logged(args, str(log), None) == 0
        return capsys.readouterr().out

    def test_in_process_monitoring_of_a_jammed_campaign(self, tmp_path, capsys):
        log = tmp_path / "live.jsonl"
        out = self.monitored_jammed_campaign(log, capsys)
        # The alerts were appended to the log the campaign wrote.
        alerts_in_log = [r for r in read_log_records(log) if r["kind"] == "alert"]
        assert {r["rule"] for r in alerts_in_log} >= {"theorem1-decay"}
        assert [r["seq"] for r in alerts_in_log] == list(range(1, len(alerts_in_log) + 1))
        assert (f"[monitor] {len(alerts_in_log)} conformance alert(s) fired:"
                in out)
        assert validate_log(log) == []

    def test_flag_alerts_equal_those_of_monitor_log(self, tmp_path, capsys):
        log = tmp_path / "live.jsonl"
        out = self.monitored_jammed_campaign(log, capsys)
        assert main(["monitor", str(log), "--json", "--no-write-alerts"]) == 0
        alerts = json.loads(capsys.readouterr().out)["alerts"]
        assert alerts
        appended = [{key: r[key] for key in alert}
                    for alert, r in zip(alerts, (r for r in read_log_records(log)
                                                 if r["kind"] == "alert"))]
        assert appended == alerts
        printed = [line.split("! ", 1)[1] for line in out.splitlines()
                   if line.startswith("[monitor]   ! ")]
        assert printed == [Alert(**alert).describe() for alert in alerts]


class TestMonitorCLI:
    def test_gate_passes_on_nominal_log(self, tmp_path, capsys):
        log = write_campaign_log(tmp_path / "ok.jsonl")
        code = main(["monitor", str(log), "--gate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gate: PASSED" in out

    def test_gate_fails_on_jammed_log(self, tmp_path, capsys):
        log = write_campaign_log(tmp_path / "jam.jsonl", faults=JAM_ALL)
        code = main(["monitor", str(log), "--gate"])
        out = capsys.readouterr().out
        assert code == 1
        assert "gate: FAILED" in out
        assert "theorem1-decay" in out

    def test_without_gate_exit_zero_despite_alerts(self, tmp_path, capsys):
        log = write_campaign_log(tmp_path / "jam.jsonl", faults=JAM_ALL)
        assert main(["monitor", str(log)]) == 0

    def test_json_report_is_pure_json(self, tmp_path, capsys):
        log = write_campaign_log(tmp_path / "jam.jsonl", faults=JAM_ALL)
        code = main(["monitor", str(log), "--json", "--gate",
                     "--no-write-alerts"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["gate_failed"] is True
        assert payload["alerts"][0]["rule"] == "theorem1-decay"

    def test_chrome_trace_export_via_monitor(self, tmp_path, capsys):
        from repro.monitor import validate_chrome_trace

        log = write_campaign_log(tmp_path / "ok.jsonl", reps=2)
        trace_path = tmp_path / "trace.json"
        code = main(["monitor", str(log), "--chrome-trace", str(trace_path)])
        assert code == 0
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(trace) == []

    def test_missing_log_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="monitor:"):
            main(["monitor", str(tmp_path / "nope.jsonl")])

    def test_monitor_flag_requires_telemetry(self):
        with pytest.raises(SystemExit, match="--monitor requires --telemetry"):
            main(["chaos", "--quick", "--monitor"])

    def test_monitor_flag_on_chaos_quick(self, tmp_path, capsys):
        log = tmp_path / "chaos.jsonl"
        code = main(["chaos", "--quick", "--seed", "3",
                     "--telemetry", str(log), "--monitor"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[monitor] no conformance alerts" in out
        assert validate_log(log) == []


class TestObsExportCLI:
    def test_export_writes_validated_trace(self, tmp_path, capsys):
        from repro.monitor import validate_chrome_trace

        log = write_campaign_log(tmp_path / "ok.jsonl", reps=2)
        trace_path = tmp_path / "trace.json"
        code = main(["obs", "export", str(log),
                     "--chrome-trace", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote" in out
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(trace) == []

    def test_export_missing_log_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="obs export:"):
            main(["obs", "export", str(tmp_path / "nope.jsonl"),
                  "--chrome-trace", str(tmp_path / "t.json")])


class TestObsJsonOutputs:
    def _ingested_db(self, tmp_path, logs):
        db = tmp_path / "runs.db"
        for log in logs:
            assert main(["obs", "ingest", str(db), str(log)]) == 0
        return db

    def test_trend_check_json_is_pure_json(self, tmp_path, capsys):
        log_a = write_campaign_log(tmp_path / "a.jsonl", reps=2)
        log_b = write_campaign_log(tmp_path / "b.jsonl", reps=3)
        db = self._ingested_db(tmp_path, [log_a, log_b])
        capsys.readouterr()
        code = main(["obs", "trend", str(db), "--metric", "slots_per_sec",
                     "--check", "--json", "--threshold", "0.99"])
        payload = json.loads(capsys.readouterr().out)  # must parse whole
        assert code in (0, 1)
        assert payload["check"]["checked"] is True
        assert isinstance(payload["points"], list)

    def test_explain_json(self, tmp_path, capsys):
        recorder = Telemetry.to_path(tmp_path / "prov.jsonl")
        recorder.write_manifest(command="experiment", seed=0, config={})
        with recorder, activate(recorder):
            run_decay_broadcast(generators.line(4), 0, seed=1, epsilon=0.1,
                                record_provenance=True)
        db = self._ingested_db(tmp_path, [tmp_path / "prov.jsonl"])
        capsys.readouterr()
        code = main(["obs", "explain", str(db), "--node", "1", "--slot", "0",
                     "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        assert "answer" in payload and "found" in payload
