"""The views of one stream agree: the autopsy, the monitor's board and the
telemetry summary read worker lives from one lease replay and run totals
from one telemetry fold, so they cannot drift apart."""

import pytest

from repro.cli import main
from repro.fabric.autopsy import autopsy
from repro.fabric.coordinator import FabricConfig, run_fabric
from repro.fabric.faultplan import FaultPlan
from repro.fabric.store import LeaseStore
from repro.monitor import monitor_log
from repro.telemetry import Telemetry, activate
from repro.telemetry.summary import LogSummary, read_records, summarize

#: What every view shows of one worker.
FIELDS = ("claims", "takeovers", "commits", "fence_rejects", "faults", "exit_detail")


@pytest.fixture(scope="module")
def drill(tmp_path_factory):
    """One seeded kill drill with a coordinator log and worker logs."""
    tmp_path = tmp_path_factory.mktemp("views_drill")
    config = FabricConfig(
        spec="slow-squares",
        params={"n": 12, "delay": 0.05},
        store=tmp_path / "fab.db",
        workers=3,
        lease_ttl=1.0,
        fault_plan=FaultPlan.parse("kill@w1#0,stale@w2#0"),
        timeout=120.0,
        worker_telemetry=True,
    )
    log = tmp_path / "fab.telemetry.jsonl"
    recorder = Telemetry.to_path(log)
    recorder.write_manifest(command="fabric run", seed=0, config={})
    with recorder, activate(recorder):
        result = run_fabric(config)
    return config.store, log, result


def test_worker_rows_agree(drill):
    store, log, result = drill
    assert result.takeovers >= 1
    post_mortem = autopsy(store).workers
    lanes = monitor_log(store).board["fleet"]["workers"]
    folded = LogSummary.of(read_records(log)).lease.workers
    assert set(post_mortem) == set(lanes) == set(folded) >= {"w0", "w1", "w2"}
    for worker, row in post_mortem.items():
        assert {name: lanes[worker][name] for name in FIELDS} == row, worker
        assert {name: getattr(folded[worker], name) for name in FIELDS} == row, worker
    assert post_mortem["w1"]["faults"] >= 1
    assert all(row["exit_detail"] for w, row in post_mortem.items() if w != "w1")

    fleet = summarize(read_records(log))["fleet"]
    assert fleet["workers"] == sorted(post_mortem)
    assert fleet["claims"] == sum(row["claims"] for row in post_mortem.values())
    assert fleet["lease_events"]["commit"] == sum(
        row["commits"] for row in post_mortem.values()
    )
    for name in ("takeovers", "fence_rejects"):
        assert fleet[name] == sum(row[name] for row in post_mortem.values())


def test_monitor_counts_each_worker_life_once(drill):
    """A worker log's own start and exit records repeat store rows; the
    monitor feeds the store's rows and the rest of each log, once."""
    store, _log, result = drill
    with LeaseStore(store) as lease_store:
        campaign = lease_store.campaign(result.fingerprint)
        events = lease_store.events(int(campaign["id"]))
    logged = [record for path in result.worker_logs.values()
              for record in read_records(path)]
    repeats = [record for record in logged if record["kind"] == "worker"]
    assert repeats
    assert monitor_log(store).records == len(events) + len(logged) - len(repeats)


def test_run_totals_agree_on_a_chaos_log(tmp_path, capsys):
    log = tmp_path / "chaos.jsonl"
    main(["chaos", "--quick", "--seed", "99", "--jobs", "2", "--telemetry", str(log)])
    capsys.readouterr()
    summary = summarize(read_records(log))
    board = monitor_log(log, write_alerts=False).board
    runs = summary["runs"]
    assert runs["count"] > 0 and summary["faults"] > 0
    assert board["records"] == summary["records"]
    assert board["runs"]["ended"] == runs["count"]
    assert board["slots"] == runs["slots"]
    assert board["deliveries"] == runs["deliveries"]
    assert board["slots_per_sec"] == runs["slots_per_sec"]
    assert board["collision_rate"] == runs["collisions"] / runs["transmissions"]
    assert board["faults"] == summary["faults"]
    assert board["chaos_trials"] == summary["fleet"]["chaos_trials"]
