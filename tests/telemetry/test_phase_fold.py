"""Decay's phase markers, folded per run, read the same as one record each.

``data/gap-quick-reps2-seed5.v1.jsonl`` is ``gap --quick --reps 2 --seed
5 --telemetry`` recorded before the recorder folded markers: one
``phase`` record per node per phase (only its manifest's host, platform,
pid, git SHA and argv are normalised).  The same command today folds
each run's markers into its ``run_end``; every reader must give both
logs the same phase rows.
"""

from pathlib import Path

from repro.cli import main
from repro.obs import RunStore, ingest_log
from repro.telemetry.summary import LogSummary, read_records, validate_log

OLD_LOG = Path(__file__).parent / "data" / "gap-quick-reps2-seed5.v1.jsonl"

#: ``run_end`` totals that carry no timing.
_COUNTS = ("count", "slots", "transmissions", "collisions", "deliveries",
           "jam_transmissions")


def _randomized_runs(records):
    """The records without the deterministic arm's runs (seed 0).  That
    arm takes one exact search run per protocol today, where the old log
    has one run per sampled hidden set; the phase markers are all the
    randomized arm's."""
    deterministic = {r["run"] for r in records if r["kind"] == "run_begin" and r["seed"] == 0}
    return [r for r in records if r.get("run") not in deterministic]


def _record_folded(tmp_path):
    log = tmp_path / "gap.jsonl"
    argv = ["gap", "--quick", "--reps", "2", "--seed", "5", "--telemetry", str(log)]
    assert main(argv) == 0
    return log


def test_folded_log_gives_the_old_logs_phase_rows(tmp_path, capsys):
    new_log = _record_folded(tmp_path)
    capsys.readouterr()
    old, new = read_records(OLD_LOG, strict=True), read_records(new_log, strict=True)
    assert sum(r["kind"] == "phase" for r in old) == 42
    assert not [r for r in new if r["kind"] == "phase"]
    assert validate_log(OLD_LOG) == validate_log(new_log) == []
    old, new = _randomized_runs(old), _randomized_runs(new)

    old_summary, new_summary = LogSummary.of(old).to_dict(), LogSummary.of(new).to_dict()
    assert old_summary["phases"]["decay-broadcast"]
    assert new_summary["phases"] == old_summary["phases"]
    assert {name: new_summary["runs"][name] for name in _COUNTS} == {
        name: old_summary["runs"][name] for name in _COUNTS}
    assert new_summary["records"] == old_summary["records"] - 42

    rows = []
    for name, log in (("old", OLD_LOG), ("new", new_log)):
        with RunStore(tmp_path / f"{name}.db") as store:
            rows.append(store.phases_for(ingest_log(store, log).run_id))
    assert rows[0] and rows[0] == rows[1]


def test_old_log_prints_its_phase_tables(capsys):
    assert main(["telemetry", str(OLD_LOG), "--validate"]) == 0
    capsys.readouterr()
    assert main(["telemetry", str(OLD_LOG)]) == 0
    out = capsys.readouterr().out
    table = out.split("Phase markers — decay-broadcast", 1)[1]
    rows = [[cell.strip() for cell in line.split("|")] for line in table.splitlines()[4:7]]
    assert [row[:2] for row in rows] == [["0", "24"], ["1", "17"], ["2", "1"]], table
