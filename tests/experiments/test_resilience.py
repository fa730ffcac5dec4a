"""Tests for the hardened campaign layer (:mod:`repro.parallel`).

Covers the three resilience mechanisms — worker-death retry with
backoff, per-task timeouts, and the chunk-level campaign journal — and
the load-bearing guarantee behind all of them: whatever infrastructure
failures occur, the final result list is exactly what the serial loop
would have produced.
"""

import json
import os
import pickle
import signal
import time
from pathlib import Path

import pytest

from repro import parallel
from repro.campaign import backoff_delay, campaign_fingerprint
from repro.errors import ExperimentError
from repro.experiments.runner import ExperimentConfig, sweep
from repro.parallel import _apply_args, resilient_map


def _square(x):
    return x * x


def _add(a, b):
    return a + b


def _explode(x):
    raise ValueError(f"boom {x}")


@pytest.fixture
def fast_backoff(monkeypatch):
    """Retry almost at once: these tests count retries, not wait them."""
    monkeypatch.setattr(parallel, "BACKOFF_BASE", 0.01)


def _kill_worker_once(task):
    """SIGKILL the worker the first time the flagged item is seen."""
    x, flag = task
    if flag and not os.path.exists(flag):
        Path(flag).touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _die_in_any_worker(task):
    """SIGKILL every worker process; only runs to completion in-process."""
    x, main_pid = task
    if os.getpid() != main_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _hang_once(task):
    x, flag = task
    if not os.path.exists(flag):
        Path(flag).touch()
        time.sleep(60)
    return x * x


def _hang_forever(x):
    time.sleep(60)


def _record_square(task):
    x, log = task
    with open(log, "a", encoding="utf-8") as stream:
        stream.write(f"{x}\n")
    return x * x


class TestResilientMapBasics:
    def test_matches_serial_across_jobs(self):
        items = list(range(25))
        serial = [_square(x) for x in items]
        assert resilient_map(_square, items, jobs=1) == serial
        assert resilient_map(_square, items, jobs=4) == serial

    def test_empty_items(self):
        assert resilient_map(_square, [], jobs=4) == []

    def test_starmap_matches_serial(self):
        tasks = [(_add, (a, a + 1)) for a in range(12)]
        serial = [_add(a, a + 1) for a in range(12)]
        assert resilient_map(_apply_args, tasks, jobs=3) == serial

    def test_fn_exceptions_propagate_not_retried(self):
        # In-process and from a pool worker alike.
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="boom"):
                resilient_map(_explode, [1, 2, 3, 4], jobs=jobs)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ExperimentError, match="task_timeout"):
            resilient_map(_square, [1], jobs=1, task_timeout=0)

    @pytest.mark.parametrize("chunksize", [0, -1])
    @pytest.mark.parametrize("transport", ["serial", "pool", "fabric"])
    def test_chunksize_below_one_rejected(self, tmp_path, transport, chunksize):
        from repro.fabric.coordinator import FabricConfig, run_fabric

        with pytest.raises(ExperimentError, match="chunksize must be >= 1"):
            if transport == "fabric":
                run_fabric(FabricConfig(
                    spec="squares", params={"n": 10}, store=tmp_path / "f.db",
                    workers=0, chunksize=chunksize, timeout=60.0,
                ))
            else:
                resilient_map(
                    _square, range(10), jobs=1 if transport == "serial" else 2,
                    chunksize=chunksize,
                )

    def test_unpicklable_fallback_warns(self):
        seen = []

        def local(x):  # closure: unpicklable, must run in-process
            seen.append(x)
            return x + 1

        with pytest.warns(RuntimeWarning, match="not picklable"):
            assert resilient_map(local, [1, 2], jobs=2) == [2, 3]
        assert seen == [1, 2]

    def test_parallel_map_fallback_warns_too(self):
        # The experiment harness maps through the same front end, so an
        # unpicklable sweep point function warns and runs in-process too.
        def local(point, seeds):
            return point + 1

        with pytest.warns(RuntimeWarning, match="not picklable"):
            assert sweep(ExperimentConfig(reps=2, jobs=2), [1, 2], local) == [2, 3]

    def test_fallback_warning_names_the_unpicklable_batch_fn(self):
        with pytest.warns(RuntimeWarning, match="not picklable") as caught:
            got = resilient_map(
                _square, [1, 2, 3], jobs=2,
                batch_fn=lambda chunk: [x * x for x in chunk],
            )
        assert got == [1, 4, 9]
        message = str(caught[0].message)
        assert "<lambda>" in message
        assert "_square" not in message


class TestWorkerDeathRetry:
    def test_killed_worker_retried_to_identical_results(self, tmp_path, fast_backoff):
        # One poison task SIGKILLs its worker on first execution; the
        # retry recomputes from re-derived inputs, so the final table is
        # byte-identical to the serial run.
        flag = tmp_path / "killed-once"
        items = [(x, str(flag) if x == 5 else "") for x in range(10)]
        expected = [x * x for x in range(10)]
        got = resilient_map(_kill_worker_once, items, jobs=2, chunksize=2)
        assert got == expected
        assert pickle.dumps(got) == pickle.dumps(expected)
        assert flag.exists()  # the kill really happened

    def test_persistent_killer_falls_back_in_process(self, monkeypatch, fast_backoff):
        # Every pool attempt dies; after MAX_RETRIES the blamed chunk
        # runs in-process, where the task completes normally.
        monkeypatch.setattr(parallel, "MAX_RETRIES", 1)
        items = [(x, os.getpid()) for x in range(4)]
        got = resilient_map(_die_in_any_worker, items, jobs=2, chunksize=4)
        assert got == [x * x for x in range(4)]


class TestTaskTimeout:
    def test_hung_chunk_retried(self, tmp_path, fast_backoff):
        flag = tmp_path / "hung-once"
        items = [(x, str(flag)) for x in range(2)]
        got = resilient_map(_hang_once, items, jobs=2, chunksize=2, task_timeout=0.5)
        assert got == [0, 1]
        assert flag.exists()

    def test_persistent_hang_aborts_with_clear_error(self, monkeypatch):
        # Two items: a single item would clamp jobs to 1 and take the
        # serial path, where timeouts don't apply.
        monkeypatch.setattr(parallel, "MAX_RETRIES", 0)
        with pytest.raises(ExperimentError, match="timed out"):
            resilient_map(
                _hang_forever, [1, 2], jobs=2, chunksize=1, task_timeout=0.25
            )


class TestCampaignJournal:
    def _items(self, tmp_path, name="calls.txt"):
        log = tmp_path / name
        return [(x, str(log)) for x in range(8)], log

    def test_journal_written_and_complete_resume_recomputes_nothing(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        items, log = self._items(tmp_path)
        full = resilient_map(_record_square, items, jobs=1, chunksize=2, journal=journal)
        assert journal.exists()
        log.write_text("")
        resumed = resilient_map(
            _record_square, items, jobs=1, chunksize=2, journal=journal, resume=True
        )
        assert resumed == full
        assert log.read_text() == ""  # every chunk came from the journal

    def test_truncated_journal_resumes_byte_identically(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        items, log = self._items(tmp_path)
        full = resilient_map(_record_square, items, jobs=1, chunksize=2, journal=journal)
        # Simulate a kill: drop the last completed chunk record.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:-1]) + "\n")
        log.write_text("")
        resumed = resilient_map(
            _record_square, items, jobs=1, chunksize=2, journal=journal, resume=True
        )
        assert pickle.dumps(resumed) == pickle.dumps(full)
        # Exactly the one missing chunk (2 items) was recomputed.
        assert len(log.read_text().splitlines()) == 2

    def test_resume_adopts_recorded_chunk_geometry(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        items, log = self._items(tmp_path)
        full = resilient_map(_record_square, items, jobs=1, chunksize=2, journal=journal)
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:-1]) + "\n")
        log.write_text("")
        # A different requested chunksize must not shift chunk indices:
        # the header's geometry wins, keeping the splice exact.
        resumed = resilient_map(
            _record_square, items, jobs=1, chunksize=5, journal=journal, resume=True
        )
        assert resumed == full
        assert len(log.read_text().splitlines()) == 2

    def test_torn_trailing_line_ignored(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        items, _ = self._items(tmp_path)
        full = resilient_map(_record_square, items, jobs=1, chunksize=2, journal=journal)
        with journal.open("a", encoding="utf-8") as stream:
            stream.write('{"kind": "chu')  # torn write mid-record
        resumed = resilient_map(
            _record_square, items, jobs=1, chunksize=2, journal=journal, resume=True
        )
        assert resumed == full

    def test_resume_rejects_different_campaign(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        resilient_map(_square, [1, 2, 3], jobs=1, journal=journal)
        with pytest.raises(ExperimentError, match="different campaign"):
            resilient_map(_square, [1, 2, 3, 4], jobs=1, journal=journal, resume=True)

    def test_resume_without_existing_file_starts_fresh(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        got = resilient_map(_square, [1, 2, 3], jobs=1, journal=journal, resume=True)
        assert got == [1, 4, 9]
        assert journal.exists()

    def test_fingerprint_distinguishes_fn_and_items(self):
        base = campaign_fingerprint(_square, [1, 2])
        assert campaign_fingerprint(_square, [1, 3]) != base
        assert campaign_fingerprint(_add, [1, 2]) != base

    def test_pooled_run_with_journal_matches_serial(self, tmp_path):
        items = list(range(20))
        serial = [_square(x) for x in items]
        got = resilient_map(
            _square, items, jobs=4, journal=tmp_path / "pooled.jsonl"
        )
        assert got == serial


def _write_pid_and_hang(task):
    x, directory = task
    Path(directory, f"{os.getpid()}.pid").touch()
    time.sleep(60)
    return x


class TestTornJournalRecovery:
    """Satellite: the journal tolerates a torn final line the way
    ``monitor.tail`` does — truncate the debris and resume."""

    def _write_full(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        items = list(range(8))
        full = resilient_map(_square, items, jobs=1, chunksize=2, journal=journal)
        return journal, items, full

    def test_journal_sliced_mid_byte_resumes_byte_identically(self, tmp_path):
        journal, items, full = self._write_full(tmp_path)
        data = journal.read_bytes()
        # Slice mid-way through the final record: a crash mid-append.
        journal.write_bytes(data[: len(data) - 7])
        resumed = resilient_map(
            _square, items, jobs=1, chunksize=2, journal=journal, resume=True
        )
        assert pickle.dumps(resumed) == pickle.dumps(full)

    def test_every_slice_point_recovers(self, tmp_path):
        # Whatever byte the crash landed on, resume must succeed: the
        # torn suffix only ever claims the final (incomplete) record.
        journal, items, full = self._write_full(tmp_path)
        data = journal.read_bytes()
        header_end = data.index(b"\n") + 1
        for cut in range(header_end, len(data)):
            journal.write_bytes(data[:cut])
            resumed = resilient_map(
                _square, items, jobs=1, chunksize=2, journal=journal, resume=True
            )
            assert resumed == full, f"slice at byte {cut} broke resume"

    def test_appends_after_torn_tail_land_on_clean_lines(self, tmp_path):
        # The bug this guards against: appending to a file whose last
        # line is torn *concatenates* onto the debris, corrupting the
        # next record too.  The load must truncate first.
        journal, items, full = self._write_full(tmp_path)
        data = journal.read_bytes()
        journal.write_bytes(data[: len(data) - 7])
        resilient_map(
            _square, items, jobs=1, chunksize=2, journal=journal, resume=True
        )
        for line in journal.read_bytes().splitlines():
            json.loads(line)  # every line is whole again

    def test_midfile_corruption_refuses_to_guess(self, tmp_path):
        journal, items, _ = self._write_full(tmp_path)
        lines = journal.read_text().splitlines()
        lines[2] = lines[2][:-5]  # torn record with complete ones after it
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(ExperimentError, match="corrupt at line 3"):
            resilient_map(
                _square, items, jobs=1, chunksize=2, journal=journal, resume=True
            )


class TestBackoffDelay:
    """Satellite: retry backoff uses seeded deterministic jitter."""

    def test_deterministic(self):
        assert backoff_delay(0.1, 3, chunk_index=7) == backoff_delay(
            0.1, 3, chunk_index=7
        )

    def test_exponential_envelope_with_jitter(self):
        for attempt in (1, 2, 3, 4):
            for chunk in range(8):
                delay = backoff_delay(0.1, attempt, chunk_index=chunk)
                nominal = 0.1 * 2 ** (attempt - 1)
                assert 0.5 * nominal <= delay < 1.5 * nominal

    def test_jitter_varies_across_chunks_and_attempts(self):
        delays = {backoff_delay(0.1, 2, chunk_index=c) for c in range(16)}
        assert len(delays) > 1
        assert backoff_delay(0.1, 1, chunk_index=0) != backoff_delay(
            0.1, 2, chunk_index=0
        ) / 2  # jitter is re-drawn per attempt, not scaled

    def test_zeroth_attempt_is_immediate(self):
        assert backoff_delay(0.1, 0) == 0.0


class TestKeyboardInterruptCleanup:
    """Satellite: ^C mid-campaign re-raises promptly and leaves no
    orphaned pool children computing in the background."""

    @staticmethod
    def _alive(pid):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        try:  # a zombie is dead enough: it computes nothing
            with open(f"/proc/{pid}/stat", encoding="ascii") as stream:
                state = stream.read().rsplit(")", 1)[1].split()[0]
            return state != "Z"
        except OSError:
            return False

    def test_interrupt_terminates_pool_children(self, tmp_path):
        import threading

        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()

        def interrupter():
            deadline = time.time() + 20
            while time.time() < deadline:
                if len(list(pid_dir.glob("*.pid"))) >= 2:
                    break
                time.sleep(0.05)
            os.kill(os.getpid(), signal.SIGINT)

        threading.Thread(target=interrupter, daemon=True).start()
        items = [(x, str(pid_dir)) for x in range(4)]
        started = time.time()
        with pytest.raises(KeyboardInterrupt):
            resilient_map(_write_pid_and_hang, items, jobs=2, chunksize=1)
        assert time.time() - started < 30  # re-raised promptly, no hang

        pids = [int(path.stem) for path in pid_dir.glob("*.pid")]
        assert len(pids) >= 2
        deadline = time.time() + 10
        while time.time() < deadline and any(self._alive(p) for p in pids):
            time.sleep(0.1)
        survivors = [p for p in pids if self._alive(p)]
        assert not survivors, f"orphaned pool children: {survivors}"
