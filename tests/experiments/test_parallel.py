"""Tests for the process-pool execution layer (:mod:`repro.parallel`).

The load-bearing property is *equivalence*: for any ``jobs`` value the
results are element-for-element what the serial loop produces, because
repetition seeds are derived order-independently.  The flagship
experiment tables are checked byte-for-byte here.
"""

import pytest

from repro.campaign import default_chunksize
from repro.errors import ExperimentError
from repro.experiments.runner import ExperimentConfig, repeat_runs, sweep
from repro.parallel import _apply_args, resilient_map, resolve_jobs


def _square(x):
    return x * x


def _add(a, b):
    return a + b


def _seed_echo(seed):
    return ("echo", seed)


def _point_sum(point, seeds):
    return (point, sum(seeds))


def _explode(x):
    raise ValueError(f"boom {x}")


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(3) == 3

    def test_env_var_used_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_zero_means_all_cpus(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_jobs(-2)

    def test_bad_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ExperimentError):
            resolve_jobs(None)

    def test_config_defers_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert ExperimentConfig().effective_jobs() == 4
        assert ExperimentConfig(jobs=2).effective_jobs() == 2


class TestDefaultChunksize:
    def test_chunks_amortise_dispatch(self):
        # 100 items over 4 workers, 4 chunks each -> ceil(100/16) = 7.
        assert default_chunksize(100, 4) == 7

    def test_never_below_one(self):
        assert default_chunksize(1, 8) == 1
        assert default_chunksize(0, 8) == 1


class TestParallelMap:
    """The map front end, :func:`resilient_map`, as its callers use it."""

    def test_matches_serial_and_preserves_order(self):
        items = list(range(50))
        serial = [_square(x) for x in items]
        assert resilient_map(_square, items, jobs=1) == serial
        assert resilient_map(_square, items, jobs=4) == serial
        assert resilient_map(_square, items, jobs=4, chunksize=3) == serial

    def test_empty_items(self):
        for jobs in (1, 4):
            assert resilient_map(_square, [], jobs=jobs) == []

    def test_unpicklable_fn_falls_back_to_serial(self):
        seen = []

        def record(x):  # closure: unpicklable, must run in-process
            seen.append(x)
            return x

        with pytest.warns(RuntimeWarning, match="not picklable"):
            assert resilient_map(record, [1, 2, 3], jobs=4) == [1, 2, 3]
        assert seen == [1, 2, 3]

    def test_worker_exceptions_propagate(self):
        with pytest.raises(ValueError, match="boom"):
            resilient_map(_explode, [1, 2, 3, 4], jobs=2)

    def test_starmap_matches_serial(self):
        # ``fn(*args)`` tasks, the shape ``sweep`` maps through ``_apply_args``.
        tasks = [(_add, (a, a + 1)) for a in range(20)]
        serial = [_add(a, a + 1) for a in range(20)]
        assert resilient_map(_apply_args, tasks, jobs=1) == serial
        assert resilient_map(_apply_args, tasks, jobs=3) == serial


class TestHarnessEquivalence:
    def test_repeat_runs_identical_across_jobs(self):
        serial = repeat_runs(
            ExperimentConfig(reps=12, master_seed=7, jobs=1), ("t",), _seed_echo
        )
        pooled = repeat_runs(
            ExperimentConfig(reps=12, master_seed=7, jobs=4), ("t",), _seed_echo
        )
        assert pooled == serial

    def test_sweep_identical_across_jobs(self):
        points = ["a", "b", "c"]
        config = ExperimentConfig(reps=3, jobs=1)
        expected = [_point_sum(p, config.seeds("sweep", p)) for p in points]
        serial = sweep(config, points, _point_sum)
        pooled = sweep(ExperimentConfig(reps=3, jobs=4), points, _point_sum)
        assert serial == expected
        assert pooled == serial


class TestExperimentEquivalence:
    """Flagship tables must be byte-identical for jobs=1 and jobs=4."""

    def _render(self, run_table, **config_kwargs):
        return run_table(ExperimentConfig(**config_kwargs)).render()

    def test_exp_decay_table_identical(self):
        from repro.experiments.exp_decay import run_theorem1_table

        kwargs = dict(reps=8, master_seed=11, quick=True)
        serial = self._render(run_theorem1_table, jobs=1, **kwargs)
        pooled = self._render(run_theorem1_table, jobs=4, **kwargs)
        assert pooled == serial

    def test_exp_broadcast_table_identical(self):
        from repro.experiments.exp_broadcast import run_success_rate_table

        kwargs = dict(reps=8, master_seed=11, quick=True)
        serial = self._render(run_success_rate_table, jobs=1, **kwargs)
        pooled = self._render(run_success_rate_table, jobs=4, **kwargs)
        assert pooled == serial


def _square_batch(chunk):
    """A stand-in vectorized backend: whole-chunk squares in one call."""
    return [x * x for x in chunk]


class TestBackendJournalParity:
    """Satellite: journals are fingerprinted by ``fn`` alone, so the
    per-item path and the batched (vectorized-backend) path produce
    interchangeable, byte-identical journals and splices."""

    def test_fingerprint_ignores_batch_fn(self, tmp_path):
        import json

        from repro.campaign import campaign_fingerprint
        from repro.parallel import resilient_map

        items = list(range(12))
        headers = []
        for name, batch_fn in (("plain", None), ("batched", _square_batch)):
            journal = tmp_path / f"{name}.jsonl"
            resilient_map(_square, items, jobs=1, journal=journal, batch_fn=batch_fn)
            headers.append(json.loads(journal.read_text().splitlines()[0]))
        # The fingerprint is a function of (fn, items) only.
        assert headers[0]["fingerprint"] == headers[1]["fingerprint"]
        assert headers[0]["fingerprint"] == campaign_fingerprint(_square, items)

    def test_journal_bytes_identical_across_backends(self, tmp_path):
        import pickle

        from repro.parallel import resilient_map

        items = list(range(12))
        plain = resilient_map(
            _square, items, jobs=1, chunksize=3,
            journal=tmp_path / "plain.jsonl",
        )
        batched = resilient_map(
            _square, items, jobs=1, chunksize=3,
            journal=tmp_path / "batched.jsonl", batch_fn=_square_batch,
        )
        assert pickle.dumps(plain) == pickle.dumps(batched)
        assert (tmp_path / "plain.jsonl").read_bytes() == (
            tmp_path / "batched.jsonl"
        ).read_bytes()

    def test_journal_resumes_across_backends(self, tmp_path):
        import pickle

        from repro.parallel import resilient_map

        items = list(range(12))
        journal = tmp_path / "campaign.jsonl"
        full = resilient_map(
            _square, items, jobs=1, chunksize=3, journal=journal,
        )
        # Drop the last chunk, then resume under the *other* backend.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:-1]) + "\n")
        resumed = resilient_map(
            _square, items, jobs=1, chunksize=3, journal=journal,
            resume=True, batch_fn=_square_batch,
        )
        assert pickle.dumps(resumed) == pickle.dumps(full)

    def test_fabric_store_payload_matches_journal_payload(self, tmp_path):
        # The lease store and the journal share encode_chunk, so a
        # chunk committed by a fabric worker is the same payload string
        # a journal append would have written.
        import json

        from repro.campaign import encode_chunk
        from repro.parallel import resilient_map

        items = list(range(6))
        journal = tmp_path / "campaign.jsonl"
        resilient_map(_square, items, jobs=1, chunksize=3, journal=journal)
        records = [
            json.loads(line) for line in journal.read_text().splitlines()[1:]
        ]
        for record in records:
            start = record["index"] * 3
            chunk = items[start : start + 3]
            assert record["payload"] == encode_chunk([x * x for x in chunk])


def _transport_journals(tmp_path, chunksize):
    """The ``squares`` campaign (n = 20) journaled by every transport."""
    from repro.fabric.coordinator import FabricConfig, run_fabric
    from repro.fabric.specs import resolve_spec
    from repro.parallel import resilient_map

    spec = resolve_spec("squares", {"n": 20})
    journals = {}
    for jobs in (1, 2):
        journals[f"pool-jobs{jobs}"] = tmp_path / f"pool-jobs{jobs}.jsonl"
        resilient_map(
            spec.fn, spec.items, jobs=jobs, chunksize=chunksize,
            journal=journals[f"pool-jobs{jobs}"],
        )
    for workers in (0, 2):
        journals[f"fabric-w{workers}"] = tmp_path / f"fabric-w{workers}.jsonl"
        run_fabric(FabricConfig(
            spec="squares", params={"n": 20}, store=tmp_path / f"f{workers}.db",
            workers=workers, chunksize=chunksize, lease_ttl=1.0,
            journal=journals[f"fabric-w{workers}"], install_signal_handler=False,
            timeout=120.0,
        ))
    return spec, journals


class TestOnDiskContract:
    """Journals are the campaign's on-disk contract: every transport
    writes the same bytes, and any of them resumes under any other."""

    @pytest.mark.parametrize("chunksize", [1, 3, 7])
    def test_journal_bytes_identical_across_transports(self, tmp_path, chunksize):
        import pickle

        from repro.parallel import resilient_map

        spec, journals = _transport_journals(tmp_path, chunksize)
        reference = journals["pool-jobs1"].read_bytes()
        for name, path in journals.items():
            assert path.read_bytes() == reference, name

        expected = pickle.dumps([x * x for x in range(20)])
        for name, path in journals.items():
            # Cut after the second chunk (header + two records), resume.
            lines = path.read_bytes().splitlines(keepends=True)
            path.write_bytes(b"".join(lines[:3]))
            resumed = resilient_map(
                spec.fn, spec.items, jobs=1, journal=path, resume=True
            )
            assert pickle.dumps(resumed) == expected, name
            assert path.read_bytes() == reference, name

    @pytest.mark.parametrize(
        "module, qualname, items",
        [
            ("repro.chaos", "_run_chaos_trial", [("decay", 1), ("control", 2)]),
            ("repro.fabric.specs", "_square", list(range(5))),
            ("repro.fabric.specs", "_slow_square", [(0, 0.1), (1, 0.1)]),
            ("repro.parallel", "_apply_args", [(print, (1,))]),
        ],
    )
    def test_fingerprint_recomputed_independently(self, module, qualname, items):
        import hashlib
        import importlib
        import pickle

        from repro.campaign import campaign_fingerprint

        fn = getattr(importlib.import_module(module), qualname)
        expected = hashlib.sha256(
            module.encode() + b"\x1f" + qualname.encode() + b"\x1f"
            + pickle.dumps(items)
        ).hexdigest()
        assert campaign_fingerprint(fn, items) == expected

    @pytest.mark.skipif(
        __import__("pickle").DEFAULT_PROTOCOL != 4,
        reason="these journal bytes were written under pickle protocol 4",
    )
    def test_earlier_journal_resumes_without_recomputing(self, tmp_path):
        from repro.fabric import specs
        from repro.parallel import resilient_map

        earlier = (
            '{"kind": "header", "version": 1, "fingerprint": '
            '"97ad18d7bd6dac013a2db37e060566e67d4f1513a274e8968ff4584e7d5ccb47", '
            '"items": 5, "chunksize": 2}\n'
            '{"kind": "chunk", "index": 0, "payload": "gASVCQAAAAAAAABdlChLAEsBZS4="}\n'
            '{"kind": "chunk", "index": 1, "payload": "gASVCQAAAAAAAABdlChLBEsJZS4="}\n'
            '{"kind": "chunk", "index": 2, "payload": "gASVBgAAAAAAAABdlEsQYS4="}\n'
        )
        journal = tmp_path / "earlier.jsonl"
        journal.write_text(earlier)
        got = resilient_map(
            specs._square, list(range(5)), jobs=1, journal=journal, resume=True,
            batch_fn=_refuse_batch,
        )
        assert got == [0, 1, 4, 9, 16]
        assert journal.read_text() == earlier


def _refuse_batch(chunk):
    raise AssertionError(f"chunk {chunk} was recomputed")

