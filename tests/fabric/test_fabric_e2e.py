"""End-to-end fabric acceptance tests: real worker processes, real
``kill -9``, and the byte-identity + fencing-soundness verdicts.

These encode the PR's acceptance criterion directly: under a fault
plan that kills/stalls >=30% of the workers and forces a stale-commit
attempt, the campaign completes, no chunk is ever committed under an
expired fencing token, and the spliced results are byte-identical to
the serial reference run.
"""

import pickle

import pytest

from repro.fabric.coordinator import FabricConfig, run_fabric
from repro.fabric.faultplan import FaultPlan
from repro.fabric.specs import resolve_spec
from repro.fabric.verify import verify_fabric
from repro.parallel import resilient_map


def _chaos_config(tmp_path, *, seed=1, workers=3, journal=None):
    plan = FaultPlan.random(
        seed,
        [f"w{i}" for i in range(workers)],
        max_ordinal=1,
        stall_duration=2.5,
        partition_duration=2.5,
    )
    return FabricConfig(
        spec="slow-squares",
        params={"n": 18, "delay": 0.05},
        store=tmp_path / "fabric.db",
        workers=workers,
        lease_ttl=1.0,
        fault_plan=plan,
        journal=journal,
        timeout=120.0,
    )


class TestAcceptance:
    def test_faulted_fabric_matches_serial_byte_for_byte(self, tmp_path):
        config = _chaos_config(tmp_path)
        # The seeded default plan faults all three workers (kill, stall,
        # stale) — well past the 30% bar — with one stale-commit drill.
        assert len(config.fault_plan.faulted_workers()) == 3
        assert config.fault_plan.count("stale") == 1

        report = verify_fabric(config)
        assert report.byte_identical, report.render()
        assert report.fencing_errors == [], report.render()
        assert report.visibility_errors == [], report.render()
        assert report.passed

        # The faults demonstrably happened.
        assert report.result.takeovers >= 1
        assert report.result.fence_rejects >= 1
        exit_codes = set(report.result.worker_exits.values())
        assert -9 in exit_codes  # someone really was SIGKILLed

    def test_fabric_journal_is_byte_identical_to_pool_journal(self, tmp_path):
        config = _chaos_config(tmp_path, journal=tmp_path / "fabric.jsonl")
        result = run_fabric(config)

        spec = resolve_spec(config.spec, config.params)
        reference = resilient_map(
            spec.fn,
            spec.items,
            jobs=1,
            chunksize=result.chunksize,
            journal=str(tmp_path / "pool.jsonl"),
        )
        assert pickle.dumps(result.results) == pickle.dumps(reference)
        fabric_bytes = (tmp_path / "fabric.jsonl").read_bytes()
        pool_bytes = (tmp_path / "pool.jsonl").read_bytes()
        assert fabric_bytes == pool_bytes

        # And the fabric-written journal resumes under resilient_map.
        resumed = resilient_map(
            spec.fn, spec.items, jobs=1,
            journal=str(tmp_path / "fabric.jsonl"), resume=True,
        )
        assert resumed == reference


class TestFallback:
    def test_zero_workers_runs_in_process(self, tmp_path):
        config = FabricConfig(
            spec="squares", params={"n": 20},
            store=tmp_path / "f.db", workers=0, timeout=60.0,
        )
        result = run_fabric(config)
        assert result.results == [x * x for x in range(20)]
        assert "coordinator" in result.workers

    def test_all_workers_killed_coordinator_finishes(self, tmp_path):
        # Every worker is killed on its first claim; the campaign
        # must still complete via the coordinator's in-process fallback.
        config = FabricConfig(
            spec="squares", params={"n": 12},
            store=tmp_path / "f.db", workers=2,
            lease_ttl=0.5,
            fault_plan=FaultPlan.parse("kill@w0#0,kill@w1#0"),
            timeout=120.0,
        )
        result = run_fabric(config)
        assert result.results == [x * x for x in range(12)]
        assert set(result.worker_exits.values()) == {-9}


class TestCleanShutdown:
    def test_fault_free_workers_exit_zero(self, tmp_path):
        """Workers that finished on their own are reaped, never SIGTERMed
        while they shut down: every exit code is 0 in fault-free runs.
        Worker telemetry lengthens that shutdown, widening the window."""
        for seed in range(10):
            config = FabricConfig(
                spec="chaos", params={"n": 16, "reps": 4, "master_seed": seed},
                store=tmp_path / f"f{seed}.db", workers=2, worker_telemetry=True,
                install_signal_handler=False, timeout=120.0,
            )
            result = run_fabric(config)
            assert result.worker_exits == {"w0": 0, "w1": 0}, (seed, result.worker_exits)


class TestGuards:
    def test_unknown_fault_target_rejected_up_front(self, tmp_path):
        from repro.errors import ExperimentError

        config = FabricConfig(
            spec="squares", params={"n": 4},
            store=tmp_path / "f.db", workers=1,
            fault_plan=FaultPlan.parse("kill@w7#0"),
        )
        with pytest.raises(ExperimentError, match="unknown worker"):
            run_fabric(config)


class TestSigtermHandler:
    """``run_fabric`` drains on SIGTERM only while it runs: the caller's
    handler is back once it returns or raises."""

    def _run(self, config):
        """Run under a marker SIGTERM handler; return whether the marker
        is installed afterwards, and the error raised (or None)."""
        import signal

        from repro.errors import ExperimentError

        def marker(*_):
            pass

        previous = signal.signal(signal.SIGTERM, marker)
        error = None
        try:
            run_fabric(config)
        except ExperimentError as exc:
            error = exc
        finally:
            after = signal.getsignal(signal.SIGTERM)
            signal.signal(signal.SIGTERM, previous)
        return after is marker, error

    def test_restored_on_return(self, tmp_path):
        restored, error = self._run(FabricConfig(
            spec="squares", params={"n": 6},
            store=tmp_path / "f.db", workers=1, timeout=60.0,
        ))
        assert error is None
        assert restored

    def test_restored_on_raise(self, tmp_path):
        restored, error = self._run(FabricConfig(
            spec="slow-squares", params={"n": 6, "delay": 0.5},
            store=tmp_path / "f.db", workers=1, timeout=0.0,
        ))
        assert "deadline" in str(error)
        assert restored
