"""The coordinator's supervision: it wakes when a worker exits instead
of on a timer, and closes every exit pipe it opened."""

import os
import time
from pathlib import Path

import pytest

from repro.fabric.coordinator import FabricConfig, run_fabric
from repro.fabric.faultplan import FaultPlan


def test_coordinator_returns_as_the_last_worker_exits(tmp_path):
    """With ``poll_interval=3.0`` a timer-driven coordinator sleeps 3 s
    at least once; one woken by its workers' exits does not."""
    started = time.monotonic()
    result = run_fabric(FabricConfig(
        spec="slow-squares", params={"n": 4, "delay": 0.05},
        store=tmp_path / "f.db", workers=2, poll_interval=3.0,
        install_signal_handler=False, timeout=60.0,
    ))
    elapsed = time.monotonic() - started
    assert result.results == [x * x for x in range(4)]
    assert result.worker_exits == {"w0": 0, "w1": 0}
    assert elapsed < 2.0


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
@pytest.mark.parametrize(
    ("workers", "plan"),
    [(2, ""), (2, "kill@w1#0"), (1, "kill@w0#0")],
    ids=["completes", "killed-worker", "in-process-fallback"],
)
def test_run_fabric_leaves_no_fd_open(tmp_path, workers, plan):
    before = len(os.listdir("/proc/self/fd"))
    result = run_fabric(FabricConfig(
        spec="slow-squares", params={"n": 8, "delay": 0.05}, store=tmp_path / "f.db",
        workers=workers, lease_ttl=1.0, poll_interval=0.05,
        fault_plan=FaultPlan.parse(plan) if plan else FaultPlan(),
        timeout=60.0,
    ))
    assert len(os.listdir("/proc/self/fd")) == before
    assert result.results == [x * x for x in range(8)]
    if plan:
        killed = plan.split("@")[1].split("#")[0]
        assert result.worker_exits[killed] == -9
    assert ("coordinator" in result.workers) == (workers == 1)
