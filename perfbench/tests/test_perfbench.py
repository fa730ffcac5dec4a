"""Tests of the benchmark itself, at the ``tiny`` scale.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--scale",
            "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_spec_names_the_metrics_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == (
            (result["attempted"] - result["failed"]) / result["attempted"]
        )


def test_bare_directory_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gap-ref", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _one_campaign(name: str, tmp_path: Path) -> tuple[wl.Workload, wl.Campaign, list]:
    workload = wl.WORKLOADS[name](wl.SCALES["tiny"], tmp_path)
    campaign = workload.campaign(wl.campaign_seed(name, 5, 0))
    outputs = [run_slice() for run_slice in campaign.slices]
    return workload, campaign, outputs


def _ok_frac(verdict: wl.Verdict) -> float:
    return 1 - len(verdict.failures) / verdict.attempted


def test_ok_frac_drops_when_the_gap_table_is_corrupted(tmp_path):
    workload, campaign, outputs = _one_campaign("gap-ref", tmp_path)
    assert _ok_frac(workload.check(campaign, outputs)) == 1.0
    rr = outputs[-1].columns.index("det_round_robin")
    outputs[-1].rows[0][rr] += 1
    assert _ok_frac(workload.check(campaign, outputs)) < 1.0


def test_ok_frac_drops_when_a_batch_result_is_corrupted(tmp_path):
    workload, campaign, outputs = _one_campaign("decay-numpy", tmp_path)
    assert _ok_frac(workload.check(campaign, outputs)) == 1.0
    name = next(iter(campaign.inputs["samples"]))
    seeds = campaign.inputs["seeds"][name]
    outputs[0][seeds.index(campaign.inputs["samples"][name])].slots += 1
    assert _ok_frac(workload.check(campaign, outputs)) < 1.0


def test_ok_frac_drops_when_a_chaos_trial_is_corrupted(tmp_path):
    workload, campaign, outputs = _one_campaign("chaos-pool", tmp_path)
    assert _ok_frac(workload.check(campaign, outputs)) == 1.0
    outputs[0].outcomes[0]["violations"] = ["integrity: corrupted"]
    assert _ok_frac(workload.check(campaign, outputs)) < 1.0


def test_traced_self_times_and_remainder_sum_to_wall_time(tmp_path):
    workload = wl.WORKLOADS["gap-ref"](wl.SCALES["tiny"], tmp_path)
    tracer = Tracer()
    records = run.LayerRecords()
    samples = run.trace_loop(workload, tracer, records, 7, 0.0)
    wall = sum(s.wall_s for s in samples)
    layers = run.layer_metrics(
        tracer, records, wl.summarize(samples), wl.summarize(samples), samples
    )
    remainder = layers["trace.remainder_s"] * len(samples)
    assert remainder >= 0.0
    assert tracer.self_total() + remainder == pytest.approx(wall, rel=1e-9, abs=1e-9)
    assert all(value >= -1e-9 for value in tracer.self_s.values())
    assert layers["engine.self_s"] > 0 and layers["protocols.callback_s"] > 0
    assert layers["experiments.self_s"] > 0
