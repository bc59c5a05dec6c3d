"""Tests of the benchmark itself: seconds-long sizes of every workload
through the same code path as ``run.py``, the correctness checks firing
on deliberately broken results, and the tree staying clean."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, workloads
from perfbench.checks import conservation_errors, outcome_of, same_digest_errors
from perfbench.probe import timed_run

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(ROOT / "benchmarks"))

SEED = 3


def small_w4(seed):
    return dataclasses.replace(
        workloads.homa_w4(seed), racks=2, hosts_per_rack=4, aggrs=2,
        duration_ms=1.0, max_messages=60)


def small_w1_rpc(seed):
    return dataclasses.replace(
        workloads.homa_w1_rpc(seed), racks=2, hosts_per_rack=4, aggrs=2,
        duration_ms=0.3)


def small_lossy(seed):
    cfg = workloads.homa_fabric_lossy(seed)
    fabric = dataclasses.replace(cfg.fabric, racks=1, hosts_per_rack=4)
    return dataclasses.replace(cfg, fabric=fabric)


SMALL = {"homa_w4": small_w4, "homa_w1_rpc": small_w1_rpc,
         "homa_fabric_lossy": small_lossy}


@pytest.fixture(autouse=True)
def few_samples(monkeypatch):
    """Same code path, fewer timing samples: the tests check behaviour,
    not steadiness."""
    for name, value in (("SETUP_SAMPLES", 4), ("YARDSTICK_SAMPLES", 2),
                        ("CACHED_REPEATS", 2), ("IMPORT_SAMPLES", 1),
                        ("CAMPAIGN_SETUP_SAMPLES", 1)):
        monkeypatch.setattr(bench, name, value)


def small_grid(seed):
    """Two Homa cells and one baseline cell of the Fig 12 grid."""
    keep = {("fig12-W1", ("homa", 0.8)), ("fig12-W1", ("pfabric", 0.8)),
            ("fig12-W4", ("homa", 0.8))}
    specs = []
    for spec in workloads.fig12_specs(seed):
        cells = tuple(c for c in spec.cells if (spec.name, c.key) in keep)
        if cells:
            specs.append(dataclasses.replace(spec, cells=cells))
    return specs


def result_line(report: bench.Report) -> dict:
    lines = report.lines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for name, unit in report.units.items():
        assert f"{name} = " in "\n".join(lines)
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
    return result


@pytest.mark.parametrize("name", sorted(SMALL))
def test_sim_workload_prints_every_end_to_end_metric(name):
    report = bench.run_sim(workloads.WORKLOADS[name], SEED, 0, SMALL)
    result = result_line(report)
    assert result["correct"], report.errors
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reports_every_layer(name):
    report = bench.trace_sim(workloads.WORKLOADS[name], SEED, SMALL)
    result = result_line(report)
    assert result["correct"], report.errors
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(bench.PER_LAYER)
    assert 0.9 < metrics["trace.coverage"] <= 1.0
    assert metrics["trace.overhead"] > 0
    assert metrics["engine.events"] > 0
    assert metrics["campaign.hit_ratio"] == 1.0
    if name == "homa_fabric_lossy":
        assert metrics["switch.events"] > 0 and metrics["topology.events"] == 0
        assert metrics["faults.applied"] == 2
    else:
        assert metrics["topology.events"] > 0 and metrics["switch.events"] == 0
        assert metrics["faults.drops"] == 0 and metrics["transport.rtx_data"] == 0


def git_status() -> str | None:
    try:
        done = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


def test_campaign_code_path_leaves_the_tree_clean():
    """The campaign path writes the most: a temporary cache, fresh
    interpreters for the import timing, and the trace file."""
    before = git_status()
    workload = workloads.WORKLOADS["campaign_fig12"]
    report = bench.run_campaign(workload, SEED, small_grid)
    result = result_line(report)
    assert result["correct"], report.errors
    traced = result_line(bench.trace_campaign(workload, SEED, small_grid))
    assert traced["correct"]
    assert traced["metrics"]["campaign.cell_s"]["value"] > 0
    assert traced["metrics"]["trace.coverage"]["value"] > 0.9
    if before is not None:
        assert git_status() == before


@pytest.fixture(scope="module")
def outcomes():
    clean = timed_run(small_w4(SEED))
    lossy = timed_run(small_lossy(SEED))
    return (outcome_of("clean", clean.result, clean.stamps.quiescent),
            outcome_of("lossy", lossy.result, lossy.stamps.quiescent))


def test_checks_pass_on_real_results(outcomes):
    clean, lossy = outcomes
    assert clean.clean and clean.quiescent and clean.undelivered == 0
    assert not lossy.clean and lossy.drops > 0
    assert conservation_errors(clean) == []
    assert conservation_errors(lossy) == []


@pytest.mark.parametrize("breakage", [
    lambda o: dict(completed=o.completed - 1),    # one dropped completion
    lambda o: dict(completed=o.submitted + 1),    # a completion nobody sent
    lambda o: dict(records=o.completed + 1),      # a record with no completion
    lambda o: dict(aborted=1),                    # an abort on a clean fabric
    lambda o: dict(min_slowdown=0.5),             # faster than an idle network
])
def test_conservation_fires_on_broken_clean_result(outcomes, breakage):
    clean = outcomes[0]
    assert conservation_errors(dataclasses.replace(clean, **breakage(clean)))


def test_unrecorded_completion_fires_without_warmup(outcomes):
    clean = dataclasses.replace(outcomes[0], warmup=False,
                                records=outcomes[0].completed)
    assert conservation_errors(clean) == []
    assert conservation_errors(dataclasses.replace(
        clean, records=clean.completed - 1))


def test_conservation_fires_on_broken_lossy_result(outcomes):
    lossy = outcomes[1]
    assert conservation_errors(dataclasses.replace(
        lossy, completed=lossy.submitted - lossy.drops - 1))
    assert conservation_errors(dataclasses.replace(
        lossy, give_ups=lossy.undelivered + 1))


def test_digest_check_and_failed_operation():
    assert same_digest_errors("x", "a" * 64, "a" * 64) == []
    errors = same_digest_errors("x", "a" * 64, "b" * 64)
    assert errors
    report = bench.Report("homa_w4", SEED, trace=False,
                          metrics={name: 1.0 for name in bench.END_TO_END})
    report.attempt([])
    report.attempt(errors)
    result = json.loads(report.lines()[-1])
    assert result == {**result, "correct": False, "attempted": 2,
                      "failed": 1}


def test_refuses_without_the_simulator_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homa_w4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        assert workload["name"] in workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_yardstick_is_frozen():
    from perfbench import yardstick
    assert yardstick.run() == yardstick.run() > 0
