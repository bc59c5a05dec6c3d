"""The benchmark's workloads.

Every workload is open-loop Poisson traffic inside the simulator
(``OpenLoopSender`` or ``EchoClient``); the benchmark itself drives the
simulator as a closed loop, one simulation at a time in one process.

A workload's inputs are a pure function of the benchmark seed: each
simulation in a run gets a *sub-seed* derived from it, so the same
``--seed`` always simulates the same traffic.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from repro.core.faults import FaultEvent, LossRates
from repro.core.topology import TopologySpec
from repro.experiments import campaign
from repro.experiments.runner import ExperimentConfig


@dataclass(frozen=True)
class Workload:
    name: str
    #: "sim": repeated single simulations; "campaign": the Fig 12 grid
    kind: str
    #: nominal host seconds of one simulation on a 2-vCPU box; sizes the
    #: number of simulations a run makes from ``--seconds`` without
    #: looking at the clock, so the simulated inputs never depend on
    #: host speed
    nominal_s: float = 0.0
    #: workload name for ``paper_data.FIG12_SHORT_MSG_P99_80``
    paper_workload: str = ""


def sub_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th simulation of a run with ``seed``."""
    return seed * 1000 + index


def n_simulations(workload: Workload, seconds: float) -> int:
    """Distinct seeds one run simulates (one more run repeats the first
    seed for the determinism check)."""
    return max(2, int(seconds / workload.nominal_s) - 1)


# -- the sim workloads ---------------------------------------------------

#: the paper's Figure 11 fabric: 9 racks x 16 hosts, 4 aggregation switches
FIG11 = dict(racks=9, hosts_per_rack=16, aggrs=4)

#: one mid-run link outage on the lossy fabric (ms of simulated time)
OUTAGE_MS = (0.9, 1.2)
OUTAGE_LINK = "tor0:aggr0.0"


def homa_w4(seed: int) -> ExperimentConfig:
    """Homa default (batched grants), one-way W4 at 80% load, sized like
    the canonical 144-host scenario of ``bench_perf_hotpaths.py``.  The
    long drain lets every message finish, so a run ends quiescent."""
    return ExperimentConfig(
        protocol="homa", workload="W4", load=0.8, **FIG11,
        duration_ms=3.0, warmup_ms=0.5, drain_ms=40.0,
        max_messages=1200, seed=seed)


def homa_w1_rpc(seed: int) -> ExperimentConfig:
    """Homa default, W1 echo RPCs at 80% load on the same 144 hosts.
    No message cap (at 144 hosts a global cap fills inside warmup); the
    generation window is fixed instead."""
    return ExperimentConfig(
        protocol="homa", workload="W1", load=0.8, **FIG11,
        mode="rpc_echo", duration_ms=0.06, warmup_ms=0.02, drain_ms=40.0,
        seed=seed)


def lossy_fabric() -> TopologySpec:
    """3-level, two pods, 10/25/100 Gbps, 0.2% Bernoulli loss on every
    tier and one ToR uplink down and back up mid-run (48 hosts)."""
    down, up = OUTAGE_MS
    return TopologySpec(
        levels=3, pods=2, racks=3, hosts_per_rack=8, aggrs=2, cores=4,
        host_gbps=10, aggr_gbps=25, core_gbps=100,
        loss=LossRates(tor=0.002, aggr=0.002, core=0.002),
        faults=(FaultEvent(down, "link", "down", OUTAGE_LINK),
                FaultEvent(up, "link", "up", OUTAGE_LINK)))


def homa_fabric_lossy(seed: int) -> ExperimentConfig:
    """Homa, one-way W3 at 50% load on ``lossy_fabric``."""
    return ExperimentConfig(
        protocol="homa", workload="W3", load=0.5, fabric=lossy_fabric(),
        duration_ms=1.0, warmup_ms=0.5, drain_ms=40.0, seed=seed)


SIM_CONFIGS = {
    "homa_w4": homa_w4,
    "homa_w1_rpc": homa_w1_rpc,
    "homa_fabric_lossy": homa_fabric_lossy,
}


# -- the campaign workload -----------------------------------------------

def fig12_specs(seed: int) -> list[campaign.CampaignSpec]:
    """The Fig 12 grid of ``bench_fig12_fig13_slowdown.campaign_specs()``
    at ``REPRO_BENCH_SCALE=tiny`` (21 cells), every cell re-seeded from
    the benchmark seed.  Requires ``benchmarks/`` on ``sys.path``."""
    import bench_fig12_fig13_slowdown as fig12

    saved = os.environ.get("REPRO_BENCH_SCALE")
    os.environ["REPRO_BENCH_SCALE"] = "tiny"
    try:
        specs = fig12.campaign_specs()
    finally:
        if saved is None:
            del os.environ["REPRO_BENCH_SCALE"]
        else:
            os.environ["REPRO_BENCH_SCALE"] = saved
    index = 0
    reseeded = []
    for spec in specs:
        cells = []
        for cell in spec.cells:
            cells.append(dataclasses.replace(
                cell, spec=dataclasses.replace(
                    cell.spec, seed=sub_seed(seed, index))))
            index += 1
        reseeded.append(campaign.CampaignSpec(spec.name, tuple(cells)))
    return reseeded


#: why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    "homa_w4": Workload("homa_w4", "sim", nominal_s=6.0, paper_workload="W4"),
    "homa_w1_rpc": Workload("homa_w1_rpc", "sim", nominal_s=4.5,
                            paper_workload="W1"),
    "homa_fabric_lossy": Workload("homa_fabric_lossy", "sim", nominal_s=3.2,
                                  paper_workload="W3"),
    "campaign_fig12": Workload("campaign_fig12", "campaign"),
}
