"""Run one workload, check its results and compute its metrics.

``run_workload`` is the single code path behind ``run.py`` and the
benchmark's own tests.  With ``trace=False`` it measures the end-to-end
metrics; with ``trace=True`` it makes one untraced reference run and one
traced run of the same inputs and reports the per-layer metrics.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.experiments import campaign
from repro.experiments.paper_data import FIG12_SHORT_MSG_P99_80
from repro.experiments.runner import ExperimentConfig, ExperimentResult

from perfbench.checks import conservation_errors, outcome_of, same_digest_errors
from perfbench.probe import Recorder, Stamps, setup_sample, timed_run
from perfbench import yardstick
from perfbench.trace import SAMPLE_EVERY, Tracer
from perfbench.workloads import (
    SIM_CONFIGS,
    WORKLOADS,
    Workload,
    fig12_specs,
    n_simulations,
    sub_seed,
)

ROOT = Path(__file__).resolve().parents[1]
#: scratch space inside the checkout (git-ignored): temporary campaign
#: caches and the trace files
OUT_DIR = ROOT / ".perfbench_out"

#: set-up samples per sim-workload run (the simulations' own, topped up
#: with set-up-only calls); build plus attach at 144 hosts is tens of ms
SETUP_SAMPLES = 25
#: yardstick samples per run, spread between the simulations
YARDSTICK_SAMPLES = 24
#: set-up samples of the whole grid per campaign run
CAMPAIGN_SETUP_SAMPLES = 3
#: fresh interpreters timed importing the campaign stack
IMPORT_SAMPLES = 3
#: cached reruns of the campaign grid per run
CACHED_REPEATS = 25
#: grid cells re-simulated to check the campaign's determinism
DETERMINISM_CELLS = (("fig12-W1", ("homa", 0.8)), ("fig12-W4", ("homa", 0.8)))

END_TO_END = {
    "host_s_per_gb": "s/GB",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "short_p99_slowdown": "ratio",
    "p50_slowdown": "ratio",
}

PER_LAYER = {
    "engine.events": "count",
    "engine.dead_pops": "count",
    "engine.live_ratio": "ratio",
    "engine.self_s": "s",
    "engine.ns_per_event": "ns",
    "port.events": "count",
    "port.s": "s",
    "topology.events": "count",
    "topology.s": "s",
    "switch.events": "count",
    "switch.s": "s",
    "host.events": "count",
    "host.self_s": "s",
    "transport.on_packet_calls": "count",
    "transport.on_packet_s": "s",
    "transport.send_calls": "count",
    "transport.send_s": "s",
    "transport.timer_events": "count",
    "transport.timer_s": "s",
    "transport.grants": "count",
    "transport.grant_ticks": "count",
    "transport.resends": "count",
    "transport.busys": "count",
    "transport.rtx_data": "count",
    "transport.rtx_recovered": "count",
    "transport.rtx_useful_ratio": "ratio",
    "transport.give_ups": "count",
    "pool.data_allocs": "count",
    "pool.ctrl_allocs": "count",
    "pool.slots": "count",
    "pool.grows": "count",
    "pool.s": "s",
    "faults.drops": "count",
    "faults.black_holes": "count",
    "faults.reroutes": "count",
    "faults.applied": "count",
    "apps.events": "count",
    "apps.self_s": "s",
    "slowdown.records": "count",
    "slowdown.record_s": "s",
    "slowdown.series_s": "s",
    "runner.build_s": "s",
    "runner.attach_s": "s",
    "runner.loop_s": "s",
    "runner.collect_s": "s",
    "runner.undelivered_frac": "ratio",
    "campaign.fingerprint_s": "s",
    "campaign.cache_load_s": "s",
    "campaign.decode_s": "s",
    "campaign.encode_s": "s",
    "campaign.cache_store_s": "s",
    "campaign.cell_s": "s",
    "campaign.hit_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}


@dataclass
class Report:
    """Everything one benchmark run prints."""

    workload: str
    seed: int
    trace: bool
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: simulations and cache reruns made; those failing a check
    attempted: int = 0
    failed: int = 0

    def attempt(self, errors: list[str]) -> None:
        """Count one operation and record its check failures."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    @property
    def units(self) -> dict[str, str]:
        return PER_LAYER if self.trace else END_TO_END

    def note(self, text: str) -> None:
        self.notes.append(text)

    def lines(self) -> list[str]:
        """The human-readable report, then the result line."""
        out = [f"# workload {self.workload} seed {self.seed} "
               f"trace {int(self.trace)}"]
        out += [f"# {text}" for text in self.notes]
        out += [f"{name} = {self.metrics[name]!r} {unit}"
                for name, unit in self.units.items()]
        out += [f"CHECK FAILED: {error}" for error in self.errors]
        out.append(json.dumps({
            "correct": not self.errors and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name], "unit": unit}
                        for name, unit in self.units.items()},
        }))
        return out


# -- per-simulation summaries -------------------------------------------

@dataclass
class SimSummary:
    """What a run keeps of one simulation (the result itself is dropped
    so a run holds one fabric at a time)."""

    wall_s: float
    stamps: Stamps
    digest: str
    sizes: list[int]
    slowdowns: list[float]
    edges: list[int]
    submitted: int
    completed: int
    errors: list[str]


def digest_of(key, result: ExperimentResult) -> str:
    return campaign.slowdown_digest({key: result})


def summarize(key, wall_s: float, stamps: Stamps,
              result: ExperimentResult) -> SimSummary:
    outcome = outcome_of(repr(key), result, stamps.quiescent)
    return SimSummary(
        wall_s=wall_s, stamps=stamps, digest=digest_of(key, result),
        sizes=result.tracker.sizes, slowdowns=result.tracker.slowdowns,
        edges=result.bucket_edges(), submitted=result.submitted,
        completed=result.completed, errors=conservation_errors(outcome))


def tail(sizes, slowdowns, edges) -> tuple[float, float, int]:
    """(short-message p99, all-message p50, short sample count).  Short
    messages are those in the size buckets up to the median message
    size, the shortest ~50% (Fig 12's "short messages")."""
    sizes = np.asarray(sizes)
    slowdowns = np.asarray(slowdowns)
    short = slowdowns[sizes <= edges[len(edges) // 2]]
    return (float(np.percentile(short, 99)),
            float(np.percentile(slowdowns, 50)), int(short.size))


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def undelivered_frac(summaries) -> float:
    submitted = sum(s.submitted for s in summaries)
    return sum(s.submitted - s.completed for s in summaries) / submitted


def paper_note(label: str, paper_workload: str, value: float) -> str:
    ref = FIG12_SHORT_MSG_P99_80.get(paper_workload, {}).get("homa")
    return (f"{label} short_p99_slowdown {value:.3f} vs paper Fig 12 Homa "
            f"{paper_workload} ~{ref} (approximate, read off plots; not "
            f"gated; the model is otherwise unvalidated)")


def host_factor(samples: list[float]) -> float:
    """How much slower than the reference this host ran during the run
    (``yardstick``): divide a measured time by it to get reference
    seconds."""
    return statistics.median(samples) / yardstick.REFERENCE_S


def host_note(factor: float, samples: list[float], raw: dict) -> str:
    measured = ", ".join(f"{name} {value!r} s" for name, value in raw.items())
    return (f"host factor {factor:.4f} (median of {len(samples)} yardstick "
            f"runs over the {yardstick.REFERENCE_S} s reference); measured "
            f"before dividing by it: {measured}")


def peak_rss_mb() -> float:
    """Peak resident memory of this process (one workload per process)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the campaign cache ---------------------------------------------------

def grid_digest(results: dict) -> str:
    """``slowdown_digest`` over every cell of ``run_pooled``'s output."""
    return campaign.slowdown_digest({
        (name, key): result
        for name, cells in results.items() for key, result in cells.items()})


def cached_reruns(specs, cache_dir: Path, expected: str, repeats: int,
                  report: Report) -> tuple[list[float], float]:
    """Rerun ``specs`` against a full cache with the code fingerprint
    not memoised; returns (seconds per rerun, cache hit ratio)."""
    samples = []
    hits = cells = 0
    for _ in range(repeats):
        campaign._fingerprints.clear()
        start = perf_counter()
        results = campaign.run_pooled(specs, jobs=1, cache_dir=cache_dir,
                                      quiet=True)
        samples.append(perf_counter() - start)
        hits += sum(r.cached for r in results.values())
        cells += sum(r.cached + r.computed for r in results.values())
        errors = same_digest_errors("cached rerun", expected,
                                    grid_digest(results))
        computed = sum(r.computed for r in results.values())
        if computed:
            errors.append(f"cached rerun recomputed {computed} cells")
        report.attempt(errors)
    return samples, hits / cells


def single_cell(workload: Workload, cfg: ExperimentConfig):
    """A sim workload's first simulation as a one-cell campaign."""
    cell = campaign.Cell(key=cfg.seed, spec=cfg)
    return campaign.CampaignSpec(f"perfbench-{workload.name}", (cell,))


def store_result(spec, cache_dir: Path, result: ExperimentResult) -> None:
    cache = campaign.ResultCache(cache_dir)
    cell = spec.cells[0]
    cache.store(cache.path_for(spec.name, cell), spec.name, cell,
                result.to_payload())


def scratch_dir():
    OUT_DIR.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT_DIR)


# -- untraced runs --------------------------------------------------------

def run_sim(workload: Workload, seed: int, seconds: float,
            configs=SIM_CONFIGS) -> Report:
    make = configs[workload.name]
    report = Report(workload.name, seed, trace=False)
    seeds = [sub_seed(seed, i) for i in range(n_simulations(workload, seconds))]
    rounds = seeds + seeds[:1]
    spec = single_cell(workload, make(seeds[0]))
    sims: list[SimSummary] = []
    setups: list[float] = []
    yards: list[float] = []
    with scratch_dir() as cache_dir:
        # Host speed drifts by tens of percent over a minute, so the
        # set-up and yardstick samples are spread over the whole run
        # between the simulations rather than taken in one burst.
        for index, sim_seed in enumerate(rounds):
            run = timed_run(make(sim_seed))
            key = (spec.name, sim_seed)
            sim = summarize(key, run.wall_s, run.stamps, run.result)
            errors = list(sim.errors)
            if index == len(seeds):
                errors += same_digest_errors(
                    f"repeat of seed {sim_seed}", sims[0].digest, sim.digest)
            report.attempt(errors)
            sims.append(sim)
            setups.append(sim.stamps.setup_s)
            if index == 0:
                # The campaign cache must hand back the same result.
                store_result(spec, cache_dir, run.result)
                cached_reruns([spec], cache_dir, sim.digest, 1, report)
            del run
            for _ in range(math.ceil((SETUP_SAMPLES - 1) / len(rounds)) - 1):
                setups.append(setup_sample(make(sim_seed)))
            for _ in range(math.ceil(YARDSTICK_SAMPLES / len(rounds))):
                yards.append(yardstick.sample())

    distinct = sims[:len(seeds)]
    short_p99, p50, n_short = tail(
        [s for sim in distinct for s in sim.sizes],
        [s for sim in distinct for s in sim.slowdowns], distinct[0].edges)
    host = host_factor(yards)
    wall = statistics.median(sim.wall_s for sim in sims)
    setup = statistics.median(setups)
    per_gb = statistics.median(
        sim.wall_s / (sim.stamps.delivered_bytes / 1e9) for sim in sims)
    report.metrics.update(
        host_s_per_gb=per_gb / host,
        setup_s=setup / host,
        peak_rss_mb=peak_rss_mb(),
        short_p99_slowdown=short_p99,
        p50_slowdown=p50)
    samples = sum(len(sim.sizes) for sim in distinct)
    report.note(f"{len(seeds)} seeds {seeds} plus a repeat of the first; "
                f"host_s_per_gb is the median of {len(sims)} simulations, "
                f"setup_s of {len(setups)} set-ups; simulated GB delivered "
                f"{[sim.stamps.delivered_bytes / 1e9 for sim in sims]}")
    report.note(host_note(host, yards, {"wall_s": wall, "setup_s": setup}))
    report.note(f"slowdown samples {samples} ({n_short} short), events "
                f"{[sim.stamps.events for sim in sims]}")
    report.note(f"undelivered_frac = {undelivered_frac(distinct)!r} ratio "
                f"(messages the modelled fabric never delivered; "
                f"reported, not a failed operation)")
    report.note(paper_note(workload.name, workload.paper_workload, short_p99))
    report.note(f"slowdown digest of seed {seeds[0]}: {sims[0].digest}")
    return report


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the campaign
    stack (the first thing ``repro campaign`` pays)."""
    code = ("import time; start = time.perf_counter(); "
            "import repro.experiments.campaign, repro.transport.registry, "
            "bench_fig12_fig13_slowdown; "
            "print(time.perf_counter() - start)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "benchmarks")]))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def campaign_setup_seconds(seed: int, import_s: float,
                           specs_for=fig12_specs) -> float:
    """Imports, spec expansion, the cold code fingerprint and every
    cell's fabric build and attach."""
    start = perf_counter()
    specs = specs_for(seed)
    campaign._fingerprints.clear()
    campaign.code_fingerprint()
    expand_s = perf_counter() - start
    cells_s = sum(setup_sample(cell.spec)
                  for spec in specs for cell in spec.cells)
    return import_s + expand_s + cells_s


def fresh_grid(specs, cache_dir: Path, report: Report,
               recorder: Recorder) -> tuple[dict, float]:
    """The grid with an empty cache; checks every cell."""
    campaign._fingerprints.clear()
    with recorder.installed():
        start = perf_counter()
        results = campaign.run_pooled(specs, jobs=1, fresh=True,
                                      cache_dir=cache_dir, quiet=True)
        wall = perf_counter() - start
    quiescent = {stamps.cfg.seed: stamps.quiescent
                 for stamps in recorder.runs}
    for name, cells in results.items():
        for key, result in cells.items():
            outcome = outcome_of(f"{name} {key!r}", result,
                                 quiescent[result.cfg.seed])
            report.attempt(conservation_errors(outcome))
    return results, wall


def run_campaign(workload: Workload, seed: int,
                 specs_for=fig12_specs) -> Report:
    """The grid has a fixed size, so ``--seconds`` does not apply."""
    report = Report(workload.name, seed, trace=False)
    yards = [yardstick.sample() for _ in range(YARDSTICK_SAMPLES // 2)]
    import_s = import_seconds()
    setups = [campaign_setup_seconds(seed, import_s, specs_for)
              for _ in range(CAMPAIGN_SETUP_SAMPLES)]
    specs = specs_for(seed)
    with scratch_dir() as cache_dir:
        recorder = Recorder()
        results, wall = fresh_grid(specs, Path(cache_dir), report, recorder)
        yards += [yardstick.sample() for _ in range(YARDSTICK_SAMPLES // 2)]
        expected = grid_digest(results)
        for name, key in DETERMINISM_CELLS:
            fresh = results[name][key]
            run = timed_run(fresh.cfg)
            report.attempt(same_digest_errors(
                f"repeat of {name} {key!r}", digest_of(key, fresh),
                digest_of(key, run.result)))
        cached, _ = cached_reruns(specs, Path(cache_dir), expected,
                                  CACHED_REPEATS, report)

    tails = {(name, key): tail(r.tracker.sizes, r.tracker.slowdowns,
                               r.bucket_edges())
             for name, cells in results.items() for key, r in cells.items()}
    host = host_factor(yards)
    setup = statistics.median(setups)
    delivered_gb = sum(stamps.delivered_bytes for stamps in recorder.runs) / 1e9
    report.metrics.update(
        host_s_per_gb=wall / delivered_gb / host,
        setup_s=setup / host,
        peak_rss_mb=peak_rss_mb(),
        short_p99_slowdown=geomean(t[0] for t in tails.values()),
        p50_slowdown=geomean(t[1] for t in tails.values()))
    report.note(f"{len(tails)} cells; host_s_per_gb is one fresh grid "
                f"over {delivered_gb!r} simulated GB, setup_s the "
                f"median of {len(setups)} set-ups (imports {import_s:.3f} s "
                f"included); the slowdown metrics are geometric means over "
                       f"the cells")
    report.note(host_note(host, yards, {"wall_s": wall, "setup_s": setup}))
    report.note(f"cached_s = {statistics.median(cached)!r} s (median of "
                f"{len(cached)} reruns against the full cache, code "
                f"fingerprint not memoised)")
    submitted = sum(r.submitted for c in results.values() for r in c.values())
    completed = sum(r.completed for c in results.values() for r in c.values())
    report.note(f"undelivered_frac = {(submitted - completed) / submitted!r} "
                f"ratio (submitted but not completed when each cell ended)")
    for name, cells in results.items():
        for key, result in cells.items():
            if key[0] == "homa":
                report.note(paper_note(name, result.cfg.workload,
                                       tails[(name, key)][0]))
    report.note(f"grid slowdown digest: {expected}")
    return report


# -- traced runs ----------------------------------------------------------

def layer_metrics(tracer: Tracer, refs: list[Stamps], ref_wall: float,
                  traced_wall: float, results: list[ExperimentResult],
                  undelivered: float, hit_ratio: float) -> dict[str, float]:
    ev = tracer.layer_events
    ns = tracer.layer_self_ns
    calls = tracer.entry_calls
    self_ns = tracer.entry_self_ns
    incl_ns = tracer.entry_incl_ns
    events = sum(ev.values())
    ref_events = sum(s.events for s in refs)
    control = [r.control for r in results]
    fabric = [r.fabric for r in results]
    rtx = sum(c.rtx_data for c in control)
    recovered = sum(c.rtx_recovered for c in control)
    pools = tracer.pools
    return {
        "engine.events": events,
        "engine.dead_pops": tracer.dead_pops,
        "engine.live_ratio": events / (events + tracer.dead_pops),
        "engine.self_s": (tracer.engine_self_ns + ns["engine"]) / 1e9,
        "engine.ns_per_event": sum(s.loop_s for s in refs) * 1e9 / ref_events,
        "port.events": ev["port"],
        "port.s": ns["port"] / 1e9,
        "topology.events": ev["topology"] + calls["topology.ingress"],
        "topology.s": (ns["topology"] + self_ns["topology.ingress"]) / 1e9,
        "switch.events": ev["switch"] + calls["switch.ingress"],
        "switch.s": (ns["switch"] + self_ns["switch.ingress"]) / 1e9,
        "host.events": ev["host"] + calls["host.ingress"],
        "host.self_s": (ns["host"] + self_ns["host.ingress"]) / 1e9,
        "transport.on_packet_calls": calls["transport.on_packet"],
        "transport.on_packet_s": self_ns["transport.on_packet"] / 1e9,
        "transport.send_calls": calls["transport.send"],
        "transport.send_s": self_ns["transport.send"] / 1e9,
        "transport.timer_events": ev["transport"],
        "transport.timer_s": ns["transport"] / 1e9,
        "transport.grants": sum(c.grants for c in control),
        "transport.grant_ticks": sum(c.grant_ticks for c in control),
        "transport.resends": sum(c.resends for c in control),
        "transport.busys": sum(c.busys for c in control),
        "transport.rtx_data": rtx,
        "transport.rtx_recovered": recovered,
        "transport.rtx_useful_ratio": recovered / rtx if rtx else 0.0,
        "transport.give_ups": sum(c.give_ups + c.outbound_give_ups
                                  for c in control),
        "pool.data_allocs": sum(p.data_allocs for p in pools),
        "pool.ctrl_allocs": sum(p.ctrl_allocs for p in pools),
        "pool.slots": max((len(p.slots) for p in pools), default=0),
        "pool.grows": sum(p.grows for p in pools),
        "pool.s": self_ns["pool"] / 1e9,
        "faults.drops": sum(f.drops_tor + f.drops_aggr + f.drops_core
                            + f.fault_drops for f in fabric),
        "faults.black_holes": sum(f.black_holes for f in fabric),
        "faults.reroutes": sum(f.reroutes for f in fabric),
        "faults.applied": sum(f.faults_applied for f in fabric),
        "apps.events": ev["apps"],
        "apps.self_s": ns["apps"] / 1e9,
        "slowdown.records": calls["slowdown.record"],
        "slowdown.record_s": self_ns["slowdown.record"] / 1e9,
        "slowdown.series_s": incl_ns["slowdown.series"] / 1e9,
        "runner.build_s": sum(s.build_s for s in refs),
        "runner.attach_s": sum(s.setup_s - s.build_s for s in refs),
        "runner.loop_s": sum(s.loop_s for s in refs),
        "runner.collect_s": sum(s.collect_s for s in refs),
        "runner.undelivered_frac": undelivered,
        "campaign.fingerprint_s": incl_ns["campaign.fingerprint"] / 1e9,
        "campaign.cache_load_s": incl_ns["campaign.cache_load"] / 1e9,
        "campaign.decode_s": incl_ns["campaign.decode"] / 1e9,
        "campaign.encode_s": incl_ns["campaign.encode"] / 1e9,
        "campaign.cache_store_s": incl_ns["campaign.cache_store"] / 1e9,
        "campaign.cell_s": incl_ns["campaign.cell"] / 1e9,
        "campaign.hit_ratio": hit_ratio,
        "trace.coverage": 1.0 - ns["other"] / tracer.loop_ns,
        "trace.overhead": traced_wall / ref_wall,
        "trace.spans": len(tracer.spans),
    }


def finish_trace(report: Report, tracer: Tracer, metrics: dict) -> None:
    report.metrics.update(metrics)
    path = OUT_DIR / f"trace-{report.workload}-seed{report.seed}.json"
    tracer.dump(path, {name: metrics[name] for name in PER_LAYER})
    report.note(f"per-layer aggregates and {len(tracer.spans)} sampled spans "
                f"(every {SAMPLE_EVERY}th event) written to "
                f"{path.relative_to(ROOT)}")


def trace_sim(workload: Workload, seed: int, configs=SIM_CONFIGS) -> Report:
    report = Report(workload.name, seed, trace=True)
    cfg = configs[workload.name](sub_seed(seed, 0))
    spec = single_cell(workload, cfg)
    key = (spec.name, cfg.seed)
    ref = timed_run(cfg)
    ref_sim = summarize(key, ref.wall_s, ref.stamps, ref.result)
    report.attempt(ref_sim.errors)
    del ref

    tracer = Tracer()
    with tracer.installed(), scratch_dir() as cache_dir:
        traced = timed_run(cfg, tracer.recorder)
        sim = summarize(key, traced.wall_s, traced.stamps, traced.result)
        report.attempt(sim.errors + same_digest_errors(
            "traced run", ref_sim.digest, sim.digest))
        store_result(spec, Path(cache_dir), traced.result)
        _, hit_ratio = cached_reruns([spec], Path(cache_dir), sim.digest, 1,
                                     report)
    finish_trace(report, tracer, layer_metrics(
        tracer, [ref_sim.stamps], ref_sim.wall_s, traced.wall_s,
        [traced.result], undelivered_frac([ref_sim]), hit_ratio))
    report.note(f"traced seed {cfg.seed}: digest {sim.digest} equals the "
                f"untraced run's: {sim.digest == ref_sim.digest}")
    return report


def trace_campaign(workload: Workload, seed: int,
                   specs_for=fig12_specs) -> Report:
    report = Report(workload.name, seed, trace=True)
    specs = specs_for(seed)
    ref_recorder = Recorder()
    with scratch_dir() as cache_dir:
        ref, ref_wall = fresh_grid(specs, Path(cache_dir), report,
                                   ref_recorder)
        expected = grid_digest(ref)
        submitted = sum(r.submitted for c in ref.values() for r in c.values())
        completed = sum(r.completed for c in ref.values() for r in c.values())
        del ref
    tracer = Tracer()
    with tracer.installed(), scratch_dir() as cache_dir:
        traced, traced_wall = fresh_grid(specs, Path(cache_dir), report,
                                         tracer.recorder)
        digest = grid_digest(traced)
        report.attempt(same_digest_errors("traced grid", expected, digest))
        _, hit_ratio = cached_reruns(specs, Path(cache_dir), digest, 1,
                                     report)
    results = [r for cells in traced.values() for r in cells.values()]
    finish_trace(report, tracer, layer_metrics(
        tracer, ref_recorder.runs, ref_wall, traced_wall, results,
        (submitted - completed) / submitted, hit_ratio))
    report.note(f"traced grid digest {digest} equals the untraced grid's: "
                f"{digest == expected}")
    return report


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Report:
    workload = WORKLOADS[name]
    if workload.kind == "campaign":
        if trace:
            return trace_campaign(workload, seed)
        return run_campaign(workload, seed)
    if trace:
        return trace_sim(workload, seed)
    return run_sim(workload, seed, seconds)
