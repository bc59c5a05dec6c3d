"""Outside-in timing of ``run_experiment``.

The runner builds its simulator with ``Simulator()`` and its fabric with
``build_network``/``build_fabric``, all looked up in the runner module's
namespace at call time.  ``Recorder.installed()`` swaps those names for
timing shims for the duration of a block, so every simulation the block
starts — directly or through ``campaign.run_pooled`` at ``jobs=1`` —
leaves one ``Stamps`` record: when it was created, how long the fabric
build took, when the event loop started and stopped, whether any live
event was left when it stopped, and how many payload bytes the
transports received.  Nothing in the program changes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from repro.core.engine import Simulator
from repro.experiments import campaign, runner


class SetupOnly(Exception):
    """Raised at the first ``Simulator.run`` of a set-up-only probe."""


@dataclass
class Stamps:
    created: float = 0.0
    build_s: float = 0.0
    run_enter: float = 0.0
    run_exit: float = 0.0
    quiescent: bool = False
    events: int = 0
    #: when ``run_experiment`` returned (result collected)
    finished: float = 0.0
    cfg: runner.ExperimentConfig | None = None
    #: payload bytes the transports received: the simulated work
    delivered_bytes: int = 0
    #: the built fabric, held only until ``run_experiment`` returns
    net: object = None

    @property
    def setup_s(self) -> float:
        """Creation of the simulator to its first event."""
        return self.run_enter - self.created

    @property
    def loop_s(self) -> float:
        return self.run_exit - self.run_enter

    @property
    def collect_s(self) -> float:
        return self.finished - self.run_exit


class ProbedSimulator(Simulator):
    """A ``Simulator`` that stamps its own ``run``."""

    __slots__ = ("stamps", "setup_only")

    def run(self, until_ps=None, max_events=None):
        stamps = self.stamps
        stamps.run_enter = perf_counter()
        if self.setup_only:
            raise SetupOnly
        try:
            return Simulator.run(self, until_ps, max_events)
        finally:
            stamps.run_exit = perf_counter()
            stamps.events = self.events_processed
            stamps.quiescent = self.pending_events() == 0


@contextmanager
def patched(target, **attrs):
    """Set attributes on ``target`` for a block, then restore them
    (deleting those that did not exist in its own ``__dict__``)."""
    saved = {name: target.__dict__[name] for name in attrs
             if name in target.__dict__}
    for name, value in attrs.items():
        setattr(target, name, value)
    try:
        yield
    finally:
        for name in attrs:
            if name in saved:
                setattr(target, name, saved[name])
            else:
                delattr(target, name)


class Recorder:
    """Collects one ``Stamps`` per simulation started while installed."""

    def __init__(self, sim_class=ProbedSimulator, *, setup_only=False,
                 configure=None, on_network=None) -> None:
        self.sim_class = sim_class
        self.setup_only = setup_only
        #: optional ``fn(sim)`` applied to each new simulator and
        #: ``fn(net)`` to each built fabric (the tracer's hooks)
        self.configure = configure
        self.on_network = on_network
        self.runs: list[Stamps] = []

    def _make_sim(self) -> Simulator:
        stamps = Stamps(created=perf_counter())
        sim = self.sim_class()
        sim.stamps = stamps
        sim.setup_only = self.setup_only
        if self.configure is not None:
            self.configure(sim)
        self.runs.append(stamps)
        return sim

    def _timed_builder(self, build):
        def timed(*args, **kwargs):
            start = perf_counter()
            net = build(*args, **kwargs)
            self.runs[-1].build_s += perf_counter() - start
            self.runs[-1].net = net
            if self.on_network is not None:
                self.on_network(net)
            return net
        return timed

    def _stamped_run(self, run_experiment):
        def stamped(cfg):
            result = run_experiment(cfg)
            stamps = self.runs[-1]
            stamps.finished = perf_counter()
            stamps.cfg = cfg
            stamps.delivered_bytes = sum(
                host.transport.bytes_received for host in stamps.net.hosts)
            stamps.net = None
            return result
        return stamped

    @contextmanager
    def installed(self):
        """Route the runner (and the campaign's cells) through the shims."""
        stamped = self._stamped_run(runner.run_experiment)
        with patched(runner, Simulator=self._make_sim,
                     build_network=self._timed_builder(runner.build_network),
                     build_fabric=self._timed_builder(runner.build_fabric),
                     run_experiment=stamped), \
                patched(campaign, run_experiment=stamped):
            yield self


@dataclass
class TimedRun:
    """One ``run_experiment`` call measured from outside."""

    result: runner.ExperimentResult
    wall_s: float
    stamps: Stamps


def timed_run(cfg: runner.ExperimentConfig,
              recorder: Recorder | None = None) -> TimedRun:
    recorder = recorder or Recorder()
    with recorder.installed():
        start = perf_counter()
        result = runner.run_experiment(cfg)
    stamps = recorder.runs[-1]
    return TimedRun(result, stamps.finished - start, stamps)


def setup_sample(cfg: runner.ExperimentConfig) -> float:
    """Seconds from the call into ``run_experiment`` to its first event,
    stopping there (fabric build, transport and app attach)."""
    recorder = Recorder(setup_only=True)
    with recorder.installed():
        start = perf_counter()
        try:
            runner.run_experiment(cfg)
        except SetupOnly:
            pass
        else:
            raise RuntimeError("run_experiment never started its event loop")
    return recorder.runs[-1].run_enter - start
