"""The traced run: per-layer event counts and self times, from outside.

Two mechanisms, both installed only for the duration of a traced block:

* ``TracedSimulator`` replays the engine's hot loop with a clock around
  each dispatched event and charges the event to the layer of its
  handler's module (bound methods and the fused topology closures both
  carry ``__module__``; a ``CoalescingTimer`` firing is charged to the
  layer of the callback it wraps).
* The layer entry points that handlers call synchronously — each
  port's delivery to the next hop, transport ``on_packet`` and send
  calls, pool alloc/free, tracker ``record_*``, the campaign cache and
  codec — are replaced by timing wrappers (on their classes, or on each
  port of a freshly built fabric).  Each frame keeps the time of the wrapped calls it
  made, so an inclusive span becomes a self time.

Per-layer totals are kept for every event; full spans only for every
``SAMPLE_EVERY``-th event, capped at ``MAX_SPANS``, so memory stays
bounded.  Both are written out at the end (``Tracer.dump``).  The
traced run observes only: it must reproduce the untraced slowdown
digest exactly, which the benchmark checks.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from heapq import heappop
from pathlib import Path
from time import perf_counter_ns

from repro.baselines.ndp import NdpTransport
from repro.baselines.pfabric import PfabricTransport
from repro.baselines.phost import PHostTransport
from repro.baselines.pias import PiasTransport
from repro.core.engine import CoalescingTimer
from repro.core.pool import PacketPool
from repro.experiments import campaign
from repro.experiments.runner import ExperimentResult
from repro.homa.transport import HomaTransport
from repro.metrics.slowdown import SlowdownTracker

from perfbench.probe import ProbedSimulator, Recorder, patched

#: module prefix -> layer; the first match wins, unmatched is "other"
LAYERS = (
    ("repro.core.engine", "engine"),
    ("repro.core.port", "port"),
    ("repro.core.cutthrough", "port"),
    ("repro.core.topology", "topology"),
    ("repro.core.switch", "switch"),
    ("repro.core.host", "host"),
    ("repro.core.faults", "faults"),
    ("repro.core.pool", "pool"),
    ("repro.homa.", "transport"),
    ("repro.baselines.", "transport"),
    ("repro.transport.", "transport"),
    ("repro.apps.", "apps"),
    ("repro.metrics.slowdown", "slowdown"),
    ("repro.metrics.", "metrics"),
    ("repro.experiments.runner", "runner"),
)

#: full spans are kept for every SAMPLE_EVERY-th event, at most MAX_SPANS
SAMPLE_EVERY = 4096
MAX_SPANS = 50_000

TRANSPORTS = (HomaTransport, PfabricTransport, PHostTransport,
              PiasTransport, NdpTransport)

#: (owner, attribute, entry name) of every synchronously called entry point
ENTRY_POINTS = (
    *((cls, "on_packet", "transport.on_packet") for cls in TRANSPORTS),
    *((cls, "send_message", "transport.send") for cls in TRANSPORTS),
    (HomaTransport, "send_rpc", "transport.send"),
    (HomaTransport, "respond", "transport.send"),
    (PacketPool, "alloc_data", "pool"),
    (PacketPool, "alloc_ctrl", "pool"),
    (PacketPool, "free", "pool"),
    (SlowdownTracker, "record_oneway", "slowdown.record"),
    (SlowdownTracker, "record_rpc", "slowdown.record"),
    (SlowdownTracker, "series", "slowdown.series"),
    (ExperimentResult, "to_payload", "campaign.encode"),
    (campaign.ResultCache, "load", "campaign.cache_load"),
    (campaign.ResultCache, "store", "campaign.cache_store"),
    (campaign, "code_fingerprint", "campaign.fingerprint"),
    (campaign, "experiment_decode", "campaign.decode"),
    (campaign, "_run_cell", "campaign.cell"),
)


def layer_of_module(module: str) -> str:
    for prefix, layer in LAYERS:
        if module.startswith(prefix):
            return layer
    return "other"


class Tracer:
    """Aggregates per-layer counts and times; samples full spans."""

    def __init__(self) -> None:
        #: child-time accumulator of every open frame (index 0: outside
        #: any dispatched event)
        self.stack = [0]
        self.layer_events: dict[str, int] = defaultdict(int)
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        self.entry_calls: dict[str, int] = defaultdict(int)
        self.entry_self_ns: dict[str, int] = defaultdict(int)
        self.entry_incl_ns: dict[str, int] = defaultdict(int)
        self.loop_ns = 0
        self.engine_self_ns = 0
        self.dead_pops = 0
        self.event_no = 0
        self.sampling = False
        #: (event number, name, start ns, end ns, depth)
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.pools: list[PacketPool] = []
        self._layers: dict = {}
        self._fire_code = CoalescingTimer._fire.__code__
        self._wrapper_code = self._wrap("", len).__code__
        self.recorder = Recorder(TracedSimulator, configure=self._adopt,
                                 on_network=self._wrap_deliveries)

    def _adopt(self, sim) -> None:
        sim.tracer = self

    def _wrap_deliveries(self, net) -> None:
        """Ports hand a finished packet to the next hop synchronously
        (a fused topology closure, ``Switch.ingress`` or
        ``Host.ingress``): time those calls as ``<layer>.ingress``."""
        for port in (*net.all_switch_ports(), *net.host_up_ports):
            layer = self.classify(port.deliver)
            port.deliver = self._wrap(f"{layer}.ingress", port.deliver)

    # -- attribution ---------------------------------------------------

    def classify(self, fn) -> str:
        """Layer of an event handler (cached per code object)."""
        func = getattr(fn, "__func__", fn)
        code = getattr(func, "__code__", None)
        if code is self._fire_code:
            return self.classify(fn.__self__._fn)
        if code is self._wrapper_code:
            return self.classify(func.__wrapped__)
        key = code if code is not None else type(func)
        layer = self._layers.get(key)
        if layer is None:
            layer = layer_of_module(getattr(func, "__module__", None) or "")
            self._layers[key] = layer
        return layer

    # -- entry-point wrappers -------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self.stack
        calls = self.entry_calls
        self_ns = self.entry_self_ns
        incl_ns = self.entry_incl_ns
        spans = self.spans
        clock = perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                self_ns[name] += elapsed - child
                incl_ns[name] += elapsed
                if tracer.sampling:
                    spans.append((tracer.event_no, name, start,
                                  start + elapsed, len(stack)))
        return traced

    def _track_pool(self, init):
        pools = self.pools

        @functools.wraps(init)
        def tracked(pool, *args, **kwargs):
            init(pool, *args, **kwargs)
            pools.append(pool)
        return tracked

    @contextmanager
    def installed(self):
        """Wrap every entry point, restoring them on exit.  Simulations
        run through ``self.recorder`` use the traced loop."""
        with ExitStack() as stack:
            for owner, attr, name in ENTRY_POINTS:
                original = getattr(owner, attr)
                if isinstance(owner, type):
                    original = owner.__dict__.get(attr, original)
                stack.enter_context(
                    patched(owner, **{attr: self._wrap(name, original)}))
            stack.enter_context(patched(
                PacketPool, __init__=self._track_pool(PacketPool.__init__)))
            yield self

    # -- output ----------------------------------------------------------

    def span_records(self) -> list[dict]:
        return [{"event": event, "name": name, "start_ns": start,
                 "end_ns": end, "depth": depth}
                for event, name, start, end, depth in self.spans]

    def dump(self, path: Path, layers: dict) -> None:
        """Write the per-layer aggregates and the sampled spans."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "sample_every": SAMPLE_EVERY,
            "layers": layers,
            "spans": self.span_records(),
        }, indent=1) + "\n")


class TracedSimulator(ProbedSimulator):
    """The engine's hot loop with per-event attribution.

    Dispatch order, clock updates and the ``events_processed`` count are
    exactly those of ``Simulator._run_loop``; only clock reads and
    counters are added around each dispatch.
    """

    __slots__ = ("tracer",)

    def _run_loop(self, until_ps, max_events):
        if max_events is not None:
            return ProbedSimulator._run_loop(self, until_ps, max_events)
        tracer = self.tracer
        heap = self._heap
        pop = heappop
        clock = perf_counter_ns
        classify = tracer.classify
        stack = tracer.stack
        layer_events = tracer.layer_events
        layer_self_ns = tracer.layer_self_ns
        spans = tracer.spans
        horizon = float("inf") if until_ps is None else until_ps
        processed = dead = handler_ns = 0
        loop_start = clock()
        while True:
            if heap:
                event = heap[0]
                fn = event[2]
                if fn is None:
                    pop(heap)
                    dead += 1
                    continue
                time_ps = event[0]
                if time_ps > horizon:
                    break
                pop(heap)
                self.now = time_ps
                arg = event[3]
                layer = classify(fn)
                tracer.event_no += 1
                sampling = (tracer.event_no % SAMPLE_EVERY == 0
                            and len(spans) < MAX_SPANS)
                tracer.sampling = sampling
                stack.append(0)
                start = clock()
                if arg is None:
                    fn()
                elif type(arg) is tuple:
                    fn(*arg)
                else:
                    fn(arg)
                elapsed = clock() - start
                child = stack.pop()
                layer_events[layer] += 1
                layer_self_ns[layer] += elapsed - child
                handler_ns += elapsed
                if sampling:
                    spans.append((tracer.event_no, layer, start,
                                  start + elapsed, len(stack)))
                    tracer.sampling = False
                processed += 1
            elif self._wheel0 or self._wheel1:
                self._refill()
            else:
                break
        loop_ns = clock() - loop_start
        tracer.loop_ns += loop_ns
        tracer.engine_self_ns += loop_ns - handler_ns
        tracer.dead_pops += dead
        if until_ps is not None and self.now < until_ps:
            self.now = until_ps
        self.events_processed += processed
        return processed
