"""Topology builders and path-time oracles.

``NetworkConfig`` defaults reproduce Figure 11: 144 hosts in 9 racks of
16, four 40 Gbps aggregation switches, 10 Gbps host links, 250 ns switch
delay, 1.5 us host software delay, per-packet spraying across uplinks.
Setting ``racks=1`` builds a single-switch cluster like the 16-node
CloudLab testbed of section 5.1.

The oracle methods (``min_oneway_ps``/``min_rpc_ps``) compute the best
possible delivery time of a message on an unloaded network, which is the
denominator of every slowdown number in the paper.
"""

from __future__ import annotations

import random
from heapq import heappush
from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.core.engine import Simulator
from repro.core.faults import (FaultEvent, FaultInjector, LossRates,
                               install_loss)
from repro.core.host import Host
from repro.core.packet import FULL_WIRE, MAX_PAYLOAD, MIN_WIRE, Packet, wire_size
from repro.core.port import BasePort, PfabricPort, PullPort, QueuedPort
from repro.core.switch import Switch
from repro.core.units import NS, ps_per_byte

#: port queue discipline names accepted by NetworkConfig.queue_mode
QUEUE_MODES = ("priority", "pfabric")


@dataclass
class NetworkConfig:
    """Physical network parameters (defaults: the paper's Figure 11)."""

    racks: int = 9
    hosts_per_rack: int = 16
    aggrs: int = 4
    host_gbps: int = 10
    aggr_gbps: int = 40
    switch_delay_ns: int = 250
    software_delay_ns: int = 1500
    queue_mode: str = "priority"
    port_buffer_bytes: int | None = None       # None = unbounded
    pfabric_buffer_bytes: int = 24 * FULL_WIRE  # ~2 BDP, as in pFabric
    ecn_threshold_bytes: int | None = None      # DCTCP-style marking (PIAS)
    trim_threshold_bytes: int | None = None     # NDP trimming (8 full pkts)
    preemptive_links: bool = False              # Fig 14 hardware ablation
    seed: int = 1

    @property
    def n_hosts(self) -> int:
        return self.racks * self.hosts_per_rack

    @property
    def switch_delay_ps(self) -> int:
        return self.switch_delay_ns * NS

    @property
    def software_delay_ps(self) -> int:
        return self.software_delay_ns * NS

    def scaled(self, **overrides) -> "NetworkConfig":
        """Copy with overrides (used by quick-mode benchmarks)."""
        return replace(self, **overrides)


class Network:
    """A built network: hosts, switches, ports, and timing oracles."""

    def __init__(self, sim: Simulator, cfg: NetworkConfig) -> None:
        if cfg.queue_mode not in QUEUE_MODES:
            raise ValueError(f"unknown queue mode {cfg.queue_mode!r}")
        if cfg.racks < 1 or cfg.hosts_per_rack < 1:
            raise ValueError("need at least one rack with one host")
        if cfg.racks > 1 and cfg.aggrs < 1:
            raise ValueError("multi-rack topologies need aggregation switches")
        self.sim = sim
        self.cfg = cfg
        self.hosts: list[Host] = []
        self.tors: list[Switch] = []
        self.aggrs: list[Switch] = []
        self.host_up_ports: list[PullPort] = []
        self.tor_down_ports: list[BasePort] = []
        self.tor_up_ports: list[BasePort] = []       # flattened [tor][aggr]
        self.aggr_down_ports: list[BasePort] = []    # flattened [aggr][rack]
        self._spray = random.Random(cfg.seed * 7919 + 13)
        self._oneway_cache: dict[tuple[int, bool], int] = {}
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _make_switch_port(self, name: str, gbps: int, deliver, level: str) -> BasePort:
        cfg = self.cfg
        if cfg.queue_mode == "pfabric":
            port = PfabricPort(
                self.sim, name, gbps, deliver, level,
                buffer_bytes=cfg.pfabric_buffer_bytes,
            )
        else:
            port = QueuedPort(
                self.sim, name, gbps, deliver, level,
                buffer_bytes=cfg.port_buffer_bytes,
                ecn_bytes=cfg.ecn_threshold_bytes,
                trim_bytes=cfg.trim_threshold_bytes,
                preemptive=cfg.preemptive_links,
            )
        return port

    def _build(self) -> None:
        cfg = self.cfg
        sim = self.sim
        for hid in range(cfg.n_hosts):
            self.hosts.append(Host(sim, hid, hid // cfg.hosts_per_rack,
                                   cfg.software_delay_ps))
        for rack in range(cfg.racks):
            self.tors.append(Switch(sim, f"tor{rack}", cfg.switch_delay_ps,
                                    "tor"))
        if cfg.racks > 1:
            for a in range(cfg.aggrs):
                self.aggrs.append(Switch(sim, f"aggr{a}", cfg.switch_delay_ps,
                                         "aggr"))

        # Fused per-switch ingress closures: routing + ingress-delay
        # scheduling in one frame, with arrival fusion (see below).  The
        # closures capture the port lists, which are filled in next and
        # indexed per packet, so creation order is safe.
        tor_ingress = [self._make_tor_ingress(rack)
                       for rack in range(cfg.racks)]
        aggr_ingress = [self._make_aggr_ingress(a)
                        for a in range(len(self.aggrs))]

        # Host uplinks (pull model) and TOR downlinks.
        for host in self.hosts:
            tor = self.tors[host.rack]
            up = PullPort(sim, f"h{host.hid}->tor{host.rack}", cfg.host_gbps,
                          tor_ingress[host.rack], "host_up")
            host.egress = up
            self.host_up_ports.append(up)
            down = self._make_switch_port(
                f"tor{host.rack}->h{host.hid}", cfg.host_gbps,
                host.ingress, "tor_down")
            self.tor_down_ports.append(down)
            tor.ports.append(down)

        # TOR uplinks and aggregation downlinks.
        if cfg.racks > 1:
            for rack, tor in enumerate(self.tors):
                for a, aggr in enumerate(self.aggrs):
                    up = self._make_switch_port(
                        f"tor{rack}->aggr{a}", cfg.aggr_gbps,
                        aggr_ingress[a], "tor_up")
                    self.tor_up_ports.append(up)
                    tor.ports.append(up)
            for a, aggr in enumerate(self.aggrs):
                for rack, tor in enumerate(self.tors):
                    down = self._make_switch_port(
                        f"aggr{a}->tor{rack}", cfg.aggr_gbps,
                        tor_ingress[rack], "aggr_down")
                    self.aggr_down_ports.append(down)
                    aggr.ports.append(down)

        # Routing closures.
        hosts_per_rack = cfg.hosts_per_rack
        n_aggrs = cfg.aggrs
        tor_down = self.tor_down_ports
        tor_up = self.tor_up_ports
        aggr_down = self.aggr_down_ports
        spray = self._spray

        # Inline of random.Random.randrange(n_aggrs) — the same
        # getrandbits rejection loop CPython's _randbelow_with_getrandbits
        # runs, minus two Python frames per sprayed packet.  Bit-exact:
        # the RNG stream (and so every sprayed path) is unchanged.
        getrandbits = spray.getrandbits
        spray_bits = n_aggrs.bit_length() if n_aggrs else 0

        def make_tor_route(rack: int):
            up_base = rack * n_aggrs

            def route(pkt: Packet):
                dst = pkt.dst
                if dst // hosts_per_rack == rack:
                    return tor_down[dst]
                # Per-packet spraying: any aggregation switch works.
                r = getrandbits(spray_bits)
                while r >= n_aggrs:
                    r = getrandbits(spray_bits)
                return tor_up[up_base + r]

            def route_single(pkt: Packet):
                return tor_down[pkt.dst]

            return route if cfg.racks > 1 else route_single

        for rack, tor in enumerate(self.tors):
            tor.route = make_tor_route(rack)

        def make_aggr_route(a: int):
            base = a * cfg.racks

            def route(pkt: Packet):
                return aggr_down[base + pkt.dst // hosts_per_rack]

            return route

        for a, aggr in enumerate(self.aggrs):
            aggr.route = make_aggr_route(a)

    # ------------------------------------------------------------------
    # fused switch ingress (the per-hop hot path)
    # ------------------------------------------------------------------
    #
    # A packet hopping through a switch costs two events in the naive
    # model: the upstream port's tx-done and the post-switch-delay
    # enqueue.  The fused ingress closures below collapse routing and
    # delay scheduling into one frame, and apply *arrival fusion*: when
    # the egress port is busy transmitting strictly past the packet's
    # arrival time, nothing can observe the queue before the packet
    # really arrives, so it is appended immediately and the arrival
    # event is skipped entirely.  The ``pending_arrivals`` counter keeps
    # FIFO order exact: once one packet takes the scheduled-event path,
    # later packets must too, or they could overtake it in the queue.
    # Fusion is disabled wherever queue state is observable in between:
    # finite buffers, ECN, trimming, preemption (``fuse_ok``), attached
    # probes, or delay tracing.

    def _make_tor_ingress(self, rack: int):
        cfg = self.cfg
        sim = self.sim
        tor = self.tors[rack]
        delay = tor.delay_ps
        hosts_per_rack = cfg.hosts_per_rack
        n_aggrs = cfg.aggrs
        tor_down = self.tor_down_ports
        tor_up = self.tor_up_ports
        up_base = rack * n_aggrs
        single = cfg.racks == 1
        # Bit-exact inline of random.Random.randrange(n_aggrs) — same
        # getrandbits rejection loop, no Python frames.
        getrandbits = self._spray.getrandbits
        spray_bits = n_aggrs.bit_length() if n_aggrs else 0

        lo = rack * hosts_per_rack
        hi = lo + hosts_per_rack

        def ingress(pkt: Packet) -> None:
            if tor.drop_filter is not None and tor.drop_filter(pkt):
                tor.injected_drops += 1
                if pkt.pool is not None:
                    pkt.pool.free(pkt)
                return
            dst = pkt.dst
            if single or lo <= dst < hi:
                port = tor_down[dst]
            else:
                # Per-packet spraying.
                r = getrandbits(spray_bits)
                while r >= n_aggrs:
                    r = getrandbits(spray_bits)
                port = tor_up[up_base + r]
            if delay == 0:
                port.enqueue(pkt)
                return
            now = sim.now
            arrival = now + delay
            if port.busy:
                if (port.fuse_ok and now > port.last_arrival_ps
                        and port.probe is None
                        and not port.trace_delays
                        and (port.cur_end_ps > arrival
                             or (port.cur_end_ps
                                 + port.qbytes * port.ppb > arrival
                                 and not (port._nonempty
                                          & ((1 << pkt.prio) - 1))))):
                    # Busy past the arrival — or busy with enough
                    # queued backlog at-or-above this packet's priority
                    # that it cannot be dequeued before it really
                    # arrives (strict priorities: only lower-priority
                    # queues could drain after it).  Either way the
                    # early append is invisible, so the arrival event
                    # is skipped entirely.
                    port.enqueue(pkt)
                    return
            port.last_arrival_ps = arrival
            sim._seq += 1
            event = [arrival, sim._seq, port.enqueue_cb, pkt]
            if arrival < sim._horizon:
                heappush(sim._heap, event)
            else:
                sim._file_far(event, arrival)

        return ingress

    def _make_aggr_ingress(self, a: int):
        cfg = self.cfg
        sim = self.sim
        aggr = self.aggrs[a]
        delay = aggr.delay_ps
        hosts_per_rack = cfg.hosts_per_rack
        aggr_down = self.aggr_down_ports
        base = a * cfg.racks

        def ingress(pkt: Packet) -> None:
            if aggr.drop_filter is not None and aggr.drop_filter(pkt):
                aggr.injected_drops += 1
                if pkt.pool is not None:
                    pkt.pool.free(pkt)
                return
            port = aggr_down[base + pkt.dst // hosts_per_rack]
            if delay == 0:
                port.enqueue(pkt)
                return
            now = sim.now
            arrival = now + delay
            if port.busy:
                if (port.fuse_ok and now > port.last_arrival_ps
                        and port.probe is None
                        and not port.trace_delays
                        and (port.cur_end_ps > arrival
                             or (port.cur_end_ps
                                 + port.qbytes * port.ppb > arrival
                                 and not (port._nonempty
                                          & ((1 << pkt.prio) - 1))))):
                    # See the TOR ingress: backlog-aware fusion.
                    port.enqueue(pkt)
                    return
            port.last_arrival_ps = arrival
            sim._seq += 1
            event = [arrival, sim._seq, port.enqueue_cb, pkt]
            if arrival < sim._horizon:
                heappush(sim._heap, event)
            else:
                sim._file_far(event, arrival)

        return ingress

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------

    def rack_of(self, hid: int) -> int:
        return hid // self.cfg.hosts_per_rack

    def same_rack(self, a: int, b: int) -> bool:
        return self.rack_of(a) == self.rack_of(b)

    def all_switch_ports(self) -> Iterable[BasePort]:
        yield from self.tor_down_ports
        yield from self.tor_up_ports
        yield from self.aggr_down_ports

    def all_switches(self) -> list[Switch]:
        return [*self.tors, *self.aggrs]

    def set_drop_filter(self, fn) -> None:
        """Install a packet-loss injector on every switch (tests)."""
        for switch in self.all_switches():
            switch.drop_filter = fn

    def may_drop(self) -> bool:
        """True when this fabric can destroy packets outright — injected
        Bernoulli loss or an armed fault schedule (black holes, dead
        switches).  Transports consult this at attach time to switch on
        their loss-recovery machinery; congestion-native drops (pFabric
        priority-drop, NDP trimming) are recovered by each protocol's
        clean-path mechanics and do not count.
        """
        if getattr(self, "fault_injector", None) is not None:
            return True
        return any(switch.drop_filter is not None
                   for switch in self.all_switches())

    def attach_transports(self, factory) -> list:
        """Build one transport per host via ``factory(host) -> transport``."""
        transports = []
        for host in self.hosts:
            transport = factory(host)
            host.attach(transport)
            transports.append(transport)
        return transports

    # ------------------------------------------------------------------
    # timing oracles
    # ------------------------------------------------------------------

    def rtt_ps(self, same_rack: bool = False) -> int:
        """Grant-to-data round trip: small control packet one way, a
        full-size data packet back, with software delay at both ends."""
        ctrl = self._packet_transit_ps(MIN_WIRE, same_rack)
        data = self._packet_transit_ps(FULL_WIRE, same_rack)
        return ctrl + data + 2 * self.cfg.software_delay_ps

    def rtt_bytes(self, same_rack: bool = False) -> int:
        """Bytes a 10 Gbps sender can push during one RTT (paper: ~9.7 KB)."""
        return self.rtt_ps(same_rack) // ps_per_byte(self.cfg.host_gbps)

    def _packet_transit_ps(self, wire: int, same_rack: bool) -> int:
        """End-to-end time of one packet on an idle path (no software)."""
        cfg = self.cfg
        ppb_h = ps_per_byte(cfg.host_gbps)
        sw = cfg.switch_delay_ps
        if same_rack or cfg.racks == 1:
            return wire * ppb_h + sw + wire * ppb_h
        ppb_a = ps_per_byte(cfg.aggr_gbps)
        return (wire * ppb_h + sw + wire * ppb_a + sw
                + wire * ppb_a + sw + wire * ppb_h)

    def min_oneway_ps(self, length: int, same_rack: bool = False) -> int:
        """Best possible one-way message time on an unloaded network.

        Same rack (one switch, one path): packets cannot reorder, so the
        exact store-and-forward FIFO pipeline applies — the sender
        serializes packets back to back and the receiver's downlink is
        the sequential bottleneck stage.

        Cross rack: per-packet spraying lets a small trailing packet
        overtake full packets on another aggregation path, so the tight
        achievable bound is taken over the k largest packets: the last
        of the k largest to leave the host cannot leave before their
        combined serialization time, and then still needs its own
        transit and downlink serialization.  Aggregation hops are pure
        delay (4x faster links cannot queue behind one 10 Gbps source).

        Includes the receiver's software delay, matching the paper's
        "minimum one-way time for a small message is 2.3 us".
        """
        key = (length, same_rack or self.cfg.racks == 1)
        cached = self._oneway_cache.get(key)
        if cached is not None:
            return cached
        cfg = self.cfg
        ppb_h = ps_per_byte(cfg.host_gbps)
        sw = cfg.switch_delay_ps

        # The packet list is `full` identical FULL_WIRE frames plus an
        # optional smaller trailer, so both bounds below close-form over
        # the uniform prefix instead of building and scanning a list
        # whose length is the message's packet count (this runs once
        # per distinct message size, and W4/W5 sizes rarely repeat).
        full, rest = divmod(length, MAX_PAYLOAD)
        rest_wire = wire_size(rest) if rest else 0

        if key[1]:  # single switch on the path: exact FIFO pipeline
            # With equal frames the downlink is saturated back to back:
            # it frees at (k+1) * wire-time + switch delay; the smaller
            # trailer then appends its own serialization.
            if full:
                downlink_free = (full + 1) * FULL_WIRE * ppb_h + sw
                if rest:
                    downlink_free += rest_wire * ppb_h
            else:
                downlink_free = 2 * rest_wire * ppb_h + sw
            result = downlink_free + cfg.software_delay_ps
        else:
            ppb_a = ps_per_byte(cfg.aggr_gbps)
            # max over the k-largest-prefix bound: strictly increasing
            # in k across the uniform prefix, so only k = full and the
            # full-plus-trailer candidates can win.
            best = 0
            if full:
                cum = full * FULL_WIRE * ppb_h
                best = cum + 3 * sw + 2 * FULL_WIRE * ppb_a \
                    + FULL_WIRE * ppb_h
            else:
                cum = 0
            if rest:
                cum += rest_wire * ppb_h
                candidate = cum + 3 * sw + 2 * rest_wire * ppb_a \
                    + rest_wire * ppb_h
                if candidate > best:
                    best = candidate
            result = best + cfg.software_delay_ps
        self._oneway_cache[key] = result
        return result

    def min_rpc_ps(self, request: int, response: int, same_rack: bool = False) -> int:
        """Best possible echo-RPC round trip (client send -> response done)."""
        return (self.min_oneway_ps(request, same_rack)
                + self.min_oneway_ps(response, same_rack))

    # Endpoint-addressed oracle forms: the metrics layer asks about a
    # concrete (src, dst) pair and the network decides which path tier
    # applies.  On the 2-level tree that is exactly the same-rack split
    # (byte-identical to the direct calls); FabricNetwork overrides
    # these with pod-aware tiers.

    def min_oneway_between(self, src: int, dst: int, length: int) -> int:
        return self.min_oneway_ps(length, self.same_rack(src, dst))

    def min_rpc_between(self, src: int, dst: int,
                        request: int, response: int) -> int:
        return self.min_rpc_ps(request, response, self.same_rack(src, dst))


def build_network(sim: Simulator, cfg: NetworkConfig | None = None) -> Network:
    """Construct a network; default configuration is the paper's Fig 11."""
    return Network(sim, cfg or NetworkConfig())


# ---------------------------------------------------------------------------
# declarative fabrics: 3-level trees, oversubscription, loss, faults
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopologySpec:
    """A declarative fabric: shape, per-layer speeds, loss, and faults.

    ``levels=2`` describes the paper's ToR/aggr tree (``pods`` must be 1
    and ``cores`` 0); ``levels=3`` adds a core layer: ``pods`` pods of
    ``racks`` racks each, ``aggrs`` aggregation switches per pod, and
    ``cores`` core switches total.  Core switch ``c`` connects to
    aggregation position ``c // (cores // aggrs)`` in every pod, so each
    aggr has ``cores // aggrs`` core uplinks and any two pods are
    connected through every core.

    Oversubscription is an emergent ratio of the declared shape
    (``tor_oversubscription``/``aggr_oversubscription``), not an input:
    pick ``hosts_per_rack``/``aggrs``/``cores`` and link speeds to hit a
    target ratio.

    A spec with ``loss`` all zero and no ``faults`` is *clean* and
    lowers to the canonical fused-ingress :class:`Network` builder —
    byte-identical digests to an equivalent :class:`NetworkConfig` run
    (pinned by the golden test in ``tests/test_faults.py``).
    """

    levels: int = 2
    pods: int = 1
    racks: int = 3            # per pod
    hosts_per_rack: int = 8
    aggrs: int = 2            # per pod
    cores: int = 0            # total; levels=3 only
    host_gbps: int = 10
    aggr_gbps: int = 40
    core_gbps: int = 100
    switch_delay_ns: int = 250
    software_delay_ns: int = 1500
    loss: LossRates = field(default_factory=LossRates)
    faults: tuple = ()        # of FaultEvent

    def __post_init__(self) -> None:
        if self.levels not in (2, 3):
            raise ValueError(
                f"TopologySpec.levels must be 2 or 3, got {self.levels!r}")
        if self.levels == 2:
            if self.pods != 1:
                raise ValueError(
                    f"TopologySpec.pods must be 1 on a 2-level fabric, "
                    f"got {self.pods!r}")
            if self.cores != 0:
                raise ValueError(
                    f"TopologySpec.cores must be 0 on a 2-level fabric, "
                    f"got {self.cores!r}")
        else:
            if self.pods < 2:
                raise ValueError(
                    f"TopologySpec.pods must be >= 2 on a 3-level fabric, "
                    f"got {self.pods!r}")
            if self.cores < self.aggrs or self.cores % self.aggrs:
                raise ValueError(
                    f"TopologySpec.cores must be a positive multiple of "
                    f"aggrs ({self.aggrs}), got {self.cores!r}")
        if self.racks < 1:
            raise ValueError(
                f"TopologySpec.racks must be >= 1, got {self.racks!r}")
        if self.hosts_per_rack < 1:
            raise ValueError(
                f"TopologySpec.hosts_per_rack must be >= 1, "
                f"got {self.hosts_per_rack!r}")
        if self.aggrs < 1 and (self.levels == 3 or self.racks > 1):
            raise ValueError(
                f"TopologySpec.aggrs must be >= 1 on a multi-rack fabric, "
                f"got {self.aggrs!r}")
        if self.host_gbps < 1:
            raise ValueError(
                f"TopologySpec.host_gbps must be >= 1, "
                f"got {self.host_gbps!r}")
        # The oracles assume upper layers never serialize slower than
        # the layer below (a trailing packet can then never queue behind
        # itself mid-tree) — standard fat-tree speed mixes all qualify.
        if self.aggr_gbps < self.host_gbps:
            raise ValueError(
                f"TopologySpec.aggr_gbps must be >= host_gbps "
                f"({self.host_gbps}), got {self.aggr_gbps!r}")
        if self.levels == 3 and self.core_gbps < self.aggr_gbps:
            raise ValueError(
                f"TopologySpec.core_gbps must be >= aggr_gbps "
                f"({self.aggr_gbps}), got {self.core_gbps!r}")
        if self.switch_delay_ns < 0:
            raise ValueError(
                f"TopologySpec.switch_delay_ns must be >= 0, "
                f"got {self.switch_delay_ns!r}")
        if self.software_delay_ns < 0:
            raise ValueError(
                f"TopologySpec.software_delay_ns must be >= 0, "
                f"got {self.software_delay_ns!r}")
        if not isinstance(self.loss, LossRates):
            raise ValueError(
                f"TopologySpec.loss must be a LossRates, got {self.loss!r}")
        object.__setattr__(self, "faults", tuple(self.faults))
        for i, ev in enumerate(self.faults):
            if not isinstance(ev, FaultEvent):
                raise ValueError(
                    f"TopologySpec.faults[{i}] must be a FaultEvent, "
                    f"got {ev!r}")

    # -- shape arithmetic ------------------------------------------------

    @property
    def racks_total(self) -> int:
        return self.pods * self.racks

    @property
    def n_hosts(self) -> int:
        return self.racks_total * self.hosts_per_rack

    @property
    def core_links_per_aggr(self) -> int:
        return self.cores // self.aggrs if self.aggrs else 0

    @property
    def tor_oversubscription(self) -> float:
        """Host capacity entering a ToR over its uplink capacity."""
        if self.racks_total == 1:
            return 0.0
        return ((self.hosts_per_rack * self.host_gbps)
                / (self.aggrs * self.aggr_gbps))

    @property
    def aggr_oversubscription(self) -> float:
        """ToR capacity entering an aggr over its core-link capacity."""
        if self.levels == 2:
            return 0.0
        return ((self.racks * self.aggr_gbps)
                / (self.core_links_per_aggr * self.core_gbps))

    def is_clean(self) -> bool:
        """No loss, no faults: eligible for canonical-builder lowering."""
        return not self.loss.any() and not self.faults

    # -- payload round-trip ---------------------------------------------

    def to_payload(self) -> dict:
        return {
            "levels": self.levels, "pods": self.pods, "racks": self.racks,
            "hosts_per_rack": self.hosts_per_rack, "aggrs": self.aggrs,
            "cores": self.cores, "host_gbps": self.host_gbps,
            "aggr_gbps": self.aggr_gbps, "core_gbps": self.core_gbps,
            "switch_delay_ns": self.switch_delay_ns,
            "software_delay_ns": self.software_delay_ns,
            "loss": self.loss.to_payload(),
            "faults": [ev.to_payload() for ev in self.faults],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TopologySpec":
        data = dict(payload)
        loss = data.pop("loss", None)
        if not isinstance(loss, LossRates):
            loss = LossRates.from_payload(loss)
        faults = tuple(
            ev if isinstance(ev, FaultEvent) else FaultEvent.from_payload(ev)
            for ev in data.pop("faults", None) or ())
        return cls(loss=loss, faults=faults, **data)


class FabricNetwork(Network):
    """A fabric built from a :class:`TopologySpec`: 3-level routing with
    liveness-aware spraying and mid-simulation reroute.

    Unlike the canonical builder's fused ingress closures, every hop
    goes through ``Switch.ingress`` so the routing decision consults
    mutable liveness state: per-link up/down flags and per-switch
    ``dead`` flags, maintained by :meth:`apply_fault` and folded into
    the *live lists* the spray draws from.  A route with no live egress
    returns ``None`` and the packet is black-holed (counted).

    The spray RNG is the same ``seed*7919+13`` stream as the canonical
    builder; with faults the draw count per packet depends only on the
    (deterministic) fault schedule, so two runs of the same spec + seed
    replay byte-exactly.
    """

    def __init__(self, sim: Simulator, spec: TopologySpec, *,
                 seed: int = 1, **overrides) -> None:
        self.spec = spec
        cfg = NetworkConfig(
            racks=spec.racks_total, hosts_per_rack=spec.hosts_per_rack,
            aggrs=spec.pods * spec.aggrs if spec.racks_total > 1 else 0,
            host_gbps=spec.host_gbps, aggr_gbps=spec.aggr_gbps,
            switch_delay_ns=spec.switch_delay_ns,
            software_delay_ns=spec.software_delay_ns,
            seed=seed, **overrides)
        super().__init__(sim, cfg)

    # -- construction ----------------------------------------------------

    def _build(self) -> None:  # overrides the fused canonical builder
        spec = self.spec
        cfg = self.cfg
        sim = self.sim
        P, R, H, A = spec.pods, spec.racks, spec.hosts_per_rack, spec.aggrs
        C, K = spec.cores, spec.core_links_per_aggr
        racks_total = spec.racks_total
        multi = racks_total > 1

        self.cores: list[Switch] = []
        self.aggr_up_ports: list[BasePort] = []    # flattened [aggr][k]
        self.core_down_ports: list[BasePort] = []  # flattened [core][pod]
        self.reroutes = 0
        self.fault_injector: FaultInjector | None = None
        self._xpod_cache: dict[int, int] = {}
        self._link_ok: dict[str, bool] = {}
        self._switch_by_name: dict[str, Switch] = {}
        #: link key -> [(directional egress port, owning switch), ...];
        #: a link-down fault flushes both directions' buffers
        self._link_ports: dict[str, list] = {}

        for hid in range(spec.n_hosts):
            self.hosts.append(Host(sim, hid, hid // H, cfg.software_delay_ps))
        for g in range(racks_total):
            self.tors.append(Switch(sim, f"tor{g}", cfg.switch_delay_ps,
                                    "tor"))
        if multi:
            for p in range(P):
                for a in range(A):
                    self.aggrs.append(Switch(sim, f"aggr{p}.{a}",
                                             cfg.switch_delay_ps, "aggr"))
        if spec.levels == 3:
            for c in range(C):
                self.cores.append(Switch(sim, f"core{c}",
                                         cfg.switch_delay_ps, "core"))
        for switch in (*self.tors, *self.aggrs, *self.cores):
            self._switch_by_name[switch.name] = switch

        # Ports: host access links, then one port per directed
        # inter-switch link, flattened with fixed strides.
        for host in self.hosts:
            g = host.rack
            tor = self.tors[g]
            up = PullPort(sim, f"h{host.hid}->tor{g}", cfg.host_gbps,
                          tor.ingress, "host_up")
            host.egress = up
            self.host_up_ports.append(up)
            down = self._make_switch_port(
                f"tor{g}->h{host.hid}", cfg.host_gbps,
                host.ingress, "tor_down")
            self.tor_down_ports.append(down)
            tor.ports.append(down)
        if multi:
            for g, tor in enumerate(self.tors):
                p = g // R
                for a in range(A):
                    aggr = self.aggrs[p * A + a]
                    up = self._make_switch_port(
                        f"{tor.name}->{aggr.name}", cfg.aggr_gbps,
                        aggr.ingress, "tor_up")
                    self.tor_up_ports.append(up)
                    tor.ports.append(up)
                    self._link_ok[f"{tor.name}:{aggr.name}"] = True
                    self._link_ports[f"{tor.name}:{aggr.name}"] = [(up, tor)]
            for j, aggr in enumerate(self.aggrs):
                p = j // A
                for r in range(R):
                    tor = self.tors[p * R + r]
                    down = self._make_switch_port(
                        f"{aggr.name}->{tor.name}", cfg.aggr_gbps,
                        tor.ingress, "aggr_down")
                    self.aggr_down_ports.append(down)
                    aggr.ports.append(down)
                    self._link_ports[f"{tor.name}:{aggr.name}"].append(
                        (down, aggr))
        if spec.levels == 3:
            for j, aggr in enumerate(self.aggrs):
                a = j % A
                for k in range(K):
                    core = self.cores[a * K + k]
                    up = self._make_switch_port(
                        f"{aggr.name}->{core.name}", spec.core_gbps,
                        core.ingress, "aggr_up")
                    self.aggr_up_ports.append(up)
                    aggr.ports.append(up)
                    self._link_ok[f"{aggr.name}:{core.name}"] = True
                    self._link_ports[f"{aggr.name}:{core.name}"] = [(up, aggr)]
            for c, core in enumerate(self.cores):
                a = c // K
                for p in range(P):
                    aggr = self.aggrs[p * A + a]
                    down = self._make_switch_port(
                        f"{core.name}->{aggr.name}", spec.core_gbps,
                        aggr.ingress, "core_down")
                    self.core_down_ports.append(down)
                    core.ports.append(down)
                    self._link_ports[f"{aggr.name}:{core.name}"].append(
                        (down, core))

        # Liveness state the route closures read.  The live lists are
        # mutated *in place* by _recompute_live so closures capturing
        # them see every fault immediately.
        self._tor_live = [list(range(A)) if multi else []
                          for _ in range(racks_total)]
        self._aggr_core_live = [list(range(K)) for _ in self.aggrs]
        self._aggr_down_ok = [[True] * R for _ in self.aggrs]
        self._core_down_ok = [[True] * P for _ in self.cores]

        tor_down = self.tor_down_ports
        tor_up = self.tor_up_ports
        aggr_down = self.aggr_down_ports
        aggr_up = self.aggr_up_ports
        core_down = self.core_down_ports
        spray = self._spray
        pod_hosts = R * H

        def make_tor_route(g: int):
            lo = g * H
            hi = lo + H
            live = self._tor_live[g]

            def route(pkt: Packet):
                dst = pkt.dst
                if lo <= dst < hi:
                    return tor_down[dst]
                n = len(live)
                if n == 0:
                    return None
                a = live[0] if n == 1 else live[spray.randrange(n)]
                return tor_up[g * A + a]

            def route_single(pkt: Packet):
                return tor_down[pkt.dst]

            return route if multi else route_single

        for g, tor in enumerate(self.tors):
            tor.route = make_tor_route(g)

        def make_aggr_route(j: int):
            p = j // A
            pod_lo = p * pod_hosts
            pod_hi = pod_lo + pod_hosts
            down_ok = self._aggr_down_ok[j]
            core_live = self._aggr_core_live[j]

            def route(pkt: Packet):
                dst = pkt.dst
                if pod_lo <= dst < pod_hi:
                    r = (dst - pod_lo) // H
                    if not down_ok[r]:
                        return None
                    return aggr_down[j * R + r]
                n = len(core_live)
                if n == 0:
                    return None
                k = core_live[0] if n == 1 else core_live[spray.randrange(n)]
                return aggr_up[j * K + k]

            return route

        for j, aggr in enumerate(self.aggrs):
            aggr.route = make_aggr_route(j)

        def make_core_route(c: int):
            down_ok = self._core_down_ok[c]

            def route(pkt: Packet):
                p = pkt.dst // pod_hosts
                if not down_ok[p]:
                    return None
                return core_down[c * P + p]

            return route

        for c, core in enumerate(self.cores):
            core.route = make_core_route(c)

    # -- fault application ----------------------------------------------

    def validate_fault_target(self, ev: FaultEvent, index: int) -> None:
        """Raise, naming the offending event, if the target is unknown."""
        if ev.kind == "switch":
            if ev.target not in self._switch_by_name:
                raise ValueError(
                    f"faults[{index}].target {ev.target!r} is not a switch "
                    f"of this fabric")
        elif ev.target not in self._link_ok:
            raise ValueError(
                f"faults[{index}].target {ev.target!r} is not an "
                f"inter-switch link of this fabric")

    def apply_fault(self, ev: FaultEvent) -> None:
        """Flip one link or switch and reroute the live spray sets.

        A down event also flushes the failed element's egress buffers:
        the line card loses power, so queued packets are destroyed
        (credited to the owning switch's ``fault_drops``).  In-flight
        packets finish serializing — their bits are already on the
        wire — and die at the dead switch's ingress instead.
        """
        down = ev.action == "down"
        if ev.kind == "switch":
            switch = self._switch_by_name[ev.target]
            switch.dead = down
            if down:
                for port in switch.ports:
                    switch.fault_drops += port.flush()
        else:
            self._link_ok[ev.target] = not down
            if down:
                for port, owner in self._link_ports[ev.target]:
                    owner.fault_drops += port.flush()
        self._recompute_live()

    def _recompute_live(self) -> None:
        """Rebuild every live list in place from link/switch liveness.

        Cold path (runs once per applied fault).  Each spray set whose
        membership changed counts as one reroute.
        """
        spec = self.spec
        P, R, A, K = spec.pods, spec.racks, spec.aggrs, spec.core_links_per_aggr
        link_ok = self._link_ok
        changed = 0
        if spec.racks_total > 1:
            for g, tor in enumerate(self.tors):
                p = g // R
                new = [a for a in range(A)
                       if link_ok[f"{tor.name}:aggr{p}.{a}"]
                       and not self.aggrs[p * A + a].dead]
                live = self._tor_live[g]
                if new != live:
                    live[:] = new
                    changed += 1
        for j, aggr in enumerate(self.aggrs):
            p, a = divmod(j, A)
            if K:
                new = [k for k in range(K)
                       if link_ok[f"{aggr.name}:core{a * K + k}"]
                       and not self.cores[a * K + k].dead]
                live = self._aggr_core_live[j]
                if new != live:
                    live[:] = new
                    changed += 1
            down_ok = self._aggr_down_ok[j]
            for r in range(R):
                tor = self.tors[p * R + r]
                down_ok[r] = (link_ok[f"{tor.name}:{aggr.name}"]
                              and not tor.dead)
        for c, core in enumerate(self.cores):
            a = c // K
            down_ok = self._core_down_ok[c]
            for p in range(P):
                aggr = self.aggrs[p * A + a]
                down_ok[p] = (link_ok[f"{aggr.name}:{core.name}"]
                              and not aggr.dead)
        self.reroutes += changed

    # -- accessors -------------------------------------------------------

    def pod_of(self, hid: int) -> int:
        return hid // (self.spec.racks * self.spec.hosts_per_rack)

    def same_pod(self, a: int, b: int) -> bool:
        return self.pod_of(a) == self.pod_of(b)

    def all_switch_ports(self) -> Iterable[BasePort]:
        yield from self.tor_down_ports
        yield from self.tor_up_ports
        yield from self.aggr_down_ports
        yield from self.aggr_up_ports
        yield from self.core_down_ports

    def all_switches(self) -> list[Switch]:
        return [*self.tors, *self.aggrs, *self.cores]

    # -- timing oracles --------------------------------------------------

    def _packet_transit_ps(self, wire: int, same_rack: bool) -> int:
        """Worst-tier single-packet transit (cross-pod on 3 levels)."""
        if same_rack or self.spec.levels == 2:
            return super()._packet_transit_ps(wire, same_rack)
        cfg = self.cfg
        ppb_h = ps_per_byte(cfg.host_gbps)
        ppb_a = ps_per_byte(cfg.aggr_gbps)
        ppb_c = ps_per_byte(self.spec.core_gbps)
        sw = cfg.switch_delay_ps
        return (wire * ppb_h + sw + wire * ppb_a + sw + wire * ppb_c + sw
                + wire * ppb_c + sw + wire * ppb_a + sw + wire * ppb_h)

    def min_oneway_between(self, src: int, dst: int, length: int) -> int:
        if self.same_rack(src, dst):
            return self.min_oneway_ps(length, True)
        if self.spec.levels == 2 or self.same_pod(src, dst):
            # Intra-pod: exactly the 2-level cross-rack bound.
            return self.min_oneway_ps(length, False)
        return self._min_oneway_xpod_ps(length)

    def min_rpc_between(self, src: int, dst: int,
                        request: int, response: int) -> int:
        return (self.min_oneway_between(src, dst, request)
                + self.min_oneway_between(dst, src, response))

    def _min_oneway_xpod_ps(self, length: int) -> int:
        """Cross-pod best case: the 2-level k-largest bound extended by
        two core-link serializations and two more switch delays."""
        cached = self._xpod_cache.get(length)
        if cached is not None:
            return cached
        cfg = self.cfg
        ppb_h = ps_per_byte(cfg.host_gbps)
        ppb_a = ps_per_byte(cfg.aggr_gbps)
        ppb_c = ps_per_byte(self.spec.core_gbps)
        sw = cfg.switch_delay_ps
        full, rest = divmod(length, MAX_PAYLOAD)
        rest_wire = wire_size(rest) if rest else 0
        best = 0
        if full:
            cum = full * FULL_WIRE * ppb_h
            best = (cum + 5 * sw + 2 * FULL_WIRE * ppb_a
                    + 2 * FULL_WIRE * ppb_c + FULL_WIRE * ppb_h)
        else:
            cum = 0
        if rest:
            cum += rest_wire * ppb_h
            candidate = (cum + 5 * sw + 2 * rest_wire * ppb_a
                         + 2 * rest_wire * ppb_c + rest_wire * ppb_h)
            if candidate > best:
                best = candidate
        result = best + cfg.software_delay_ps
        self._xpod_cache[length] = result
        return result


def build_fabric(sim: Simulator, spec: TopologySpec, *, seed: int = 1,
                 overrides: dict | None = None) -> Network:
    """Build the network a :class:`TopologySpec` describes.

    Clean 2-level specs *lower* to the canonical fused-ingress
    :class:`Network` — the same builder, the same RNG streams, the same
    byte-exact digests as an equivalent :class:`NetworkConfig`.  Loss
    on a 2-level fabric installs drop filters on that canonical network
    (the filters run before the spray draw, so a zero-rate spec stays
    untouched).  Faults or a third level require the liveness-aware
    :class:`FabricNetwork` builder.

    ``overrides`` are protocol NetworkConfig overrides (queue mode, ECN,
    trimming...) from ``transport.registry.network_overrides``.
    """
    overrides = dict(overrides or {})
    if spec.levels == 2 and not spec.faults:
        cfg = NetworkConfig(
            racks=spec.racks, hosts_per_rack=spec.hosts_per_rack,
            aggrs=spec.aggrs if spec.racks > 1 else 0,
            host_gbps=spec.host_gbps, aggr_gbps=spec.aggr_gbps,
            switch_delay_ns=spec.switch_delay_ns,
            software_delay_ns=spec.software_delay_ns,
            seed=seed, **overrides)
        net = Network(sim, cfg)
    else:
        net = FabricNetwork(sim, spec, seed=seed, **overrides)
    if spec.loss.any():
        install_loss(net, spec.loss, seed)
    if spec.faults:
        injector = FaultInjector(sim, net, spec.faults)
        injector.arm()
        net.fault_injector = injector
    return net
