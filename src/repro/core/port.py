"""Egress ports: the only places packets queue in this simulator.

Three port flavors cover every protocol in the paper:

* ``QueuedPort`` — a switch egress port with 8 strict priority queues,
  optional ECN marking (PIAS/DCTCP), optional NDP packet trimming,
  optional finite buffering with drop-tail, and optional ideal link-level
  preemption (the hardware change discussed around Figure 14).
* ``PfabricPort`` — pFabric's egress: a tiny shared buffer where the
  packet with the smallest remaining-bytes priority is sent first and
  the largest is dropped on overflow.
* ``PullPort`` — a host NIC that asks the transport for the next packet
  each time the link frees.  This is the idealized form of Homa's
  2-full-packets NIC queue bound (section 4): the sender reorders its
  queue perfectly, which is also what the paper's simulator assumes.

Ports support an optional ``probe`` (see ``PortProbe``) for metrics and
optional per-packet delay attribution used by Figure 14.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappush
from typing import Callable, Optional

from repro.core.engine import Simulator
from repro.core.packet import CTRL_PRIO, N_PRIORITIES, Packet, PacketType
from repro.core.pool import free_packet
from repro.core.units import ps_per_byte


class PortProbe:
    """Observer interface for port events.  All hooks are optional."""

    def on_queue_change(self, now_ps: int, qbytes: int) -> None:
        """Queued bytes changed (excludes the packet being transmitted)."""

    def on_busy_change(self, now_ps: int, busy: bool) -> None:
        """The link started or stopped transmitting."""

    def on_tx_done(self, now_ps: int, pkt: Packet) -> None:
        """A packet finished serializing onto the link."""

    def on_drop(self, now_ps: int, pkt: Packet) -> None:
        """A packet was dropped (buffer overflow)."""


class BasePort:
    """Common transmission machinery: one packet on the wire at a time."""

    __slots__ = (
        "sim", "name", "level", "ppb", "deliver", "busy",
        "cur_pkt", "cur_end_ps", "probe", "trace_delays",
        "tx_packets", "tx_wire_bytes", "drops", "_tx_done_cb", "enqueue_cb",
        "fuse_ok", "last_arrival_ps",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        gbps: int,
        deliver: Callable[[Packet], None],
        level: str,
    ) -> None:
        self.sim = sim
        self.name = name
        self.level = level
        self.ppb = ps_per_byte(gbps)
        self.deliver = deliver
        self.busy = False
        self.cur_pkt: Optional[Packet] = None
        self.cur_end_ps = 0
        self.probe: Optional[PortProbe] = None
        self.trace_delays = False
        self.tx_packets = 0
        self.tx_wire_bytes = 0
        self.drops = 0
        # Bound once: creating the bound method on every transmission is
        # measurable at millions of events per run.  ``enqueue_cb`` is
        # the same trick for the ingress closures' arrival events.
        self._tx_done_cb = self._tx_done
        self.enqueue_cb = self.enqueue
        # Arrival fusion (see topology's fused switch ingress): True only
        # where enqueueing early is invisible — no drops/marking/trimming
        # /preemption (queue state must not influence anything between
        # the early enqueue and the real arrival time).  Probe and
        # trace_delays are checked dynamically at the ingress site.
        # ``last_arrival_ps`` is the latest scheduled (non-fused)
        # arrival: fusing a packet is only sound strictly after that
        # arrival has fired, or the fused packet could overtake it in
        # its priority level's FIFO.
        self.fuse_ok = False
        self.last_arrival_ps = -1

    def enqueue(self, pkt: Packet) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def flush(self) -> int:
        """Destroy everything queued on this port (fault injection,
        core/faults.py).  Ports without a queue lose nothing."""
        return 0

    def _transmit(self, pkt: Packet) -> None:
        sim = self.sim
        now = sim.now
        time_ps = now + pkt.wire * self.ppb
        self.busy = True
        self.cur_pkt = pkt
        self.cur_end_ps = time_ps
        if self.probe is not None:
            self.probe.on_busy_change(sim.now, True)
        # schedule0 inlined: one event per transmitted packet.
        sim._seq += 1
        event = [time_ps, sim._seq, self._tx_done_cb, None]
        if time_ps < sim._horizon:
            heappush(sim._heap, event)
        else:
            sim._file_far(event, time_ps)

    def _tx_done(self) -> None:
        pkt = self.cur_pkt
        sim = self.sim
        self.cur_pkt = None
        self.busy = False
        self.tx_packets += 1
        self.tx_wire_bytes += pkt.wire
        if self.probe is not None:
            self.probe.on_tx_done(sim.now, pkt)
            self.probe.on_busy_change(sim.now, False)
        # Zero propagation delay: the packet is fully received at the
        # other end the moment serialization finishes (store-and-forward).
        self.deliver(pkt)
        self._next()

    def _next(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class QueuedPort(BasePort):
    """Switch egress port with 8 strict priority FIFO queues.

    ``_nonempty`` is a bitmask with bit ``p`` set iff ``queues[p]`` holds
    at least one packet, so picking the highest busy priority is a single
    ``int.bit_length`` instead of a scan over all 8 queues per dequeue.
    """

    __slots__ = (
        "queues", "qbytes", "prio_qbytes", "buffer_bytes",
        "ecn_bytes", "trim_bytes", "preemptive", "_paused", "_tx_event",
        "_nonempty", "_vanilla",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        gbps: int,
        deliver: Callable[[Packet], None],
        level: str,
        *,
        buffer_bytes: int | None = None,
        ecn_bytes: int | None = None,
        trim_bytes: int | None = None,
        preemptive: bool = False,
    ) -> None:
        super().__init__(sim, name, gbps, deliver, level)
        self.queues: list[deque[Packet]] = [deque() for _ in range(N_PRIORITIES)]
        self.qbytes = 0
        self.prio_qbytes = [0] * N_PRIORITIES
        self.buffer_bytes = buffer_bytes
        self.ecn_bytes = ecn_bytes
        self.trim_bytes = trim_bytes
        self.preemptive = preemptive
        self._paused: list[tuple[Packet, int]] = []  # (packet, remaining ps)
        self._tx_event = None
        self._nonempty = 0  # bit p set iff queues[p] is non-empty
        # Fast-path flag: no marking/trimming/drops/preemption to check.
        self._vanilla = (buffer_bytes is None and ecn_bytes is None
                         and trim_bytes is None and not preemptive)
        self.fuse_ok = self._vanilla

    def enqueue(self, pkt: Packet) -> None:
        if self._vanilla:
            if (not self.busy and not self._nonempty and self.probe is None
                    and not self._paused):
                # Idle, empty port: transmit directly, skip the queue
                # round-trip (event creation inlined — this is the
                # steady-state per-hop path).
                sim = self.sim
                now = sim.now
                time_ps = now + pkt.wire * self.ppb
                self.busy = True
                self.cur_pkt = pkt
                self.cur_end_ps = time_ps
                sim._seq += 1
                event = [time_ps, sim._seq, self._tx_done_cb, None]
                if time_ps < sim._horizon:
                    heappush(sim._heap, event)
                else:
                    sim._file_far(event, time_ps)
                return
            prio = pkt.prio
            if self.trace_delays and self.busy:
                residual = self.cur_end_ps - self.sim.now
                if self.cur_pkt is not None and self.cur_pkt.prio < prio:
                    pkt.p_wait += residual
                else:
                    pkt.q_wait += residual
            self.queues[prio].append(pkt)
            self._nonempty |= 1 << prio
            self.qbytes += pkt.wire
            if self.probe is not None:
                self.probe.on_queue_change(self.sim.now, self.qbytes)
            if not self.busy:
                self._next()
            return
        if self.ecn_bytes is not None and self.qbytes >= self.ecn_bytes:
            pkt.ecn = True
        if (
            self.trim_bytes is not None
            and pkt.kind == PacketType.DATA
            and not pkt.trimmed
            and self.prio_qbytes[pkt.prio] >= self.trim_bytes
        ):
            # NDP: keep the header, ship it on the control priority.
            pkt.trim()
            pkt.prio = CTRL_PRIO
        if self.buffer_bytes is not None and self.qbytes + pkt.wire > self.buffer_bytes:
            self.drops += 1
            if self.probe is not None:
                self.probe.on_drop(self.sim.now, pkt)
            return
        preempts = (
            self.preemptive
            and self.busy
            and self.cur_pkt is not None
            and pkt.prio > self.cur_pkt.prio
        )
        if self.trace_delays and self.busy and not preempts:
            # A packet that is about to preempt the in-flight packet
            # never waits out its residual, so it is charged nothing.
            residual = self.cur_end_ps - self.sim.now
            if self.cur_pkt is not None and self.cur_pkt.prio < pkt.prio:
                pkt.p_wait += residual
            else:
                pkt.q_wait += residual
        self.queues[pkt.prio].append(pkt)
        self._nonempty |= 1 << pkt.prio
        self.qbytes += pkt.wire
        self.prio_qbytes[pkt.prio] += pkt.wire
        if self.probe is not None:
            self.probe.on_queue_change(self.sim.now, self.qbytes)
        if not self.busy:
            self._next()
        elif preempts:
            self._preempt()

    def flush(self) -> int:
        """Destroy every queued (not in-flight) packet.

        A link or switch fault kills the line card: whatever sat in its
        buffers is gone.  The packet currently serializing is untouched
        — its bits are already on the wire (a dead downstream switch
        drops it at ingress instead).  Pooled packets recycle at the
        drop point.  Returns the number of packets destroyed, which the
        caller accounts (FabricNetwork credits the owning switch's
        ``fault_drops``).
        """
        flushed = 0
        for queue in self.queues:
            while queue:
                free_packet(queue.popleft())
                flushed += 1
        for pkt, _ in self._paused:
            free_packet(pkt)
            flushed += 1
        self._paused.clear()
        self._nonempty = 0
        self.qbytes = 0
        self.prio_qbytes = [0] * N_PRIORITIES
        if flushed and self.probe is not None:
            self.probe.on_queue_change(self.sim.now, 0)
        return flushed

    def _preempt(self) -> None:
        """Ideal link-level preemption: pause the in-flight packet."""
        remaining = self.cur_end_ps - self.sim.now
        paused = self.cur_pkt
        # The pending _tx_done event is found by rebuilding: simplest
        # correct approach is to mark the port idle and re-arm.  The
        # old completion event must be cancelled via a generation check.
        self._paused.append((paused, remaining))
        self.cur_pkt = None
        self.busy = False
        self._cancel_pending_tx()
        self._next()

    def _cancel_pending_tx(self) -> None:
        # BasePort scheduled _tx_done; we cannot keep a handle per
        # transmission without burdening the hot path, so preemptive
        # ports keep one.  Lazily created on first use.
        event = getattr(self, "_tx_event", None)
        if event is not None:
            Simulator.cancel(event)

    def _transmit(self, pkt: Packet) -> None:
        duration = pkt.wire * self.ppb
        self.busy = True
        self.cur_pkt = pkt
        self.cur_end_ps = self.sim.now + duration
        if self.probe is not None:
            self.probe.on_busy_change(self.sim.now, True)
        event = self.sim.schedule0(duration, self._tx_done_cb)
        if self.preemptive:
            self._tx_event = event

    def _resume(self, pkt: Packet, remaining: int) -> None:
        self.busy = True
        self.cur_pkt = pkt
        self.cur_end_ps = self.sim.now + remaining
        if self.probe is not None:
            self.probe.on_busy_change(self.sim.now, True)
        event = self.sim.schedule0(remaining, self._tx_done_cb)
        if self.preemptive:
            self._tx_event = event

    def _tx_done(self) -> None:
        # BasePort._tx_done with the follow-up dequeue inlined: this
        # pair runs once per switch-port transmission.  KEEP IN SYNC
        # with _next below — the dequeue + inline-transmit bodies are
        # intentionally duplicated to save a call per packet.
        pkt = self.cur_pkt
        self.cur_pkt = None
        self.busy = False
        self.tx_packets += 1
        self.tx_wire_bytes += pkt.wire
        if self.probe is not None:
            self.probe.on_tx_done(self.sim.now, pkt)
            self.probe.on_busy_change(self.sim.now, False)
        self.deliver(pkt)
        mask = self._nonempty
        if self._paused:
            self._next()
            return
        if not mask:
            return
        prio = mask.bit_length() - 1
        queue = self.queues[prio]
        pkt = queue.popleft()
        if not queue:
            self._nonempty = mask & ~(1 << prio)
        self.qbytes -= pkt.wire
        if not self._vanilla:
            self.prio_qbytes[prio] -= pkt.wire
        if self.probe is None and not self.trace_delays:
            sim = self.sim
            now = sim.now
            time_ps = now + pkt.wire * self.ppb
            self.busy = True
            self.cur_pkt = pkt
            self.cur_end_ps = time_ps
            sim._seq += 1
            event = [time_ps, sim._seq, self._tx_done_cb, None]
            if time_ps < sim._horizon:
                heappush(sim._heap, event)
            else:
                sim._file_far(event, time_ps)
            if self.preemptive:
                self._tx_event = event
            return
        if self.probe is not None:
            self.probe.on_queue_change(self.sim.now, self.qbytes)
        if self.trace_delays:
            self._charge_waiters(pkt)
        self._transmit(pkt)

    def _next(self) -> None:
        # Highest non-empty priority in O(1) via the occupancy bitmask.
        prio = self._nonempty.bit_length() - 1
        if self._paused and self._paused[-1][0].prio >= prio:
            pkt, remaining = self._paused.pop()
            self._resume(pkt, remaining)
            return
        if prio < 0:
            return
        queue = self.queues[prio]
        pkt = queue.popleft()
        if not queue:
            self._nonempty &= ~(1 << prio)
        self.qbytes -= pkt.wire
        if not self._vanilla:
            self.prio_qbytes[prio] -= pkt.wire
        if self.probe is None and not self.trace_delays:
            # _transmit inlined for the plain case (the dequeue path
            # runs once per transmitted packet).
            sim = self.sim
            now = sim.now
            time_ps = now + pkt.wire * self.ppb
            self.busy = True
            self.cur_pkt = pkt
            self.cur_end_ps = time_ps
            sim._seq += 1
            event = [time_ps, sim._seq, self._tx_done_cb, None]
            if time_ps < sim._horizon:
                heappush(sim._heap, event)
            else:
                sim._file_far(event, time_ps)
            if self.preemptive:
                self._tx_event = event
            return
        if self.probe is not None:
            self.probe.on_queue_change(self.sim.now, self.qbytes)
        if self.trace_delays:
            self._charge_waiters(pkt)
        self._transmit(pkt)

    def _charge_waiters(self, winner: Packet) -> None:
        """Attribute the winner's tx time to every packet left waiting.

        A queued packet waiting behind a *lower*-priority transmission is
        experiencing preemption lag; waiting behind equal-or-higher
        priority is plain queueing (Figure 14's two delay sources).
        """
        duration = winner.wire * self.ppb
        wprio = winner.prio
        mask = self._nonempty
        while mask:
            prio = mask.bit_length() - 1
            mask &= ~(1 << prio)
            queue = self.queues[prio]
            if wprio < prio:
                for waiting in queue:
                    waiting.p_wait += duration
            else:
                for waiting in queue:
                    waiting.q_wait += duration


class PfabricPort(BasePort):
    """pFabric egress: smallest remaining-size first, drop the largest.

    ``fine_prio`` is the packet's remaining message bytes at send time
    (0 for ACKs/probes, which makes them most urgent).  The buffer is a
    couple of bandwidth-delay products, as in the pFabric paper.

    Dequeue-min and drop-max are both served by heaps sharing one entry
    list ``[fine_prio, arrival_seq, pkt]`` per packet; an entry whose
    packet slot is None is dead and skipped lazily.  ``arrival_seq``
    breaks fine-priority ties FIFO on the min side and oldest-first on
    the max side, matching the linear-scan semantics this replaces.
    """

    __slots__ = ("_min_heap", "_max_heap", "_arrivals", "qbytes",
                 "buffer_bytes")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        gbps: int,
        deliver: Callable[[Packet], None],
        level: str,
        *,
        buffer_bytes: int,
    ) -> None:
        super().__init__(sim, name, gbps, deliver, level)
        self._min_heap: list[list] = []   # [fine_prio, seq, pkt-or-None]
        self._max_heap: list[list] = []   # [-fine_prio, seq, entry]
        self._arrivals = 0
        self.qbytes = 0
        self.buffer_bytes = buffer_bytes

    def enqueue(self, pkt: Packet) -> None:
        while self.qbytes + pkt.wire > self.buffer_bytes:
            victim_entry = self._largest_entry()
            if victim_entry is None or -victim_entry[0] <= pkt.fine_prio:
                # The arrival is the least urgent: drop it.
                self.drops += 1
                if self.probe is not None:
                    self.probe.on_drop(self.sim.now, pkt)
                return
            inner = victim_entry[2]
            victim = inner[2]
            inner[2] = None  # kill: the min heap skips it lazily
            heapq.heappop(self._max_heap)
            self.qbytes -= victim.wire
            self.drops += 1
            if self.probe is not None:
                self.probe.on_drop(self.sim.now, victim)
        self._arrivals += 1
        entry = [pkt.fine_prio, self._arrivals, pkt]
        heapq.heappush(self._min_heap, entry)
        heapq.heappush(self._max_heap, [-pkt.fine_prio, self._arrivals, entry])
        self.qbytes += pkt.wire
        if self.probe is not None:
            self.probe.on_queue_change(self.sim.now, self.qbytes)
        if not self.busy:
            self._next()

    def _largest_entry(self) -> list | None:
        """Live max-heap head (largest fine_prio, oldest among ties)."""
        heap = self._max_heap
        while heap and heap[0][2][2] is None:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def _next(self) -> None:
        heap = self._min_heap
        while heap:
            entry = heapq.heappop(heap)
            pkt = entry[2]
            if pkt is None:
                continue
            entry[2] = None  # kill the max-heap twin
            self.qbytes -= pkt.wire
            if self.probe is not None:
                self.probe.on_queue_change(self.sim.now, self.qbytes)
            self._transmit(pkt)
            return


class PullPort(BasePort):
    """Host NIC egress that pulls packets from the transport on demand."""

    __slots__ = ("source",)

    def __init__(
        self,
        sim: Simulator,
        name: str,
        gbps: int,
        deliver: Callable[[Packet], None],
        level: str,
    ) -> None:
        super().__init__(sim, name, gbps, deliver, level)
        self.source: Optional[Callable[[], Optional[Packet]]] = None

    def kick(self) -> None:
        """Tell the NIC new work may be available."""
        if not self.busy:
            self._next()

    def _tx_done(self) -> None:
        # BasePort._tx_done fused with the follow-up pull: this pair
        # runs once per host-uplink transmission.
        pkt = self.cur_pkt
        self.cur_pkt = None
        self.busy = False
        self.tx_packets += 1
        self.tx_wire_bytes += pkt.wire
        probe = self.probe
        if probe is not None:
            now = self.sim.now
            probe.on_tx_done(now, pkt)
            probe.on_busy_change(now, False)
        # Delivery only schedules the next-hop arrival; it cannot start
        # a new transmission on this port, so pulling afterwards is the
        # same order BasePort produced.
        self.deliver(pkt)
        source = self.source
        if source is not None:
            pkt = source()
            if pkt is not None:
                # _transmit inlined (one NIC transmission per pull).
                sim = self.sim
                now = sim.now
                time_ps = now + pkt.wire * self.ppb
                self.busy = True
                self.cur_pkt = pkt
                self.cur_end_ps = time_ps
                if self.probe is not None:
                    self.probe.on_busy_change(sim.now, True)
                sim._seq += 1
                event = [time_ps, sim._seq, self._tx_done_cb, None]
                if time_ps < sim._horizon:
                    heappush(sim._heap, event)
                else:
                    sim._file_far(event, time_ps)

    def _next(self) -> None:
        if self.source is None:
            return
        pkt = self.source()
        if pkt is not None:
            self._transmit(pkt)
