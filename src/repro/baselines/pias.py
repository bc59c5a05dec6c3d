"""PIAS (Bai et al., NSDI 2015): information-agnostic flow scheduling.

"PIAS works with a limited number of priorities, but it assigns
priorities on senders, which limits its ability to approximate SRPT ...
it uses a multi-level queue scheduling policy" (section 2.2).

Mechanics reproduced here:

* sender-side multi-level feedback queue: a message starts at the
  highest priority and is demoted as its transmitted bytes cross the
  workload-tuned thresholds (computed offline to balance bytes per
  level, mirroring PIAS's threshold optimization);
* underneath, a DCTCP-style congestion control: per-flow window, ECN
  marks echoed in ACKs, multiplicative backoff proportional to the
  marked fraction (the alpha estimator), slow start, and a
  retransmission timeout;
* flows on a host share the NIC round-robin — no SRPT at the sender,
  because PIAS is information-agnostic by design.

The paper's observation that "congestion led to ECN-induced backoff in
workload W4, resulting in slowdowns of 20 or more" emerges from the
DCTCP layer.

Loss recovery (docs/FABRICS.md): DCTCP's RTO/go-back-N already handles
clean-path anomalies, so injected-loss additions are gated on a
RecoveryConfig: exponential backoff across consecutive fruitless RTO
rounds with a give-up budget (the bare RTO otherwise retransmits to a
dead peer forever), receiver-side GC of partial inbound messages, and
a full cumulative re-ACK for retransmissions of recently completed
messages (a lost final ACK otherwise triggers go-back-N into a fresh
partial inbound — duplicate delivery).
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import Simulator
from repro.core.packet import MAX_PAYLOAD, N_PRIORITIES, Packet, PacketType
from repro.transport.base import RecoveryConfig, Transport
from repro.transport.messages import InboundMessage, OutboundMessage
from repro.workloads.distributions import EmpiricalCDF

#: DCTCP gain for the alpha estimator
DCTCP_G = 1.0 / 16.0
#: initial window (10 full packets, as in DCTCP deployments)
INIT_CWND = 10 * MAX_PAYLOAD


def pias_thresholds(cdf: EmpiricalCDF, n_prios: int = N_PRIORITIES) -> tuple[int, ...]:
    """Demotion thresholds balancing transmitted bytes across levels.

    PIAS derives thresholds from the workload's flow size distribution;
    equalizing the per-level byte volume is the same objective Homa uses
    for unscheduled cutoffs, so we reuse that machinery with an infinite
    cap (every byte of every message passes through the MLFQ).
    """
    from repro.homa.priorities import compute_cutoffs

    return compute_cutoffs(cdf, n_prios, cdf.max_bytes())


class _PiasFlow:
    """Sender-side DCTCP state for one message."""

    __slots__ = ("msg", "cwnd", "ssthresh", "alpha", "acked_prefix",
                 "window_sent", "window_marked", "window_end",
                 "dup_acks", "last_send_ps", "recovery_until",
                 "rec_rounds", "next_rto_ps", "high_water")

    def __init__(self, msg: OutboundMessage) -> None:
        self.msg = msg
        self.cwnd = float(INIT_CWND)
        self.ssthresh = float(1 << 40)
        self.alpha = 0.0
        self.acked_prefix = 0
        self.window_sent = 0
        self.window_marked = 0
        self.window_end = INIT_CWND
        self.dup_acks = 0
        self.last_send_ps = 0
        self.recovery_until = 0
        self.rec_rounds = 0   # consecutive fruitless RTOs (recovery only)
        self.next_rto_ps = 0  # backoff gate for the next RTO action
        self.high_water = 0   # highest byte ever sent (marks go-back-N retx)

    def can_send(self) -> bool:
        return (self.msg.sent - self.acked_prefix < self.cwnd
                and self.msg.sent < self.msg.length)


class PiasTransport(Transport):
    """PIAS = MLFQ priorities + DCTCP congestion control."""

    protocol_name = "pias"

    def __init__(
        self,
        sim: Simulator,
        *,
        thresholds: tuple[int, ...],
        rtt_ps: int,
        min_rto_ps: int | None = None,
        recovery: RecoveryConfig | None = None,
    ) -> None:
        super().__init__(sim, recovery)
        self.thresholds = thresholds
        self.rto_ps = min_rto_ps or max(20 * rtt_ps, 200_000_000)  # >=200 us
        self.flows: dict[int, _PiasFlow] = {}
        self._rr: list[int] = []  # round-robin order of flow keys
        self.inbound: dict[int, InboundMessage] = {}
        self._timer = None
        self.retransmissions = 0
        self.backoffs = 0
        # Receiver GC of partial inbound messages (None on clean fabrics).
        self._in_watch = self._tracker(self._in_idle, self._in_give_up)
        # Done-memory must outlive the sender's retry *spacing*, which
        # here is RTO-scaled (backoff gate <= 4*rto plus the
        # rto-granular check timer), not recovery-scaled: the RTO floor
        # (>=200 us) dwarfs the recovery base on small-RTT fabrics, and
        # an expired memory turns a late go-back-N into a duplicate
        # delivery.  The RTO runs on clean fabrics too (a spurious
        # timeout under queueing), so the memory is always kept.
        self._done_horizon_ps = max(self._done_horizon_ps, 8 * self.rto_ps)

    # ------------------------------------------------------------------
    # MLFQ priority
    # ------------------------------------------------------------------

    def _prio_for(self, bytes_sent: int) -> int:
        """Highest priority first, demoted as bytes_sent crosses
        thresholds (PIAS table lookup)."""
        for index, threshold in enumerate(self.thresholds):
            if bytes_sent < threshold:
                return N_PRIORITIES - 1 - index
        return 0

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send_message(self, dst: int, length: int, **kwargs) -> OutboundMessage:
        msg = OutboundMessage(self.sim.new_id(), True, self.hid, dst, length,
                              unsched_limit=length, created_ps=self.sim.now)
        flow = _PiasFlow(msg)
        self.flows[msg.key] = flow
        self._rr.append(msg.key)
        self._ensure_timer()
        self.kick()
        return msg

    def _next_data(self) -> Optional[Packet]:
        # Round-robin across flows with window room (no SRPT: PIAS is
        # information-agnostic at the sender).
        for _ in range(len(self._rr)):
            key = self._rr.pop(0)
            flow = self.flows.get(key)
            if flow is None:
                continue
            self._rr.append(key)
            if flow.can_send():
                return self._emit(flow)
        return None

    def _emit(self, flow: _PiasFlow) -> Packet:
        msg = flow.msg
        offset = msg.sent
        size = min(MAX_PAYLOAD, msg.length - offset,
                   max(1, int(flow.cwnd - (msg.sent - flow.acked_prefix))))
        msg.sent += size
        flow.last_send_ps = self.sim.now
        retx = offset < flow.high_water  # go-back-N re-covers old bytes
        if msg.sent > flow.high_water:
            flow.high_water = msg.sent
        if retx:
            self.rtx_data_sent += 1
        return Packet(
            self.hid, msg.dst, PacketType.DATA,
            prio=self._prio_for(offset), payload=size,
            rpc_id=msg.rpc_id, is_request=True, offset=offset,
            total_length=msg.length, retx=retx, created_ps=msg.created_ps)

    def _retransmit_from(self, flow: _PiasFlow, offset: int) -> None:
        """Go-back-N from the acked prefix."""
        self.retransmissions += 1
        flow.msg.sent = offset
        self.kick()

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == PacketType.DATA:
            self._on_data(pkt)
        elif pkt.kind == PacketType.ACK:
            self._on_ack(pkt)

    def _on_data(self, pkt: Packet) -> None:
        key = pkt.msg_key
        msg = self.inbound.get(key)
        if msg is None:
            if self._recently_done(key):
                # Late go-back-N of a completed message (the final ACK
                # was lost): re-ACK the full length, never re-register —
                # a fresh partial inbound here is a duplicate delivery.
                self._note_done(key)  # refresh: the peer is still retrying
                ack = Packet(self.hid, pkt.src, PacketType.ACK, prio=7,
                             rpc_id=pkt.rpc_id, is_request=True,
                             offset=pkt.total_length)
                ack.ecn = pkt.ecn
                self.send_ctrl(ack)
                return
            msg = InboundMessage(pkt.rpc_id, True, pkt.src, self.hid,
                                 pkt.total_length, now_ps=self.sim.now)
            msg.created_ps = pkt.created_ps
            self.inbound[key] = msg
            if self._in_watch is not None:
                self._in_watch.watch(key)
        added = msg.record(pkt.offset, pkt.payload, self.sim.now)
        if pkt.retx and added:
            self.rtx_recovered += 1
        if self._in_watch is not None:
            self._in_watch.touch(key)
        # Cumulative ACK echoing the ECN mark (DCTCP's feedback loop).
        ack = Packet(self.hid, pkt.src, PacketType.ACK, prio=7,
                     rpc_id=pkt.rpc_id, is_request=True,
                     offset=msg.received.contiguous_prefix())
        ack.ecn = pkt.ecn
        self.send_ctrl(ack)
        if msg.is_complete():
            del self.inbound[key]
            if self._in_watch is not None:
                self._in_watch.forget(key)
            self._note_done(key)
            self._report_complete(msg)

    def _on_ack(self, pkt: Packet) -> None:
        flow = self.flows.get(pkt.msg_key)
        if flow is None:
            return
        msg = flow.msg
        advanced = pkt.offset > flow.acked_prefix
        # DCTCP alpha bookkeeping per window of data.
        flow.window_sent += 1
        if pkt.ecn:
            flow.window_marked += 1
        if pkt.offset >= flow.window_end or pkt.offset >= msg.length:
            fraction = (flow.window_marked / flow.window_sent
                        if flow.window_sent else 0.0)
            flow.alpha = (1 - DCTCP_G) * flow.alpha + DCTCP_G * fraction
            if flow.window_marked and self.sim.now >= flow.recovery_until:
                flow.cwnd = max(MAX_PAYLOAD, flow.cwnd * (1 - flow.alpha / 2))
                flow.recovery_until = self.sim.now + self.rto_ps // 8
                self.backoffs += 1
            flow.window_sent = flow.window_marked = 0
            flow.window_end = pkt.offset + int(flow.cwnd)
        if advanced:
            delta = pkt.offset - flow.acked_prefix
            flow.acked_prefix = pkt.offset
            flow.dup_acks = 0
            flow.rec_rounds = 0  # forward progress proves the peer lives
            flow.next_rto_ps = 0
            if flow.cwnd < flow.ssthresh:
                flow.cwnd += delta  # slow start
            else:
                flow.cwnd += MAX_PAYLOAD * delta / flow.cwnd
        else:
            flow.dup_acks += 1
            if flow.dup_acks == 3 and self.sim.now >= flow.recovery_until:
                flow.ssthresh = max(MAX_PAYLOAD, flow.cwnd / 2)
                flow.cwnd = flow.ssthresh
                flow.recovery_until = self.sim.now + self.rto_ps // 8
                self._retransmit_from(flow, flow.acked_prefix)
        if flow.acked_prefix >= msg.length:
            self.flows.pop(msg.key, None)
        self.kick()

    # ------------------------------------------------------------------
    # retransmission timeout
    # ------------------------------------------------------------------

    def _ensure_timer(self) -> None:
        if self._timer is not None and Simulator.is_pending(self._timer):
            return
        if self.flows:
            self._timer = self.sim.schedule(self.rto_ps, self._check_timeouts)

    def _check_timeouts(self) -> None:
        self._timer = None
        now = self.sim.now
        for flow in list(self.flows.values()):
            in_flight = flow.msg.sent - flow.acked_prefix
            if in_flight > 0 and now - flow.last_send_ps >= self.rto_ps:
                if self.recovery is not None:
                    # Injected loss: back off across fruitless RTO
                    # rounds and retire the flow once the budget is
                    # spent — a bare RTO retransmits to a dead peer
                    # forever.
                    if now < flow.next_rto_ps:
                        continue
                    flow.rec_rounds += 1
                    if flow.rec_rounds > self.recovery.max_tries:
                        self.flows.pop(flow.msg.key, None)
                        self.outbound_gaveups += 1
                        continue
                    backoff = self.rto_ps * (
                        self.recovery.factor ** flow.rec_rounds)
                    flow.next_rto_ps = now + min(backoff, 4 * self.rto_ps)
                flow.ssthresh = max(MAX_PAYLOAD, flow.cwnd / 2)
                flow.cwnd = float(MAX_PAYLOAD)
                self._retransmit_from(flow, flow.acked_prefix)
        self._ensure_timer()

    # ------------------------------------------------------------------
    # loss recovery (hooks only fire when a RecoveryConfig is present)
    # ------------------------------------------------------------------

    def _in_idle(self, key: int, tries: int) -> None:
        """The receiver is passive in PIAS — the sender's RTO owns
        retransmission — so expiries just burn down the GC budget."""

    def _in_give_up(self, key: int) -> None:
        """Sender went silent mid-message: GC the partial inbound."""
        if self.inbound.pop(key, None) is not None:
            self.inbound_gaveups += 1
