"""Cross-protocol recovery battery (docs/FABRICS.md).

Every registered protocol must survive injected loss and fabric
faults.  The contract, per protocol, at event exhaustion:

* **conservation** — every submitted message is delivered at most
  once, and every undelivered message is accounted for: a sender
  give-up (``outbound_gaveups``), or — Homa one-ways only — a blind
  loss (the entire unscheduled transmission destroyed before either
  end held recoverable state, bounded by the fabric's drop count);
* **no leaks** — no transport dictionary (inbound, outbound, flows,
  token buckets, recovery trackers) retains an entry once the event
  queue drains; the give-up budgets guarantee exhaustion itself;
* **clean fabrics untouched** — with no loss filters and no fault
  schedule, the recovery machinery schedules zero events, pinned
  here by byte-exact slowdown digests for all eight protocols.

The deterministic batteries fix a schedule and sweep loss rates and
fault schedules; the hypothesis battery fuzzes schedules x loss x
seed per protocol.  Edge cases at the bottom pin the bug classes the
wiring is most prone to: duplicate delivery after a lost final ACK,
late ACKs racing a give-up, and outages shorter than the retry
budget (fault-restore mid-backoff).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Simulator
from repro.core.faults import FaultEvent, LossRates
from repro.core.packet import Packet, PacketType
from repro.core.topology import TopologySpec
from repro.core.units import MS, US
from repro.experiments.campaign import slowdown_digest
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.metrics.control import FabricHealth
from repro.transport.registry import PROTOCOLS

from tests.helpers import collect_completions, protocol_cluster

# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

#: 2 racks x 2 hosts (hids 0,1 | 2,3) behind one aggregation switch.
def _spec(loss=None, faults=()):
    return TopologySpec(levels=2, racks=2, hosts_per_rack=2, aggrs=1,
                        loss=loss or LossRates(), faults=tuple(faults))


#: every dict a transport may hold per-message state in; all must be
#: empty at event exhaustion (give-ups pop them, completions pop them).
STATE_DICTS = (
    "inbound", "outbound", "flows", "tokens", "client_rpcs",
    "server_rpcs", "_sent_msgs", "_msg_conn", "_lingering",
    "_pulls_issued", "_orphan_rounds", "_grantable",
    "last_data_ps", "token_grant_ps", "blacklisted_until",
)

#: recovery trackers; must have forgotten every key at exhaustion.
TRACKERS = ("_in_watch", "_out_watch", "_flow_watch")


def assert_no_leaks(transports):
    for t in transports:
        for attr in STATE_DICTS:
            held = getattr(t, attr, None)
            assert not held, (
                f"{t.protocol_name} host {t.hid} leaked {attr}: "
                f"{list(held)[:4]}")
        for attr in TRACKERS:
            tracker = getattr(t, attr, None)
            assert tracker is None or len(tracker) == 0, (
                f"{t.protocol_name} host {t.hid} leaked tracker {attr}")
        # Stream connections: residual queue entries must be inert
        # (fully sent, nothing queued for retransmission).
        for conns in getattr(t, "connections", {}).values():
            for conn in conns:
                for msg in conn.queue:
                    assert msg.fully_sent() and not msg.rtx, (
                        f"stream host {t.hid} leaked live queued message")


def run_battery(protocol, schedule, spec, seed, horizon_ps=500 * MS):
    """Drive ``schedule`` = [(src, dst, size, gap_ps)] to exhaustion."""
    sim, net, transports = protocol_cluster(protocol, spec, seed=seed)
    records = collect_completions(transports)
    submitted = []
    clock = 0
    for src, dst, size, gap_ps in schedule:
        clock += gap_ps
        sim.schedule_at(clock, transports[src].send_message, dst, size)
        submitted.append((src, dst, size))
    sim.run(until_ps=clock + horizon_ps)
    # The give-up budgets bound every retry path: the queue must be
    # *exhausted* at the horizon, not merely truncated by it.
    assert sim.run(until_ps=sim.now + 50 * MS) == 0, (
        f"{protocol}: events still pending past the recovery horizon")
    return sim, net, transports, records, submitted


def assert_conserved(protocol, net, transports, records, submitted):
    # At-most-once delivery: no (src, dst, rpc) completes twice.
    keys = [(msg.src, hid, msg.rpc_id, msg.is_request)
            for hid, msg, _ in records]
    assert len(set(keys)) == len(keys), f"{protocol}: duplicate delivery"
    delivered = sorted((msg.src, hid, msg.length) for hid, msg, _ in records)
    assert len(delivered) <= len(submitted)
    remaining = sorted(submitted)
    for item in delivered:
        remaining.remove(item)  # raises if a phantom message completed
    missing = len(remaining)
    health = FabricHealth.collect(net)
    if health.total_drops == 0:
        assert missing == 0, f"{protocol}: lost messages without drops"
    out_gaveups = sum(t.outbound_gaveups for t in transports)
    if protocol in ("homa", "basic"):
        # Homa one-ways can be blind-lost: the whole unscheduled
        # transmission destroyed before any state existed (senders
        # keep no timers, section 3.7; end-to-end retry is the
        # application's job, section 3.8).  Bounded by the drops.
        assert missing <= out_gaveups + health.total_drops
    else:
        # Baseline senders hold state until acked: every undelivered
        # message must have been given up, loudly.
        assert missing <= out_gaveups, (
            f"{protocol}: {missing} missing > {out_gaveups} give-ups")
    rtx = sum(t.rtx_data_sent for t in transports)
    recovered = sum(t.rtx_recovered for t in transports)
    assert recovered <= rtx
    assert_no_leaks(transports)
    return missing, health


# A deterministic mixed-size schedule: single-packet messages, a few
# multi-packet ones crossing the aggregation layer, some intra-rack.
SCHEDULE = [
    (0, 2, 40_000, 0),
    (1, 3, 1_400, 2 * US),
    (2, 1, 12_000, 1 * US),
    (3, 0, 90_000, 3 * US),
    (0, 1, 800, 1 * US),
    (2, 3, 6_000, 2 * US),
    (1, 2, 56_000, 4 * US),
    (3, 2, 300, 1 * US),
    (0, 3, 20_000, 5 * US),
    (2, 0, 3_000, 2 * US),
]


# ---------------------------------------------------------------------------
# deterministic battery: every protocol x loss rates x a fault schedule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("rate,seed", [(0.02, 3), (0.08, 11)])
def test_conservation_under_loss(protocol, rate, seed):
    spec = _spec(loss=LossRates(tor=rate, aggr=rate / 2))
    sim, net, transports, records, submitted = run_battery(
        protocol, SCHEDULE, spec, seed)
    missing, health = assert_conserved(
        protocol, net, transports, records, submitted)
    assert health.total_drops > 0, "loss rate produced no drops; vacuous"


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_conservation_under_loss_and_faults(protocol):
    """Loss plus a mid-run outage of the only aggregation uplink from
    rack 0: packets black-hole while it is down, then recovery resumes
    on the restored path."""
    spec = _spec(
        loss=LossRates(tor=0.02),
        faults=[FaultEvent(0.01, "link", "down", "tor0:aggr0.0"),
                FaultEvent(0.08, "link", "up", "tor0:aggr0.0")])
    sim, net, transports, records, submitted = run_battery(
        protocol, SCHEDULE, spec, seed=7)
    missing, health = assert_conserved(
        protocol, net, transports, records, submitted)
    assert health.faults_applied == 2


# ---------------------------------------------------------------------------
# hypothesis battery: schedules x loss rates x seeds, per protocol
# ---------------------------------------------------------------------------

lossy_cases = st.tuples(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),       # src
            st.integers(min_value=1, max_value=3),       # dst offset
            st.integers(min_value=1, max_value=60_000),  # size
            st.integers(min_value=0, max_value=5),       # gap in us
        ),
        min_size=1, max_size=6,
    ),
    st.sampled_from([0.01, 0.04, 0.10]),                 # loss rate
    st.integers(min_value=0, max_value=40),              # fabric seed
)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@given(lossy_cases)
@settings(max_examples=6, deadline=None)
def test_prop_conservation_under_loss(protocol, case):
    raw, rate, seed = case
    schedule = [(src, (src + off) % 4, size, gap_us * US)
                for src, off, size, gap_us in raw]
    spec = _spec(loss=LossRates(tor=rate))
    sim, net, transports, records, submitted = run_battery(
        protocol, schedule, spec, seed)
    assert_conserved(protocol, net, transports, records, submitted)


# ---------------------------------------------------------------------------
# clean fabrics: recovery must not schedule a single event
# ---------------------------------------------------------------------------

#: slowdown digests of the growth seed, byte-for-byte.  Recovery is
#: armed only when ``net.may_drop()``; any drift here means the loss
#: machinery leaked into the clean path (see docs/FABRICS.md).
CLEAN_DIGESTS = {
    "homa":      "9c91f2cf261c3606794741cb55f6ec34871ecb52a708ece13b96528c66749d7e",
    "basic":     "094997854d98af8cb044fa1edaaf64c3786e17b38872db8e4ad52fe3f589ad36",
    "pfabric":   "8e7e2d8dd9720ba2b66d39c524830d80cc9a8aa6bdd6ab46644af052c1ea8179",
    "phost":     "a7c977a12023e9f4a4397a3697b700574a8cd373878f5fa5b4e4f2b1e23dedb0",
    "pias":      "b13b6851bdcbf1c101df754ed2557208f9d11722dd046aa01d878ba5639de626",
    "ndp":       "dbeec719ce48974a4621945624c86683a5da06f4ef015c756de1e316cf534d7a",
    "stream":    "7c9a28c49d98ed3b84eb00b0a717d08dfabb99442f25f645a4269378f953d31a",
    "stream_mc": "193cd890f8092b4d7df042ceaf2c9df984355480b0c48c9a40818ff867bd8005",
}


@pytest.mark.parametrize("protocol", sorted(CLEAN_DIGESTS))
def test_clean_fabric_digest_pinned(protocol):
    kwargs = dict(protocol=protocol, workload="W2", racks=2,
                  hosts_per_rack=2, aggrs=1, duration_ms=2.0,
                  warmup_ms=0.0, drain_ms=6.0, max_messages=120,
                  load=0.4, seed=3)
    if protocol == "ndp":
        kwargs.update(workload="W5", load=0.3, duration_ms=30.0,
                      drain_ms=40.0, max_messages=6)
    result = run_experiment(ExperimentConfig(**kwargs))
    assert result.completed > 0
    assert result.control.rtx_data == 0
    assert result.control.give_ups == 0
    assert slowdown_digest({protocol: result}) == CLEAN_DIGESTS[protocol]


def test_clean_fabric_disarms_recovery():
    sim, net, transports = protocol_cluster("stream", _spec(), seed=1)
    for t in transports:
        assert t.recovery is None
        assert t._out_watch is None and t._in_watch is None


# ---------------------------------------------------------------------------
# edge cases
# ---------------------------------------------------------------------------

#: negligible but nonzero loss: arms the recovery machinery through the
#: registry exactly like a real lossy fabric, while (at these seeds) no
#: packet of the tiny driving schedules is actually dropped.
ARMED = _spec(loss=LossRates(tor=1e-9))


def _one_delivery(protocol, size=900):
    sim, net, transports = protocol_cluster(protocol, ARMED, seed=1)
    records = collect_completions(transports)
    msg = transports[0].send_message(2, size)
    # A short horizon: the duplicate below must land inside the
    # receiver's done-memory, as a real bounded-budget retrier would.
    sim.run(until_ps=200 * US)
    assert len(records) == 1
    return sim, transports, records, msg


@pytest.mark.parametrize("protocol",
                         ["pfabric", "phost", "pias", "ndp", "stream"])
def test_duplicate_data_after_completion_is_idempotent(protocol):
    """An rtx raced by the original (or a lost final ACK) re-delivers
    DATA for a completed message: the receiver must re-acknowledge,
    never re-register — a fresh partial inbound is a duplicate
    delivery waiting to complete."""
    sim, transports, records, msg = _one_delivery(protocol)
    receiver = transports[2]
    dup = Packet(0, 2, PacketType.DATA, payload=msg.length,
                 rpc_id=msg.rpc_id, is_request=True, offset=0,
                 total_length=msg.length, retx=True,
                 created_ps=msg.created_ps)
    receiver.on_packet(dup)
    sim.run(until_ps=sim.now + 1 * MS)
    assert len(records) == 1, f"{protocol}: duplicate delivery"
    assert not receiver.inbound, f"{protocol}: re-registered a done message"


@pytest.mark.parametrize("protocol",
                         ["pfabric", "phost", "pias", "ndp", "stream"])
def test_late_ack_after_give_up_is_a_noop(protocol):
    """The sender's give-up races a late ACK still in flight: the ACK
    must not crash, resurrect sender state, or double-count."""
    sim, net, transports = protocol_cluster(protocol, ARMED, seed=1)
    sender = transports[0]
    msg = sender.send_message(2, 4_000)
    # Force the give-up before anything is acked.
    for attr in ("flows", "outbound", "_sent_msgs"):
        state = getattr(sender, attr, None)
        if state and msg.key in state:
            hook = {"pfabric": None, "pias": None,
                    "phost": getattr(sender, "_out_give_up", None),
                    "ndp": getattr(sender, "_flow_give_up", None),
                    "stream": getattr(sender, "_rtx_give_up", None),
                    }[protocol]
            if hook is not None:
                hook(msg.key)
            else:
                state.pop(msg.key)
                sender.outbound_gaveups += 1
            break
    before = sender.outbound_gaveups
    ack = Packet(2, 0, PacketType.ACK, rpc_id=msg.rpc_id, is_request=True,
                 offset=0, range_end=msg.length)
    sender.on_packet(ack)
    sim.run(until_ps=sim.now + 50 * MS)
    for attr in ("flows", "outbound", "_sent_msgs"):
        state = getattr(sender, attr, None)
        assert not state or msg.key not in state, (
            f"{protocol}: late ACK resurrected sender state")
    assert sender.outbound_gaveups == before


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fault_restore_mid_backoff_delivers_everything(protocol):
    """An outage shorter than every retry budget: the only rack-0
    uplink dies at 50 us with three large messages mid-flight and comes
    back at 150 us.  Backed-off retries must span the outage and finish
    the job — no give-ups, no losses."""
    spec = _spec(faults=[FaultEvent(0.05, "link", "down", "tor0:aggr0.0"),
                         FaultEvent(0.15, "link", "up", "tor0:aggr0.0")])
    schedule = [(0, 2, 150_000, 0), (3, 1, 90_000, 0), (1, 3, 30_000, 0)]
    sim, net, transports, records, submitted = run_battery(
        protocol, schedule, spec, seed=2)
    missing, health = assert_conserved(
        protocol, net, transports, records, submitted)
    assert missing == 0, f"{protocol}: outage inside budget still lost data"
    assert sum(t.outbound_gaveups + t.inbound_gaveups
               for t in transports) == 0
    assert health.faults_applied == 2
    assert health.total_drops > 0  # the outage really destroyed packets


def test_homa_peer_gc_retires_wedged_outbound():
    """A permanent outage strands rack-0 senders mid-message with
    granted-but-unsendable outbound state.  Without the peer-liveness
    GC that state (and its timer) leaks forever; with it, every side
    retires within the resend budget and the event queue drains."""
    spec = _spec(faults=[FaultEvent(0.05, "link", "down", "tor0:aggr0.0")])
    schedule = [(0, 2, 150_000, 0), (2, 0, 150_000, 0), (0, 1, 12_000, 0)]
    sim, net, transports, records, submitted = run_battery(
        "homa", schedule, spec, seed=2)
    # The intra-rack message never crossed the dead link.
    assert (0, 1, 12_000) in [(m.src, h, m.length) for h, m, _ in records]
    assert_no_leaks(transports)
    assert sum(t.outbound_gaveups for t in transports) >= 1, \
        "peer GC never fired"


def test_pias_late_gobackn_never_redelivers():
    """Regression pin: PIAS's sender retries on its RTO scale (>=200 us
    floor), far past the generic recovery horizon — the receiver's
    done-memory expired mid-backoff and a late go-back-N re-registered
    a completed message as a fresh inbound, which then *completed
    again* (observed: 81 completions of 80 submissions, W2/seed 5).
    Done-memory now refreshes on every re-ACK and PIAS raises its
    horizon to the RTO scale."""
    spec = _spec(loss=LossRates(tor=0.02, aggr=0.01))
    result = run_experiment(ExperimentConfig(
        protocol="pias", workload="W2", load=0.4, duration_ms=2.0,
        warmup_ms=0.0, drain_ms=30.0, max_messages=80, seed=5,
        fabric=spec, racks=2, hosts_per_rack=2, aggrs=1))
    assert result.submitted == 80
    assert result.completed <= result.submitted, "duplicate delivery"
    assert result.completed + result.pending == result.submitted


def test_pias_spurious_rto_never_redelivers_on_clean_fabric():
    """Regression pin: PIAS's RTO fires on a clean fabric too (queueing
    at 80% load), and done-memory used to exist only when loss recovery
    was armed — so a late go-back-N re-registered completed messages
    (observed: 150 completions of 144 submissions in the Fig 12 W4 cell
    at seed 1015)."""
    result = run_experiment(ExperimentConfig(
        protocol="pias", workload="W4", load=0.8, racks=2,
        hosts_per_rack=4, aggrs=2, duration_ms=8.0, warmup_ms=0.0,
        drain_ms=30.0, max_messages=150, seed=1015))
    assert result.submitted == 144
    assert result.completed == 144, "duplicate delivery"
