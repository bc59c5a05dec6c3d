"""PacketPool (src/repro/core/pool.py): the array-core allocator.

Three contracts from the array-core PR:

* recycling safety — a slot is never handed out twice while live, a
  double free raises, and a recycled slot re-initializes to exact
  constructor state;
* growth determinism — slot numbering and growth chunking depend only
  on the operation sequence, never on timing or sizing accidents;
* sizing neutrality — the pool size is a pure performance knob: a
  pool forced to grow from one slot produces byte-identical slowdown
  digests to a fully preallocated one, across workloads and seeds.
"""

import random

import pytest

from repro.core.packet import Packet, PacketType
from repro.core.pool import PacketPool, free_packet
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.homa.config import HomaConfig


def _alloc_args(rng):
    """Plausible randomized alloc_data argument tuple."""
    return (rng.randrange(64), rng.randrange(64), rng.randrange(8),
            rng.randrange(1461), rng.randrange(1 << 20), bool(rng.randrange(2)),
            rng.randrange(1 << 16), rng.randrange(1, 1 << 20),
            bool(rng.randrange(2)), False, False, None,
            rng.randrange(1 << 16), rng.randrange(1 << 30))


# ---------------------------------------------------------------------------
# recycling safety
# ---------------------------------------------------------------------------


def test_no_slot_reused_while_live_under_churn():
    """Random alloc/free churn: every handed-out slot is distinct from
    all currently-live slots, across growth boundaries."""
    rng = random.Random(42)
    pool = PacketPool(prealloc=8, grow_chunk=4)
    live = {}
    for _ in range(5000):
        if live and rng.random() < 0.45:
            slot = rng.choice(list(live))
            pool.free(live.pop(slot))
        else:
            if rng.random() < 0.2:
                pkt = pool.alloc_ctrl(PacketType.GRANT, 1, 2, 7, True)
            else:
                pkt = pool.alloc_data(*_alloc_args(rng))
            assert pkt.slot not in live, "live slot handed out twice"
            assert pool.live[pkt.slot] == 1
            live[pkt.slot] = pkt
    assert pool.in_flight() == len(live)
    stats = pool.stats()
    assert stats["data_allocs"] + stats["ctrl_allocs"] == stats["recycled"] + len(live)


def test_double_free_and_foreign_free_raise():
    pool = PacketPool(prealloc=2)
    pkt = pool.alloc_ctrl(PacketType.GRANT, 0, 1, 1, True)
    pool.free(pkt)
    with pytest.raises(RuntimeError, match="double free"):
        pool.free(pkt)
    other = PacketPool(prealloc=2)
    foreign = other.alloc_ctrl(PacketType.GRANT, 0, 1, 1, True)
    with pytest.raises(ValueError, match="does not belong"):
        pool.free(foreign)


def test_free_packet_helper_ignores_unpooled():
    plain = Packet(0, 1, PacketType.DATA, payload=100)
    free_packet(plain)  # must not raise: plain packets are not pooled
    pool = PacketPool(prealloc=1)
    pooled = pool.alloc_ctrl(PacketType.BUSY, 0, 1, 3, False)
    free_packet(pooled)
    assert pool.in_flight() == 0


def test_recycled_slot_matches_constructor_state():
    """Allocate, scribble over every flight-mutable field, free, then
    re-allocate: the recycled packet must be field-for-field identical
    to a freshly constructed one."""
    pool = PacketPool(prealloc=1)
    pkt = pool.alloc_data(3, 9, 5, 1460, 77, True, 2920, 9999,
                          True, False, False, None, 4380, 123456)
    # Simulate in-flight mutation by ports and switches.
    pkt.ecn = True
    pkt.trimmed = True
    pkt.q_wait = 11
    pkt.p_wait = 22
    pkt.cutoffs = (1, 2, 3)
    pkt.app_meta = object()
    pool.free(pkt)
    args = (4, 8, 6, 900, 55, False, 1460, 5000,
            False, True, True, None, 2920, 654321)
    recycled = pool.alloc_data(*args)
    fresh = Packet(*args[:2], PacketType.DATA, *args[2:])
    for field in Packet.__slots__:
        if field in ("pool", "slot"):
            continue
        assert getattr(recycled, field) == getattr(fresh, field), field


# ---------------------------------------------------------------------------
# growth determinism
# ---------------------------------------------------------------------------


def test_growth_is_deterministic_and_chunked():
    pool = PacketPool(prealloc=0, grow_chunk=3)
    assert len(pool.slots) == 0 and pool.grows == 0
    held = [pool.alloc_ctrl(PacketType.GRANT, 0, 1, i, True) for i in range(7)]
    # ceil(7/3) = 3 growth chunks of exactly grow_chunk slots each.
    assert pool.grows == 3
    assert len(pool.slots) == 9
    assert [p.slot for p in pool.slots] == list(range(9))
    assert len({p.slot for p in held}) == 7
    # Same operation sequence, same slot assignment order.
    twin = PacketPool(prealloc=0, grow_chunk=3)
    twin_held = [twin.alloc_ctrl(PacketType.GRANT, 0, 1, i, True)
                 for i in range(7)]
    assert [p.slot for p in twin_held] == [p.slot for p in held]


def test_prealloc_counts_as_no_growth():
    pool = PacketPool(prealloc=16)
    assert pool.grows == 0 and len(pool.slots) == 16
    held = [pool.alloc_ctrl(PacketType.GRANT, 0, 1, i, True)
            for i in range(16)]
    assert pool.grows == 0
    held.append(pool.alloc_ctrl(PacketType.GRANT, 0, 1, 16, True))
    assert pool.grows == 1  # 17th packet crosses the preallocation


# ---------------------------------------------------------------------------
# sizing neutrality: digests never depend on the pool knob
# ---------------------------------------------------------------------------


def _digests(workload, seed, prealloc):
    cfg = ExperimentConfig(protocol="homa", workload=workload, load=0.8,
                           racks=2, hosts_per_rack=4, aggrs=2,
                           duration_ms=1.0, warmup_ms=0.2, drain_ms=8.0,
                           seed=seed, max_messages=90,
                           homa=HomaConfig(grant_batch_ns=0,
                                           pool_prealloc=prealloc))
    result = run_experiment(cfg)
    return ([repr(x) for x in result.slowdown_series(50)],
            [repr(x) for x in result.slowdown_series(99)],
            result.completed, result.events)


@pytest.mark.parametrize("workload,seed", [("W1", 3), ("W3", 11), ("W4", 7)])
def test_pool_sizing_is_digest_neutral(workload, seed):
    """A one-slot pool (maximum growth pressure: every high-water mark
    triggers a deterministic grow) and a fully preallocated pool produce
    byte-identical slowdown digests, completions, and event counts."""
    grown = _digests(workload, seed, prealloc=1)
    pre = _digests(workload, seed, prealloc=4096)
    assert grown == pre
