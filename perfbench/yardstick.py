"""A frozen host-speed yardstick.

The shared host this benchmark runs on changes speed by up to ~45% for
minutes at a time (neighbours on the same cores and caches), which no
number of repeats inside a 30 s run can average away.  The yardstick is
a small, fixed, pure-Python discrete-event simulation with the same
kind of work as the simulator — a heap of list events, slotted packet
objects, deques per port and a dict of live messages — timed between
the simulations of every run.  The host metrics are reported in
*reference seconds*: the measured seconds divided by the run's host
factor, the median yardstick time over ``REFERENCE_S``.

This file is part of the benchmark, not of the program: a change that
claims a gain must leave it untouched, or the reference moves.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappop, heappush
from time import perf_counter

#: a typical yardstick time on the 2-vCPU Xeon VM the benchmark was
#: defined on; sets the unit of the host metrics and never changes
REFERENCE_S = 0.15

HOSTS = 144
EVENTS = 35_000


class _Packet:
    __slots__ = ("dst", "size", "hop", "msg")

    def __init__(self, dst: int, size: int, msg) -> None:
        self.dst = dst
        self.size = size
        self.hop = 0
        self.msg = msg


class _Port:
    __slots__ = ("queue", "busy", "sent", "bytes")

    def __init__(self) -> None:
        self.queue: deque = deque()
        self.busy = False
        self.sent = 0
        self.bytes = 0


def run() -> int:
    """Simulate ``EVENTS`` events of a three-hop fabric; returns the
    number of messages delivered (a constant: the yardstick is seeded)."""
    rng = random.Random(1)
    ports = [_Port() for _ in range(HOSTS * 3)]
    heap: list = []
    messages: dict = {}
    state = {"now": 0, "seq": 0, "done": 0}

    def push(time_ps, fn, arg) -> None:
        state["seq"] += 1
        heappush(heap, [time_ps, state["seq"], fn, arg])

    def transmit(port_id: int) -> None:
        port = ports[port_id]
        if not port.queue:
            port.busy = False
            return
        pkt = port.queue.popleft()
        port.busy = True
        port.sent += 1
        port.bytes += pkt.size
        push(state["now"] + pkt.size * 8, arrive, (port_id, pkt))

    def enqueue(port_id: int, pkt: _Packet) -> None:
        port = ports[port_id]
        port.queue.append(pkt)
        if not port.busy:
            transmit(port_id)

    def arrive(arg) -> None:
        port_id, pkt = arg
        transmit(port_id)
        pkt.hop += 1
        if pkt.hop < 3:
            hop = (pkt.dst * 3 + 2 if pkt.hop == 2
                   else rng.randrange(len(ports)))
            enqueue(hop, pkt)
            return
        remaining = messages.get(pkt.msg)
        if remaining is not None:
            remaining[0] -= 1
            if remaining[0] == 0:
                del messages[pkt.msg]
                state["done"] += 1

    def generate(host: int) -> None:
        dst = rng.randrange(HOSTS)
        n = 1 + int(rng.expovariate(0.3))
        key = (host, state["seq"])
        messages[key] = [n]
        for i in range(n):
            size = 1500 if i < n - 1 else rng.randrange(64, 1500)
            enqueue(host * 3, _Packet(dst, size, key))
        push(state["now"] + int(rng.expovariate(1 / 40_000)), generate, host)

    for host in range(HOSTS):
        push(rng.randrange(40_000), generate, host)
    for _ in range(EVENTS):
        event = heappop(heap)
        state["now"] = event[0]
        event[2](event[3])
    return state["done"]


def sample() -> float:
    """Seconds one yardstick run takes on this host, now."""
    start = perf_counter()
    run()
    return perf_counter() - start
