"""Machine speed probe: a fixed pure-Python loop owned by the benchmark.

The shared container this benchmark was written on changes speed by tens
of percent over seconds to minutes, for every process alike. The
benchmark times this loop between the pieces of work it measures and
scales each piece to the reference speed: a time t measured while one pass
of the loop took c seconds is reported as t * REFERENCE_S / c. The loop
mixes what the simulator's hot path is made of (a heap of tuples, slotted
objects, dict lookups, struct packing, method calls), runs with the cyclic
garbage collector off, and never imports dtnsim, so no change to the
program can move it.
"""

from __future__ import annotations

import gc
import heapq
import random
import struct
import time

ITERATIONS = 15_000
# About what one pass takes on the machine the benchmark was written on (a
# 2-vCPU 2.1 GHz Xeon container). It only sets the unit of scaled times.
REFERENCE_S = 0.0375

_HEADER = struct.Struct(">QHII")


class _Event:
    __slots__ = ("time", "node", "size")

    def __init__(self, time: int, node: int, size: int) -> None:
        self.time = time
        self.node = node
        self.size = size

    def key(self) -> tuple[int, int]:
        return (self.node, self.size & 1023)


def _loop(n: int) -> int:
    rng = random.Random(12345)
    heap: list = []
    table: dict = {}
    total = 0
    for seq in range(n):
        event = _Event(rng.randrange(1_000_000), seq & 31, seq)
        heapq.heappush(heap, (event.time, seq, event))
        packed = _HEADER.pack(seq, event.node, 3, seq & 1)
        table[event.key()] = _HEADER.unpack_from(packed)
        if len(heap) > 256:
            _, _, done = heapq.heappop(heap)
            total += table.get(done.key(), (0,))[0] & 7
    return total


def measure(passes: int = 1) -> float:
    """Mean seconds one pass of the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(passes):
            _loop(ITERATIONS)
        return (time.perf_counter() - start) / passes
    finally:
        if enabled:
            gc.enable()


def scale(*probes: float) -> float:
    """Factor from host seconds, while the probe took `probes`, to reference seconds."""
    return REFERENCE_S * len(probes) / sum(probes)
