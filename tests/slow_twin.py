"""Plain forms of the simulator's fast paths, for whole-run comparisons.

Each twin computes what the fast path it replaces computes, the slow way.
A test swaps one in by monkeypatching the name that `dtnsim.runner` or
`dtnsim.protocol` builds runs with, so `src/` needs no hook for it.
`SegmentWalk` is not swapped in: tests compare `Trajectory` with it.
`ShuffledTies` is no plain form: it runs an instant's heap entries in
another order, and tests check which laws hold under any such order.
"""

import bisect
import heapq
import math
import random

from dtnsim.buffer import _NONE_STORED, MessageBuffer
from dtnsim.netsim import NodeTransport, RadioNetwork, Simulator
from dtnsim.protocol import EpidemicNode
from dtnsim.records import MSG_EVICTED, MSG_EXPIRED
from dtnsim.wire import TIMESTAMP_MAX


class HeapKernel:
    """Reference kernel: every event, due now or later, on one heap."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0
        self.events_run = 0

    def schedule(self, time_us, kind, fn):
        assert time_us >= self.now
        heapq.heappush(self._heap, (time_us, self._seq, fn))
        self._seq += 1

    def run(self, end_us):
        assert end_us >= self.now
        while self._heap and self._heap[0][0] <= end_us:
            self.now, _, fn = heapq.heappop(self._heap)
            fn()
            self.events_run += 1
        self.now = end_us

    def clear(self):
        self._heap.clear()


class ShuffledTies(Simulator):
    """A kernel that breaks the ties of an instant's heap entries by draws
    from a stream seeded with `order`, not by scheduling order. Its lane
    stays FIFO, and an instant's heap entries still run before its lane.
    The sequence number after the draw keeps every key distinct."""

    def __init__(self, order):
        super().__init__()
        self._draw = random.Random(order).random

    def schedule(self, time_us, kind, fn):
        if time_us > self.now:
            heapq.heappush(self._heap, (time_us, (self._draw(), self._seq), fn))
            self._seq += 1
        else:
            super().schedule(time_us, kind, fn)


class ExactRadio(RadioNetwork):
    """A radio whose range certificates are off: every range decision of a
    completing transmission is the exact check."""

    def in_range(self, a, b):
        inside = super().in_range(a, b)
        # Clear the certificate the check may have written: one that ends
        # at 0 holds at no time.
        n = self._n
        self._certs[a * n + b] = self._certs[b * n + a] = (0, False)
        return inside


class PerPacketTransport(NodeTransport):
    """A transport that hands the packets of every hand-over (a message's
    data packets, a summary's fragments, an ACK, a beacon) to the radio one
    at a time, each its own hand-over."""

    def hand_over(self, dst, port, headers, kind, msg_dst, payloads):
        enqueue = super().hand_over
        for data, payload in zip(headers, payloads):
            enqueue(dst, port, (data,), kind, msg_dst, (payload,))


class CopyingTransport(NodeTransport):
    """A transport that hands the radio a fresh copy of every payload of a
    hand-over (a node's only send path), so no receiver holds the payload
    object its sender stores."""

    def hand_over(self, dst, port, headers, kind, msg_dst, payloads):
        copies = [bytes(bytearray(p)) for p in payloads]
        super().hand_over(dst, port, headers, kind, msg_dst, copies)


def _age_order(mid):
    """Oldest first: by generation time, then by raw id."""
    return (mid & TIMESTAMP_MAX, mid)


class ScanningBuffer(MessageBuffer):
    """A buffer with no kept order: its expiry scans every entry, its
    summary and disjoint sets sort, and its oldest generation time is a
    full scan each time it is read."""

    @property
    def _oldest(self):
        return min((mid & TIMESTAMP_MAX for mid in self._entries), default=_NONE_STORED)

    @_oldest.setter
    def _oldest(self, value):
        pass  # always recomputed

    def drop_expired(self, now):
        for mid in [mid for mid in self._entries if now - (mid & TIMESTAMP_MAX) > self.ttl_us]:
            self._remove(mid)
            self._record(mid, now, MSG_EXPIRED)

    def summary(self):
        return sorted(self._entries)

    def find_disjoint(self, *remote):
        remote = set().union(*remote)
        return sorted((mid for mid in self._entries if mid not in remote), key=_age_order)

    def _purge_for(self, needed, now):
        for mid in sorted(self._entries, key=_age_order):
            if needed <= self.capacity_bytes - self._used:
                return
            self._remove(mid)
            self._record(mid, now, MSG_EVICTED)


class RebuildingNode(EpidemicNode):
    """A node that builds its summary fragments anew for every send."""

    def _send_summary(self, envelope, kind, nb, now):
        self._summary_version = None  # matches no buffer version
        super()._send_summary(envelope, kind, nb, now)


class SegmentWalk:
    """A trajectory as a walk over its segments (t0, x0, y0, t1, x1, y1):
    each waypoint starts one from wherever `position_at` puts the node at
    its time, and cuts the one before short if that is still moving.
    Takes the (x, y, waypoints) of a valid `Trajectory`."""

    def __init__(self, x, y, waypoints):
        self.initial = (x, y)
        self.segments = []
        self.starts = []
        for t, wx, wy, speed in waypoints:
            x0, y0 = self.position_at(t)
            if self.segments and t < self.segments[-1][3]:
                t0, sx, sy = self.segments[-1][:3]
                self.segments[-1] = (t0, sx, sy, t, x0, y0)
            dist = math.hypot(wx - x0, wy - y0)
            if speed > 0.0 and dist > 0.0:
                self.segments.append((t, x0, y0, t + dist / speed, wx, wy))
                self.starts.append(t)

    def position_at(self, t):
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:
            return self.initial
        t0, x0, y0, t1, x1, y1 = self.segments[i]
        if t >= t1:
            return (x1, y1)
        frac = (t - t0) / (t1 - t0)
        return (x0 + (x1 - x0) * frac, y0 + (y1 - y0) * frac)

    def breakpoints(self):
        """Every time at which a segment starts or ends."""
        return {b for t0, _, _, t1, _, _ in self.segments for b in (t0, t1)}
