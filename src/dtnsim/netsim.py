"""Deterministic discrete-event kernel with a unit-disk radio model.

Events execute in (time, sequence) order; time is 64-bit unsigned
microseconds and never goes back. Events for a later time wait on a heap;
events for the current instant, such as every packet delivery when the
propagation delay is 0, go to a FIFO lane that skips the heap. At each
instant the kernel runs the heap's entries due then before the lane: they
were scheduled while the clock was earlier, so they come first in sequence
(see Simulator). Each node owns one FIFO device queue; all nodes share its
byte capacity and residency time-limit. The head of a non-empty FIFO is
the packet in service, for bytes * 8 / data_rate. A node's enqueue starts
an idle queue's head at once, and each completion serves the next head
that is within residency (see RadioNetwork._service). A unicast reaches
its destination if in range, a broadcast every other node in range, each
subject to an optional per-receiver Bernoulli loss draw. A node hands
every packet to its queue through `NodeTransport.hand_over`, the queue's
own enqueue, k packets in one call (a beacon, a message's data packets, a
summary's fragments, or one ACK), which queues, drops and reports them
exactly as k one-packet hand-overs would. A hand-over that fits the
queue whole is queued in one extend; the packet loop runs only when some
packet would not fit. A lone packet, most of the hand-overs of a run,
takes no loop either: it is queued, dropped and reported as the loop
would.

Range is decided when a transmission completes. The exact check,
`RadioNetwork.in_range(a, b)`, asked at `now` only, looks up each node's
point and piece of motion once, tests dx*dx + dy*dy <= R*R and leaves the
pair a certificate: its end, a whole microsecond, and its answer. It holds
while both nodes stay on their current linear pieces of motion and the
pair's offset stays clear of R by a margin (see in_range); a completion
runs the exact check once `now` reaches its end. The margin far exceeds
the rounding of the pieces' arithmetic, and the end is rounded down, so a
certified answer equals the exact one and outputs are those of checking
every packet. Trajectories must not change after the network is built.

A packet is its `data` bytes plus an optional `payload` bytes object
carried by reference: the datagram it stands for is `data + payload`,
and its on-air size counts both. A data packet's `data` is its header
block and its `payload` the very bytes object its sender stores, so
every node holding a message shares one payload object per packet
instead of a copy per hop. Control packets have an empty payload. There
is no packet object: a device-queue entry is the plain tuple
(size, data, payload, meta, enqueued_at), where meta = (src, dst, port,
kind, msg_dst, row) is one tuple shared by every packet of a hand-over,
and a delivery in flight is (entry, receiver).

The RunTrace passed into `runner.build_run` or `run_once` is the radio's
only observer. Each hand-over looks up its counter row of (src, dst,
kind) with `trace.row`: the radio counts a packet's submission,
transmission and delivery there in place (a broadcast's delivery in the
row of its receiver), and reports only a drop, as one
`trace.packet_event` call. A trace whose `observe` is set also sees
every outcome, in order (see records). Tests observe a run by passing a
RunTrace subclass, such as a ReplayTrace for the packet stream digest,
or through a NodeTransport subclass to see packet contents.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from collections import deque
from typing import Callable, Sequence

from ._value import Frozen
from .mobility import Trajectory, crossing_time
from .records import (
    PKT_DELIVERED,
    PKT_IN_FLIGHT_AT_END,
    PKT_LOSS,
    PKT_OUT_OF_RANGE,
    PKT_OVERFLOW,
    PKT_RESIDENCY,
    PKT_SUBMITTED,
    PKT_TRANSMITTED,
    PKT_UNSENT_AT_END,
    RunTrace,
)

EVENT_TIMER = "timer"
EVENT_PACKET_DELIVERY = "packet_delivery"
EVENT_TRAFFIC = "traffic_generation"

# Every simulated packet rides in one IPv4/UDP datagram; on-air sizes,
# queue occupancy, and byte counters all include this encapsulation.
IP_UDP_HEADER_BYTES = 20 + 8
# Largest payload of one such datagram (its total length is a u16).
MAX_DATAGRAM_PAYLOAD = 0xFFFF - IP_UDP_HEADER_BYTES

# The distance a range certificate keeps from the boundary, relative to
# the largest magnitude in the position arithmetic (see RadioNetwork).
CERT_MARGIN_REL = 1e-9
# Longest certificate, in microseconds (keeps its bounds finite ints).
CERT_MAX_US = float(1 << 62)

# A node's packet handler(sender, port, data, msg_dst, now, payload).
Handler = Callable[[int, int, bytes, int | None, int, bytes], None]


class Simulator:
    """Event kernel: a heap of future events and a FIFO lane for `now`.

    Events run in (time, sequence) order, the sequence being the order in
    which they were scheduled. An event scheduled for the current instant
    goes to the lane, any later one to the heap as (time, seq, fn). At each
    instant `run` first executes the heap's entries due then, and then the
    lane until it is empty. That is the (time, seq) order: a heap entry due
    at `now` was pushed while the clock was still earlier, because the clock
    never goes back, so it precedes every lane entry, which was scheduled at
    `now`; and the lane is appended, and drained, in scheduling order.
    """

    def __init__(self) -> None:
        self.now = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._lane: deque[Callable[[], None]] = deque()
        self._seq = 0
        self.events_run = 0

    def schedule(self, time_us: int, kind: str, fn: Callable[[], None]) -> None:
        """Run `fn` at `time_us`; `kind` labels the event for observers only."""
        if time_us == self.now:
            self._lane.append(fn)
        elif time_us > self.now:
            heapq.heappush(self._heap, (time_us, self._seq, fn))
            self._seq += 1
        else:
            raise ValueError(f"cannot schedule at {time_us} before now {self.now}")

    def run(self, end_us: int) -> None:
        """Execute events with time <= end_us; leaves now at end_us."""
        if end_us < self.now:
            raise ValueError(f"cannot run to {end_us} before now {self.now}")
        heap, lane = self._heap, self._lane
        heappop, popleft = heapq.heappop, lane.popleft
        # Counted in a local: one attribute write per event measurably slows desk.
        ran = 0
        try:
            while True:
                while lane:
                    popleft()()
                    ran += 1
                if not heap or heap[0][0] > end_us:
                    break
                self.now = now = heap[0][0]
                while heap and heap[0][0] == now:
                    heappop(heap)[2]()
                    ran += 1
        finally:
            self.events_run += ran
        self.now = end_us

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._lane.clear()


def to_us(seconds: float) -> int:
    """A time in seconds as the nearest whole simulated microsecond."""
    return int(round(seconds * 1_000_000))


def service_time_us(size_bytes: int, rate_bps: int) -> int:
    """Transmission time for a packet, rounded up to whole microseconds.

    rate_bps is the positive integer data rate (LinkModel.data_rate_bps
    rounded to an int).
    """
    return (size_bytes * 8_000_000 + rate_bps - 1) // rate_bps


class _ServiceTimes(dict):
    """service_time_us at one rate by on-air size, computed once per size."""

    def __init__(self, rate_bps: int) -> None:
        self.rate_bps = rate_bps

    def __missing__(self, size_bytes: int) -> int:
        self[size_bytes] = time_us = service_time_us(size_bytes, self.rate_bps)
        return time_us


class LinkModel(Frozen):
    """Radio abstraction: shared rate, unit-disk range, optional loss."""

    __slots__ = ("data_rate_bps", "radio_range_m", "loss_probability", "propagation_delay_s")

    def __init__(self, data_rate_bps: float = 12e6, radio_range_m: float = 100.0,
                 loss_probability: float = 0.0, propagation_delay_s: float = 0.0) -> None:
        self._set(data_rate_bps, radio_range_m, loss_probability, propagation_delay_s)
        self._require_finite(*self.__slots__)
        if round(self.data_rate_bps) < 1:
            raise ValueError("data_rate_bps must be at least 1 bit/s")
        if self.radio_range_m <= 0:
            raise ValueError("radio_range_m must be positive")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if self.propagation_delay_s < 0:
            raise ValueError("propagation_delay_s must be non-negative")


def _no_handler(*packet: object) -> None:
    """The packet handler of a node that is not attached."""


class RadioNetwork:
    """Binds trajectories, device queues, and protocol nodes to the kernel."""

    def __init__(
        self,
        sim: Simulator,
        link: LinkModel,
        trajectories: Sequence[Trajectory],
        queue_capacity_bytes: int,
        queue_residency_us: int,
        loss_rng: random.Random,
        trace: RunTrace,
    ) -> None:
        if queue_residency_us < 0:
            raise ValueError("queue_residency_us must be non-negative")
        self.sim = sim
        self.trajectories = trajectories
        self.trace = trace
        self._loss_rng = loss_rng
        self._loss = link.loss_probability
        self._service_us = _ServiceTimes(int(round(link.data_rate_bps)))
        self._prop_us = to_us(link.propagation_delay_s)
        self._range = link.radio_range_m
        self._range_sq = link.radio_range_m * link.radio_range_m
        self._n = len(trajectories)
        # Range certificate per ordered pair a * n + b, the same object for
        # (a, b) and (b, a): (until_us, inside), the answer while now < until_us.
        self._certs: list[tuple[int, bool]] = [(0, False)] * (self._n * self._n)
        self._capacity = queue_capacity_bytes
        self._residency_us = queue_residency_us
        # Per node: FIFO of (size, data, payload, meta, enqueued_at) entries.
        self._fifos: list[deque[tuple]] = [deque() for _ in trajectories]
        self._handlers: list[Handler] = [_no_handler] * self._n
        # (entry, receiver) of deliveries scheduled but not yet executed.
        # Every delivery lands a fixed propagation delay after it was
        # scheduled, so they execute in the order they were scheduled.
        self._in_flight: deque[tuple[tuple, int]] = deque()
        self._deliver = self._delivery()
        # Per node, made once (see _service): enqueue(dst, port, headers,
        # kind, msg_dst, payloads) hands packets to its device queue, and its
        # completion callback ends the head's transmission.
        self._enqueues: list[Callable[..., None]] = []
        self._completions: list[Callable[[], None]] = []
        for node in range(self._n):
            enqueue, complete = self._service(node)
            self._enqueues.append(enqueue)
            self._completions.append(complete)

    def attach(self, node: int, handler: Handler) -> None:
        """Hand the packets delivered to node index `node` to `handler`; a
        node that is never attached ignores what it receives."""
        if not 0 <= node < self._n:
            raise ValueError(f"node {node} is not in range({self._n})")
        if self._handlers[node] is not _no_handler:
            raise ValueError(f"node {node} is already attached")
        self._handlers[node] = handler

    def in_range(self, a: int, b: int) -> bool:
        """Whether nodes a and b are within radio range now, by the exact
        check; renews their certificate.

        It holds until either node's current linear piece of motion ends
        (Trajectory.piece_at) or their offset first reaches R - margin from
        inside, R + margin from outside (mobility.crossing_time); a pair
        within margin of R gets none. The margin is CERT_MARGIN_REL times
        the largest of 1, R and the two pieces' scales, millions of its
        ulps. Until the certificate ends both nodes stay on their pieces,
        where piece_at rounds by a few such ulps: it is exact however long.

        Its end is now plus the reach in microseconds rounded down: any k it
        answers is 1 us or more before the computed end. Below 2**31 s (68
        years) the four roundings on the way (t, end - t, times 1e6, k / 1e6)
        are 0.125 us each at most, so piece_at(k / 1e6) keeps both pieces.
        """
        t_us = self.sim.now
        t = t_us / 1_000_000
        ax, ay, avx, avy, a_end, a_scale = self.trajectories[a].piece_at(t)
        bx, by, bvx, bvy, b_end, b_scale = self.trajectories[b].piece_at(t)
        dx, dy = ax - bx, ay - by
        dist_sq = dx * dx + dy * dy
        inside = dist_sq <= self._range_sq
        margin = CERT_MARGIN_REL * max(1.0, self._range, a_scale, b_scale)
        gap = abs(self._range - math.sqrt(dist_sq)) - margin
        # An infinite gap means dx * dx + dy * dy overflowed: no certificate.
        if 0.0 < gap < math.inf:
            r = self._range - margin if inside else self._range + margin
            crossing = crossing_time(dx, dy, avx - bvx, avy - bvy, r, inside)
            reach = min(crossing, a_end - t, b_end - t) * 1e6
            cert = (t_us + math.floor(min(reach, CERT_MAX_US)), inside)
            n = self._n
            self._certs[a * n + b] = self._certs[b * n + a] = cert
        return inside

    def submit(self, src: int, dst: int | None, port: int, data: bytes, kind: str,
               msg_dst: int | None = None, payload: bytes = b"") -> None:
        """Place one packet on src's device queue (tail-drop on overflow);
        dst None = broadcast. The program no longer calls it: it is kept for
        bench/tracer.py and the radio tests until ROADMAP item 7."""
        self._enqueues[src](dst, port, (data,), kind, msg_dst, (payload,))

    def _service(self, node: int) -> tuple[Callable[..., None], Callable[[], None]]:
        """A node's device-queue service as two closures, enqueue and complete.

        enqueue(dst, port, headers, kind, msg_dst, payloads) appends one
        packet per (header, payload) pair in order, tail-dropping each that
        does not fit. When all fit, it takes them in one extend and
        reports their submissions in order; the per-packet loop runs only
        when some packet would not fit. If the queue was idle it then
        schedules the head's completion, as handing the packets over one at
        a time would: the first that fits starts service at `now`. That
        head was enqueued at `now`, so it is within any residency >= 0.
        Nothing enqueues during a completion, so an idle queue is an empty
        one. A hand-over of one packet (a beacon, an ACK, a one-fragment
        summary or a one-packet message) takes the same steps without the
        loop: it is queued, dropped and reported as the loop would.

        complete() ends the head's transmission. A unicast reaches its
        destination if the pair is in range (a certificate that holds, else
        in_range) and the loss draw spares it; a miss is out_of_range. A
        broadcast decides the same for every other node in node order, and
        a node out of range is no outcome. complete then drops the heads
        past residency and schedules the completion of the first that is
        not. It is scheduled through `self._completions[node]`, not by its
        own name: finalize clears that list, which breaks the closures'
        only reference cycle.

        A row's slots 0-1 count submitted packets and bytes, 2-3
        transmitted and 4-5 delivered (records.PKT_OUTCOMES).
        """
        fifo = self._fifos[node]
        queued = 0  # bytes on fifo; only these two closures touch it
        completions = self._completions
        sim = self.sim
        row_of = self.trace.row
        packet_event = self.trace.packet_event
        observe = self.trace.observe
        capacity = self._capacity
        residency_us = self._residency_us
        service_us = self._service_us
        certs = self._certs
        base = node * self._n
        below, above = range(node), range(node + 1, self._n)
        in_range = self.in_range
        in_flight = self._in_flight
        deliver = self._deliver
        prop_us = self._prop_us
        loss = self._loss
        draw = self._loss_rng.random
        encapsulation = IP_UDP_HEADER_BYTES

        def enqueue(dst: int | None, port: int, headers: Sequence[bytes], kind: str,
                    msg_dst: int | None, payloads: Sequence[bytes]) -> None:
            nonlocal queued
            idle = not fifo
            now = sim.now
            row = row_of(node, dst, kind)
            if len(headers) == 1:
                # A lone packet: the loop's steps, without the loop.
                (data,), (payload,) = headers, payloads
                size = len(data) + len(payload) + encapsulation
                if observe is not None:
                    observe(kind, PKT_SUBMITTED, size, node, dst)
                row[0] += 1
                row[1] += size
                if queued + size > capacity:
                    packet_event(kind, PKT_OVERFLOW, size, node, dst)
                    return
                fifo.append((size, data, payload, (node, dst, port, kind, msg_dst, row), now))
                queued += size
                if idle:
                    sim.schedule(now + service_us[size], EVENT_TIMER, completions[node])
                return
            meta = (node, dst, port, kind, msg_dst, row)
            # On-air bytes: data, payload and the IPv4/UDP encapsulation.
            sizes = [len(data) + len(payload) + encapsulation
                     for data, payload in zip(headers, payloads)]
            handed = sum(sizes)
            if queued + handed <= capacity:
                # Every packet fits: the loop's steps, in one extend.
                if observe is not None:
                    for size in sizes:
                        observe(kind, PKT_SUBMITTED, size, node, dst)
                fifo.extend(zip(sizes, headers, payloads,
                                itertools.repeat(meta), itertools.repeat(now)))
                queued += handed
            else:
                total = queued
                for size, data, payload in zip(sizes, headers, payloads):
                    if observe is not None:
                        observe(kind, PKT_SUBMITTED, size, node, dst)
                    if total + size > capacity:
                        packet_event(kind, PKT_OVERFLOW, size, node, dst)
                    else:
                        fifo.append((size, data, payload, meta, now))
                        total += size
                queued = total
            row[0] += len(sizes)
            row[1] += handed
            if idle and fifo:
                sim.schedule(now + service_us[fifo[0][0]], EVENT_TIMER, completions[node])

        def complete() -> None:
            nonlocal queued
            entry = fifo.popleft()
            size = entry[0]
            _, dst, _, kind, _, row = entry[3]
            queued -= size
            now = sim.now
            row[2] += 1
            row[3] += size
            if observe is not None:
                observe(kind, PKT_TRANSMITTED, size, node, dst)
            if dst is not None:
                until, inside = certs[base + dst]
                if not now < until:
                    inside = in_range(node, dst)
                if not inside:
                    packet_event(kind, PKT_OUT_OF_RANGE, size, node, dst)
                elif loss and draw() < loss:
                    packet_event(kind, PKT_LOSS, size, node, dst)
                else:
                    in_flight.append((entry, dst))
                    sim.schedule(now + prop_us, EVENT_PACKET_DELIVERY, deliver)
            else:
                for receiver in itertools.chain(below, above):
                    until, inside = certs[base + receiver]
                    if not now < until:
                        inside = in_range(node, receiver)
                    if not inside:
                        continue
                    if loss and draw() < loss:
                        packet_event(kind, PKT_LOSS, size, node, receiver)
                    else:
                        in_flight.append((entry, receiver))
                        sim.schedule(now + prop_us, EVENT_PACKET_DELIVERY, deliver)
            while fifo:
                size, _, _, meta, enqueued_at = fifo[0]
                if now - enqueued_at <= residency_us:
                    sim.schedule(now + service_us[size], EVENT_TIMER, completions[node])
                    return
                fifo.popleft()
                queued -= size
                packet_event(meta[3], PKT_RESIDENCY, size, node, meta[1])

        return enqueue, complete

    def _delivery(self) -> Callable[[], None]:
        """The delivery event, one closure made once for all nodes: it ends
        the oldest scheduled delivery at its receiver's handler. It counts
        every delivery in place (slots 4-5, as in _service): a unicast's in
        its row, a broadcast's, whose row has no receiver, in the receiver's."""
        in_flight = self._in_flight
        handlers = self._handlers
        row_of = self.trace.row
        observe = self.trace.observe
        sim = self.sim

        def deliver() -> None:
            (size, data, payload, meta, _), receiver = in_flight.popleft()
            src, dst, port, kind, msg_dst, row = meta
            if dst is None:
                row = row_of(src, receiver, kind)
            row[4] += 1
            row[5] += size
            if observe is not None:
                observe(kind, PKT_DELIVERED, size, src, receiver)
            handlers[receiver](src, port, data, msg_dst, sim.now, payload)

        return deliver

    def finalize(self) -> None:
        """End the run: account packets still queued or still propagating.

        Also drops the pending events, packet handlers and completion
        callbacks. They hold the nodes, which hold the network, or the
        network itself, so breaking these cycles lets reference counting
        free the run here instead of the cyclic collector later. Nothing
        may run on the network after.
        """
        packet_event = self.trace.packet_event
        for fifo in self._fifos:
            for size, _, _, (src, dst, _, kind, _, _), _ in fifo:
                packet_event(kind, PKT_UNSENT_AT_END, size, src, dst)
            fifo.clear()
        for (size, _, _, (src, _, _, kind, _, _), _), receiver in self._in_flight:
            packet_event(kind, PKT_IN_FLIGHT_AT_END, size, src, receiver)
        self._in_flight.clear()
        self.sim.clear()
        self._handlers.clear()
        self._completions.clear()


class NodeTransport:
    """Per-node facade over the radio network and scheduler."""

    def __init__(self, network: RadioNetwork, node_id: int) -> None:
        self._network = network
        self._node_id = node_id

    def broadcast(self, port: int, data: bytes, kind: str) -> None:
        """One packet to every node in range. The program no longer calls
        it: it is kept for bench/tracer.py until ROADMAP item 7."""
        self._network.submit(self._node_id, None, port, data, kind)

    def unicast(self, dst: int, port: int, data: bytes, kind: str,
                msg_dst: int | None = None, payload: bytes = b"") -> None:
        """One packet to `dst`. The program no longer calls it: it is kept
        for bench/tracer.py until ROADMAP item 7."""
        self._network.submit(self._node_id, dst, port, data, kind, msg_dst, payload)

    @property
    def hand_over(self) -> Callable[..., None]:
        """hand_over(dst, port, headers, kind, msg_dst, payloads): one packet
        per (header, payload) pair, in order, in one call, to node id `dst`
        (its radio index) or, if it is None, broadcast; it is the device
        queue's own enqueue, not a forwarding method."""
        return self._network._enqueues[self._node_id]

    def schedule(self, time_us: int, fn: Callable[[], None]) -> None:
        self._network.sim.schedule(time_us, EVENT_TIMER, fn)

    @property
    def now(self) -> int:
        return self._network.sim.now
