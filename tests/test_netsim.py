"""Event kernel, device queues, and the unit-disk radio."""

import itertools
import random
import tracemalloc

import pytest
from conftest import RecordingTrace, build_world, make_entry, originate_at, static_trace
from hypothesis import example, given, settings, strategies as st
from slow_twin import HeapKernel

from dtnsim.mobility import Trajectory, parse_ns2_trace
from dtnsim.netsim import (
    EVENT_TIMER,
    EVENT_TRAFFIC,
    LinkModel,
    NodeTransport,
    RadioNetwork,
    Simulator,
    service_time_us,
)
from dtnsim.records import (
    PKT_DELIVERED,
    PKT_OUT_OF_RANGE,
    PKT_OVERFLOW,
    PKT_RESIDENCY,
    PKT_SUBMITTED,
    PKT_TRANSMITTED,
    PKT_UNSENT_AT_END,
    ReplayTrace,
    RunTrace,
)
from dtnsim.protocol import PORT_DATA, ProtocolConfig

SEC = 1_000_000


def make_net(
    positions=(),
    rate=12e6,
    radio_range=100.0,
    loss=0.0,
    queue_capacity=1_000_000,
    residency_us=10 * SEC,
    seed=1,
    trace=None,
    trajectories=None,
    delay_s=0.0,
):
    """A radio over `trajectories`, or over nodes standing at `positions`,
    filling `trace` (a RunTrace by default); a RecordingTrace logs the
    radio's time."""
    sim = Simulator()
    trace = RunTrace() if trace is None else trace
    if isinstance(trace, RecordingTrace):
        trace.clock = sim
    if trajectories is None:
        trajectories = parse_ns2_trace(static_trace(*positions))
    net = RadioNetwork(
        sim,
        LinkModel(rate, radio_range, loss, delay_s),
        trajectories,
        queue_capacity,
        residency_us,
        random.Random(seed),
        trace,
    )
    return sim, net, trace


class TestKernel:
    def test_events_run_in_time_then_sequence_order(self):
        sim = Simulator()
        order = []
        sim.schedule(10, EVENT_TIMER, lambda: order.append("a"))
        sim.schedule(5, EVENT_TIMER, lambda: order.append("b"))
        sim.schedule(10, EVENT_TIMER, lambda: order.append("c"))
        sim.run(100)
        assert order == ["b", "a", "c"]
        assert sim.now == 100

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.schedule(10, EVENT_TIMER, lambda: sim.schedule(5, EVENT_TIMER, lambda: None))
        with pytest.raises(ValueError):
            sim.run(100)

    def test_events_beyond_end_not_run(self):
        sim = Simulator()
        hits = []
        sim.schedule(10, EVENT_TIMER, lambda: hits.append(1))
        sim.schedule(11, EVENT_TIMER, lambda: hits.append(2))
        sim.run(10)
        assert hits == [1]

    def test_cannot_run_backwards(self):
        sim = Simulator()
        hits = []
        sim.schedule(12, EVENT_TIMER, lambda: hits.append(12))
        sim.run(10)
        with pytest.raises(ValueError):
            sim.run(5)
        assert sim.now == 10
        with pytest.raises(ValueError):
            sim.schedule(7, EVENT_TIMER, lambda: hits.append(7))
        sim.run(20)
        assert hits == [12]
        assert sim.events_run == 1

    def test_clear_drops_pending_events(self):
        sim = Simulator()
        hits = []
        sim.schedule(0, EVENT_TIMER, lambda: hits.append(0))
        sim.schedule(3, EVENT_TIMER, lambda: hits.append(3))
        sim.clear()
        sim.run(10)
        assert hits == []
        assert sim.events_run == 0


def run_program(kernel, plan, steps):
    """Execute a random program and log what the kernel did.

    Event i, numbered in scheduling order, schedules one child per delay in
    `plan[i]` (none past the plan's end). `steps` are made between runs:
    ("schedule", d) schedules a new event d after now, ("run", d) runs
    the kernel to d after now. A last run drains what is left.
    """
    log = []
    ids = itertools.count()

    def add(delay):
        i = next(ids)

        def event():
            log.append(("event", i, kernel.now))
            for child_delay in plan[i] if i < len(plan) else ():
                add(child_delay)

        kernel.schedule(kernel.now + delay, EVENT_TIMER, event)

    for op, delay in steps + [("run", 10_000)]:
        if op == "schedule":
            add(delay)
        else:
            kernel.run(kernel.now + delay)
            log.append(("run", kernel.now, kernel.events_run))
    assert kernel.events_run == next(ids)  # drained
    return log


# Delays of 0 (the current instant) and a few small ones, so that heap
# entries often share a time with each other and with events scheduled now.
delays = st.one_of(st.just(0), st.integers(0, 4))
kernel_programs = st.tuples(
    st.lists(st.lists(delays, max_size=3), max_size=30),
    st.lists(st.tuples(st.sampled_from(["schedule", "run"]), delays), max_size=20),
)


class TestKernelMatchesHeapReference:
    @given(kernel_programs)
    # Two heap entries due at the same time, the first scheduling at now.
    @example(([[0], [], []], [("schedule", 1), ("schedule", 1)]))
    # Events scheduled at now between runs, before and after a run.
    @example(([[0, 2], [0], []], [("schedule", 0), ("run", 0), ("schedule", 0), ("run", 2)]))
    @settings(max_examples=300, deadline=None)
    def test_same_log_as_heap_only_kernel(self, program):
        plan, steps = program
        assert run_program(Simulator(), plan, steps) == run_program(HeapKernel(), plan, steps)


class TestServiceTime:
    def test_1500_bytes_at_12mbps_is_one_millisecond(self):
        assert service_time_us(1500, 12_000_000) == 1000

    def test_rounds_up(self):
        # 1030 bytes at 12 Mbps = 686.67 us exactly -> 687.
        assert service_time_us(1030, 12_000_000) == 687

    def test_small_packet_nonzero(self):
        assert service_time_us(3, 54_000_000) >= 1


class TestRange:
    def test_closed_ball(self):
        _, net, _ = make_net([(0, 0), (100, 0), (100.5, 0)], radio_range=100)
        assert net.in_range(0, 0, 0)  # distance zero
        assert net.in_range(0, 1, 0)  # distance exactly the radius
        assert not net.in_range(0, 2, 0)


def exact_in_range(trajectories, radio_range, a, b, t_us):
    """The brute-force range check: both positions, then the closed ball."""
    t = t_us / 1_000_000
    ax, ay = trajectories[a].position_at(t)
    bx, by = trajectories[b].position_at(t)
    dx, dy = ax - bx, ay - by
    return dx * dx + dy * dy <= radio_range * radio_range


def build_trajectories(nodes):
    """nodes: [(x, y, [(t, x, y, speed), ...]), ...], waypoints in time order."""
    return [Trajectory(x, y, waypoints) for x, y, waypoints in nodes]


# A coordinate offset: 0, or millions of metres where a coordinate's ulp
# is about 1e-10 m.
_OFFSETS = st.sampled_from([0.0, 1e6, -3e6 + 0.1])
# Coordinates and speeds in units of the radio range, so that pairs cross
# the radius often. Speeds are often the same top speed, so that pairs
# close at the relative speed bound.
_UNITS = st.floats(-2.0, 2.0)
_SPEEDS = st.one_of(st.just(2.0), st.floats(0.001, 5.0))
# A speed that makes a zero-duration jump.
_JUMP = 1e300


@st.composite
def range_scenes(draw):
    base = draw(_OFFSETS)
    radio_range = draw(st.floats(0.5, 150.0))
    speeds = st.one_of(_SPEEDS, st.just(_JUMP)) if draw(st.booleans()) else _SPEEDS

    def at(unit):
        return base + unit * radio_range

    nodes = []
    for _ in range(draw(st.integers(2, 4))):
        waypoints = sorted(
            draw(
                st.lists(
                    st.tuples(st.floats(0.0, 1.0), _UNITS, _UNITS, speeds),
                    max_size=3,
                )
            )
        )
        nodes.append(
            (
                at(draw(_UNITS)),
                at(draw(_UNITS)),
                [(t, at(x), at(y), v * radio_range) for t, x, y, v in waypoints],
            )
        )
    # Nondecreasing query times: repeats, microsecond steps and steps of
    # up to 0.2 s.
    steps = draw(
        st.lists(
            st.one_of(
                st.integers(0, 50), st.floats(0.0, 0.2).map(lambda s: int(s * SEC))
            ),
            min_size=1,
            max_size=60,
        )
    )
    times = []
    now = 1
    for step in steps:
        now += step
        times.append(now)
    return nodes, radio_range, times


def _head_on():
    # Both nodes run at the top speed towards each other, so the pair
    # closes at exactly the relative speed bound: out at 14 s, in at 16 s.
    nodes = [
        (-20.0, 0.0, [(0.0, 20.0, 0.0, 1.0)]),
        (20.0, 0.0, [(0.0, -20.0, 0.0, 1.0)]),
    ]
    return nodes, 10.0, [1, 14_000_000, 16_000_000, 20_000_000]


def _jump():
    # Node 1 jumps next to node 0 at 1 s; node 2 makes the speed bound finite.
    nodes = [
        (0.0, 0.0, []),
        (100.0, 0.0, [(1.0, 5.0, 0.0, _JUMP)]),
        (500.0, 500.0, [(0.0, 600.0, 500.0, 1.0)]),
    ]
    return nodes, 10.0, [1, 500_000, 2_000_000, 3_000_000]


def _exactly_radius():
    # Node 1 closes on node 0 and is exactly at the radius at t = 100 s.
    nodes = [(0.0, 0.0, []), (200.0, 0.0, [(0.0, 0.0, 0.0, 1.0)])]
    times = [1, 50_000_000, 75_000_000, 99_999_999, 100_000_000, 100_000_001]
    return nodes, 100.0, times


def _stationary():
    # Nothing moves: the speed bound is 0 and every check is exact.
    nodes = [(0.0, 0.0, []), (100.0, 0.0, []), (100.5, 0.0, [])]
    return nodes, 100.0, [1, 2, 1_000_000]


def _head_on_far_out():
    # The head-on approach about 1e6 m out, where a coordinate's ulp is
    # 1.2e-10 m: the pair starts about 2 mm plus one ulp outside the
    # radius and closes at 2 m/s, and at 1000 us the interpolated
    # positions round to exactly the radius. Without the margin the
    # certificate from 1 us would still answer "out" there.
    xa, xb = 1000000.1, 1000010.1020000001
    nodes = [
        (xa, 0.5, [(0.0, xa + 1000.0, 0.5, 1.0)]),
        (xb, 0.5, [(0.0, xb - 1000.0, 0.5, 1.0)]),
    ]
    return nodes, 10.0, [1, 999, 1000, 1001]


class TestRangeCertificate:
    """Completing transmissions decide range as the exact check does, whether
    a certificate or the check answers, for unicast and broadcast."""

    @given(range_scenes())
    @example(_head_on())
    @example(_jump())
    @example(_exactly_radius())
    @example(_stationary())
    @example(_head_on_far_out())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, scene):
        nodes, radio_range, times = scene
        trajectories = build_trajectories(nodes)
        n = len(trajectories)
        # 1 Tbps: a 29-byte packet is on the air for one microsecond.
        sim, net, trace = make_net(
            rate=1e12, radio_range=radio_range, trace=RecordingTrace(), trajectories=trajectories
        )

        def query(i):
            for a in range(n):
                for b in range(n):
                    if a != b:
                        net.submit(a, b, 1, b"x", "data")
            net.submit(i % n, None, 1, b"x", "beacon")

        for i, t_us in enumerate(times):
            sim.schedule(t_us, EVENT_TIMER, lambda i=i: query(i))
        sim.run(times[-1] + 10 * n * n * len(times))
        # A unicast's range decision is its delivery or its out_of_range
        # drop, both reported when its transmission completes (no loss, no
        # propagation delay). A broadcast is named by (sender, end of
        # transmission): a sender transmits one packet at a time.
        mismatches = []
        unicasts = 0
        transmitted, received = [], {}
        for kind, outcome, src, dst, now in trace.events:
            if kind == "data" and outcome in (PKT_DELIVERED, PKT_OUT_OF_RANGE):
                unicasts += 1
                expected = exact_in_range(trajectories, radio_range, src, dst, now)
                if (outcome == PKT_DELIVERED) != expected:
                    mismatches.append(("unicast", src, dst, now, outcome))
            elif kind == "beacon" and outcome == PKT_TRANSMITTED:
                transmitted.append((src, now))
            elif kind == "beacon" and outcome == PKT_DELIVERED:
                received.setdefault((src, now), set()).add(dst)
        assert unicasts == n * (n - 1) * len(times)
        assert len(transmitted) == len(times)
        assert len(set(transmitted)) == len(transmitted)
        assert set(received) <= set(transmitted)
        for src, now in transmitted:
            expected = {
                b
                for b in range(n)
                if b != src and exact_in_range(trajectories, radio_range, src, b, now)
            }
            got = received.get((src, now), set())
            if got != expected:
                mismatches.append(("broadcast", src, now, got, expected))
        assert mismatches == []


def test_network_memory_beyond_the_certificate_table_is_linear():
    # The certificate table is one 8-byte pointer per ordered pair; all
    # else a network holds is per node: no per-node list of the others.
    n = 600
    trajectories = parse_ns2_trace(static_trace(*((i, 0) for i in range(n))))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, net, _ = make_net(trajectories=trajectories)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert net._n == n
    assert used < 8 * n * n + 4096 * n


class TestAttach:
    @pytest.mark.parametrize("node", [-1, 2, 7])
    def test_node_outside_the_network_rejected(self, node):
        _, net, _ = make_net([(0, 0), (10, 0)])
        with pytest.raises(ValueError, match="not in range"):
            net.attach(node, lambda *a: None)

    def test_node_attached_twice_rejected(self):
        _, net, _ = make_net([(0, 0), (10, 0)])
        net.attach(1, lambda *a: None)
        with pytest.raises(ValueError, match="already attached"):
            net.attach(1, lambda *a: None)


class TestTransmission:
    def test_unicast_zero_loss_delivers_everything(self):
        sim, net, trace = make_net([(0, 0), (10, 0)])
        got = []
        net.attach(1, lambda src, port, data, msg_dst, now, payload: got.append((data, now)))
        for i in range(5):
            net.submit(0, 1, 1, bytes(1472), "data")
        sim.run(10 * SEC)
        assert [d for d, _ in got] == [bytes(1472)] * 5
        # FIFO service: 1472 B + 28 B encapsulation = 1500 B on the air,
        # one packet per millisecond at 12 Mbps.
        assert [t for _, t in got] == [1000 * (i + 1) for i in range(5)]
        assert trace.count("data", PKT_DELIVERED) == 5

    def test_payload_delivered_by_reference(self):
        sim, net, trace = make_net([(0, 0), (10, 0)])
        got = []
        net.attach(1, lambda src, port, data, msg_dst, now, payload: got.append(
            (data, payload, msg_dst, now)
        ))
        data, payload = bytes(30), bytes(range(256)) * 5 + bytes(162)
        assert len(data) + len(payload) + 28 == 1500
        net.submit(0, 1, 2, data, "data", 7, payload)
        sim.run(SEC)
        assert len(got) == 1
        got_data, got_payload, msg_dst, now = got[0]
        assert got_data is data and got_payload is payload and msg_dst == 7
        # The payload is on the air too: 1500 B at 12 Mbps take 1 ms.
        assert now == 1000
        assert trace.bytes_of("data", PKT_DELIVERED) == 1500

    def test_control_packet_has_empty_payload(self):
        sim, net, trace = make_net([(0, 0), (10, 0)])
        got = []
        net.attach(1, lambda src, port, data, msg_dst, now, payload: got.append(payload))
        net.submit(0, None, 1, b"abc", "beacon")
        sim.run(SEC)
        assert got == [b""]
        assert trace.bytes_of("beacon", PKT_SUBMITTED) == 3 + 28

    def test_broadcast_reaches_all_in_range(self):
        sim, net, trace = make_net([(0, 0), (10, 0), (20, 0), (500, 0)])
        got = []
        for i in range(4):
            net.attach(i, lambda src, port, data, msg_dst, now, payload, i=i: got.append(i))
        net.submit(0, None, 1, b"abc", "beacon")
        sim.run(SEC)
        assert sorted(got) == [1, 2]  # node 3 out of range, sender excluded

    def test_out_of_range_unicast_counted(self):
        sim, net, trace = make_net([(0, 0), (500, 0)])
        net.submit(0, 1, 1, b"abc", "data")
        sim.run(SEC)
        assert trace.count("data", PKT_OUT_OF_RANGE) == 1
        assert trace.count("data", PKT_DELIVERED) == 0

    def test_departure_mid_queue_drops_later_packets(self):
        # Receiver walks out of range while the queue drains.
        trace_text = (
            "$node_(0) set X_ 0\n$node_(0) set Y_ 0\n"
            "$node_(1) set X_ 99\n$node_(1) set Y_ 0\n"
            '$ns_ at 0.0 "$node_(1) setdest 1000.0 0.0 200.0"\n'
        )
        sim, net, trace = make_net(
            queue_capacity=10_000_000,
            residency_us=100 * SEC,
            trajectories=parse_ns2_trace(trace_text),
        )
        for _ in range(100):
            net.submit(0, 1, 1, bytes(1500), "data")
        sim.run(10 * SEC)
        delivered = trace.count("data", PKT_DELIVERED)
        oor = trace.count("data", PKT_OUT_OF_RANGE)
        assert delivered > 0 and oor > 0
        assert delivered + oor == 100

    def test_bernoulli_loss(self):
        sim, net, trace = make_net([(0, 0), (10, 0)], loss=0.5, seed=3)
        for _ in range(200):
            net.submit(0, 1, 1, bytes(100), "data")
        sim.run(10 * SEC)
        lost = trace.count("data", "loss")
        assert lost + trace.count("data", PKT_DELIVERED) == 200
        assert 60 < lost < 140  # loose binomial bound for p=0.5, n=200


class TestDeviceQueue:
    def test_overflow_tail_drops_newest(self):
        # Two 1500-byte-on-air packets fill the queue; the third tail-drops.
        sim, net, trace = make_net([(0, 0), (10, 0)], queue_capacity=3000)
        for _ in range(3):
            net.submit(0, 1, 1, bytes(1472), "data")
        assert trace.count("data", PKT_OVERFLOW) == 1
        sim.run(SEC)
        assert trace.count("data", PKT_DELIVERED) == 2

    def test_residency_expiry_drops_before_service(self):
        sim, net, trace = make_net(
            [(0, 0), (10, 0)], rate=1e4, residency_us=2 * SEC
        )
        # 1500 bytes at 10 kbps = 1.2 s per packet; the 4th packet waits
        # 3.6 s > 2 s residency and is dropped when it reaches the head.
        for _ in range(4):
            net.submit(0, 1, 1, bytes(1500), "data")
        sim.run(30 * SEC)
        assert trace.count("data", PKT_RESIDENCY) >= 1
        assert (
            trace.count("data", PKT_DELIVERED)
            + trace.count("data", PKT_RESIDENCY)
            == 4
        )

    def test_negative_residency_rejected(self):
        with pytest.raises(ValueError, match="residency"):
            make_net([(0, 0), (10, 0)], residency_us=-1)

    def test_zero_residency_serves_only_the_packet_that_started_an_idle_queue(self):
        # Both packets are queued at 0; the second reaches the head at
        # 1,000 µs, past a residency of 0.
        sim, net, trace = make_net([(0, 0), (10, 0)], residency_us=0, trace=RecordingTrace())
        net.submit(0, 1, 1, bytes(1472), "data")
        net.submit(0, 1, 1, bytes(1472), "data")
        sim.run(SEC)
        assert self._timeline(trace) == [(PKT_TRANSMITTED, 1_000), (PKT_RESIDENCY, 1_000)]

    @staticmethod
    def _timeline(trace):
        return [
            (outcome, now)
            for _, outcome, _, _, now in trace.events
            if outcome in (PKT_TRANSMITTED, PKT_RESIDENCY)
        ]

    def test_back_to_back_packets_transmit_one_service_time_apart(self):
        # 1500 bytes on air at 12 Mbps: 1,000 µs of service each.
        sim, net, trace = make_net([(0, 0), (10, 0)], trace=RecordingTrace())
        for _ in range(3):
            net.submit(0, 1, 1, bytes(1472), "data")
        sim.run(SEC)
        assert self._timeline(trace) == [
            (PKT_TRANSMITTED, 1_000),
            (PKT_TRANSMITTED, 2_000),
            (PKT_TRANSMITTED, 3_000),
        ]

    def test_packet_after_service_drained_the_queue_is_served_at_once(self):
        sim, net, trace = make_net([(0, 0), (10, 0)], trace=RecordingTrace())
        net.submit(0, 1, 1, bytes(1472), "data")
        sim.schedule(5_000, EVENT_TIMER, lambda: net.submit(0, 1, 1, bytes(1472), "data"))
        sim.run(SEC)
        assert self._timeline(trace) == [(PKT_TRANSMITTED, 1_000), (PKT_TRANSMITTED, 6_000)]

    def test_packet_after_residency_drops_drained_the_queue_is_served_at_once(self):
        # 1500 bytes at 10 kbps: 1.2 s of service. The third and fourth
        # packets reach the head at 2.4 s, past the 2 s residency, and are
        # dropped there, which empties the queue.
        sim, net, trace = make_net(
            [(0, 0), (10, 0)], rate=1e4, residency_us=2 * SEC, trace=RecordingTrace()
        )
        for _ in range(4):
            net.submit(0, 1, 1, bytes(1472), "data")
        sim.schedule(5 * SEC, EVENT_TIMER, lambda: net.submit(0, 1, 1, bytes(1472), "data"))
        sim.run(30 * SEC)
        assert self._timeline(trace) == [
            (PKT_TRANSMITTED, 1_200_000),
            (PKT_TRANSMITTED, 2_400_000),
            (PKT_RESIDENCY, 2_400_000),
            (PKT_RESIDENCY, 2_400_000),
            (PKT_TRANSMITTED, 6_200_000),
        ]

    def test_unsent_at_end_accounted(self):
        sim, net, trace = make_net([(0, 0), (10, 0)], rate=1e4)
        for _ in range(5):
            net.submit(0, 1, 1, bytes(1500), "data")
        sim.run(100)  # far too short to transmit anything
        net.finalize()
        assert trace.count("data", PKT_UNSENT_AT_END) == 5

    def test_in_flight_at_end_accounted(self):
        # A delivery still propagating when the run ends must not vanish
        # from the accounting.
        sim, net, trace = make_net([(0, 0), (10, 0)], delay_s=0.5)
        net.submit(0, 1, 1, bytes(1500), "data")
        sim.run(10_000)  # past service completion, before delivery
        net.finalize()
        assert trace.count("data", PKT_TRANSMITTED) == 1
        assert trace.count("data", PKT_DELIVERED) == 0
        assert trace.count("data", "in_flight_at_end") == 1

    def test_overlapping_propagation_pairs_each_packet_with_its_receiver(self):
        # Packets from several senders, unicast and broadcast, are in
        # flight at once; each must reach its own receiver, one delay
        # after its transmission completes.
        sim, net, trace = make_net([(0, 0), (10, 0), (20, 0)], delay_s=0.01)
        got = []
        for i in range(3):
            net.attach(i, lambda src, port, data, msg_dst, now, payload, i=i: got.append((now, src, i, data)))
        net.submit(0, 1, 1, b"a" * 1472, "data")  # on air 0..1000 us
        net.submit(2, None, 1, b"b" * 722, "beacon")  # 0..500 us
        net.submit(1, 0, 1, b"c" * 1472, "data")  # 0..1000 us
        net.submit(0, 2, 1, b"d" * 1472, "data")  # 1000..2000 us
        sim.run(SEC)
        assert sorted(got) == [
            (10_500, 2, 0, b"b" * 722),
            (10_500, 2, 1, b"b" * 722),
            (11_000, 0, 1, b"a" * 1472),
            (11_000, 1, 0, b"c" * 1472),
            (12_000, 0, 2, b"d" * 1472),
        ]

    def test_conservation_per_pair(self):
        sim, net, trace = make_net(
            [(0, 0), (10, 0)], loss=0.2, queue_capacity=6000, seed=9
        )
        for _ in range(50):
            net.submit(0, 1, 1, bytes(1500), "data")
        sim.run(2000)  # cut the run off mid-queue
        net.finalize()
        submitted = trace.count("data", PKT_SUBMITTED)
        accounted = sum(
            trace.count("data", outcome)
            for outcome in (
                PKT_DELIVERED,
                "loss",
                PKT_OUT_OF_RANGE,
                PKT_OVERFLOW,
                PKT_RESIDENCY,
                PKT_UNSENT_AT_END,
            )
        )
        assert submitted == 50
        assert accounted == submitted


class TestMessageHandOver:
    """A message handed over in one call is queued, served and delivered
    exactly as its packets unicast one at a time."""

    # Four 1500-byte packets on air (30 + 1442 + 28) and a short last one
    # of 158 bytes (30 + 100 + 28).
    HEADERS = [bytes([i]) * 30 for i in range(5)]
    PAYLOADS = [bytes([i]) * 1442 for i in range(4)] + [bytes(100)]

    def _run(self, as_message, rate=12e6, capacity=1_000_000, residency_us=10 * SEC, busy=False):
        sim, net, trace = make_net(
            [(0, 0), (10, 0)],
            rate=rate,
            queue_capacity=capacity,
            residency_us=residency_us,
            trace=RecordingTrace(),
        )
        got = []
        net.attach(1, lambda src, port, data, msg_dst, now, payload: got.append(
            (src, data, payload, msg_dst, now)
        ))

        transport = NodeTransport(net, 0)

        def hand_over():
            if as_message:
                transport.unicast_message(1, PORT_DATA, self.HEADERS, "data", 1, self.PAYLOADS)
            else:
                for header, payload in zip(self.HEADERS, self.PAYLOADS):
                    transport.unicast(1, PORT_DATA, header, "data", 1, payload)

        if busy:
            net.submit(0, 1, PORT_DATA, bytes(1472), "data", 1)  # on air 0..1000 µs
        sim.schedule(100, EVENT_TRAFFIC, hand_over)
        sim.run(60 * SEC)
        net.finalize()
        return trace, got

    def _same_either_way(self, **world):
        one_call, got_one_call = self._run(True, **world)
        per_packet, got_per_packet = self._run(False, **world)
        assert one_call.events == per_packet.events
        assert got_one_call == got_per_packet
        return one_call, got_one_call

    def test_overflow_mid_message_while_the_short_last_packet_fits(self):
        trace, got = self._same_either_way(capacity=4000)
        assert trace.count("data", PKT_OVERFLOW) == 2
        assert [payload for _, _, payload, _, _ in got] == [
            self.PAYLOADS[0], self.PAYLOADS[1], self.PAYLOADS[4]
        ]

    def test_later_packets_past_residency(self):
        # 1500 bytes at 10 kbps: 1.2 s of service, so packets 3 to 5 reach
        # the head 2.4 s after the hand-over, past the 2 s residency.
        trace, got = self._same_either_way(rate=1e4, residency_us=2 * SEC)
        assert trace.count("data", PKT_RESIDENCY) == 3
        assert [now for *_, now in got] == [1_200_100, 2_400_100]

    def test_queue_busy_at_hand_over(self):
        trace, got = self._same_either_way(busy=True)
        # The busy packet is delivered at 1,000 µs; then each 1500-byte
        # packet takes 1,000 µs at 12 Mbps and the 158-byte one 106 µs.
        assert [now for *_, now in got] == [1_000, 2_000, 3_000, 4_000, 5_000, 5_106]


def test_recording_transport_logs_in_submitted_order():
    # A message handed over in one call is logged packet by packet, so the
    # k-th logged packet is the packet of the trace's k-th submitted event.
    config = ProtocolConfig(beacon_interval=1.0, beacon_randomness=0.1)
    handed = []
    sim, net, nodes, trace = build_world(
        static_trace((0, 0), (50, 0), (80, 0)), config, LinkModel(12e6, 100.0), handed=handed
    )
    for source, t in [(0, 0), (2, 1)]:
        entry = make_entry(source, t, size=4000, payload=1000, destination=1)
        originate_at(sim, nodes[source], entry)
    sim.run(5 * SEC)
    submitted = [
        (src, dst, kind, now)
        for kind, outcome, src, dst, now in trace.events
        if outcome == PKT_SUBMITTED
    ]
    assert [(src, dst, kind, now) for src, dst, kind, _, now in handed] == submitted
    assert sum(kind == "data" for _, _, kind, _, _ in handed) >= 8


class TestDeterminism:
    def _run(self, seed):
        sim, net, trace = make_net([(0, 0), (10, 0)], loss=0.3, seed=seed, trace=ReplayTrace())
        for _ in range(30):
            net.submit(0, 1, 1, bytes(500), "data")
        sim.run(10 * SEC)
        net.finalize()
        return trace.dump()

    def test_same_seed_identical_stream(self):
        assert self._run(5) == self._run(5)

    def test_distinct_seeds_distinct_streams(self):
        streams = {self._run(s) for s in range(10)}
        assert len(streams) == 10
