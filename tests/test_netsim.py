"""Event kernel, device queues, and the unit-disk radio."""

import itertools
import math
import random
import tracemalloc
from collections import deque

import pytest
from conftest import (
    RecordingTrace,
    build_world,
    make_entry,
    originate_at,
    static_trace,
    tier1_or_deep,
)
from hypothesis import example, given, strategies as st
from slow_twin import HeapKernel

from dtnsim.mobility import Trajectory, parse_ns2_trace
from dtnsim.netsim import (
    CERT_MARGIN_REL,
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
    PKT_IN_FLIGHT_AT_END,
    PKT_OUT_OF_RANGE,
    PKT_OVERFLOW,
    PKT_RESIDENCY,
    PKT_SUBMITTED,
    PKT_TRANSMITTED,
    PKT_UNSENT_AT_END,
    ReplayTrace,
    RunTrace,
)
from dtnsim.protocol import PORT_CONTROL, PORT_DATA, ProtocolConfig

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
    network=RadioNetwork,
):
    """A `network` radio over `trajectories`, or over nodes standing at
    `positions`, filling `trace` (a RunTrace by default); a RecordingTrace
    logs the radio's time."""
    sim = Simulator()
    trace = RunTrace() if trace is None else trace
    if isinstance(trace, RecordingTrace):
        trace.clock = sim
    if trajectories is None:
        trajectories = parse_ns2_trace(static_trace(*positions))
    net = network(
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
    @tier1_or_deep(300)
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
        assert net.in_range(0, 0)  # distance zero
        assert net.in_range(0, 1)  # distance exactly the radius
        assert not net.in_range(0, 2)


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
# the radius often. Speeds are often the same, so that pairs often move
# in parallel or meet head on.
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
    # Both nodes run head on towards each other at 1 m/s: out at 14 s, in
    # at 16 s. A certificate from 1 us must end at the first crossing of
    # the radius, not the second.
    nodes = [
        (-20.0, 0.0, [(0.0, 20.0, 0.0, 1.0)]),
        (20.0, 0.0, [(0.0, -20.0, 0.0, 1.0)]),
    ]
    return nodes, 10.0, [1, 14_000_000, 16_000_000, 20_000_000]


def _jump():
    # Node 1 jumps next to node 0 at 1 s. Its piece before the jump ends
    # at 1 s, and so do the certificates of its pairs; the jump is no
    # piece, and from 1 s on node 1 is parked at (5, 0). Pair (0, 2) is
    # certified across the jump.
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
    # Nothing moves: every pair not within the margin of R is certified
    # for good (CERT_MAX_US).
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


def _tangent_outside():
    # Node 1 passes node 0 at exactly R + margin, where the outside pair's
    # path touches the certificate's circle: margin = 1e-9 * 100 m (node
    # 1's speed times its end time) and R = 10 m.
    y = 10.0 + CERT_MARGIN_REL * 100.0
    nodes = [(0.0, 0.0, []), (-50.0, y, [(0.0, 50.0, y, 1.0)])]
    return nodes, 10.0, [1, 49_999_999, 50_000_000, 50_000_001, 100_000_000]


def _piece_boundary():
    # Node 1 drifts at 1 m/s inside the range, which it would leave at
    # about 5 s, but its segment ends at 1 s and it then runs off at
    # 50 m/s: a certificate from the first query must end at 1 s.
    nodes = [(0.0, 0.0, []), (5.0, 0.0, [(0.0, 6.0, 0.0, 1.0), (1.0, 100.0, 0.0, 50.0)])]
    return nodes, 10.0, [1, 1_500_000, 2_000_000]


def _leaves_between_queries():
    # Node 1 leaves the range at 0.5 s, between queries at 0 and 1 s.
    nodes = [(0.0, 0.0, []), (5.0, 0.0, [(0.0, 50.0, 0.0, 10.0)])]
    return nodes, 10.0, [1, 1_000_000, 1_200_000]


def _jump_as_a_certificate_ends(t_us):
    # Node 1 jumps into range at 1 s. The pair's certificate from the
    # first query, written at 2 us, ends at exactly 1 s: (1 - 2e-6) * 1e6
    # is 999,998.0. A second query at 999,999 us has both unicasts
    # complete at 1 s; one at 999,998 us has node 1's broadcast complete
    # then. That read must run the exact check, not take the old answer.
    nodes = [(0.0, 0.0, []), (100.0, 0.0, [(1.0, 5.0, 0.0, _JUMP)])]
    return nodes, 10.0, [1, t_us]


def _jump_past_a_rounded_up_end():
    # Node 1 jumps into range at 123.456789 s. The first query's unicasts
    # complete at 199,987 us, where (123.456789 - 0.199987) * 1e6 rounds to
    # just above a whole number: rounded up, the certificate would end at
    # 123,456,790 us and answer "out" at the jump's own microsecond, where
    # the second query's unicasts complete.
    nodes = [(0.0, 0.0, []), (100.0, 0.0, [(123.456789, 5.0, 0.0, _JUMP)])]
    return nodes, 10.0, [199_986, 123_456_788]


def _first_us_at_or_after(seconds):
    """The first whole microsecond k with k / 1e6 >= seconds."""
    k = math.ceil(seconds * 1e6)
    while (k - 1) / 1e6 >= seconds:
        k -= 1
    while k / 1e6 < seconds:
        k += 1
    return k


@st.composite
def jumps_and_write_times(draw):
    """A jump time J in seconds below 2**31 s, and a write time in whole
    microseconds before it."""
    jump_s = draw(st.one_of(st.sampled_from([1.0, 123.456789]), st.floats(1e-6, 2.0**31)))
    return jump_s, draw(st.integers(0, _first_us_at_or_after(jump_s) - 1))


class TestRangeCertificate:
    """Completing transmissions decide range as the exact check does, whether
    a certificate or the check answers, for unicast and broadcast."""

    @given(range_scenes())
    @example(_head_on())
    @example(_jump())
    @example(_exactly_radius())
    @example(_stationary())
    @example(_head_on_far_out())
    @example(_tangent_outside())
    @example(_piece_boundary())
    @example(_leaves_between_queries())
    @example(_jump_as_a_certificate_ends(999_999))
    @example(_jump_as_a_certificate_ends(999_998))
    @example(_jump_past_a_rounded_up_end())
    @tier1_or_deep(200)
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

    @given(jumps_and_write_times())
    @example((1.0, 31_275))
    @example((123.456789, 199_987))
    @tier1_or_deep(200)
    def test_a_certificate_ends_by_a_jump(self, jump):
        # Node 1 is parked out of range until it jumps into range at J s. A
        # certificate written at any w before the jump answers no whole
        # microsecond k with k / 1e6 >= J, where piece_at has node 1 jumped.
        jump_s, w = jump
        nodes = [(0.0, 0.0, []), (100.0, 0.0, [(jump_s, 5.0, 0.0, _JUMP)])]
        sim, net, _ = make_net(radio_range=10.0, trajectories=build_trajectories(nodes))
        sim.run(w)
        assert not net.in_range(0, 1)
        until, inside = net._certs[1]
        assert not inside
        assert until <= _first_us_at_or_after(jump_s)


class CountingRadio(RadioNetwork):
    """A radio that counts its exact range checks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checks = 0

    def in_range(self, a, b):
        self.checks += 1
        return super().in_range(a, b)


@pytest.mark.parametrize(
    "nodes, inside",
    [
        # Out of range on parallel lines at 2 and 3 m/s: they never meet.
        ([(0.0, 0.0, [(0.0, 1000.0, 0.0, 2.0)]), (0.0, 150.0, [(0.0, 1000.0, 150.0, 3.0)])],
         False),
        # In range, side by side at the same velocity.
        ([(0.0, 0.0, [(0.0, 1000.0, 0.0, 2.0)]), (0.0, 50.0, [(0.0, 1000.0, 50.0, 2.0)])],
         True),
    ],
    ids=["outside", "inside"],
)
def test_straight_lines_that_do_not_cross_the_radius_cost_one_exact_check(nodes, inside):
    # A relative speed bound would renew the certificate every few
    # seconds; the pair's own motion certifies it until a piece ends.
    sim, net, trace = make_net(
        radio_range=100.0, trajectories=build_trajectories(nodes), network=CountingRadio
    )
    for k in range(30):
        src = k % 2
        sim.schedule(1 + 10 * k * SEC, EVENT_TIMER,
                     lambda src=src: net.submit(src, 1 - src, 1, b"x", "data"))
    sim.run(300 * SEC)
    assert trace.count("data", PKT_DELIVERED if inside else PKT_OUT_OF_RANGE) == 30
    assert net.checks == 1


def test_a_jumping_node_leaves_the_other_pairs_certified():
    # Node 2 jumps into range at 10.5 s. Node 0 broadcasts every second
    # for 30 s, 60 range decisions. Pair (0, 1) moves in a straight line
    # inside the range and takes one exact check; pair (0, 2) takes one
    # before the jump and one after it, where it is parked for good.
    nodes = [
        (0.0, 0.0, []),
        (50.0, 0.0, [(0.0, 50.0, 80.0, 1.0)]),
        (300.0, 0.0, [(10.5, 60.0, 0.0, _JUMP)]),
    ]
    sim, net, trace = make_net(
        radio_range=100.0, trajectories=build_trajectories(nodes), network=CountingRadio
    )
    for k in range(30):
        sim.schedule(1 + k * SEC, EVENT_TIMER, lambda: net.submit(0, None, 1, b"x", "beacon"))
    sim.run(31 * SEC)
    assert trace.count("beacon", PKT_DELIVERED) == 30 + 19  # node 2 from 11 s on
    assert net.checks == 3


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


class CountingTrace(RunTrace):
    """A RunTrace that counts its packet_event calls and logs every outcome
    it observes, as (kind, outcome, size, src, dst)."""

    def __init__(self):
        super().__init__()
        self.packet_events = 0
        self.observed = []

    def packet_event(self, *event):
        self.packet_events += 1
        super().packet_event(*event)

    def observe(self, *event):
        self.observed.append(event)


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

    def test_broadcast_deliveries_counted_in_place_per_receiver(self):
        # Sender 2 reaches nodes 0 and 1 below it and 3 above it; 4 is out of range.
        sim, net, trace = make_net(
            [(10, 0), (20, 0), (0, 0), (30, 0), (500, 0)], trace=CountingTrace()
        )
        net.submit(2, None, 1, b"abc", "beacon")
        sim.run(SEC)
        receivers = (0, 1, 3)
        delivered = {key: n for key, n in trace.pair_counts.items() if key[3] == PKT_DELIVERED}
        assert delivered == {(2, r, "beacon", PKT_DELIVERED): 1 for r in receivers}
        assert trace.bytes_of("beacon", PKT_DELIVERED) == 3 * (3 + 28)
        assert trace.packet_events == 0
        assert [event for event in trace.observed if event[1] == PKT_DELIVERED] == [
            ("beacon", PKT_DELIVERED, 3 + 28, 2, r) for r in receivers
        ]

    def test_a_broadcast_hand_over_is_a_broadcast_submit(self):
        # A node's beacon tick hands its beacon over with dst None: the same
        # outcomes at the same times, counted in the (node, None, beacon) row.
        def run(send):
            positions = [(10, 0), (20, 0), (0, 0), (500, 0)]
            sim, net, trace = make_net(positions, trace=RecordingTrace())
            send(net)
            sim.run(SEC)
            net.finalize()
            return trace.events, trace.pair_counts

        submitted = run(lambda net: net.submit(2, None, 1, b"abc", "beacon"))
        assert run(lambda net: NodeTransport(net, 2).hand_over(
            None, 1, (b"abc",), "beacon", None, (b"",))) == submitted
        assert submitted[1][(2, None, "beacon", PKT_SUBMITTED)] == 1

    def test_full_duplex_without_contention(self):
        # Nodes 0 and 1 hand each other a packet and node 2, in range of
        # both, a broadcast, all at one instant. Each node's queue sends at
        # the full rate whatever its neighbours send, and a node receives
        # while it transmits: every packet arrives one service time of its
        # own after the hand-over, and none is dropped.
        sim, net, trace = make_net([(0, 0), (10, 0), (20, 0)], trace=RecordingTrace())
        got = []
        for i in range(3):
            net.attach(i, lambda src, port, data, msg_dst, now, payload, i=i: got.append(
                (src, i, len(data), now)
            ))
        sizes = {0: 1000, 1: 400, 2: 50}
        for src, dst, port, kind in [(0, 1, PORT_DATA, "data"), (1, 0, PORT_DATA, "data"),
                                     (2, None, PORT_CONTROL, "beacon")]:
            NodeTransport(net, src).hand_over(dst, port, (bytes(sizes[src]),), kind, dst, (b"",))
        sim.run(SEC)
        net.finalize()
        arrival = {src: service_time_us(size + 28, 12_000_000) for src, size in sizes.items()}
        assert len(set(arrival.values())) == 3
        assert sorted(got) == [
            (0, 1, sizes[0], arrival[0]),
            (1, 0, sizes[1], arrival[1]),
            (2, 0, sizes[2], arrival[2]),
            (2, 1, sizes[2], arrival[2]),
        ]
        outcomes = {outcome for _, outcome, *_ in trace.events}
        assert outcomes == {PKT_SUBMITTED, PKT_TRANSMITTED, PKT_DELIVERED}

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

    def test_control_packets_that_overflow_are_counted(self):
        # Two data packets fill the queue; an ACK and a two-fragment summary
        # handed over behind them are tail-dropped, as a node hands them over.
        sim, net, trace = make_net([(0, 0), (10, 0)], queue_capacity=3000)
        for _ in range(2):
            net.submit(0, 1, PORT_DATA, bytes(1472), "data")
        transport = NodeTransport(net, 0)
        transport.hand_over(1, PORT_CONTROL, (bytes(15),), "ack", None, (b"",))
        transport.hand_over(
            1, PORT_CONTROL, (bytes(15), bytes(7)), "reply", None, (b"", b"")
        )
        sim.run(SEC)
        net.finalize()
        trace.audit()
        assert (trace.count("ack", PKT_OVERFLOW), trace.count("reply", PKT_OVERFLOW)) == (1, 2)

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
        assert trace.count("data", PKT_SUBMITTED) == 50
        trace.audit()
        assert trace.count("data", PKT_IN_FLIGHT_AT_END) == 0  # no propagation delay


class ExtendCountingDeque(deque):
    """A deque that counts its `extend` calls."""

    extends = 0

    def extend(self, items):
        self.extends += 1
        super().extend(items)


class ExtendCountingRadio(RadioNetwork):
    """A radio whose device queues count their `extend` calls."""

    def _service(self, node):
        self._fifos[node] = ExtendCountingDeque()
        return super()._service(node)


class TestMessageHandOver:
    """A message handed over in one call is queued, served and delivered
    exactly as its packets submitted one at a time, each a one-packet
    hand-over. Each case runs with a RecordingTrace, whose `observe` is set,
    and with a plain RunTrace, whose `observe` is None, as in a bench run."""

    # Four 1500-byte packets on air (30 + 1442 + 28) and a short last one
    # of 158 bytes (30 + 100 + 28).
    HEADERS = [bytes([i]) * 30 for i in range(5)]
    PAYLOADS = [bytes([i]) * 1442 for i in range(4)] + [bytes(100)]
    MESSAGE_BYTES = 4 * 1500 + 158

    @pytest.fixture(params=[RecordingTrace, RunTrace], ids=["observed", "plain"])
    def same_either_way(self, request):
        """same_either_way(**world): the trace and deliveries of `world`'s
        message handed over in one call, checked against one packet at a
        time. The call queues the message in one extend exactly when none
        of its packets overflows."""

        def check(**world):
            one_call, got_one_call, extends = self._run(True, request.param(), **world)
            per_packet, got_per_packet, _ = self._run(False, request.param(), **world)
            if request.param is RecordingTrace:
                assert one_call.events == per_packet.events
            assert one_call.pair_counts == per_packet.pair_counts
            assert got_one_call == got_per_packet
            assert extends == (one_call.count("data", PKT_OVERFLOW) == 0)
            return one_call, got_one_call

        return check

    def _run(self, as_message, trace, rate=12e6, capacity=1_000_000, residency_us=10 * SEC,
             busy=False):
        """The trace, the deliveries and node 0's extend calls of one run."""
        sim, net, trace = make_net(
            [(0, 0), (10, 0)],
            rate=rate,
            queue_capacity=capacity,
            residency_us=residency_us,
            trace=trace,
            network=ExtendCountingRadio,
        )
        got = []
        net.attach(1, lambda src, port, data, msg_dst, now, payload: got.append(
            (src, data, payload, msg_dst, now)
        ))

        transport = NodeTransport(net, 0)

        def hand_over():
            if as_message:
                transport.hand_over(1, PORT_DATA, self.HEADERS, "data", 1, self.PAYLOADS)
            else:
                for header, payload in zip(self.HEADERS, self.PAYLOADS):
                    net.submit(0, 1, PORT_DATA, header, "data", 1, payload)

        if busy:
            net.submit(0, 1, PORT_DATA, bytes(1472), "data", 1)  # on air 0..1000 µs
        sim.schedule(100, EVENT_TRAFFIC, hand_over)
        sim.run(60 * SEC)
        extends = net._fifos[0].extends
        net.finalize()
        return trace, got, extends

    def test_overflow_mid_message_while_the_short_last_packet_fits(self, same_either_way):
        trace, got = same_either_way(capacity=4000)
        assert trace.count("data", PKT_OVERFLOW) == 2
        assert [payload for _, _, payload, _, _ in got] == [
            self.PAYLOADS[0], self.PAYLOADS[1], self.PAYLOADS[4]
        ]

    def test_later_packets_past_residency(self, same_either_way):
        # 1500 bytes at 10 kbps: 1.2 s of service, so packets 3 to 5 reach
        # the head 2.4 s after the hand-over, past the 2 s residency.
        trace, got = same_either_way(rate=1e4, residency_us=2 * SEC)
        assert trace.count("data", PKT_RESIDENCY) == 3
        assert [now for *_, now in got] == [1_200_100, 2_400_100]

    def test_queue_busy_at_hand_over(self, same_either_way):
        trace, got = same_either_way(busy=True)
        # The busy packet is delivered at 1,000 µs; then each 1500-byte
        # packet takes 1,000 µs at 12 Mbps and the 158-byte one 106 µs.
        assert [now for *_, now in got] == [1_000, 2_000, 3_000, 4_000, 5_000, 5_106]

    def test_capacity_of_exactly_the_message(self, same_either_way):
        trace, got = same_either_way(capacity=self.MESSAGE_BYTES)
        assert trace.count("data", PKT_OVERFLOW) == 0
        assert [payload for _, _, payload, _, _ in got] == self.PAYLOADS

    def test_one_byte_short_drops_only_the_short_last_packet(self, same_either_way):
        trace, got = same_either_way(capacity=self.MESSAGE_BYTES - 1)
        assert trace.count("data", PKT_OVERFLOW) == 1
        assert trace.bytes_of("data", PKT_OVERFLOW) == 158
        assert [payload for _, _, payload, _, _ in got] == self.PAYLOADS[:4]

    def test_exact_fit_behind_the_busy_packet(self, same_either_way):
        # The busy packet holds 1500 bytes of the queue until 1,000 µs.
        trace, got = same_either_way(capacity=1500 + self.MESSAGE_BYTES, busy=True)
        assert trace.count("data", PKT_OVERFLOW) == 0
        assert [payload for _, _, payload, _, _ in got][1:] == self.PAYLOADS


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
