"""Event kernel, device queues, and the unit-disk radio."""

import random

import pytest

from dtnsim.mobility import parse_ns2_trace
from dtnsim.netsim import (
    EVENT_TIMER,
    LinkModel,
    Packet,
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
    RunTrace,
)

SEC = 1_000_000


def static_nodes(*positions):
    lines = []
    for i, (x, y) in enumerate(positions):
        lines.append(f"$node_({i}) set X_ {x}")
        lines.append(f"$node_({i}) set Y_ {y}")
    return parse_ns2_trace("\n".join(lines))


def make_net(
    positions,
    rate=12e6,
    radio_range=100.0,
    loss=0.0,
    queue_capacity=1_000_000,
    residency_us=10 * SEC,
    seed=1,
):
    sim = Simulator()
    trace = RunTrace()
    link = LinkModel(rate, radio_range, loss)
    net = RadioNetwork(
        sim,
        link,
        static_nodes(*positions),
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


class TestTransmission:
    def test_unicast_zero_loss_delivers_everything(self):
        sim, net, trace = make_net([(0, 0), (10, 0)])
        got = []
        net.attach(0, lambda *a: None)
        net.attach(1, lambda src, port, data, msg_dst, now: got.append((data, now)))
        for i in range(5):
            net.submit(Packet(0, 1, 1, bytes(1472), "data"))
        sim.run(10 * SEC)
        assert [d for d, _ in got] == [bytes(1472)] * 5
        # FIFO service: 1472 B + 28 B encapsulation = 1500 B on the air,
        # one packet per millisecond at 12 Mbps.
        assert [t for _, t in got] == [1000 * (i + 1) for i in range(5)]
        assert trace.count("data", PKT_DELIVERED) == 5

    def test_broadcast_reaches_all_in_range(self):
        sim, net, trace = make_net([(0, 0), (10, 0), (20, 0), (500, 0)])
        got = []
        for i in range(4):
            net.attach(i, lambda src, port, data, msg_dst, now, i=i: got.append(i))
        net.submit(Packet(0, None, 1, b"abc", "beacon"))
        sim.run(SEC)
        assert sorted(got) == [1, 2]  # node 3 out of range, sender excluded

    def test_out_of_range_unicast_counted(self):
        sim, net, trace = make_net([(0, 0), (500, 0)])
        net.attach(0, lambda *a: None)
        net.attach(1, lambda *a: None)
        net.submit(Packet(0, 1, 1, b"abc", "data"))
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
        sim = Simulator()
        trace = RunTrace()
        net = RadioNetwork(
            sim,
            LinkModel(12e6, 100.0),
            parse_ns2_trace(trace_text),
            10_000_000,
            100 * SEC,
            random.Random(1),
            trace,
        )
        net.attach(0, lambda *a: None)
        net.attach(1, lambda *a: None)
        for _ in range(100):
            net.submit(Packet(0, 1, 1, bytes(1500), "data"))
        sim.run(10 * SEC)
        delivered = trace.count("data", PKT_DELIVERED)
        oor = trace.count("data", PKT_OUT_OF_RANGE)
        assert delivered > 0 and oor > 0
        assert delivered + oor == 100

    def test_bernoulli_loss(self):
        sim, net, trace = make_net([(0, 0), (10, 0)], loss=0.5, seed=3)
        net.attach(0, lambda *a: None)
        net.attach(1, lambda *a: None)
        for _ in range(200):
            net.submit(Packet(0, 1, 1, bytes(100), "data"))
        sim.run(10 * SEC)
        lost = trace.count("data", "loss")
        assert lost + trace.count("data", PKT_DELIVERED) == 200
        assert 60 < lost < 140  # loose binomial bound for p=0.5, n=200


class TestDeviceQueue:
    def test_overflow_tail_drops_newest(self):
        # Two 1500-byte-on-air packets fill the queue; the third tail-drops.
        sim, net, trace = make_net([(0, 0), (10, 0)], queue_capacity=3000)
        net.attach(0, lambda *a: None)
        net.attach(1, lambda *a: None)
        for _ in range(3):
            net.submit(Packet(0, 1, 1, bytes(1472), "data"))
        assert trace.count("data", PKT_OVERFLOW) == 1
        sim.run(SEC)
        assert trace.count("data", PKT_DELIVERED) == 2

    def test_residency_expiry_drops_before_service(self):
        sim, net, trace = make_net(
            [(0, 0), (10, 0)], rate=1e4, residency_us=2 * SEC
        )
        net.attach(0, lambda *a: None)
        net.attach(1, lambda *a: None)
        # 1500 bytes at 10 kbps = 1.2 s per packet; the 4th packet waits
        # 3.6 s > 2 s residency and is dropped when it reaches the head.
        for _ in range(4):
            net.submit(Packet(0, 1, 1, bytes(1500), "data"))
        sim.run(30 * SEC)
        assert trace.count("data", PKT_RESIDENCY) >= 1
        assert (
            trace.count("data", PKT_DELIVERED)
            + trace.count("data", PKT_RESIDENCY)
            == 4
        )

    def test_unsent_at_end_accounted(self):
        sim, net, trace = make_net([(0, 0), (10, 0)], rate=1e4)
        net.attach(0, lambda *a: None)
        net.attach(1, lambda *a: None)
        for _ in range(5):
            net.submit(Packet(0, 1, 1, bytes(1500), "data"))
        sim.run(100)  # far too short to transmit anything
        net.finalize()
        assert trace.count("data", PKT_UNSENT_AT_END) == 5

    def test_in_flight_at_end_accounted(self):
        # A delivery still propagating when the run ends must not vanish
        # from the accounting.
        sim = Simulator()
        trace = RunTrace()
        net = RadioNetwork(
            sim,
            LinkModel(12e6, 100.0, propagation_delay_s=0.5),
            static_nodes((0, 0), (10, 0)),
            1_000_000,
            10 * SEC,
            random.Random(1),
            trace,
        )
        net.attach(0, lambda *a: None)
        net.attach(1, lambda *a: None)
        net.submit(Packet(0, 1, 1, bytes(1500), "data"))
        sim.run(10_000)  # past service completion, before delivery
        net.finalize()
        assert trace.count("data", PKT_TRANSMITTED) == 1
        assert trace.count("data", PKT_DELIVERED) == 0
        assert trace.count("data", "in_flight_at_end") == 1

    def test_overlapping_propagation_pairs_each_packet_with_its_receiver(self):
        # Packets from several senders, unicast and broadcast, are in
        # flight at once; each must reach its own receiver, one delay
        # after its transmission completes.
        sim = Simulator()
        trace = RunTrace()
        net = RadioNetwork(
            sim,
            LinkModel(12e6, 100.0, propagation_delay_s=0.01),
            static_nodes((0, 0), (10, 0), (20, 0)),
            1_000_000,
            10 * SEC,
            random.Random(1),
            trace,
        )
        got = []
        for i in range(3):
            net.attach(i, lambda src, port, data, msg_dst, now, i=i: got.append((now, src, i, data)))
        net.submit(Packet(0, 1, 1, b"a" * 1472, "data"))  # on air 0..1000 us
        net.submit(Packet(2, None, 1, b"b" * 722, "beacon"))  # 0..500 us
        net.submit(Packet(1, 0, 1, b"c" * 1472, "data"))  # 0..1000 us
        net.submit(Packet(0, 2, 1, b"d" * 1472, "data"))  # 1000..2000 us
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
        net.attach(0, lambda *a: None)
        net.attach(1, lambda *a: None)
        for _ in range(50):
            net.submit(Packet(0, 1, 1, bytes(1500), "data"))
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


class TestDeterminism:
    def _run(self, seed):
        sim, net, trace = make_net([(0, 0), (10, 0)], loss=0.3, seed=seed)
        net.attach(0, lambda *a: None)
        net.attach(1, lambda *a: None)
        for _ in range(30):
            net.submit(Packet(0, 1, 1, bytes(500), "data"))
        sim.run(10 * SEC)
        net.finalize()
        return trace.dump()

    def test_same_seed_identical_stream(self):
        assert self._run(5) == self._run(5)

    def test_distinct_seeds_distinct_streams(self):
        streams = {self._run(s) for s in range(10)}
        assert len(streams) == 10
