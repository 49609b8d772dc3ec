"""End-to-end simulations over scripted contacts."""

import gc
import hashlib
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from conftest import build_world, originate_at, static_trace

from dtnsim.metrics import compute
from dtnsim.mobility import generate_random_waypoint_trace, parse_ns2_trace
from dtnsim.netsim import IP_UDP_HEADER_BYTES, LinkModel, RadioNetwork, Simulator
from dtnsim.protocol import PORT_CONTROL, EpidemicNode, ProtocolConfig
from dtnsim.records import (
    KIND_ACK,
    KIND_BEACON,
    KIND_DATA,
    PKT_DELIVERED,
    PKT_DROP_OUTCOMES,
    PKT_IN_FLIGHT_AT_END,
    PKT_LOSS,
    PKT_MALFORMED,
    PKT_OUT_OF_RANGE,
    PKT_OVERFLOW,
    PKT_RESIDENCY,
    PKT_SUBMITTED,
    PKT_TRANSMITTED,
    PKT_UNSENT_AT_END,
    ReplayTrace,
)
from dtnsim.runner import build_run, run_once
from dtnsim.scenario import Scenario, TrafficParams, load_scenario
from dtnsim.traffic import MessageSpec, generate_message, message_payloads
from dtnsim.wire import EpidemicHeader

SEC = 1_000_000


class TestTwoNodeTransfer:
    RATE = 12e6
    PAYLOAD = 1000
    SIZE = 100_000

    def run_scenario(self, duration_s=5):
        config = ProtocolConfig(beacon_interval=1.0, beacon_randomness=0.0)
        link = LinkModel(self.RATE, 100.0)
        sim, net, nodes, trace = build_world(static_trace((0, 0), (50, 0)), config, link)
        entry = generate_message(
            MessageSpec(0, 1, 0), message_payloads(self.SIZE, self.PAYLOAD), config.hop_limit
        )
        nodes[0].originate(entry, 0)
        sim.run(duration_s * SEC)
        net.finalize()
        return trace

    def closed_form_latency_s(self):
        # Link arithmetic, independent of the simulator: the exchange
        # starts at the first beacon (one interval), then REPLY (1 id),
        # REPLY_BACK (empty), then 100 data packets back to back. Every
        # packet rides in one IPv4/UDP datagram (28 bytes).
        packets = math.ceil(self.SIZE / self.PAYLOAD)
        bit = 1 / self.RATE
        ip = 28
        beacon = (3 + ip) * 8 * bit
        reply = (3 + 4 + 8 + ip) * 8 * bit
        reply_back = (3 + 4 + ip) * 8 * bit
        data = packets * (30 + self.PAYLOAD + ip) * 8 * bit
        return 1.0 + beacon + reply + reply_back + data

    def test_exact_packet_counts_and_latency(self):
        trace = self.run_scenario()
        report = compute(trace)
        assert trace.count(KIND_DATA, PKT_TRANSMITTED) == 100
        assert trace.count(KIND_ACK, PKT_TRANSMITTED) == 1
        assert report.mdr == 1.0
        assert report.avg_latency_s == pytest.approx(
            self.closed_form_latency_s(), abs=1e-3
        )
        assert report.avg_hop_count == 1.0

    def test_no_retransfer_after_reexchange(self):
        # 8 seconds spans a second summary exchange on the idle contact;
        # the message must not travel again.
        trace = self.run_scenario(duration_s=8)
        assert trace.count(KIND_DATA, PKT_TRANSMITTED) == 100
        assert trace.count(KIND_ACK, PKT_TRANSMITTED) == 1


class TestStoreAndHaulRelay:
    TRACE = "\n".join(
        [
            "$node_(0) set X_ 0.0",
            "$node_(0) set Y_ 0.0",
            "$node_(1) set X_ 50.0",
            "$node_(1) set Y_ 0.0",
            "$node_(2) set X_ 1000.0",
            "$node_(2) set Y_ 0.0",
            # Node 1 hauls from node 0 toward node 2, leaving range of 0
            # long before entering range of 2.
            '$ns_ at 20.0 "$node_(1) setdest 950.0 0.0 10.0"',
        ]
    )

    def run_scenario(self, hop_limit):
        config = ProtocolConfig(
            beacon_interval=1.0,
            beacon_randomness=0.1,
            hop_limit=hop_limit,
            message_ttl=300.0,
        )
        link = LinkModel(12e6, 100.0)
        sim, net, nodes, trace = build_world(self.TRACE, config, link)
        entry = generate_message(MessageSpec(0, 2, 0), message_payloads(10_000, 1000), hop_limit)
        nodes[0].originate(entry, 0)
        sim.run(150 * SEC)
        net.finalize()
        return compute(trace), trace

    def test_contact_windows_do_not_overlap(self):
        trajs = parse_ns2_trace(self.TRACE)
        # Each second: is node 1 within range (100 m) of node 0, of node 2?
        in_range = set()
        for t in range(0, 150):
            p0, p1, p2 = (trajs[i].position_at(float(t)) for i in range(3))
            in_range.add((math.dist(p0, p1) <= 100.0, math.dist(p1, p2) <= 100.0))
        # Both contacts happen, and never at the same time.
        assert (True, False) in in_range
        assert (False, True) in in_range
        assert (True, True) not in in_range

    def test_delivered_via_relay_with_two_hops(self):
        report, trace = self.run_scenario(hop_limit=8)
        assert report.delivered == 1
        assert report.avg_hop_count == 2.0
        assert report.mdr == 1.0

    def test_hop_limit_one_blocks_relay(self):
        report, _ = self.run_scenario(hop_limit=1)
        assert report.delivered == 0
        # The relay never stores the message, so idle-contact re-exchanges
        # re-send it; every copy dies with its hop budget exhausted.
        assert report.drops["msg_hop_exhausted"] >= 1


class TestAntiEntropyUnion:
    def prefill(self, nodes, config, owners_and_ids):
        """Enqueue one message per (owners, (source, t)); return the ids."""
        packets = message_payloads(2000, 500)
        ids = set()
        for owners, (source, t) in owners_and_ids:
            e = generate_message(MessageSpec(source, 9, t), packets, config.hop_limit)
            ids.add(e.message_id)
            for owner in owners:
                nodes[owner].buffer.enqueue(e, t)
        return ids

    def test_buffers_converge_to_union(self):
        config = ProtocolConfig(beacon_interval=1.0, beacon_randomness=0.1)
        link = LinkModel(12e6, 100.0)
        sim, net, nodes, trace = build_world(static_trace((0, 0), (50, 0)), config, link, seed=3)
        union = self.prefill(
            nodes, config, [((0,), (1, t)) for t in range(4)] + [((1,), (2, t)) for t in range(3)]
        )
        sim.run(20 * SEC)
        net.finalize()
        assert set(nodes[0].buffer.summary()) == union
        assert set(nodes[1].buffer.summary()) == union

    def test_no_data_sent_for_shared_ids(self):
        config = ProtocolConfig(beacon_interval=1.0, beacon_randomness=0.1)
        link = LinkModel(12e6, 100.0)
        handed = []
        sim, net, nodes, trace = build_world(
            static_trace((0, 0), (50, 0)), config, link, handed=handed
        )
        shared_ids = self.prefill(nodes, config, [((0, 1), (3, t)) for t in range(3)])
        self.prefill(nodes, config, [((0,), (1, t)) for t in range(3)])
        sim.run(20 * SEC)
        # No data packet of a shared id is even handed to the radio.
        sent_ids = {
            EpidemicHeader.decode(data).message_id
            for _, _, kind, data, _ in handed
            if kind == KIND_DATA
        }
        assert not (sent_ids & shared_ids)
        assert trace.count(KIND_DATA, PKT_TRANSMITTED) > 0  # the disjoint ones did move


class TestSharedPayloads:
    def test_every_copy_holds_the_originators_payload_objects(self):
        # A chain 0 - 1 - 2 - 3: each node reaches only its neighbours, so
        # every copy beyond the first neighbour has been relayed.
        config = ProtocolConfig(beacon_interval=1.0, beacon_randomness=0.1)
        link = LinkModel(12e6, 60.0)
        sim, net, nodes, trace = build_world(
            static_trace((0, 0), (50, 0), (100, 0), (150, 0)), config, link
        )
        hop = config.hop_limit
        originals = [
            (nodes[0], generate_message(MessageSpec(0, 3, 0), message_payloads(5_000, 1_000), hop)),
            (nodes[0], generate_message(MessageSpec(0, 2, 1), message_payloads(2_500, 1_000), hop)),
            (nodes[3], generate_message(MessageSpec(3, 0, 0), message_payloads(1_500, 1_000), hop)),
        ]
        for node, e in originals:
            originate_at(sim, node, e)
        sim.run(20 * SEC)
        net.finalize()
        assert compute(trace).delivered == 3
        for _, original in originals:
            copies = [node.buffer.get(original.message_id) for node in nodes]
            assert None not in copies  # all four nodes hold the message
            for copy in copies:
                assert len(copy.packets) == original.packet_total
                assert all(
                    mine is theirs for mine, theirs in zip(copy.packets, original.packets)
                )

    def test_a_run_holds_one_payload_tuple(self):
        # Every message of a run has the scenario's one shape, so all its
        # messages and all their copies hold the same ceil(20000 / 1460) = 14
        # payload objects.
        scenario = load_scenario("scenarios/mini.cfg")
        sim, network, nodes, _ = build_run(scenario, 1)
        sim.run(scenario.duration_us)
        network.finalize()
        entries = [entry for node in nodes for entry in node.buffer.entries()]
        assert len({entry.message_id for entry in entries}) == scenario.traffic.message_count
        assert len({id(p) for entry in entries for p in entry.packets}) == 14


class TestAckGating:
    def test_one_message_in_flight_and_no_interleaving(self):
        config = ProtocolConfig(beacon_interval=1.0, beacon_randomness=0.0)
        link = LinkModel(12e6, 100.0)
        handed = []
        sim, net, nodes, trace = build_world(
            static_trace((0, 0), (50, 0)), config, link, handed=handed
        )
        packets = message_payloads(20_000, 1000)
        entries = [
            generate_message(MessageSpec(0, 1, t), packets, config.hop_limit) for t in (0, 1, 2)
        ]
        for e in entries:
            originate_at(sim, nodes[0], e)
        sim.run(6 * SEC)
        net.finalize()

        # Interleave data submissions (the k-th one carries the k-th data
        # packet handed to the radio) with ack deliveries, in report order.
        handed_ids = iter(
            [EpidemicHeader.decode(data).message_id for _, _, kind, data, _ in handed
             if kind == KIND_DATA]
        )
        events = []
        for kind, outcome, *_ in trace.events:
            if (kind, outcome) == (KIND_DATA, PKT_SUBMITTED):
                events.append(("data", next(handed_ids)))
            elif (kind, outcome) == (KIND_ACK, PKT_DELIVERED):
                events.append(("ack", None))

        # Messages travel whole and strictly one at a time: the data
        # stream is three contiguous single-id blocks, and a new block
        # is handed to the radio only after the previous message's ack
        # came back.
        data_ids = [mid for kind, mid in events if kind == "data"]
        assert len(data_ids) == 60  # 3 messages x 20 packets, no re-sends
        assert trace.count(KIND_DATA, PKT_TRANSMITTED) == 60
        acks_seen = 0
        blocks_started = 0
        current = None
        for kind, mid in events:
            if kind == "ack":
                acks_seen += 1
            elif mid != current:
                blocks_started += 1
                assert acks_seen >= blocks_started - 1
                current = mid
        assert blocks_started == 3
        assert len(set(data_ids)) == 3

    def test_zero_traffic_zero_activity(self):
        config = ProtocolConfig(beacon_interval=1.0, beacon_randomness=0.1)
        link = LinkModel(12e6, 100.0)
        sim, net, nodes, trace = build_world(static_trace((0, 0), (50, 0)), config, link)
        sim.run(10 * SEC)
        net.finalize()
        report = compute(trace)
        assert report.generated == 0 and report.delivered == 0
        assert report.transfers == 0
        assert trace.count(KIND_DATA, "submitted") == 0
        assert all(v == 0 for v in report.drops.values())


class TestChaosInvariants:
    def test_protocol_laws_hold_under_loss_and_mobility(self, tmp_path):
        trace_file = tmp_path / "chaos.ns"
        for seed in (1, 2, 3):
            trace_file.write_text(
                generate_random_waypoint_trace(6, 200, 200, 5, 15, 60, seed=f"chaos{seed}")
            )
            ttl = 25.0
            hop_limit = 3
            scenario = Scenario(
                trajectories=tuple(parse_ns2_trace(trace_file.read_text())),
                duration_s=60.0,
                seeds=(seed,),
                protocol=ProtocolConfig(1.0, 0.1, 500_000, ttl, hop_limit, 60),
                link=LinkModel(6e6, 60.0, loss_probability=0.05),
                traffic=TrafficParams(15, 15_000, 1200, 2.0, 30.0),
                queue_capacity=500_000,
                queue_residency_s=2.0,
            )
            report, trace = run_once(scenario, seed, ReplayTrace())

            generated_ids = {g.message_id for g in trace.generated}
            delivered_ids = [d.message_id for d in trace.deliveries]
            assert len(set(delivered_ids)) == len(delivered_ids)
            for delivery in trace.deliveries:
                assert delivery.message_id in generated_ids
                assert delivery.latency_us <= ttl * SEC
                assert 1 <= delivery.hops <= hop_limit
            if report.delivered:
                assert report.replication_overhead >= 0

            # Packet conservation across the whole run, per (src, dst) pair.
            outcomes = {}
            for (src, dst, kind, outcome), n in trace.pair_counts.items():
                if kind != KIND_DATA:
                    continue
                outcomes.setdefault((src, dst), {})[outcome] = n
            for pair, by_outcome in outcomes.items():
                submitted = by_outcome.get("submitted", 0)
                accounted = sum(
                    by_outcome.get(o, 0)
                    for o in (
                        "delivered",
                        "loss",
                        "out_of_range",
                        "overflow",
                        "residency",
                        "unsent_at_end",
                        "in_flight_at_end",
                    )
                )
                assert submitted == accounted, (pair, by_outcome)


class TestPacketConservation:
    # Six moving nodes, 5% loss, a 2 ms propagation delay, a device queue of
    # about two messages and a 0.1 s residency limit, with traffic until the
    # end: every drop outcome but malformed occurs.
    SCENARIO = Scenario(
        trajectories=tuple(parse_ns2_trace(
            generate_random_waypoint_trace(6, 150, 150, 5, 15, 40, seed="conservation")
        )),
        duration_s=40.0,
        seeds=(1,),
        protocol=ProtocolConfig(1.0, 0.1, 500_000, 25.0, 3, 60),
        link=LinkModel(2e6, 60.0, loss_probability=0.05, propagation_delay_s=2e-3),
        traffic=TrafficParams(20, 15_000, 1200, 1.0, 40.0),
        queue_capacity=30_000,
        queue_residency_s=0.1,
    )

    def test_ordered_stream_of_every_drop_outcome_is_pinned(self):
        # The replay dump of this world: its records, its counters, and the
        # digest of its packet outcomes in the order they happened, drops
        # by overflow, residency and at the end of the run included.
        _, trace = run_once(self.SCENARIO, 1, ReplayTrace())
        assert hashlib.sha256(trace.dump().encode()).hexdigest() == (
            "4806619561d476d2a4fa1df9242908c587de2c0e42fb905f18bd988cc3ce5f12"
        )

    def test_every_key_balances(self):
        _, trace = run_once(self.SCENARIO, 1)
        counts = trace.pair_counts
        by_outcome = Counter()
        for (_, _, _, outcome), n in counts.items():
            by_outcome[outcome] += n
        assert by_outcome[PKT_MALFORMED] == 0
        for outcome in set(PKT_DROP_OUTCOMES) - {PKT_MALFORMED}:
            assert by_outcome[outcome] > 0, outcome

        def n(src, dst, kind, *outcomes):
            return sum(counts[(src, dst, kind, o)] for o in outcomes)

        keys = {(src, dst, kind) for src, dst, kind, _ in counts}
        for src, dst, kind in keys:
            # Every packet handed to a device queue leaves it exactly once.
            assert n(src, dst, kind, PKT_SUBMITTED) == n(
                src, dst, kind, PKT_TRANSMITTED, PKT_OVERFLOW, PKT_RESIDENCY, PKT_UNSENT_AT_END
            ), (src, dst, kind)
            if dst is None:
                continue
            if kind == KIND_BEACON:
                # A broadcast reaches each receiver at most once.
                assert n(src, dst, kind, PKT_DELIVERED, PKT_LOSS, PKT_IN_FLIGHT_AT_END) <= n(
                    src, None, kind, PKT_TRANSMITTED
                ), (src, dst, kind)
                assert n(src, dst, kind, PKT_OUT_OF_RANGE) == 0
            else:
                # Every transmitted unicast packet has exactly one fate.
                assert n(src, dst, kind, PKT_TRANSMITTED) == n(
                    src, dst, kind, PKT_DELIVERED, PKT_LOSS, PKT_OUT_OF_RANGE,
                    PKT_IN_FLIGHT_AT_END,
                ), (src, dst, kind)


class TestWorldResidency:
    def test_residency_is_rounded_like_a_run(self):
        # 2.49e-4 s is 249 µs to the nearest microsecond, as build_run
        # rounds it; truncated it would be 248 µs. At 8 Mbit/s a packet of
        # 249 on-air bytes takes 249 µs, so the second of two packets
        # handed over at once reaches the head after exactly 249 µs.
        sim, net, _, trace = build_world(
            static_trace((0, 0), (10, 0)), ProtocolConfig(), LinkModel(8e6), residency_s=2.49e-4
        )
        for _ in range(2):
            net.submit(0, None, PORT_CONTROL, bytes(249 - IP_UDP_HEADER_BYTES), KIND_BEACON)
        sim.run(SEC)
        assert trace.count(KIND_BEACON, PKT_RESIDENCY) == 0
        assert trace.count(KIND_BEACON, PKT_TRANSMITTED) == 2


class TestFullPipelineReplay:
    def test_same_scenario_and_seed_identical_trace(self):
        scenario = load_scenario("scenarios/mini.cfg")
        _, first = run_once(scenario, 3, ReplayTrace())
        _, second = run_once(scenario, 3, ReplayTrace())
        assert first.dump() == second.dump()

    def test_different_seeds_differ(self):
        scenario = load_scenario("scenarios/mini.cfg")
        _, first = run_once(scenario, 1, ReplayTrace())
        _, second = run_once(scenario, 2, ReplayTrace())
        assert first.dump() != second.dump()

    def test_identical_trace_across_hash_seeds(self):
        # str hashing is salted per process; the dump must not depend on it.
        root = Path(__file__).resolve().parents[1]
        code = (
            "from dtnsim.records import ReplayTrace\n"
            "from dtnsim.runner import run_once\n"
            "from dtnsim.scenario import load_scenario\n"
            "print(run_once(load_scenario('scenarios/mini.cfg'), 3, ReplayTrace())[1].dump())\n"
        )
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        dumps = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
            result = subprocess.run(
                [sys.executable, "-c", code], cwd=root, env=env,
                capture_output=True, text=True, check=True,
            )
            dumps.append(result.stdout)
        assert dumps[0] == dumps[1]
        assert "packet stream digest" in dumps[0]

    def test_finished_run_is_freed_by_reference_counting(self):
        scenario = load_scenario("scenarios/mini.cfg")
        gc.collect()
        gc.disable()
        try:
            run_once(scenario, 1)
            alive = [
                type(o).__name__
                for o in gc.get_objects()
                if isinstance(o, (EpidemicNode, RadioNetwork, Simulator))
            ]
        finally:
            gc.enable()
        assert alive == []


class TestWrappedRawPacketDifferential:
    def run_one(self, use_wrap):
        config = ProtocolConfig(beacon_interval=1.0, beacon_randomness=0.0)
        link = LinkModel(12e6, 100.0)
        sim, net, nodes, trace = build_world(
            static_trace((0, 0), (50, 0)), config, link, trace=ReplayTrace()
        )
        payload = bytes(range(200)) + bytes(56)
        if use_wrap:
            nodes[0].wrap_raw_packet(payload, destination=1, now=0)
        else:
            from dtnsim.buffer import QueueEntry
            from dtnsim.wire import make_message_id

            entry = QueueEntry(make_message_id(0, 0), 1, (payload,), config.hop_limit)
            nodes[0].originate(entry, 0)
        sim.run(5 * SEC)
        net.finalize()
        return trace

    def test_wrapped_packet_travels_like_single_packet_message(self):
        wrapped = self.run_one(use_wrap=True)
        explicit = self.run_one(use_wrap=False)
        assert wrapped.dump() == explicit.dump()
        report = compute(wrapped)
        assert report.delivered == 1
