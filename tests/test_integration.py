"""End-to-end simulations over scripted contacts."""

import gc
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import (
    SEC,
    build_world,
    make_entry,
    originate_at,
    relay_contact_seconds,
    run_relay,
    run_two_node_transfer,
    static_trace,
    two_node_latency_s,
    two_node_world,
)
from workloads import random_waypoint_trace

from dtnsim.metrics import compute
from dtnsim.mobility import parse_ns2_trace
from dtnsim.netsim import IP_UDP_HEADER_BYTES, LinkModel, RadioNetwork, Simulator
from dtnsim.protocol import PORT_CONTROL, EpidemicNode, ProtocolConfig
from dtnsim.records import (
    KIND_ACK,
    KIND_BEACON,
    KIND_DATA,
    KIND_REPLY,
    KIND_REPLY_BACK,
    MSG_HOP_EXHAUSTED,
    PKT_DELIVERED,
    PKT_DROP_OUTCOMES,
    PKT_MALFORMED,
    PKT_OVERFLOW,
    PKT_RESIDENCY,
    PKT_SUBMITTED,
    PKT_TRANSMITTED,
    ReplayTrace,
)
from dtnsim.runner import build_run, run_once
from dtnsim.scenario import Scenario, TrafficParams, load_scenario
from dtnsim.traffic import MessageSpec, generate_message, message_payloads
from dtnsim.wire import EpidemicHeader, MessageId


class TestTwoNodeTransfer:
    def test_exact_packet_counts_and_latency(self):
        trace = run_two_node_transfer(5)
        report = compute(trace)
        assert trace.count(KIND_DATA, PKT_TRANSMITTED) == 100
        assert trace.count(KIND_ACK, PKT_TRANSMITTED) == 1
        assert report.mdr == 1.0
        assert report.avg_latency_s == pytest.approx(two_node_latency_s(), abs=1e-3)
        assert report.avg_hop_count == 1.0

    def test_no_retransfer_after_reexchange(self):
        # 8 seconds spans a second summary exchange on the idle contact;
        # the message must not travel again.
        trace = run_two_node_transfer(8)
        assert trace.count(KIND_DATA, PKT_TRANSMITTED) == 100
        assert trace.count(KIND_ACK, PKT_TRANSMITTED) == 1


class TestReceivedIds:
    def test_plain_ints_in_the_buffer_message_ids_in_the_records(self):
        # Node 0 sends node 1 a message for it and one that runs out of hops
        # there. The receiver stores the id it unpacked, an exact int; every
        # record of the two holds a MessageId, which prints as before.
        config = ProtocolConfig(beacon_interval=1.0, beacon_randomness=0.0)
        sim, net, nodes, trace = two_node_world(config, trace=ReplayTrace())
        kept = make_entry(0, 0, destination=1)
        spent = make_entry(0, 1, destination=9, hop_budget=1)
        nodes[0].originate(kept, 0)
        originate_at(sim, nodes[0], spent)
        sim.run(3 * SEC)
        net.finalize()

        assert [type(mid) for mid in nodes[1].buffer.summary()] == [int]
        assert [type(e.message_id) for e in nodes[1].buffer.entries()] == [int]
        assert nodes[1].buffer.summary() == [kept.message_id]
        records = [*trace.transfers, *trace.message_drops, *trace.deliveries]
        assert [(type(r.message_id), repr(r.message_id)) for r in records] == [
            (MessageId, "MessageId(0@0)"),
            (MessageId, "MessageId(0@1)"),
            (MessageId, "MessageId(0@1)"),
            (MessageId, "MessageId(0@0)"),
        ]
        assert [d.cause for d in trace.message_drops] == [MSG_HOP_EXHAUSTED]


class TestStoreAndHaulRelay:
    def test_contact_windows_do_not_overlap(self):
        # Both contacts happen, and never at the same time.
        near_0, near_2 = relay_contact_seconds(0, 1), relay_contact_seconds(1, 2)
        assert near_0 and near_2 and not set(near_0) & set(near_2)

    def test_delivered_via_relay_with_two_hops(self):
        report = run_relay(hop_limit=8)
        assert report.delivered == 1
        assert report.avg_hop_count == 2.0
        assert report.mdr == 1.0

    def test_hop_limit_one_blocks_relay(self):
        report = run_relay(hop_limit=1)
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
        sim, net, nodes, trace = two_node_world(config, seed=3)
        union = self.prefill(
            nodes, config, [((0,), (1, t)) for t in range(4)] + [((1,), (2, t)) for t in range(3)]
        )
        sim.run(20 * SEC)
        net.finalize()
        assert set(nodes[0].buffer.summary()) == union
        assert set(nodes[1].buffer.summary()) == union

    def test_no_data_sent_for_shared_ids(self):
        config = ProtocolConfig(beacon_interval=1.0, beacon_randomness=0.1)
        handed = []
        sim, net, nodes, trace = two_node_world(config, handed=handed)
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
        handed = []
        sim, net, nodes, trace = two_node_world(config, handed=handed)
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
        sim, net, nodes, trace = two_node_world(config)
        sim.run(10 * SEC)
        net.finalize()
        report = compute(trace)
        assert report.generated == 0 and report.delivered == 0
        assert report.transfers == 0
        assert trace.count(KIND_DATA, "submitted") == 0
        assert all(v == 0 for v in report.drops.values())


class TestChaosInvariants:
    def test_protocol_laws_hold_under_loss_and_mobility(self):
        for seed in (1, 2, 3):
            text = random_waypoint_trace(6, 200, (5, 15), 60, f"chaos{seed}")
            scenario = Scenario(
                trajectories=tuple(parse_ns2_trace(text)),
                duration_s=60.0,
                seeds=(seed,),
                protocol=ProtocolConfig(1.0, 0.1, 500_000, 25.0, 3, 60),
                link=LinkModel(6e6, 60.0, loss_probability=0.05),
                traffic=TrafficParams(15, 15_000, 1200, 2.0, 30.0),
                queue_capacity=500_000,
                queue_residency_s=2.0,
            )
            report, trace = run_once(scenario, seed, ReplayTrace())
            generated_ids = {g.message_id for g in trace.generated}
            assert all(d.message_id in generated_ids for d in trace.deliveries)
            if report.delivered:
                assert report.replication_overhead >= 0


class TestPacketConservation:
    # Six moving nodes, 5% loss, a 2 ms propagation delay, a device queue of
    # about two messages and a 0.1 s residency limit, with traffic until the
    # end: every drop outcome but malformed occurs.
    SCENARIO = Scenario(
        trajectories=tuple(parse_ns2_trace(
            random_waypoint_trace(6, 150, (5, 15), 40, "conservation")
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
        occurred = {outcome for *_, outcome in trace.pair_counts}
        assert occurred >= set(PKT_DROP_OUTCOMES) - {PKT_MALFORMED}
        assert PKT_MALFORMED not in occurred

    # Four nodes standing in range of each other, a queue of 2,200 bytes
    # (one 2,000-byte message is 2,116 bytes on air) and two ids per summary
    # fragment: summaries handed over as one fragment and as several
    # overflow behind data, and run_once audits their conservation.
    TIGHT_QUEUE = Scenario(
        trajectories=tuple(parse_ns2_trace(static_trace((0, 0), (30, 0), (0, 30), (30, 30)))),
        duration_s=20.0,
        seeds=(1,),
        protocol=ProtocolConfig(1.0, 0.1, 200_000, 60.0, 4, 20),
        link=LinkModel(2e5, 100.0),
        traffic=TrafficParams(16, 2000, 1000, 0.5, 5.0),
        queue_capacity=2200,
        queue_residency_s=2.0,
    )

    def test_control_packets_overflow_behind_data(self):
        _, trace = run_once(self.TIGHT_QUEUE, 1)
        overflowed = {kind for kind, outcome in trace.packet_counts if outcome == PKT_OVERFLOW}
        assert overflowed == {KIND_DATA, KIND_REPLY, KIND_REPLY_BACK}
        assert len(trace.deliveries) == 11


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
        sim, net, nodes, trace = two_node_world(config, trace=ReplayTrace())
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
