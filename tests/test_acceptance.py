"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale trend
scenario (criteria 9 and 10) is computed once in a module fixture and
takes a few minutes; everything else is fast.
"""

import filecmp
import hashlib
import math
import random
import time

import pytest
from conftest import build_world, static_trace

from dtnsim.cli import main as cli_main
from dtnsim.metrics import compute, mean_ci95
from dtnsim.mobility import generate_random_waypoint_trace, parse_ns2_trace
from dtnsim.netsim import LinkModel
from dtnsim.protocol import MAX_CONTROL_PAYLOAD, ProtocolConfig
from dtnsim.records import (
    KIND_ACK,
    KIND_DATA,
    KIND_REPLY,
    KIND_REPLY_BACK,
    PKT_DELIVERED,
    PKT_OUT_OF_RANGE,
    PKT_OVERFLOW,
    PKT_RESIDENCY,
    PKT_SUBMITTED,
    PKT_TRANSMITTED,
    PKT_UNSENT_AT_END,
    ReplayTrace,
)
from dtnsim.runner import run_once
from dtnsim.scenario import Scenario, TrafficParams
from dtnsim.traffic import MessageSpec, generate_message, message_payloads
from dtnsim.wire import (
    AckHeader,
    DataPacketHeader,
    EpidemicHeader,
    MessageId,
    MessageTypeHeader,
    MsgType,
    SummaryVectorHeader,
    make_message_id,
)

SEC = 1_000_000
N = 100_000


def report(criterion, text):
    print(f"[acceptance] criterion {criterion}: PASS ({text})")


class TestCriterion01WireRoundTrip:
    def test_wire_round_trip(self):
        rng = random.Random(101)
        started = time.monotonic()

        for _ in range(N):
            h = MessageTypeHeader(MsgType(rng.randint(1, 4)), rng.randrange(1 << 16))
            e = h.encode()
            assert len(e) == 3 and MessageTypeHeader.decode(e) == h

        for _ in range(N):
            total = rng.randint(1, 1 << 20)
            h = DataPacketHeader(
                MessageId(rng.randrange(1 << 64)),
                rng.randrange(1 << 16),
                total,
                rng.randrange(total),
            )
            e = h.encode()
            assert len(e) == 18 and DataPacketHeader.decode(e) == h

        for _ in range(N):
            h = AckHeader(
                MessageId(rng.randrange(1 << 64)),
                rng.randrange(1 << 16),
                rng.randrange(1 << 16),
            )
            e = h.encode()
            assert len(e) == 12 and AckHeader.decode(e) == h

        for _ in range(N):
            h = EpidemicHeader(MessageId(rng.randrange(1 << 64)), rng.randrange(1 << 32))
            e = h.encode()
            assert len(e) == 12 and EpidemicHeader.decode(e) == h

        for _ in range(N):
            n_ids = rng.randrange(4)
            h = SummaryVectorHeader(
                rng.randint(0, 1),
                tuple(MessageId(rng.randrange(1 << 64)) for _ in range(n_ids)),
            )
            e = h.encode()
            assert len(e) == 4 + 8 * n_ids and SummaryVectorHeader.decode(e) == h

        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"round-trip sweep took {elapsed:.1f}s"
        report(1, f"5x{N} headers round-tripped in {elapsed:.1f}s")


class TestCriterion02MessageIdLaw:
    def test_compose_decompose_bijection(self):
        rng = random.Random(202)
        for _ in range(N):
            node, ts = rng.randrange(1 << 16), rng.randrange(1 << 48)
            mid = make_message_id(node, ts)
            assert mid.source_node == node and mid.timestamp_us == ts
            assert mid.raw == (node << 48) | ts
        report(2, f"{N} compose/decompose pairs, zero failures")


class TestCriterion03TwoNodeOracle:
    RATE = 12e6
    PAYLOAD = 1000
    SIZE = 100_000

    def test_scripted_permanent_contact(self):
        config = ProtocolConfig(beacon_interval=1.0, beacon_randomness=0.0)
        link = LinkModel(self.RATE, 100.0)
        sim, net, nodes, trace = build_world(static_trace((0, 0), (50, 0)), config, link)
        entry = generate_message(
            MessageSpec(0, 1, 0), message_payloads(self.SIZE, self.PAYLOAD), config.hop_limit
        )
        nodes[0].originate(entry, 0)
        # 8 s span two more summary exchanges on the idle contact (at 4 s
        # and 7 s); the message must not travel again.
        sim.run(8 * SEC)
        net.finalize()
        rep = compute(trace)

        packets = math.ceil(self.SIZE / self.PAYLOAD)
        assert packets == 100
        assert trace.count(KIND_REPLY, PKT_TRANSMITTED) >= 2
        assert trace.count(KIND_DATA, PKT_TRANSMITTED) == 100
        assert trace.count(KIND_ACK, PKT_TRANSMITTED) == 1
        assert rep.mdr == 1.0
        assert rep.avg_hop_count == 1.0

        # Closed-form transfer time from link arithmetic: first beacon at
        # one interval, REPLY (1 id), REPLY_BACK (empty), 100 data
        # packets, each packet in a 28-byte IPv4/UDP datagram.
        bit = 1 / self.RATE
        ip = 28
        oracle = 1.0 + 8 * bit * (
            (3 + ip) + (15 + ip) + (7 + ip) + packets * (30 + self.PAYLOAD + ip)
        )
        assert rep.avg_latency_s == pytest.approx(oracle, abs=1e-3)
        report(3, f"100 data + 1 ack, latency {rep.avg_latency_s:.6f}s vs oracle {oracle:.6f}s")


class TestCriterion04AntiEntropyUnion:
    def test_union_and_zero_redundancy(self):
        rng = random.Random(404)
        trials = 30
        for trial in range(trials):
            config = ProtocolConfig(beacon_interval=1.0, beacon_randomness=0.1)
            link = LinkModel(12e6, 100.0)
            handed = []
            sim, net, nodes, trace = build_world(
                static_trace((0, 0), (50, 0)), config, link, seed=trial, handed=handed
            )
            n_a, n_b = rng.randrange(9), rng.randrange(9)
            n_shared = rng.randrange(3)
            initial = [set(), set()]
            source = 0
            for count, owners in ((n_a, (0,)), (n_b, (1,)), (n_shared, (0, 1))):
                for _ in range(count):
                    source += 1
                    e = generate_message(
                        MessageSpec(source, 99, source),
                        message_payloads(rng.randint(1, 3000), 500),
                        config.hop_limit,
                    )
                    for owner in owners:
                        nodes[owner].buffer.enqueue(e, source)
                        initial[owner].add(e.message_id)

            sim.run(20 * SEC)
            net.finalize()

            sent = {0: set(), 1: set()}
            for src, _, kind, data, _ in handed:
                if kind == KIND_DATA:
                    sent[src].add(EpidemicHeader.decode(data).message_id)
            union = initial[0] | initial[1]
            assert set(nodes[0].buffer.summary()) == union
            assert set(nodes[1].buffer.summary()) == union
            # Brute-force redundancy oracle: nothing the peer advertised
            # may be sent to it, so each side hands the radio at most its
            # own exclusive initial set.
            assert sent[0] <= initial[0] - initial[1]
            assert sent[1] <= initial[1] - initial[0]
        report(4, f"{trials} randomized instances converged with zero redundant sends")


class TestCriterion05FragmentationTransparency:
    def run_trial(self, rng_seed, payload_cap):
        config = ProtocolConfig(
            beacon_interval=1.0, beacon_randomness=0.1, max_control_payload=payload_cap
        )
        link = LinkModel(12e6, 100.0)
        sim, net, nodes, _ = build_world(
            static_trace((0, 0), (50, 0)), config, link, seed=rng_seed
        )
        rng = random.Random(f"frag:{rng_seed}")
        source = 0
        for owner in (0, 1):
            for _ in range(rng.randrange(7)):
                source += 1
                e = generate_message(
                    MessageSpec(source, 99, source),
                    message_payloads(rng.randint(1, 900), 300),
                    config.hop_limit,
                )
                nodes[owner].buffer.enqueue(e, source)
        sim.run(6 * SEC)
        return (tuple(nodes[0].buffer.summary()), tuple(nodes[1].buffer.summary()))

    def test_tiny_fragments_match_unfragmented(self):
        trials = 100
        for seed in range(trials):
            wide = self.run_trial(seed, payload_cap=MAX_CONTROL_PAYLOAD)  # one fragment
            narrow = self.run_trial(seed, payload_cap=20)  # two ids per fragment
            assert wide == narrow, f"trial {seed} diverged"
        report(5, f"{trials} randomized trials identical with 20-byte fragments")


class TestCriterion06StoreAndHaulRelay:
    TRACE = "\n".join(
        [
            "$node_(0) set X_ 0.0",
            "$node_(0) set Y_ 0.0",
            "$node_(1) set X_ 50.0",
            "$node_(1) set Y_ 0.0",
            "$node_(2) set X_ 1000.0",
            "$node_(2) set Y_ 0.0",
            '$ns_ at 20.0 "$node_(1) setdest 950.0 0.0 10.0"',
        ]
    )

    def run_relay(self, hop_limit):
        config = ProtocolConfig(
            beacon_interval=1.0, beacon_randomness=0.1, hop_limit=hop_limit, message_ttl=300.0
        )
        sim, net, nodes, trace = build_world(self.TRACE, config, LinkModel(12e6, 100.0))
        entry = generate_message(MessageSpec(0, 2, 0), message_payloads(10_000, 1000), hop_limit)
        nodes[0].originate(entry, 0)
        sim.run(150 * SEC)
        net.finalize()
        return compute(trace)

    def test_relay_delivery_and_hop_limit(self):
        # The A-B contact ends at t = 25 s, before the B-C contact begins
        # at t = 105 s; only store-and-haul through B can deliver.
        trajectories = parse_ns2_trace(self.TRACE)

        def contact_seconds(a, b):
            return [
                t for t in range(150)
                if math.dist(trajectories[a].position_at(t), trajectories[b].position_at(t))
                <= 100.0
            ]

        assert (contact_seconds(0, 1)[-1], contact_seconds(1, 2)[0]) == (25, 105)
        assert contact_seconds(0, 2) == []
        rep = self.run_relay(hop_limit=8)
        assert rep.delivered == 1
        assert rep.mdr == 1.0
        assert rep.avg_hop_count == 2.0
        rep1 = self.run_relay(hop_limit=1)
        assert rep1.delivered == 0
        # The relay never stores the message, so idle-contact re-exchanges
        # re-send it; every copy dies with its hop budget exhausted.
        assert rep1.drops["msg_hop_exhausted"] >= 1
        report(6, "relayed delivery with hop count 2; zero deliveries at hop limit 1")


class TestCriterion07TtlSafety:
    def test_no_delivery_exceeds_ttl(self, tmp_path):
        ttl = 15.0
        trace_file = tmp_path / "ttl.ns"
        total_deliveries = 0
        for seed in range(1, 11):
            trace_file.write_text(
                generate_random_waypoint_trace(10, 250, 250, 5, 15, 60, seed=f"ttl{seed}")
            )
            scenario = Scenario(
                trajectories=tuple(parse_ns2_trace(trace_file.read_text())),
                duration_s=60.0,
                seeds=(seed,),
                protocol=ProtocolConfig(1.0, 0.1, 2_000_000, ttl, 8, 1400),
                link=LinkModel(12e6, 60.0),
                traffic=TrafficParams(20, 20_000, 1460, 2.0, 30.0),
                queue_capacity=2_000_000,
                queue_residency_s=2.0,
            )
            _, run_trace = run_once(scenario, seed)
            for delivery in run_trace.deliveries:
                assert delivery.latency_us <= ttl * SEC
            total_deliveries += len(run_trace.deliveries)
        assert total_deliveries > 0
        report(7, f"{total_deliveries} deliveries across 10 seeds, all within ttl")


class TestCriterion08PartialMessageDiscipline:
    TRACE = "\n".join(
        [
            "$node_(0) set X_ 0.0",
            "$node_(0) set Y_ 0.0",
            "$node_(1) set X_ 30.0",
            "$node_(1) set Y_ 0.0",
            "$node_(2) set X_ 1950.0",
            "$node_(2) set Y_ 0.0",
            # Node 1 walks away mid-transfer, then meets node 2.
            '$ns_ at 2.0 "$node_(1) setdest 1950.0 0.0 40.0"',
        ]
    )

    def test_partials_never_advertised_and_drops_conserved(self):
        config = ProtocolConfig(
            beacon_interval=1.0, beacon_randomness=0.1, message_ttl=300.0
        )
        link = LinkModel(5e5, 100.0)  # slow link: the transfer cannot finish
        handed = []
        sim, net, nodes, trace = build_world(
            self.TRACE, config, link, queue_capacity=5_000_000, residency_s=2.0,
            handed=handed,
        )
        entry = generate_message(
            MessageSpec(0, 2, 0), message_payloads(200_000, 1000), config.hop_limit
        )
        nodes[0].originate(entry, 0)
        sim.run(60 * SEC)
        net.finalize()

        # Everything any node handed to the radio, sent or not.
        advertised, forwarded_by_relay = set(), set()
        for src, _, kind, data, _ in handed:
            if kind in (KIND_REPLY, KIND_REPLY_BACK):
                svh = SummaryVectorHeader.decode(data[3:])
                advertised.update((src, mid) for mid in svh.ids)
            elif kind == KIND_DATA and src == 1:
                forwarded_by_relay.add(EpidemicHeader.decode(data).message_id)

        # The transfer was cut: node 1 holds no copy and never claims one.
        assert entry.message_id not in nodes[1].buffer
        assert (1, entry.message_id) not in advertised
        assert entry.message_id not in forwarded_by_relay
        drops = [d for d in trace.message_drops if d.node == 1]
        assert any(d.cause == "partial_disconnect" for d in drops)
        # Node 1 did reach node 2 and exchanged (empty) summaries.
        assert trace.pair_counts[(1, 2, KIND_REPLY, PKT_TRANSMITTED)] > 0
        assert trace.pair_counts[(2, 1, KIND_REPLY_BACK, PKT_DELIVERED)] > 0

        # Conservation audit for the cut transfer: every data packet
        # submitted on the 0->1 link is accounted by exactly one outcome.
        # (Submissions can exceed one message's worth: a mute receiver
        # goes stale after two beacon intervals and its next beacon
        # restarts the exchange, so the sender may start over.)
        submitted = trace.pair_counts[(0, 1, KIND_DATA, PKT_SUBMITTED)]
        accounted = sum(
            trace.pair_counts[(0, 1, KIND_DATA, outcome)]
            for outcome in (
                PKT_DELIVERED,
                "loss",
                PKT_OUT_OF_RANGE,
                PKT_OVERFLOW,
                PKT_RESIDENCY,
                PKT_UNSENT_AT_END,
            )
        )
        assert submitted >= entry.packet_total
        assert accounted == submitted
        delivered = trace.pair_counts[(0, 1, KIND_DATA, PKT_DELIVERED)]
        assert 0 < delivered < submitted  # genuinely cut mid-transfer
        report(
            8,
            f"{submitted} data packets submitted, {delivered} delivered before the "
            "break; partial never advertised; packet conservation exact",
        )


DESK_SEEDS = tuple(range(1, 11))
DESK_BUFFERS = (1_000_000, 5_000_000, 25_000_000)
DESK_RATES = (6e6, 24e6, 54e6)
DESK_FIXED_RATE = 24e6
DESK_FIXED_BUFFER = 25_000_000


@pytest.fixture(scope="module")
def desk_results(tmp_path_factory):
    """MDR trend scenario: 20-node random waypoint, 10 seeds per cell.

    The (25 MB, 24 Mbps) cell is shared between the two sweep axes.
    """
    tmp = tmp_path_factory.mktemp("desk")
    traces = {}

    def trace_for(seed):
        if seed not in traces:
            path = tmp / f"rwp{seed}.ns"
            path.write_text(
                generate_random_waypoint_trace(20, 500, 500, 15, 25, 90, seed=seed)
            )
            traces[seed] = path
        return traces[seed]

    def cell(buffer_bytes, rate):
        reports = []
        for seed in DESK_SEEDS:
            scenario = Scenario(
                trajectories=tuple(parse_ns2_trace(trace_for(seed).read_text())),
                duration_s=90.0,
                seeds=(seed,),
                protocol=ProtocolConfig(0.5, 0.05, buffer_bytes, 30.0, 4, 1400),
                link=LinkModel(rate, 40.0),
                traffic=TrafficParams(200, 60_000, 1460, 5.0, 40.0),
                queue_capacity=buffer_bytes,
                queue_residency_s=1.0,
            )
            reports.append(run_once(scenario, seed)[0])
        return reports

    started = time.monotonic()
    results = {}
    for buffer_bytes in DESK_BUFFERS:
        results[("buffer", buffer_bytes)] = cell(buffer_bytes, DESK_FIXED_RATE)
    for rate in DESK_RATES:
        if (rate == DESK_FIXED_RATE) and ("buffer", DESK_FIXED_BUFFER) in results:
            results[("rate", rate)] = results[("buffer", DESK_FIXED_BUFFER)]
        else:
            results[("rate", rate)] = cell(DESK_FIXED_BUFFER, rate)
    elapsed = time.monotonic() - started
    return results, elapsed


class TestCriterion09TrendReproduction:
    def test_mdr_non_decreasing_in_buffer_and_rate(self, desk_results):
        results, elapsed = desk_results
        buffer_means = []
        for buffer_bytes in DESK_BUFFERS:
            mean, ci = mean_ci95([r.mdr for r in results[("buffer", buffer_bytes)]])
            buffer_means.append(mean)
            print(f"  buffer {buffer_bytes/1e6:g} MB: MDR {mean:.3f} +- {ci:.3f}")
        rate_means = []
        for rate in DESK_RATES:
            mean, ci = mean_ci95([r.mdr for r in results[("rate", rate)]])
            rate_means.append(mean)
            print(f"  rate {rate/1e6:g} Mbps: MDR {mean:.3f} +- {ci:.3f}")
        assert buffer_means == sorted(buffer_means), f"buffer trend broken: {buffer_means}"
        assert rate_means == sorted(rate_means), f"rate trend broken: {rate_means}"
        assert elapsed < 600.0, f"desk scenario took {elapsed:.0f}s, budget 600s"
        report(9, f"MDR non-decreasing on both axes; ran in {elapsed:.0f}s")


class TestCriterion10OverheadEnvelopes:
    def test_byte_fractions_within_reference_envelopes(self, desk_results):
        results, _ = desk_results
        for key, reports in results.items():
            control = [r.control_byte_fraction for r in reports]
            header = [r.header_byte_fraction for r in reports]
            c_mean = sum(control) / len(control)
            h_mean = sum(header) / len(header)
            assert 0.001 <= c_mean <= 0.33, (
                f"cell {key}: control byte fraction {c_mean:.5f} outside [0.001, 0.33]; "
                f"per-seed {sorted(round(c, 5) for c in control)}"
            )
            assert 0.01 <= h_mean <= 0.10, (
                f"cell {key}: header byte fraction {h_mean:.5f} outside [0.01, 0.10]; "
                f"per-seed {sorted(round(h, 5) for h in header)}"
            )
        report(10, "control and header byte fractions inside envelopes on every cell")


class TestGoldenOutputs:
    """Outputs pinned to their recorded values: a faster path must not move them."""

    def test_desk_seed1_report(self, desk_results):
        results, _ = desk_results
        (r,) = [r for r in results[("buffer", DESK_FIXED_BUFFER)] if r.seed == 1]
        assert (r.data_packets_sent, r.control_packets_sent) == (172_452, 8_256)
        assert (r.generated, r.delivered, r.transfers) == (200, 164, 4_083)
        assert r.mdr == 164 / 200
        assert r.bytes_transmitted == 256_861_540

    def test_mini_runs_csv_sha256(self, tmp_path):
        assert cli_main(["run", "scenarios/mini.cfg", "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "runs.csv").read_bytes()).hexdigest()
        assert digest == "09025c828f3b2e4331e36c10a938a98b383363755cdcec7739545feef201d1e1"

    def test_mini_aggregate_csv_sha256(self, tmp_path):
        assert cli_main(["run", "scenarios/mini.cfg", "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "aggregate.csv").read_bytes()).hexdigest()
        assert digest == "5ac6efc6bd52f77c1e7f0f4ca3ff1abe14a7fdfd2632a67fa14930b5bacf8f9e"

    def test_control_heavy_run_dump_sha256(self, tmp_path):
        # Many one-packet messages in small long-lived buffers: summaries of
        # up to 62 ids in fragments of 12, expiry and eviction, 2% loss.
        path = tmp_path / "gossip.ns"
        path.write_text(generate_random_waypoint_trace(12, 150, 150, 1, 5, 30, seed="gossip"))
        scenario = Scenario(
            trajectories=tuple(parse_ns2_trace(path.read_text())),
            duration_s=30.0,
            seeds=(1,),
            protocol=ProtocolConfig(1.0, 0.1, 16_000, 15.0, 50, 100),
            link=LinkModel(6e6, 50.0, 0.02),
            traffic=TrafficParams(150, 256, 1460, 0.0, 20.0),
            queue_capacity=1_000_000,
            queue_residency_s=2.0,
        )
        rep, trace = run_once(scenario, 1, ReplayTrace())
        assert (rep.drops["msg_expired"], rep.drops["msg_evicted"]) == (401, 1469)
        assert rep.drops["pkt_loss"] == 208
        digest = hashlib.sha256(trace.dump().encode()).hexdigest()
        assert digest == "c152a56b5e57a553b275855e50a2b4256f31abedfe475139d599ee82e6e857d9"


class TestCriterion11Determinism:
    def test_sweep_is_byte_identical(self, tmp_path):
        args = [
            "sweep",
            "scenarios/mini.cfg",
            "--axis",
            "data_rate=6e6,12e6",
            "--seeds",
            "2",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(args + ["--out", str(out_a)]) == 0
        assert cli_main(args + ["--out", str(out_b)]) == 0
        for name in ("runs.csv", "aggregate.csv"):
            assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        report(11, "repeated sweep produced byte-identical CSVs")
