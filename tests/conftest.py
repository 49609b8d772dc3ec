"""Shared test helpers: fake transport, message factories, small
simulated worlds whose trace and transports record what happens, and
the two scripted worlds that both the integration and the acceptance
tests run. `runner.run_once` audits every run it makes; a world built
here is run by hand, so what finishes it calls `trace.audit(protocol)`.

A world is `runner.build_run` on a traffic-free `Scenario`
(`build_world`), so the tests run the runner's own wiring."""

import math
import random
import sys

import pytest
from hypothesis import settings

import dtnsim.runner
from dtnsim.buffer import QueueEntry
from dtnsim.metrics import compute
from dtnsim.mobility import parse_ns2_trace
from dtnsim.netsim import EVENT_TRAFFIC, LinkModel, NodeTransport
from dtnsim.protocol import PORT_CONTROL, PORT_DATA, EpidemicNode, ProtocolConfig
from dtnsim.records import ReplayTrace
from dtnsim.runner import build_run
from dtnsim.scenario import Scenario, TrafficParams
from dtnsim.traffic import MessageSpec, generate_message, message_payloads
from dtnsim.wire import (
    DATA_HEADERS_SIZE,
    DataPacketHeader,
    EpidemicHeader,
    MessageTypeHeader,
    MsgType,
    SummaryVectorHeader,
    make_message_id,
)

SEC = 1_000_000

# Every random-waypoint world comes from `workloads.random_waypoint_trace`,
# the benchmark's generator (bench/ is on the tests' import path). It is
# imported here, before any test module, so that nothing is written under
# bench/.
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import workloads  # noqa: E402, F401

sys.dont_write_bytecode = _write_bytecode

# The one budget rule of every test that CI searches deeply: a test states
# its tier-1 budget once, as `@tier1_or_deep(n)`, and gets n examples with
# no deadline in tier-1 and 10n under `--hypothesis-profile=deep`. That
# profile also makes 400 the budget of every test that states none.
settings.register_profile("deep", max_examples=400, deadline=None)


def tier1_or_deep(examples):
    """Hypothesis settings of `examples` examples in tier-1, and ten times
    as many when the "deep" profile is loaded."""
    deep = settings.get_profile("deep")
    return settings(deep, max_examples=10 * examples if settings.default is deep else examples)


class FakeTransport:
    """Collects emissions and timer requests instead of simulating them.

    A sent packet is recorded as its whole datagram, `data + payload`.
    """

    def __init__(self):
        self.sent = []  # (dst, port, datagram, kind, msg_dst); dst None = broadcast
        self.timers = []  # (time_us, fn)
        self.now = 0

    def hand_over(self, dst, port, headers, kind, msg_dst, payloads):
        for data, payload in zip(headers, payloads):
            self.sent.append((dst, port, data + payload, kind, msg_dst))

    def schedule(self, time_us, fn):
        self.timers.append((time_us, fn))

    def fire_next_timer(self):
        self.timers.sort(key=lambda t: t[0])
        time_us, fn = self.timers.pop(0)
        self.now = time_us
        fn()
        return time_us

    def sent_of_kind(self, kind):
        return [s for s in self.sent if s[3] == kind]


def make_node(node_id=0, config=None, seed="test", trace=None):
    transport = FakeTransport()
    trace = ReplayTrace() if trace is None else trace
    node = EpidemicNode(
        node_id=node_id,
        config=config or ProtocolConfig(),
        transport=transport,
        trace=trace,
        beacon_rng=random.Random(seed),
    )
    return node, transport, trace


def make_entry(source, gen_us, *, size=30, payload=10, destination=99, hop_budget=5):
    mid = make_message_id(source, gen_us)
    payloads = tuple(
        bytes([source % 256]) * min(payload, size - off)
        for off in range(0, size, payload)
    )
    return QueueEntry(mid, destination, payloads, hop_budget)


def feed_message(node, entry, sender_node, sender_addr, now, budget=None):
    """Deliver all data packets of a message into a node, in index order,
    each as its header block plus the entry's own payload object."""
    hop = entry.hop_budget if budget is None else budget
    epi = EpidemicHeader(entry.message_id, hop).encode()
    total = entry.packet_total
    for index, payload in enumerate(entry.packets):
        dph = DataPacketHeader(entry.message_id, sender_node, total, index).encode()
        node.handle_packet(
            sender_addr, PORT_DATA, epi + dph, entry.destination, now, payload
        )


def feed_datagram(node, sender_addr, datagram, msg_dst, now):
    """Hand a crafted contiguous data-channel datagram to a node, split as
    the radio carries it: the header block (the whole datagram if shorter)
    and the payload after it."""
    node.handle_packet(
        sender_addr,
        PORT_DATA,
        datagram[:DATA_HEADERS_SIZE],
        msg_dst,
        now,
        datagram[DATA_HEADERS_SIZE:],
    )


def feed_beacon(node, sender_node, sender_addr, now):
    data = MessageTypeHeader(MsgType.BEACON, sender_node).encode()
    node.handle_packet(sender_addr, PORT_CONTROL, data, None, now)


def feed_summary(node, msg_type, sender_node, sender_addr, fragments, now):
    """Push REPLY or REPLY_BACK fragments (list of (frag_block, ids))."""
    envelope = MessageTypeHeader(msg_type, sender_node).encode()
    for frag_block, ids in fragments:
        data = envelope + SummaryVectorHeader(frag_block, tuple(ids)).encode()
        node.handle_packet(sender_addr, PORT_CONTROL, data, None, now)


class RecordingTrace(ReplayTrace):
    """A ReplayTrace that also logs every packet outcome, in report order,
    as (kind, outcome, src, dst, now). The builder of its world sets
    `clock`, the simulator whose time it logs."""

    clock = None

    def __init__(self):
        super().__init__()
        self.events = []

    def observe(self, kind, outcome, size, src, dst):
        super().observe(kind, outcome, size, src, dst)
        self.events.append((kind, outcome, src, dst, self.clock.now))


class RecordingTransport(NodeTransport):
    """A NodeTransport that logs each packet its node hands to the radio,
    as (src, dst, kind, datagram, now), the datagram being data + payload;
    dst None = broadcast.

    The radio reports a handed packet as submitted before the call
    returns, so the k-th entry of a shared log is the packet of the k-th
    `submitted` event of the run's trace.
    """

    def __init__(self, network, node_id, log):
        super().__init__(network, node_id)
        self._log = log

    def hand_over(self, dst, port, headers, kind, msg_dst, payloads):
        for data, payload in zip(headers, payloads):
            self._log.append((self._node_id, dst, kind, data + payload, self.now))
        super().hand_over(dst, port, headers, kind, msg_dst, payloads)


def build_world(
    trace_text,
    config,
    link,
    seed=1,
    queue_capacity=None,
    residency_s=None,
    handed=None,
    trace=None,
):
    """`runner.build_run` on a Scenario with no generated traffic: the
    nodes of `trace_text` come back started, and the test originates its
    own messages and runs `sim` as long as it needs. The world fills
    `trace`, a RecordingTrace by default; given a `handed` list, every
    node's transport is a RecordingTransport logging into it."""
    # build_run reads no duration; 1 s only makes the Scenario valid.
    scenario = Scenario(
        tuple(parse_ns2_trace(trace_text)), 1.0, config, link, TrafficParams(),
        queue_capacity, residency_s,
    )
    trace = RecordingTrace() if trace is None else trace
    with pytest.MonkeyPatch.context() as patch:
        if handed is not None:
            patch.setattr(
                dtnsim.runner, "NodeTransport",
                lambda network, i: RecordingTransport(network, i, handed),
            )
        sim, net, nodes, trace = build_run(scenario, seed, trace)
    if isinstance(trace, RecordingTrace):
        trace.clock = sim
    return sim, net, nodes, trace


def originate_at(sim, node, entry):
    """Have `node` originate `entry` at its creation time, scheduled as a
    run schedules its generated traffic."""
    t = entry.message_id.timestamp_us
    sim.schedule(t, EVENT_TRAFFIC, lambda: node.originate(entry, t))


def static_trace(*positions):
    lines = []
    for i, (x, y) in enumerate(positions):
        lines.append(f"$node_({i}) set X_ {x}")
        lines.append(f"$node_({i}) set Y_ {y}")
    return "\n".join(lines)


# The two-node transfer: node 0 sends node 1, 50 m away, one message of
# 100 packets, beacons coming each second on the dot.
TRANSFER_RATE = 12e6
TRANSFER_PAYLOAD = 1000
TRANSFER_SIZE = 100_000


def two_node_world(config, **world):
    """`build_world` with `world`'s options on nodes 0 and 1, standing 50 m
    apart on a 12 Mbit/s radio of 100 m range."""
    return build_world(
        static_trace((0, 0), (50, 0)), config, LinkModel(TRANSFER_RATE, 100.0), **world
    )


def run_two_node_transfer(duration_s):
    """The trace of the two-node transfer, run for `duration_s`."""
    config = ProtocolConfig(beacon_interval=1.0, beacon_randomness=0.0)
    sim, net, nodes, trace = two_node_world(config)
    packets = message_payloads(TRANSFER_SIZE, TRANSFER_PAYLOAD)
    nodes[0].originate(generate_message(MessageSpec(0, 1, 0), packets, config.hop_limit), 0)
    sim.run(duration_s * SEC)
    net.finalize()
    trace.audit(config)
    return trace


def two_node_latency_s():
    """The two-node transfer's latency from link arithmetic, independent of
    the simulator: the first beacon comes after one interval, then REPLY
    (1 id), REPLY_BACK (empty) and the 100 data packets go back to back,
    each packet in a 28-byte IPv4/UDP datagram."""
    packets = math.ceil(TRANSFER_SIZE / TRANSFER_PAYLOAD)
    ip = 28
    bits = 8 * ((3 + ip) + (15 + ip) + (7 + ip) + packets * (30 + TRANSFER_PAYLOAD + ip))
    return 1.0 + bits / TRANSFER_RATE


# The store-and-haul relay: node 1 hauls from node 0 toward node 2 at
# 10 m/s, leaving node 0's range (100 m) long before entering node 2's.
RELAY_TRACE = static_trace((0.0, 0.0), (50.0, 0.0), (1000.0, 0.0)) + (
    '\n$ns_ at 20.0 "$node_(1) setdest 950.0 0.0 10.0"'
)


def run_relay(hop_limit):
    """The report of 150 s of the relay, node 0 sending node 2 one message."""
    config = ProtocolConfig(
        beacon_interval=1.0, beacon_randomness=0.1, hop_limit=hop_limit, message_ttl=300.0
    )
    sim, net, nodes, trace = build_world(RELAY_TRACE, config, LinkModel(12e6, 100.0))
    packets = message_payloads(10_000, 1000)
    nodes[0].originate(generate_message(MessageSpec(0, 2, 0), packets, hop_limit), 0)
    sim.run(150 * SEC)
    net.finalize()
    trace.audit(config)
    return compute(trace)


def relay_contact_seconds(a, b):
    """The whole seconds of the relay's first 150 at which nodes a and b
    are within 100 m of each other."""
    trajectories = parse_ns2_trace(RELAY_TRACE)
    return [
        t for t in range(150)
        if math.dist(trajectories[a].position_at(t), trajectories[b].position_at(t)) <= 100.0
    ]
