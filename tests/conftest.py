"""Shared test helpers: fake transport, message factories, and small
simulated worlds whose trace and transports record what happens.

A world is `runner.build_run` on a traffic-free `Scenario`
(`build_world`), so the tests run the runner's own wiring."""

import random

import pytest
from hypothesis import settings

import dtnsim.runner
from dtnsim.buffer import QueueEntry
from dtnsim.mobility import parse_ns2_trace
from dtnsim.netsim import EVENT_TRAFFIC, NodeTransport
from dtnsim.protocol import PORT_CONTROL, PORT_DATA, EpidemicNode, ProtocolConfig
from dtnsim.records import ReplayTrace
from dtnsim.runner import build_run
from dtnsim.scenario import Scenario, TrafficParams
from dtnsim.wire import (
    DATA_HEADERS_SIZE,
    DataPacketHeader,
    EpidemicHeader,
    MessageTypeHeader,
    MsgType,
    SummaryVectorHeader,
    make_message_id,
)


# Example budgets of the whole-run twins (tests/test_slow_twin.py). Tier-1
# runs them under "twins" and leaves every other test's settings alone.
# `--hypothesis-profile=deep` runs ten times as many, and makes 400 the
# default of every test it selects: run it on the twin file alone.
settings.register_profile("twins", max_examples=40, deadline=None)
settings.register_profile("deep", max_examples=400, deadline=None)


class FakeTransport:
    """Collects emissions and timer requests instead of simulating them.

    A sent packet is recorded as its whole datagram, `data + payload`.
    """

    def __init__(self):
        self.sent = []  # (dst, port, datagram, kind, msg_dst); dst None = broadcast
        self.timers = []  # (time_us, fn)
        self.now = 0

    def broadcast(self, port, data, kind):
        self.sent.append((None, port, data, kind, None))

    def unicast(self, dst, port, data, kind, msg_dst=None, payload=b""):
        self.sent.append((dst, port, data + payload, kind, msg_dst))

    def unicast_message(self, dst, port, headers, kind, msg_dst, payloads):
        for data, payload in zip(headers, payloads):
            self.unicast(dst, port, data, kind, msg_dst, payload)

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


def make_node(node_id=0, address=None, config=None, seed="test"):
    transport = FakeTransport()
    trace = ReplayTrace()
    node = EpidemicNode(
        node_id=node_id,
        address=node_id if address is None else address,
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

    def broadcast(self, port, data, kind):
        self._log.append((self._node_id, None, kind, data, self.now))
        super().broadcast(port, data, kind)

    def unicast(self, dst, port, data, kind, msg_dst=None, payload=b""):
        self._log.append((self._node_id, dst, kind, data + payload, self.now))
        super().unicast(dst, port, data, kind, msg_dst, payload)

    def unicast_message(self, dst, port, headers, kind, msg_dst, payloads):
        for data, payload in zip(headers, payloads):
            self._log.append((self._node_id, dst, kind, data + payload, self.now))
        super().unicast_message(dst, port, headers, kind, msg_dst, payloads)


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
