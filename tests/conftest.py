"""Shared test helpers: fake transport and message factories."""

import random

from dtnsim.buffer import QueueEntry
from dtnsim.protocol import PORT_CONTROL, PORT_DATA, EpidemicNode, ProtocolConfig
from dtnsim.records import RunTrace
from dtnsim.wire import (
    DataPacketHeader,
    EpidemicHeader,
    MessageTypeHeader,
    MsgType,
    SummaryVectorHeader,
    make_message_id,
)


class FakeTransport:
    """Collects emissions and timer requests instead of simulating them."""

    def __init__(self):
        self.sent = []  # (dst, port, data, kind, msg_dst); dst None = broadcast
        self.timers = []  # (time_us, fn)
        self.now = 0

    def broadcast(self, port, data, kind):
        self.sent.append((None, port, data, kind, None))

    def unicast(self, dst, port, data, kind, msg_dst=None):
        self.sent.append((dst, port, data, kind, msg_dst))

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
    trace = RunTrace()
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
    """Deliver all data packets of a message into a node, in index order."""
    hop = entry.hop_budget if budget is None else budget
    epi = EpidemicHeader(entry.message_id, hop).encode()
    total = entry.packet_total
    for index, payload in enumerate(entry.packets):
        dph = DataPacketHeader(entry.message_id, sender_node, total, index).encode()
        node.handle_packet(
            sender_addr, PORT_DATA, epi + dph + payload, entry.destination, now
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
