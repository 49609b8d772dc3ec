"""Epidemic node state machine: beaconing, exchange, transfer, liveness."""

import struct

import pytest
from hypothesis import example, given, settings, strategies as st
from conftest import (
    feed_beacon,
    feed_datagram,
    feed_message,
    feed_summary,
    make_entry,
    make_node,
    tier1_or_deep,
)

from dtnsim.netsim import MAX_DATAGRAM_PAYLOAD
from dtnsim.protocol import (
    MAX_CONTROL_PAYLOAD,
    PORT_CONTROL,
    ProtocolConfig,
    build_summary_fragments,
)
from dtnsim.records import (
    KIND_ACK,
    KIND_BEACON,
    KIND_CONTROL,
    KIND_DATA,
    KIND_REPLY,
    KIND_REPLY_BACK,
    MSG_ARRIVAL_EXPIRED,
    MSG_DUPLICATE,
    MSG_EVICTED,
    MSG_EXPIRED,
    MSG_HOP_EXHAUSTED,
    MSG_PARTIAL_DISCONNECT,
    MSG_PARTIAL_RESET,
    MSG_TOO_LARGE,
    PKT_MALFORMED,
    MessageDropped,
    ReplayTrace,
)
from dtnsim.wire import (
    DATA_HEADERS_SIZE,
    AckHeader,
    DataPacketHeader,
    EpidemicHeader,
    MESSAGE_TYPE_SIZE,
    MessageTypeHeader,
    MsgType,
    SummaryVectorHeader,
    WireError,
    make_message_id,
)

SEC = 1_000_000


def decoded_data_packets(transport):
    out = []
    for dst, port, data, kind, msg_dst in transport.sent:
        if kind != KIND_DATA:
            continue
        epi = EpidemicHeader.decode(data)
        dph = DataPacketHeader.decode(data[12:])
        out.append((dst, epi, dph, data[30:], msg_dst))
    return out


def contact_state(node):
    """Every field of every neighbor record, reception state included."""
    return {
        nid: (nb.last_heard, list(nb.summary_accum), list(nb.pending), nb.in_flight,
              nb.rx_id, nb.rx_total, nb.rx_hop_count, nb.rx_dst, dict(nb.rx_parts))
        for nid, nb in node.neighbors.items()
    }


# Both headers of a data packet from small totals and indexes; the two ids
# are mostly equal, so that most blocks reach checks 4-6.
PACKED_HEADERS = st.builds(
    lambda mid, other, same, hops, last_hop, total, index: struct.pack(
        ">QIQHII", mid, hops, mid if same else other, last_hop, total, index
    ),
    st.integers(0, (1 << 64) - 1),
    st.integers(0, (1 << 64) - 1),
    st.sampled_from([True, True, True, False]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 2),
)
# Data header blocks of 0-40 bytes: arbitrary bytes, packed headers, or
# packed headers cut short.
HEADER_BLOCKS = st.one_of(
    st.binary(max_size=40),
    PACKED_HEADERS,
    PACKED_HEADERS,
    st.builds(lambda block, size: block[:size], PACKED_HEADERS, st.integers(0, 29)),
)


def _enveloped(codes, bodies):
    """Control packets of an envelope with a code from `codes` and a node
    id from 0 to 3, then a body, the whole then mostly left as it is, else
    extended by a few bytes or cut short."""
    return st.builds(
        lambda code, node_id, body, tail, cut: (
            struct.pack(">BH", code, node_id) + body + tail
        )[:cut],
        st.sampled_from(codes),
        st.integers(0, 3),
        bodies,
        st.sampled_from([b"", b"", b"", b"\x00", bytes(8)]),
        st.one_of(st.none(), st.none(), st.integers(0, 30)),
    )


ACK_BODIES = st.builds(
    lambda mid, node_id, status: struct.pack(">QHH", mid, node_id, status),
    st.integers(0, (1 << 64) - 1),
    st.integers(0, 3),
    st.integers(0, 2),
)
# Summary fragments whose declared length is mostly their id count.
SUMMARY_BODIES = st.builds(
    lambda frag_block, ids, declared: struct.pack(
        f">HH{len(ids)}Q", frag_block, len(ids) if declared is None else declared, *ids
    ),
    st.integers(0, 2),
    st.lists(st.integers(0, (1 << 64) - 1), max_size=2),
    st.one_of(st.none(), st.none(), st.integers(0, 3)),
)
# Control packets: short envelopes, any code from 0 to 5 with arbitrary
# bytes, ACKs, and summaries.
CONTROL_PACKETS = st.one_of(
    st.binary(max_size=3),
    _enveloped(range(6), st.binary(max_size=20)),
    _enveloped([MsgType.ACK], ACK_BODIES),
    _enveloped([MsgType.REPLY, MsgType.REPLY_BACK], SUMMARY_BODIES),
)


class TestBeaconTimer:
    def test_zero_jitter_beacons_at_exact_intervals(self):
        config = ProtocolConfig(beacon_interval=1.0, beacon_randomness=0.0)
        node, transport, _ = make_node(config=config)
        node.start(0)
        times = [transport.fire_next_timer() for _ in range(3)]
        assert times == [1 * SEC, 2 * SEC, 3 * SEC]
        assert len(transport.sent_of_kind(KIND_BEACON)) == 3

    def test_jitter_bounds(self):
        config = ProtocolConfig(beacon_interval=1.0, beacon_randomness=0.1)
        node, transport, _ = make_node(config=config)
        node.start(0)
        times = [transport.fire_next_timer() for _ in range(50)]
        gaps = [b - a for a, b in zip([0] + times, times)]
        assert all(1.0 * SEC <= g <= 1.1 * SEC for g in gaps)

    def test_jitter_decorrelates_nodes(self):
        # Same base seed string except the node id: beacon phases diverge.
        config = ProtocolConfig(beacon_interval=1.0, beacon_randomness=0.1)
        times = {}
        for node_id in (0, 1):
            node, transport, _ = make_node(node_id=node_id, config=config, seed=f"s:{node_id}")
            node.start(0)
            times[node_id] = [transport.fire_next_timer() for _ in range(100)]
        assert times[0] != times[1]

    def test_beacon_is_broadcast_message_type(self):
        node, transport, _ = make_node(node_id=7, config=ProtocolConfig(beacon_randomness=0))
        node.start(0)
        transport.fire_next_timer()
        dst, port, data, kind, _ = transport.sent[0]
        assert dst is None and port == PORT_CONTROL and kind == KIND_BEACON
        assert MessageTypeHeader.decode(data) == MessageTypeHeader(MsgType.BEACON, 7)


class TestOnBeacon:
    def test_lower_address_sends_reply(self):
        node, transport, _ = make_node(node_id=0)
        node.buffer.enqueue(make_entry(0, 100), 100)
        feed_beacon(node, sender_node=1, sender_addr=1, now=200)
        replies = transport.sent_of_kind(KIND_REPLY)
        assert len(replies) == 1
        dst, port, data, _, _ = replies[0]
        assert dst == 1 and port == PORT_CONTROL
        assert MessageTypeHeader.decode(data).msg_type is MsgType.REPLY
        svh = SummaryVectorHeader.decode(data[3:])
        assert svh.ids == (make_message_id(0, 100),)
        assert svh.frag_block == 0

    def test_higher_address_waits(self):
        node, transport, _ = make_node(node_id=5)
        feed_beacon(node, sender_node=1, sender_addr=1, now=200)
        assert transport.sent == []
        assert 1 in node.neighbors

    def test_live_neighbor_beacon_ignored_and_not_refreshed(self):
        node, transport, _ = make_node(node_id=0)
        feed_beacon(node, 1, 1, now=0)
        first_sent = len(transport.sent)
        feed_beacon(node, 1, 1, now=SEC // 2)  # half an interval later
        assert len(transport.sent) == first_sent  # no new exchange
        assert node.neighbors[1].last_heard == 0  # timestamp unchanged

    def test_stale_neighbor_beacon_restarts_exchange(self):
        node, transport, _ = make_node(node_id=0)
        feed_beacon(node, 1, 1, now=0)
        feed_beacon(node, 1, 1, now=2 * SEC)  # exactly two intervals: stale
        assert len(transport.sent_of_kind(KIND_REPLY)) == 2
        assert node.neighbors[1].last_heard == 2 * SEC

    def test_identification_by_node_id_not_address(self):
        node, _, _ = make_node(node_id=0)
        feed_beacon(node, sender_node=3, sender_addr=17, now=0)
        feed_beacon(node, sender_node=3, sender_addr=42, now=100)  # second radio
        assert list(node.neighbors) == [3]
        assert node.neighbors[3].last_heard == 0  # still live, not restarted

    @given(st.lists(st.integers(0, 0xFFFF), min_size=2, max_size=2, unique=True))
    @example([0, 0xFFFF])
    @example([0xFFFF, 0])
    @tier1_or_deep(100)
    def test_exactly_one_side_of_a_contact_leads(self, node_ids):
        # Each node holds a message, so an exchange it joins would send.
        sides = [make_node(node_id=i) for i in node_ids]
        for node, _, _ in sides:
            node.buffer.enqueue(make_entry(node.node_id, 100), 100)
        (a, _, _), (b, _, _) = sides
        feed_beacon(a, b.node_id, b.node_id, now=200)
        feed_beacon(b, a.node_id, a.node_id, now=200)
        replies = [t.sent_of_kind(KIND_REPLY) for _, t, _ in sides]
        assert sorted(map(len, replies)) == [0, 1], node_ids
        (leader, leader_transport, _), (follower, follower_transport, _) = (
            sides if replies[0] else sides[::-1]
        )
        [(dst, port, reply, _, _)] = leader_transport.sent
        assert (dst, port) == (follower.node_id, PORT_CONTROL)

        follower.handle_packet(leader.node_id, PORT_CONTROL, reply, None, 200)
        reply_backs = follower_transport.sent_of_kind(KIND_REPLY_BACK)
        assert [dst for dst, *_ in reply_backs] == [leader.node_id], node_ids

        # A REPLY from the follower is ignored: nothing sent, nothing loaded.
        before = contact_state(leader)
        feed_summary(leader, MsgType.REPLY, follower.node_id, follower.node_id, [(0, [])], 200)
        assert leader_transport.sent == [(follower.node_id, PORT_CONTROL, reply, KIND_REPLY, None)]
        assert contact_state(leader) == before


def decoded_fragments(ids, max_control_payload):
    return [
        SummaryVectorHeader.decode(data)
        for data in build_summary_fragments(ids, max_control_payload)
    ]


class TestSummaryFragments:
    def test_three_ids_two_per_fragment(self):
        ids = [make_message_id(1, t) for t in (1, 2, 3)]
        encoded = build_summary_fragments(ids, max_control_payload=20)
        assert all(len(data) <= 20 for data in encoded)
        frags = decoded_fragments(ids, max_control_payload=20)
        assert [f.length for f in frags] == [2, 1]
        assert [f.frag_block for f in frags] == [1, 0]
        assert [m for f in frags for m in f.ids] == ids

    def test_empty_summary_single_empty_fragment(self):
        frags = decoded_fragments([], max_control_payload=20)
        assert len(frags) == 1
        assert frags[0].length == 0 and frags[0].frag_block == 0

    def test_all_fit_one_fragment(self):
        ids = [make_message_id(1, t) for t in range(5)]
        frags = decoded_fragments(ids, max_control_payload=1400)
        assert len(frags) == 1 and frags[0].frag_block == 0
        assert frags[0].ids == tuple(ids)


class TestExchange:
    def _higher_node_with_abc(self):
        node, transport, trace = make_node(node_id=9)
        entries = {
            name: make_entry(9, t, destination=50)
            for name, t in (("a", 10), ("b", 20), ("c", 30))
        }
        for e in entries.values():
            node.buffer.enqueue(e, 100)
        return node, transport, trace, entries

    def test_reply_triggers_reply_back_and_transfers(self):
        node, transport, _, entries = self._higher_node_with_abc()
        remote = [entries["b"].message_id]
        feed_summary(node, MsgType.REPLY, 1, 1, [(0, remote)], now=200)
        backs = transport.sent_of_kind(KIND_REPLY_BACK)
        assert len(backs) == 1
        svh = SummaryVectorHeader.decode(backs[0][2][3:])
        assert set(svh.ids) == {e.message_id for e in entries.values()}
        # Pipeline holds the disjoint set in generation order; A is in flight.
        nb = node.neighbors[1]
        assert nb.in_flight == entries["a"].message_id
        assert list(nb.pending) == [entries["c"].message_id]
        sent = decoded_data_packets(transport)
        assert {p[1].message_id for p in sent} == {entries["a"].message_id}

    def test_remote_superset_sends_no_data(self):
        node, transport, _, entries = self._higher_node_with_abc()
        remote = [e.message_id for e in entries.values()] + [make_message_id(2, 5)]
        feed_summary(node, MsgType.REPLY, 1, 1, [(0, remote)], now=200)
        assert len(transport.sent_of_kind(KIND_REPLY_BACK)) == 1
        assert transport.sent_of_kind(KIND_DATA) == []

    def test_fragmented_reply_equals_unfragmented(self):
        results = []
        for fragments in (
            [(0, ["a", "b"])],
            [(1, ["a"]), (0, ["b"])],
        ):
            node, transport, _, entries = self._higher_node_with_abc()
            id_map = {
                "a": entries["a"].message_id,
                "b": entries["b"].message_id,
            }
            frags = [(blk, [id_map[n] for n in names]) for blk, names in fragments]
            feed_summary(node, MsgType.REPLY, 1, 1, frags, now=200)
            results.append(
                (
                    [p[2].message_id for p in decoded_data_packets(transport)],
                    list(node.neighbors[1].pending),
                    node.neighbors[1].in_flight,
                )
            )
        assert results[0] == results[1]

    def test_reply_back_starts_transfer_without_new_summary(self):
        node, transport, _ = make_node(node_id=0)
        e = make_entry(0, 10, destination=50)
        node.buffer.enqueue(e, 100)
        feed_summary(node, MsgType.REPLY_BACK, 9, 9, [(0, [])], now=200)
        assert transport.sent_of_kind(KIND_REPLY) == []
        assert transport.sent_of_kind(KIND_REPLY_BACK) == []
        assert [p[1].message_id for p in decoded_data_packets(transport)] == [
            e.message_id
        ] * e.packet_total

    def test_reply_back_with_known_ids_sends_nothing(self):
        node, transport, _ = make_node(node_id=0)
        e = make_entry(0, 10)
        node.buffer.enqueue(e, 100)
        feed_summary(node, MsgType.REPLY_BACK, 9, 9, [(0, [e.message_id])], now=200)
        assert transport.sent_of_kind(KIND_DATA) == []

    def test_summary_follows_every_buffer_change(self):
        # Node 5 sends REPLY to a higher node on its beacon and REPLY_BACK
        # to a lower one on its REPLY. Each summary goes to a new neighbor
        # after one change to the buffer and must list the buffer as it is
        # then. Two ids per fragment, so a summary spans fragments.
        config = ProtocolConfig(message_ttl=1.0, buffer_capacity=90, max_control_payload=20)
        node, transport, trace = make_node(node_id=5, config=config)

        def summary_ids(kind, sender, now):
            start = len(transport.sent)
            if kind == KIND_REPLY:
                feed_beacon(node, sender, sender, now)
            else:
                feed_summary(node, MsgType.REPLY, sender, sender, [(0, [])], now)
            frags = [
                SummaryVectorHeader.decode(data[MESSAGE_TYPE_SIZE:])
                for dst, _, data, k, _ in transport.sent[start:]
                if k == kind and dst == sender
            ]
            assert [f.frag_block for f in frags] == [1] * (len(frags) - 1) + [0]
            return [m for f in frags for m in f.ids]

        a, b, c = (make_entry(5, t * SEC // 10) for t in (0, 1, 2))
        for x in (a, b, c):
            node.buffer.enqueue(x, 2 * SEC // 10)
        assert summary_ids(KIND_REPLY, 9, SEC // 2) == [a.message_id, b.message_id, c.message_id]
        # Expiry: a is past its ttl at the send.
        assert summary_ids(KIND_REPLY_BACK, 1, SEC + 1) == [b.message_id, c.message_id]
        # Eviction: storing d (50 bytes) purges b, the oldest.
        d = make_entry(5, SEC + 2, size=50)
        node.buffer.enqueue(d, SEC + 2)
        assert [x.cause for x in trace.message_drops] == [MSG_EXPIRED, MSG_EVICTED]
        assert summary_ids(KIND_REPLY, 8, SEC + 3) == [c.message_id, d.message_id]
        # Enqueue alone.
        e = make_entry(5, SEC + 4, size=10)
        node.buffer.enqueue(e, SEC + 4)
        assert summary_ids(KIND_REPLY_BACK, 2, SEC + 5) == [
            c.message_id, d.message_id, e.message_id
        ]

    def test_reply_to_lower_node_ignored(self):
        # REPLY is sent by the leading (lower) side; the lower side ignores one.
        node, transport, _ = make_node(node_id=0)
        node.buffer.enqueue(make_entry(0, 10), 100)
        feed_summary(node, MsgType.REPLY, 9, 9, [(0, [])], now=200)
        assert transport.sent_of_kind(KIND_REPLY_BACK) == []
        assert transport.sent_of_kind(KIND_DATA) == []


class TestSendMessage:
    def test_packets_carry_headers_and_stored_budget(self):
        node, transport, _ = make_node(node_id=4)
        e = make_entry(4, 10, size=25, payload=10, destination=8, hop_budget=3)
        node.buffer.enqueue(e, 100)
        feed_summary(node, MsgType.REPLY, 1, 1, [(0, [])], now=200)
        sent = decoded_data_packets(transport)
        assert len(sent) == 3
        for index, (dst, epi, dph, payload, msg_dst) in enumerate(sent):
            assert dst == 1 and msg_dst == 8
            assert epi.hop_count == 3  # decrement happens at the receiver
            assert dph.last_hop == 4
            assert dph.packet_total == 3 and dph.packet_index == index
        assert [len(p[3]) for p in sent] == [10, 10, 5]

    def test_evicted_id_skipped(self):
        node, transport, _ = make_node(node_id=4)
        kept = make_entry(4, 20, destination=8)
        node.buffer.enqueue(kept, 100)
        feed_summary(node, MsgType.REPLY, 1, 1, [(0, [kept.message_id])], now=200)
        # The disjoint set is empty, so nothing is in flight or pending.
        assert transport.sent_of_kind(KIND_DATA) == []
        assert node.neighbors[1].in_flight is None


class TestOnDataPacket:
    def test_complete_message_acked_and_enqueued(self):
        node, transport, trace = make_node(node_id=2)
        e = make_entry(1, 10, size=30, payload=10, destination=50)
        feed_message(node, e, sender_node=1, sender_addr=1, now=1000)
        acks = transport.sent_of_kind(KIND_ACK)
        assert len(acks) == 1
        ack = AckHeader.decode(acks[0][2][3:])
        assert ack.message_id == e.message_id and ack.node_id == 2 and ack.status == 1
        assert e.message_id in node.buffer
        assert node.buffer.get(e.message_id).hop_budget == e.hop_budget - 1
        assert len(trace.transfers) == 1

    def test_interleaved_message_resets_partial(self):
        # y is one packet: x's partial is dropped first, then y is stored
        # and acknowledged on arrival, and no reception state is left.
        order = []

        class OrderTrace(ReplayTrace):
            def message_dropped(self, now, node, mid, cause):
                super().message_dropped(now, node, mid, cause)
                order.append((cause, mid))

            def transfer_completed(self, now, mid, from_node, to_node):
                super().transfer_completed(now, mid, from_node, to_node)
                order.append(("stored", mid))

        node, transport, _ = make_node(node_id=2, trace=OrderTrace())
        x = make_entry(1, 10, size=30, payload=10)
        y = make_entry(1, 20, size=10, payload=10)
        epi = EpidemicHeader(x.message_id, x.hop_budget).encode()
        dph = DataPacketHeader(x.message_id, 1, 3, 0).encode()
        feed_datagram(node, 1, epi + dph + x.packets[0], x.destination, 1000)
        feed_message(node, y, 1, 1, now=1100)
        assert order == [(MSG_PARTIAL_RESET, x.message_id), ("stored", y.message_id)]
        assert x.message_id not in node.buffer
        assert y.message_id in node.buffer
        acks = transport.sent_of_kind(KIND_ACK)
        assert [AckHeader.decode(a[2][3:]).message_id for a in acks] == [y.message_id]
        assert node.neighbors[1].rx_id is None

    def test_completed_message_leaves_no_partial(self):
        # Neither the next message nor the end of the contact drops a
        # message whose reception completed.
        node, _, trace = make_node(node_id=2)
        x = make_entry(1, 10, destination=50)
        y = make_entry(1, 20, destination=50)
        feed_message(node, x, 1, 1, now=1000)
        feed_message(node, y, 1, 1, now=1100)
        node.check_connections(3 * SEC)
        assert node.neighbors == {}
        assert x.message_id in node.buffer and y.message_id in node.buffer
        assert trace.message_drops == []

    def test_new_message_does_not_inherit_the_partial_packets(self):
        # Packets 0 and 1 of x arrive, then packets 0 and 2 of y from the
        # same neighbor: y is still a packet short, so it is neither stored
        # nor acknowledged.
        node, transport, _ = make_node(node_id=2)
        x = make_entry(1, 10, size=30, payload=10)
        y = make_entry(1, 20, size=30, payload=10)
        for e, indexes, now in ((x, (0, 1), 1000), (y, (0, 2), 1100)):
            epi = EpidemicHeader(e.message_id, e.hop_budget).encode()
            for i in indexes:
                dph = DataPacketHeader(e.message_id, 1, 3, i).encode()
                feed_datagram(node, 1, epi + dph + e.packets[i], e.destination, now)
        assert list(node.neighbors[1].rx_parts) == [0, 2]
        assert y.message_id not in node.buffer
        assert transport.sent_of_kind(KIND_ACK) == []

    def test_hop_budget_one_at_relay_not_forwarded(self):
        node, transport, trace = make_node(node_id=2)
        e = make_entry(1, 10, destination=50, hop_budget=1)
        feed_message(node, e, 1, 1, now=1000)
        assert e.message_id not in node.buffer
        assert len(transport.sent_of_kind(KIND_ACK)) == 1  # ACK still sent
        assert [d.cause for d in trace.message_drops] == [MSG_HOP_EXHAUSTED]
        assert trace.deliveries == []

    def test_hop_budget_one_at_destination_delivered(self):
        node, transport, trace = make_node(node_id=2)
        e = make_entry(1, 10, destination=2, hop_budget=1)
        feed_message(node, e, 1, 1, now=1000)
        assert len(trace.deliveries) == 1
        assert trace.deliveries[0].hops == node.config.hop_limit  # budget exhausted
        assert e.message_id not in node.buffer  # no further spread

    def test_delivered_message_still_enqueued(self):
        node, _, trace = make_node(node_id=2)
        e = make_entry(1, 10, destination=2, hop_budget=4)
        feed_message(node, e, 1, 1, now=1000)
        assert len(trace.deliveries) == 1
        assert e.message_id in node.buffer

    def test_delivery_recorded_once(self):
        node, _, trace = make_node(node_id=2)
        e = make_entry(1, 10, destination=2, hop_budget=4)
        feed_message(node, e, 1, 1, now=1000)
        # Same message again from another neighbor after local eviction.
        node.buffer._remove(e.message_id)
        feed_message(node, e, 3, 3, now=2000)
        assert len(trace.deliveries) == 1
        assert len(trace.transfers) == 2

    def test_expired_on_arrival_discarded(self):
        config = ProtocolConfig(message_ttl=1.0)
        node, transport, trace = make_node(node_id=2, config=config)
        e = make_entry(1, 10, destination=2)
        feed_message(node, e, 1, 1, now=2 * SEC)
        assert trace.deliveries == []
        assert e.message_id not in node.buffer
        assert [d.cause for d in trace.message_drops] == [MSG_ARRIVAL_EXPIRED]
        assert len(transport.sent_of_kind(KIND_ACK)) == 1

    MALFORMED_DATA = ["truncated", "zero_total", "bad_index", "ids_differ", "no_msg_dst",
                      "total_differs", "one_packet_of_the_partial"]
    CHECK_6 = ("total_differs", "one_packet_of_the_partial")

    @staticmethod
    def _malformed_data(node, case):
        """A data packet from node 1 that fails the receive check `case`, as
        (datagram, msg_dst, payload). For the check-6 cases, packet 0 of
        the message is fed first, at 900 µs."""
        e = make_entry(1, 10)  # 3 packets of 10 bytes
        raw, payload = e.message_id.raw, e.packets[1]
        epi = EpidemicHeader(e.message_id, e.hop_budget).encode()
        good = epi + DataPacketHeader(e.message_id, 1, 3, 1).encode() + payload
        msg_dst = e.destination
        if case == "truncated":
            data = good[:29]
        elif case == "zero_total":
            data = epi + struct.pack(">QHII", raw, 1, 0, 0) + payload
        elif case == "bad_index":
            data = epi + struct.pack(">QHII", raw, 1, 3, 3) + payload
        elif case == "ids_differ":
            other = EpidemicHeader(make_message_id(1, 11), e.hop_budget).encode()
            data = other + good[12:]
        elif case == "no_msg_dst":
            data, msg_dst = good, None
        else:
            # Packet 0 starts reassembly with total 3; then packet 1 claims
            # 4, or a packet claims to be the whole message.
            first = epi + DataPacketHeader(e.message_id, 1, 3, 0).encode() + e.packets[0]
            feed_datagram(node, 1, first, msg_dst, 900)
            total, index = (4, 1) if case == "total_differs" else (1, 0)
            data = epi + DataPacketHeader(e.message_id, 1, total, index).encode() + payload
        return data, msg_dst, payload

    @pytest.mark.parametrize("case", MALFORMED_DATA)
    def test_mismatched_header_ids_dropped_as_malformed(self, case):
        # Each receive check of docs/wire-format.md: the packet is counted
        # once as data/malformed, with len(data) when the headers do not
        # decode and len(payload) otherwise, and nothing is adopted.
        node, transport, trace = make_node(node_id=2)
        data, msg_dst, payload = self._malformed_data(node, case)
        feed_datagram(node, 1, data, msg_dst, 1000)
        undecodable = case in ("truncated", "zero_total", "bad_index")
        assert trace.count(KIND_DATA, PKT_MALFORMED) == 1
        assert trace.bytes_of(KIND_DATA, PKT_MALFORMED) == (
            len(data) if undecodable else len(payload)
        )
        assert trace.pair_counts[(1, 2, KIND_DATA, PKT_MALFORMED)] == 1
        assert len(node.buffer) == 0 and transport.sent == []
        if case in self.CHECK_6:
            nb = node.neighbors[1]
            assert nb.rx_total == 3 and list(nb.rx_parts) == [0]
        else:
            # Nothing adopted.
            assert all(nb.rx_id is None for nb in node.neighbors.values())

    @pytest.mark.parametrize("case", MALFORMED_DATA)
    @pytest.mark.parametrize("known", [False, True], ids=["new", "known"])
    def test_only_a_packet_failing_check_6_is_heard(self, case, known):
        # docs/wire-format.md: a packet failing check 6 still counts as
        # hearing from the neighbor; one failing checks 1-5 neither makes
        # a NeighborRecord nor refreshes one.
        node, _, _ = make_node(node_id=2)
        if known:
            feed_beacon(node, 1, 1, now=0)
        data, msg_dst, _ = self._malformed_data(node, case)
        feed_datagram(node, 1, data, msg_dst, 1000)
        if case in self.CHECK_6:
            assert node.neighbors[1].last_heard == 1000
        elif known:
            assert node.neighbors[1].last_heard == 0
        else:
            assert node.neighbors == {}

    @settings(max_examples=400)
    @given(
        HEADER_BLOCKS,
        st.binary(max_size=4),
        st.sampled_from([None, 50, 50, 50]),
        st.none() | st.integers(2, 3),
    )
    def test_receiver_agrees_with_header_classes(self, block, payload, msg_dst, partial_total):
        # The receive checks of docs/wire-format.md, with the two header
        # classes' decoders as the reference for checks 1-3. Given
        # `partial_total`, the neighbor of the packet's last_hop first sends
        # packet 0 of the same message, with that total.
        node, transport, trace = make_node(node_id=2)
        datagram = block + payload
        try:
            epi = EpidemicHeader.decode(datagram)
            dph = DataPacketHeader.decode(datagram[12:])
        except WireError:
            dph = None
        partial = dph is not None and partial_total is not None
        if partial:
            first = EpidemicHeader(dph.message_id, 1).encode() + DataPacketHeader(
                dph.message_id, dph.last_hop, partial_total, 0).encode()
            feed_datagram(node, 1, first, 50, 900)
        before = contact_state(node)
        feed_datagram(node, 1, datagram, msg_dst, 1000)
        after = contact_state(node)
        malformed = (trace.count(KIND_DATA, PKT_MALFORMED), trace.bytes_of(KIND_DATA, PKT_MALFORMED))
        if dph is None:  # checks 1-3: the whole datagram, and nothing heard
            assert malformed == (1, len(datagram))
            assert after == before and transport.sent == []
            return
        rest = datagram[DATA_HEADERS_SIZE:]
        if epi.message_id != dph.message_id or msg_dst is None:  # checks 4 and 5
            assert malformed == (1, len(rest))
            assert after == before and transport.sent == []
            return
        nb = node.neighbors[dph.last_hop]
        assert nb.last_heard == 1000
        if partial and partial_total != dph.packet_total:  # check 6
            assert malformed == (1, len(rest))
            assert after[dph.last_hop][5:] == before[dph.last_hop][5:]
            assert transport.sent == []
            return
        assert malformed == (0, 0)
        parts = {dph.packet_index} | ({0} if partial else set())
        if len(parts) == dph.packet_total:
            assert nb.rx_id is None
            assert [t.message_id for t in trace.transfers] == [dph.message_id]
            assert len(transport.sent_of_kind(KIND_ACK)) == 1
        else:
            assert (nb.rx_id, nb.rx_total) == (dph.message_id, dph.packet_total)
            assert set(nb.rx_parts) == parts and nb.rx_parts[dph.packet_index] == rest
            assert transport.sent == []

    def test_data_packet_refreshes_liveness(self):
        node, _, _ = make_node(node_id=2)
        feed_beacon(node, 1, 1, now=0)
        e = make_entry(1, 10, size=10, payload=10)
        feed_message(node, e, 1, 1, now=5000)
        assert node.neighbors[1].last_heard == 5000


class TestOnAck:
    def _node_with_pipeline(self):
        node, transport, _ = make_node(node_id=9)
        a = make_entry(9, 10, destination=50)
        b = make_entry(9, 20, destination=50)
        node.buffer.enqueue(a, 100)
        node.buffer.enqueue(b, 100)
        feed_summary(node, MsgType.REPLY, 1, 1, [(0, [])], now=200)
        return node, transport, a, b

    def test_ack_advances_to_next_message(self):
        node, transport, a, b = self._node_with_pipeline()
        assert node.neighbors[1].in_flight == a.message_id
        ack = MessageTypeHeader(MsgType.ACK, 1).encode() + AckHeader(a.message_id, 1).encode()
        node.handle_packet(1, PORT_CONTROL, ack, None, 300)
        assert node.neighbors[1].in_flight == b.message_id
        sent = {p[1].message_id for p in decoded_data_packets(transport)}
        assert sent == {a.message_id, b.message_id}

    def test_stale_ack_ignored(self):
        node, transport, a, b = self._node_with_pipeline()
        stray = MessageTypeHeader(MsgType.ACK, 1).encode() + AckHeader(
            make_message_id(3, 3), 1
        ).encode()
        before = len(transport.sent)
        node.handle_packet(1, PORT_CONTROL, stray, None, 300)
        assert node.neighbors[1].in_flight == a.message_id
        assert len(transport.sent) == before

    def test_final_ack_empties_pipeline(self):
        node, transport, a, b = self._node_with_pipeline()
        for mid in (a.message_id, b.message_id):
            ack = MessageTypeHeader(MsgType.ACK, 1).encode() + AckHeader(mid, 1).encode()
            node.handle_packet(1, PORT_CONTROL, ack, None, 300)
        assert node.neighbors[1].in_flight is None
        assert not node.neighbors[1].pending


def _control_packet(case):
    """One malformed control packet per row of the receive checks in
    docs/wire-format.md, sent as node 1."""
    reply = MessageTypeHeader(MsgType.REPLY, 1).encode()
    ack = MessageTypeHeader(MsgType.ACK, 1).encode()
    two_ids = SummaryVectorHeader(0, (make_message_id(1, 1), make_message_id(1, 2))).encode()
    return {
        "empty": b"",
        "envelope_short": bytes([MsgType.BEACON, 0x00]),
        "msg_type_0": bytes([0, 0x00, 0x01]),
        "msg_type_5": bytes([5, 0x00, 0x01]),
        "ack_short": ack + AckHeader(make_message_id(9, 10), 1).encode()[:11],
        "frag_block_2": reply + bytes([0x00, 0x02, 0x00, 0x00]),
        "summary_head_short": reply + bytes([0x00, 0x00]),
        "summary_short": reply + two_ids[:-8],
        "summary_long": reply + two_ids + bytes(8),
    }[case]


class TestControlReceiveChecks:
    def _node_mid_exchange(self):
        # Node 9 holds two messages: node 1's summary has put one in
        # flight and queued the other, and node 2 is mid-summary and has
        # sent packet 0 of a 3-packet message.
        node, transport, trace = make_node(node_id=9)
        for gen in (10, 20):
            node.buffer.enqueue(make_entry(9, gen, destination=50), 100)
        feed_summary(node, MsgType.REPLY, 1, 1, [(0, [])], now=200)
        feed_summary(node, MsgType.REPLY, 2, 2, [(1, [make_message_id(2, 5)])], now=200)
        partial = make_entry(2, 7)
        epi = EpidemicHeader(partial.message_id, partial.hop_budget).encode()
        first = epi + DataPacketHeader(partial.message_id, 2, 3, 0).encode() + partial.packets[0]
        feed_datagram(node, 2, first, partial.destination, 200)
        assert list(node.neighbors[2].rx_parts) == [0]
        return node, transport, trace

    @pytest.mark.parametrize(
        "case",
        [
            "empty",
            "envelope_short",
            "msg_type_0",
            "msg_type_5",
            "ack_short",
            "frag_block_2",
            "summary_head_short",
            "summary_short",
            "summary_long",
        ],
    )
    def test_malformed_control_packet_counted_and_ignored(self, case):
        # Each receive check of docs/wire-format.md: the packet is counted
        # once as control/malformed with len(data) bytes, and no neighbor
        # record, summary or pipeline changes.
        node, transport, trace = self._node_mid_exchange()
        before, sent = contact_state(node), list(transport.sent)
        data = _control_packet(case)
        node.handle_packet(1, PORT_CONTROL, data, None, 500)
        assert trace.count(KIND_CONTROL, PKT_MALFORMED) == 1
        assert trace.bytes_of(KIND_CONTROL, PKT_MALFORMED) == len(data)
        assert trace.pair_counts[(1, 9, KIND_CONTROL, PKT_MALFORMED)] == 1
        assert contact_state(node) == before
        assert transport.sent == sent

    @pytest.mark.parametrize("handler", ["on_ack", "on_summary"])
    def test_a_struct_error_raised_by_a_handler_propagates(self, handler):
        # Only the unpacks of checks 1, 3 and 4 are inside the malformed
        # exit's `try`: an error raised while handling a well-formed packet
        # is a fault of the node, not of the packet, and is not counted.
        node, _, trace = make_node(node_id=9)

        def broken(*args):
            raise struct.error(f"raised by {handler}")

        setattr(node, handler, broken)
        data = {
            "on_ack": MessageTypeHeader(MsgType.ACK, 1).encode()
            + AckHeader(make_message_id(9, 10), 1).encode(),
            "on_summary": MessageTypeHeader(MsgType.REPLY, 1).encode()
            + SummaryVectorHeader(0, (make_message_id(1, 1),)).encode(),
        }[handler]
        with pytest.raises(struct.error, match=f"raised by {handler}"):
            node.handle_packet(1, PORT_CONTROL, data, None, 500)
        assert trace.count(KIND_CONTROL, PKT_MALFORMED) == 0

    @given(CONTROL_PACKETS)
    @example(_control_packet("ack_short"))
    @example(MessageTypeHeader(MsgType.ACK, 1).encode()
             + AckHeader(make_message_id(9, 10), 1).encode() + bytes(3))
    @tier1_or_deep(400)
    def test_receiver_agrees_with_control_header_classes(self, data):
        # The receive checks of docs/wire-format.md, with the control
        # header classes' decoders as the reference: a packet they decode
        # is handled and makes a record of the node it names, and one they
        # reject is counted as malformed with len(data) bytes and changes
        # nothing. Bytes after an ACK's AckHeader are not read.
        node, transport, trace = self._node_mid_exchange()
        before, sent = contact_state(node), list(transport.sent)
        try:
            envelope = MessageTypeHeader.decode(data)
            named = envelope.node_id
            if envelope.msg_type == MsgType.ACK:
                named = AckHeader.decode(data[MESSAGE_TYPE_SIZE:]).node_id
            elif envelope.msg_type != MsgType.BEACON:
                SummaryVectorHeader.decode(data[MESSAGE_TYPE_SIZE:])
        except WireError:
            named = None
        node.handle_packet(1, PORT_CONTROL, data, None, 500)
        malformed = (trace.count(KIND_CONTROL, PKT_MALFORMED),
                     trace.bytes_of(KIND_CONTROL, PKT_MALFORMED))
        if named is None:
            assert malformed == (1, len(data))
            assert contact_state(node) == before and transport.sent == sent
        else:
            assert malformed == (0, 0)
            assert named in node.neighbors


class TestConnectionCheck:
    def test_silent_past_two_intervals_removed(self):
        node, _, _ = make_node(node_id=0)
        feed_beacon(node, 1, 1, now=0)
        node.check_connections(int(2.01 * SEC))
        assert node.neighbors == {}

    def test_recent_data_packet_retains_neighbor(self):
        node, _, _ = make_node(node_id=0)
        feed_beacon(node, 1, 1, now=0)
        e = make_entry(1, 10, size=10, payload=10)
        feed_message(node, e, 1, 1, now=SEC)
        node.check_connections(2 * SEC)  # beacon aged out, data did not
        assert 1 in node.neighbors

    def test_disconnect_drops_partial_and_pipeline(self):
        node, transport, trace = make_node(node_id=0)
        e = make_entry(1, 10, size=30, payload=10)
        epi = EpidemicHeader(e.message_id, 5).encode()
        dph = DataPacketHeader(e.message_id, 1, 3, 0).encode()
        feed_datagram(node, 1, epi + dph + e.packets[0], 99, 0)
        node.neighbors[1].pending.append(make_message_id(0, 5))
        node.check_connections(3 * SEC)
        assert node.neighbors == {}
        assert [d.cause for d in trace.message_drops] == [MSG_PARTIAL_DISCONNECT]
        # A partial never reaches the buffer, so no summary can carry it.
        assert node.buffer.summary() == []

    def test_beacon_on_stale_contact_restarts_it(self):
        node, transport, trace = make_node(node_id=0)
        a = make_entry(0, 10, destination=50)
        node.buffer.enqueue(a, 0)
        feed_beacon(node, 1, 1, now=0)
        feed_summary(node, MsgType.REPLY_BACK, 1, 1, [(0, [])], now=0)
        assert node.neighbors[1].in_flight == a.message_id
        e = make_entry(1, 10, size=30, payload=10)
        epi = EpidemicHeader(e.message_id, 5).encode()
        dph = DataPacketHeader(e.message_id, 1, 3, 0).encode()
        feed_datagram(node, 1, epi + dph + e.packets[0], 99, 0)
        feed_beacon(node, 1, 1, now=2 * SEC)
        assert [d.cause for d in trace.message_drops] == [MSG_PARTIAL_DISCONNECT]
        assert len(transport.sent_of_kind(KIND_REPLY)) == 2
        # The old transfer ended with the contact: its ACK sends nothing more.
        data_sent = len(transport.sent_of_kind(KIND_DATA))
        ack = MessageTypeHeader(MsgType.ACK, 1).encode() + AckHeader(a.message_id, 1).encode()
        node.handle_packet(1, PORT_CONTROL, ack, None, 2 * SEC)
        assert len(transport.sent_of_kind(KIND_DATA)) == data_sent


class TestBufferDropsReachTheTrace:
    """Each drop the buffer decides is recorded with the node id and time."""

    def test_expired_at_a_beacon_tick(self):
        config = ProtocolConfig(message_ttl=0.5, beacon_randomness=0)
        node, transport, trace = make_node(node_id=2, config=config)
        e = make_entry(2, 0, destination=7)
        node.originate(e, 0)
        node.start(0)
        assert transport.fire_next_timer() == SEC
        assert e.message_id not in node.buffer
        assert trace.message_drops == [MessageDropped(SEC, 2, e.message_id, MSG_EXPIRED)]

    def test_evicted_when_a_relayed_message_fills_the_buffer(self):
        node, _, trace = make_node(node_id=2, config=ProtocolConfig(buffer_capacity=40))
        old = make_entry(2, 0, size=30, destination=7)
        node.originate(old, 0)
        relayed = make_entry(1, 10, size=30, destination=50)
        feed_message(node, relayed, sender_node=1, sender_addr=1, now=1000)
        assert relayed.message_id in node.buffer and old.message_id not in node.buffer
        assert trace.message_drops == [MessageDropped(1000, 2, old.message_id, MSG_EVICTED)]

    def test_duplicate_on_a_second_reception(self):
        node, transport, trace = make_node(node_id=2)
        e = make_entry(1, 10, destination=50)
        feed_message(node, e, sender_node=1, sender_addr=1, now=1000)
        feed_message(node, e, sender_node=3, sender_addr=3, now=2000)
        assert trace.message_drops == [MessageDropped(2000, 2, e.message_id, MSG_DUPLICATE)]
        assert len(transport.sent_of_kind(KIND_ACK)) == 2  # both receptions acked

    def test_too_large_from_wrap_raw_packet(self):
        node, _, trace = make_node(node_id=3, config=ProtocolConfig(buffer_capacity=4))
        mid = node.wrap_raw_packet(b"hello", destination=7, now=500)
        assert mid not in node.buffer
        assert trace.message_drops == [MessageDropped(500, 3, mid, MSG_TOO_LARGE)]


class TestWrapRawPacket:
    def test_id_from_source_and_time(self):
        node, _, _ = make_node(node_id=3)
        mid = node.wrap_raw_packet(b"hello", destination=7, now=10 * SEC)
        assert mid == make_message_id(3, 10 * SEC)
        entry = node.buffer.get(mid)
        assert entry.packet_total == 1
        assert entry.packets == (b"hello",)
        assert entry.hop_budget == node.config.hop_limit

    def test_distinct_microseconds_distinct_ids(self):
        node, _, _ = make_node(node_id=3)
        m1 = node.wrap_raw_packet(b"a", 7, now=100)
        m2 = node.wrap_raw_packet(b"b", 7, now=101)
        assert m1 != m2
        assert len(node.buffer) == 2

    def test_matches_explicit_single_packet_entry(self):
        from dtnsim.buffer import QueueEntry

        node, _, _ = make_node(node_id=3)
        mid = node.wrap_raw_packet(b"payload", destination=7, now=500)
        wrapped = node.buffer.get(mid)
        explicit = QueueEntry(
            make_message_id(3, 500), 7, (b"payload",), node.config.hop_limit
        )
        assert (
            wrapped.message_id,
            wrapped.destination,
            wrapped.packets,
            wrapped.hop_budget,
            wrapped.byte_size,
        ) == (
            explicit.message_id,
            explicit.destination,
            explicit.packets,
            explicit.hop_budget,
            explicit.byte_size,
        )


class TestConfigValidation:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            ProtocolConfig(beacon_interval=0)
        with pytest.raises(ValueError):
            ProtocolConfig(message_ttl=-1)
        with pytest.raises(ValueError):
            ProtocolConfig(hop_limit=0)
        with pytest.raises(ValueError):
            ProtocolConfig(max_control_payload=11)

    def test_largest_control_payload_fills_one_datagram(self):
        config = ProtocolConfig(max_control_payload=MAX_CONTROL_PAYLOAD)
        assert MAX_CONTROL_PAYLOAD + MESSAGE_TYPE_SIZE == MAX_DATAGRAM_PAYLOAD == 65_507
        # More ids than one fragment's u16 count could hold: every
        # fragment encodes, and with its envelope fits one datagram.
        ids = [make_message_id(1, t) for t in range(70_000)]
        encoded = build_summary_fragments(ids, config.max_control_payload)
        for data in encoded:
            assert MESSAGE_TYPE_SIZE + len(data) <= MAX_DATAGRAM_PAYLOAD
        frags = decoded_fragments(ids, config.max_control_payload)
        assert [m for f in frags for m in f.ids] == ids
        assert max(f.length for f in frags) == 8_187

    @pytest.mark.parametrize("cap", [MAX_CONTROL_PAYLOAD + 1, 10**6])
    def test_control_payload_beyond_one_datagram_rejected(self, cap):
        with pytest.raises(ValueError, match="max_control_payload"):
            ProtocolConfig(max_control_payload=cap)

    def test_zero_randomness_allowed(self):
        assert ProtocolConfig(beacon_randomness=0.0).beacon_randomness_us == 0
