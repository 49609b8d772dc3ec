"""Wire header encode/decode: exact layouts, round-trips, malformed input,
and the packets a node sends against the header classes."""

import random
import struct

import pytest
from hypothesis import given, strategies as st
from conftest import feed_message, feed_summary, make_node

from dtnsim.buffer import QueueEntry
from dtnsim.protocol import PORT_CONTROL, PORT_DATA, build_summary_fragments
from dtnsim.records import KIND_ACK, KIND_DATA
from dtnsim.wire import (
    ACK_SIZE,
    MESSAGE_TYPE_SIZE,
    AckHeader,
    DataPacketHeader,
    EpidemicHeader,
    HeaderFormatError,
    MessageId,
    MessageTypeHeader,
    MsgType,
    SummaryVectorHeader,
    TruncatedHeaderError,
    WireError,
    make_message_id,
)


class TestMessageId:
    def test_all_zero(self):
        assert make_message_id(0, 0).raw == 0

    def test_node_one_shifts_into_top_bits(self):
        assert make_message_id(1, 0).raw == 0x0001_0000_0000_0000

    def test_node5_one_second(self):
        # Independent shift-and-or oracle: 5 * 2**48 + 10**6.
        assert make_message_id(5, 1_000_000).raw == 1_407_374_884_553_280

    def test_decompose_round_trip(self):
        mid = make_message_id(1234, 987_654_321)
        assert (mid.source_node, mid.timestamp_us) == (1234, 987_654_321)

    @pytest.mark.parametrize(
        "node,ts",
        [(-1, 0), (1 << 16, 0), (0, -1), (0, 1 << 48)],
    )
    def test_out_of_range_rejected(self, node, ts):
        with pytest.raises(ValueError):
            make_message_id(node, ts)

    @given(st.integers(0, 0xFFFF), st.integers(0, (1 << 48) - 1))
    def test_compose_decompose_bijection(self, node, ts):
        mid = make_message_id(node, ts)
        assert mid.source_node == node
        assert mid.timestamp_us == ts
        assert mid.raw == (node << 48) | ts

    @pytest.mark.parametrize("raw", [-1, 1 << 64])
    def test_raw_out_of_range_rejected(self, raw):
        with pytest.raises(ValueError):
            MessageId(raw)

    def test_raw_range_ends_accepted(self):
        assert MessageId(0).raw == 0
        assert MessageId((1 << 64) - 1).raw == (1 << 64) - 1

    @given(st.integers(0, (1 << 64) - 1), st.integers(0, (1 << 64) - 1))
    def test_hash_equality_and_order_are_the_raw_u64s(self, a, b):
        ma, mb = MessageId(a), MessageId(b)
        assert isinstance(ma, int) and type(ma.raw) is int and ma.raw == a
        assert hash(ma) == hash(a)
        assert (ma == mb, ma < mb, ma <= mb) == (a == b, a < b, a <= b)
        assert sorted([mb, ma]) == [MessageId(r) for r in sorted([b, a])]

    def test_repr_names_node_and_timestamp(self):
        assert repr(make_message_id(5, 1_000_000)) == "MessageId(5@1000000)"
        assert str(MessageId(3)) == "MessageId(0@3)"


class TestExactEncodings:
    def test_beacon_header_bytes(self):
        hdr = MessageTypeHeader(MsgType.BEACON, 7)
        assert hdr.encode() == bytes([0x01, 0x00, 0x07])

    def test_empty_summary_vector(self):
        assert SummaryVectorHeader(0, ()).encode() == bytes(4)

    def test_zero_ack_with_status_one(self):
        data = AckHeader(MessageId(0), 0, 1).encode()
        assert len(data) == 12
        assert data == bytes(10) + bytes([0x00, 0x01])

    def test_fixed_lengths(self):
        assert len(MessageTypeHeader(MsgType.ACK, 9).encode()) == 3
        assert len(DataPacketHeader(MessageId(5), 1, 4, 2).encode()) == 18
        assert len(AckHeader(MessageId(5), 1, 0).encode()) == 12
        assert len(EpidemicHeader(MessageId(5), 3).encode()) == 12

    @pytest.mark.parametrize("n", [0, 1, 2, 17])
    def test_summary_vector_length_law(self, n):
        ids = tuple(MessageId(i) for i in range(n))
        assert len(SummaryVectorHeader(0, ids).encode()) == 4 + 8 * n

    def test_data_packet_field_order(self):
        mid = make_message_id(0xABCD, 0x0000_0001_0002)
        data = DataPacketHeader(mid, 0x1234, 7, 3).encode()
        assert data[:8] == mid.raw.to_bytes(8, "big")
        assert data[8:10] == bytes([0x12, 0x34])
        assert data[10:14] == (7).to_bytes(4, "big")
        assert data[14:18] == (3).to_bytes(4, "big")


class TestDecodeErrors:
    def test_short_message_type(self):
        with pytest.raises(TruncatedHeaderError):
            MessageTypeHeader.decode(b"\x01\x00")

    def test_unknown_msg_type_code(self):
        with pytest.raises(HeaderFormatError):
            MessageTypeHeader.decode(bytes([0x09, 0x00, 0x01]))

    def test_constructor_checks_message_type_and_node(self):
        with pytest.raises(ValueError, match="unknown message type"):
            MessageTypeHeader(9, 1)
        with pytest.raises(ValueError, match="node_id"):
            MessageTypeHeader(MsgType.ACK, 0x10000)

    @pytest.mark.parametrize(
        "cls, fields, message",
        [
            (DataPacketHeader, (-1, 1, 0), "last_hop out of 16-bit range"),
            (DataPacketHeader, (0x10000, 1, 0), "last_hop out of 16-bit range"),
            (DataPacketHeader, (1, 0, 0), "packet_total out of range"),
            (DataPacketHeader, (1, 1 << 32, 0), "packet_total out of range"),
            (DataPacketHeader, (1, 2, 2), "packet_index 2 not below total 2"),
            (DataPacketHeader, (1, 2, -1), "packet_index -1 not below total 2"),
            (EpidemicHeader, (-1,), "hop_count out of 32-bit range"),
            (EpidemicHeader, (1 << 32,), "hop_count out of 32-bit range"),
        ],
    )
    def test_constructor_checks_data_header_fields(self, cls, fields, message):
        with pytest.raises(ValueError, match=message):
            cls(MessageId(9), *fields)

    @pytest.mark.parametrize("msg_type", list(MsgType))
    def test_decoded_header_equals_constructed(self, msg_type):
        hdr = MessageTypeHeader.decode(bytes([msg_type, 0xFF, 0xFF]))
        assert hdr == MessageTypeHeader(msg_type, 0xFFFF)
        assert hdr.msg_type is msg_type
        assert hash(hdr) == hash(MessageTypeHeader(msg_type, 0xFFFF))
        with pytest.raises(AttributeError):
            hdr.node_id = 1  # frozen like a constructed header

    def test_ack_constructor_checks_its_status(self):
        with pytest.raises(ValueError, match="status out of 16-bit range"):
            AckHeader(MessageId(1), 1, 0x10000)

    def test_header_prints_its_fields_in_slot_order(self):
        assert repr(AckHeader(make_message_id(2, 5), 3)) == (
            "AckHeader(message_id=MessageId(2@5), node_id=3, status=1)"
        )

    def test_summary_vector_declared_length_mismatch(self):
        ids = (MessageId(1), MessageId(2))
        good = SummaryVectorHeader(0, ids).encode()
        truncated = good[:12]  # still declares 2 ids, carries 1
        with pytest.raises(HeaderFormatError):
            SummaryVectorHeader.decode(truncated)

    def test_summary_vector_below_head_size(self):
        with pytest.raises(TruncatedHeaderError):
            SummaryVectorHeader.decode(b"\x00\x00")

    def test_data_packet_index_not_below_total(self):
        raw = MessageId(9).raw.to_bytes(8, "big") + bytes([0, 1]) + (
            (2).to_bytes(4, "big") + (2).to_bytes(4, "big")
        )
        with pytest.raises(HeaderFormatError):
            DataPacketHeader.decode(raw)

    def test_data_packet_zero_total(self):
        raw = bytes(8) + bytes(2) + bytes(4) + bytes(4)
        with pytest.raises(HeaderFormatError):
            DataPacketHeader.decode(raw)

    def test_bad_frag_block(self):
        with pytest.raises(HeaderFormatError):
            SummaryVectorHeader.decode(bytes([0x00, 0x02, 0x00, 0x00]))


def mids(draw_ids):
    return tuple(MessageId(raw) for raw in draw_ids)


header_strategy = st.one_of(
    st.builds(
        MessageTypeHeader,
        st.sampled_from(list(MsgType)),
        st.integers(0, 0xFFFF),
    ),
    st.builds(
        lambda raw, hop, total, index: DataPacketHeader(
            MessageId(raw), hop, total, index % total
        ),
        st.integers(0, (1 << 64) - 1),
        st.integers(0, 0xFFFF),
        st.integers(1, 0xFFFFFFFF),
        st.integers(0, 0xFFFFFFFF),
    ),
    st.builds(
        lambda raw, node, status: AckHeader(MessageId(raw), node, status),
        st.integers(0, (1 << 64) - 1),
        st.integers(0, 0xFFFF),
        st.integers(0, 0xFFFF),
    ),
    st.builds(
        lambda raw, hops: EpidemicHeader(MessageId(raw), hops),
        st.integers(0, (1 << 64) - 1),
        st.integers(0, 0xFFFFFFFF),
    ),
    st.builds(
        lambda frag, raws: SummaryVectorHeader(frag, mids(raws)),
        st.integers(0, 1),
        st.lists(st.integers(0, (1 << 64) - 1), max_size=20),
    ),
)


@given(header_strategy)
def test_round_trip_identity(header):
    assert type(header).decode(header.encode()) == header


@given(st.binary(max_size=64))
def test_fuzz_decode_never_crashes(data):
    for cls in (
        MessageTypeHeader,
        DataPacketHeader,
        AckHeader,
        EpidemicHeader,
        SummaryVectorHeader,
    ):
        try:
            header = cls.decode(data)
        except WireError:
            continue
        # A successful decode re-encodes to a prefix of the input.
        assert header.encode() == data[: len(header.encode())]


class TestSummaryVectorCodec:
    """The SummaryVectorHeader codec against a per-id `>Q` reference."""

    @staticmethod
    def reference(frag, raws):
        return struct.pack(">HH", frag, len(raws)) + b"".join(
            struct.pack(">Q", raw) for raw in raws
        )

    @given(st.integers(0, 1), st.lists(st.integers(0, (1 << 64) - 1), max_size=40))
    def test_encode_matches_per_id_reference(self, frag, raws):
        assert SummaryVectorHeader(frag, mids(raws)).encode() == self.reference(frag, raws)

    @given(st.integers(0, 1), st.lists(st.integers(0, (1 << 64) - 1), max_size=40))
    def test_decode_returns_message_ids(self, frag, raws):
        decoded = SummaryVectorHeader.decode(self.reference(frag, raws))
        assert decoded.frag_block == frag
        assert all(type(mid) is MessageId for mid in decoded.ids)
        assert [mid.raw for mid in decoded.ids] == raws

    @pytest.mark.parametrize("extra", [-8, -1, 1, 8])
    def test_decode_rejects_length_mismatch(self, extra):
        data = self.reference(0, [1, 2, 3])
        bad = data[:extra] if extra < 0 else data + bytes(extra)
        with pytest.raises(HeaderFormatError):
            SummaryVectorHeader.decode(bad)


def test_fixed_header_decode_tolerates_trailing_payload():
    hdr = DataPacketHeader(MessageId(77), 1, 3, 0)
    assert DataPacketHeader.decode(hdr.encode() + b"payload") == hdr


def test_package_exports_no_header_class():
    # The header classes are the tests' reference codec, not the package's
    # API: they are imported from dtnsim.wire.
    import dtnsim

    headers = (AckHeader, DataPacketHeader, EpidemicHeader, MessageTypeHeader, SummaryVectorHeader)
    names = {cls.__name__ for cls in headers}
    assert not [name for name in names if hasattr(dtnsim, name)]


class TestNodeSends:
    """The bytes a node hands to its transport, which it packs with the
    layout Structs, against the header classes' own encoders; the
    receiver is checked against their decoders in test_protocol."""

    @given(
        st.integers(0, (1 << 64) - 1),
        st.integers(0, 0xFFFFFFFF),
        st.integers(0, 0xFFFF),
        st.lists(st.binary(max_size=8), min_size=1, max_size=5),
    )
    def test_data_packets_match_header_classes(self, raw, hops, node_id, payloads):
        # The node holds the message; its neighbor sends an empty summary,
        # a REPLY if its lower id leads and else the REPLY_BACK that
        # answers the node's, so the node sends the message whole to it.
        mid = MessageId(raw)
        now = mid.timestamp_us
        node, transport, _ = make_node(node_id=node_id)
        node.buffer.enqueue(QueueEntry(mid, 7, tuple(payloads), hops), now)
        peer = node_id - 1 if node_id else 1
        msg_type = MsgType.REPLY if peer < node_id else MsgType.REPLY_BACK
        feed_summary(node, msg_type, peer, peer, [(0, [])], now)
        total = len(payloads)
        expected = [
            EpidemicHeader(mid, hops).encode()
            + DataPacketHeader(mid, node_id, total, index).encode()
            + payload
            for index, payload in enumerate(payloads)
        ]
        assert transport.sent_of_kind(KIND_DATA) == [
            (peer, PORT_DATA, packet, KIND_DATA, 7) for packet in expected
        ]

    @given(st.integers(0, (1 << 64) - 1), st.integers(0, 0xFFFF))
    def test_ack_matches_header_classes(self, raw, node_id):
        mid = MessageId(raw)
        node, transport, _ = make_node(node_id=node_id)
        entry = QueueEntry(mid, 7, (b"payload",), 3)
        # The ACK goes to the node id in the data header, not to the radio source.
        peer = (node_id + 1) & 0xFFFF
        feed_message(node, entry, peer, 5, mid.timestamp_us)
        [(dst, port, data, kind, msg_dst)] = transport.sent
        assert (dst, port, kind, msg_dst) == (peer, PORT_CONTROL, KIND_ACK, None)
        assert data == (
            MessageTypeHeader(MsgType.ACK, node_id).encode() + AckHeader(mid, node_id).encode()
        )
        assert len(data) == MESSAGE_TYPE_SIZE + ACK_SIZE == 15

    def test_summary_fragments_of_every_count_up_to_300(self):
        # More distinct counts than struct's cache of 100 compiled formats.
        # 2n ids under a cap of n ids make two fragments of n, the first
        # with frag_block 1; a node fed them hands their ids to on_summary
        # as plain ints, in wire order.
        rng = random.Random(300)
        node, _, _ = make_node(node_id=9)
        seen = []
        node.on_summary = lambda code, sender, frag_block, ids, now: seen.append(
            (frag_block, ids)
        )
        envelope = MessageTypeHeader(MsgType.REPLY, 1).encode()
        for n in range(301):
            raws = [rng.getrandbits(64) for _ in range(2 * n)]
            halves = [(1, raws[:n]), (0, raws[n:])] if n else [(0, [])]
            fragments = build_summary_fragments(raws, 4 + 8 * max(n, 1))
            assert fragments == [
                SummaryVectorHeader(frag, mids(half)).encode() for frag, half in halves
            ]
            seen.clear()
            for fragment in fragments:
                node.handle_packet(1, PORT_CONTROL, envelope + fragment, None, 0)
            assert seen == [(frag, tuple(half)) for frag, half in halves]
            assert all(type(mid) is int for _, ids in seen for mid in ids)

    @pytest.mark.parametrize("node_id", [-1, 0x10000])
    def test_node_id_outside_u16_rejected(self, node_id):
        with pytest.raises(ValueError, match="node_id out of 16-bit range"):
            make_node(node_id=node_id)

    def test_fragment_of_more_than_u16_ids_rejected(self):
        # A cap of 74,999 ids: the one fragment of 70,000 overflows its length field.
        with pytest.raises(ValueError, match="too many ids"):
            build_summary_fragments(list(range(70_000)), 600_000)


class TestControlCodecs:
    """The control header classes' decoders."""

    @given(st.binary(max_size=6))
    def test_envelope_decodes_only_known_codes(self, data):
        if len(data) < 3:
            with pytest.raises(TruncatedHeaderError):
                MessageTypeHeader.decode(data)
        elif data[0] not in (1, 2, 3, 4):
            with pytest.raises(HeaderFormatError):
                MessageTypeHeader.decode(data)
        else:
            node_id = int.from_bytes(data[1:3], "big")
            assert MessageTypeHeader.decode(data) == MessageTypeHeader(MsgType(data[0]), node_id)

    def test_truncated_errors_count_the_bytes_given(self):
        with pytest.raises(TruncatedHeaderError, match="got 11"):
            AckHeader.decode(bytes(11))
        with pytest.raises(TruncatedHeaderError, match="got 3"):
            SummaryVectorHeader.decode(bytes(3))
