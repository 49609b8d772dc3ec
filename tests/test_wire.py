"""Wire header encode/decode: exact layouts, round-trips, malformed input."""

import random
import struct

import pytest
from hypothesis import given, strategies as st

from dtnsim.wire import (
    ACK_SIZE,
    DATA_HEADERS_SIZE,
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
    ack_packer,
    data_packer,
    decode_summary,
    encode_summary,
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
    """The one-call summary codec against a per-id `>Q` reference."""

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

    def test_round_trip_of_every_count_up_to_300(self):
        # More distinct counts than struct's cache of 100 compiled formats.
        rng = random.Random(300)
        for n in range(301):
            raws = [rng.getrandbits(64) for _ in range(n)]
            frag = n % 2
            data = encode_summary(frag, raws)
            assert data == self.reference(frag, raws)
            assert decode_summary(data) == (frag, tuple(raws))


def test_fixed_header_decode_tolerates_trailing_payload():
    hdr = DataPacketHeader(MessageId(77), 1, 3, 0)
    assert DataPacketHeader.decode(hdr.encode() + b"payload") == hdr


class TestDataPacketCodec:
    """The per-message data packer matches the two header classes byte for
    byte; the receiver is checked against their decoders in test_protocol."""

    @given(
        st.integers(0, (1 << 64) - 1),
        st.integers(0, 0xFFFFFFFF),
        st.integers(0, 0xFFFF),
        st.lists(st.binary(max_size=8), min_size=1, max_size=5),
    )
    def test_encode_matches_header_classes(self, raw, hops, last_hop, payloads):
        mid = MessageId(raw)
        total = len(payloads)
        expected = [
            EpidemicHeader(mid, hops).encode()
            + DataPacketHeader(mid, last_hop, total, index).encode()
            + payload
            for index, payload in enumerate(payloads)
        ]
        headers = data_packer(last_hop)(mid, hops, total)
        assert [header + payload for header, payload in zip(headers, payloads)] == expected
        assert [len(header) for header in headers] == [DATA_HEADERS_SIZE] * total

    def test_encode_validates_once_per_message(self):
        # The node id once per packer; the hop count and the total once per message.
        mid = MessageId(1)
        with pytest.raises(ValueError):
            data_packer(0x10000)
        pack = data_packer(1)
        with pytest.raises(ValueError):
            pack(mid, 1 << 32, 1)
        with pytest.raises(ValueError):
            pack(mid, 1, 0)


class TestControlCodecs:
    """The flat control codecs: the header classes' bytes, plain ints out."""

    @given(st.integers(0, (1 << 64) - 1), st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_ack_packet_matches_header_classes(self, raw, node, status):
        data = ack_packer(node, status)(MessageId(raw))
        assert data == (
            MessageTypeHeader(MsgType.ACK, node).encode()
            + AckHeader(MessageId(raw), node, status).encode()
        )
        assert len(data) == MESSAGE_TYPE_SIZE + ACK_SIZE == 15
        assert MessageTypeHeader.decode(data) == MessageTypeHeader(MsgType.ACK, node)
        assert AckHeader.decode(data[3:]) == AckHeader(MessageId(raw), node, status)

    def test_ack_packet_validates_its_fields(self):
        with pytest.raises(ValueError, match="node_id"):
            ack_packer(0x10000)(MessageId(1))
        with pytest.raises(ValueError, match="status"):
            ack_packer(1, 0x10000)(MessageId(1))

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

    @given(
        st.binary(max_size=5),
        st.integers(0, 1),
        st.lists(st.integers(0, (1 << 64) - 1), max_size=20),
    )
    def test_summary_at_offset_gives_plain_ints(self, prefix, frag, raws):
        data = prefix + encode_summary(frag, raws)
        frag_block, ids = decode_summary(data, len(prefix))
        assert (frag_block, list(ids)) == (frag, raws)
        assert all(type(mid) is int for mid in ids)

    def test_checks_count_from_the_offset(self):
        envelope = MessageTypeHeader(MsgType.ACK, 1).encode()
        with pytest.raises(TruncatedHeaderError, match="got 11"):
            AckHeader.decode(bytes(11))
        with pytest.raises(TruncatedHeaderError, match="got 3"):
            decode_summary(envelope + bytes(3), 3)
        with pytest.raises(HeaderFormatError):
            decode_summary(envelope + encode_summary(0, [1]) + bytes(1), 3)

    def test_encode_summary_validates_the_fragment(self):
        with pytest.raises(ValueError, match="frag_block"):
            encode_summary(2, [])
        with pytest.raises(ValueError, match="too many ids"):
            encode_summary(0, range(0x10000))
