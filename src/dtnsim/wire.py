"""Wire formats for the DTN convergence layer.

All multi-byte fields are big-endian (network order). Five header layouts:

    MessageTypeHeader    3 bytes     msg_type:u8, node_id:u16
    DataPacketHeader    18 bytes     message_id:u64, last_hop:u16,
                                     packet_total:u32, packet_index:u32
    AckHeader           12 bytes     message_id:u64, node_id:u16, status:u16
    EpidemicHeader      12 bytes     message_id:u64, hop_count:u32
    SummaryVectorHeader  4+8n bytes  frag_block:u16, length:u16, ids:u64[n]

A message id packs a 16-bit source node id into the top bits and a 48-bit
microsecond generation timestamp into the low bits, so ids sort by source
then by age, and two messages from one node at distinct microseconds never
collide. A MessageId is that u64 as an int; a received id stays the plain
int it was unpacked as until the run's records wrap it.

Decoding a fixed-size header tolerates trailing bytes (the rest of the
packet); a summary vector must match its declared length exactly.

This module keeps the layouts, as Structs, and the message ids.
`EpidemicNode` packs and parses every packet itself with the layout
Structs: `_DATA_HEADERS` for a data packet's header block,
`_MESSAGE_TYPE` for a control envelope, `_ACK_PACKET` for a whole ACK,
and `_SUMMARY_HEAD` then `_summary_ids(n)` for a summary fragment. It
makes the receive checks itself, with plain ints out.

The five header classes are the independent reference for that code: no
other module of `src/` calls them, each encodes and decodes by its own
code, written from docs/wire-format.md, and the tests check the node's
bytes and receive checks against them. They are not exported from
`dtnsim`: import them from `dtnsim.wire`. A header object is a frozen,
hashable value that compares by its fields.
"""

from __future__ import annotations

import enum
import struct
from functools import cache, partial

from ._value import Frozen

NODE_ID_MAX = 0xFFFF
TIMESTAMP_MAX = (1 << 48) - 1
HOP_COUNT_MAX = 0xFFFFFFFF
STATUS_MAX = 0xFFFF

ACK_STATUS_SUCCESS = 1


class WireError(ValueError):
    """Base class for header encode/decode failures."""


class TruncatedHeaderError(WireError):
    """Input shorter than the header's fixed size."""


class HeaderFormatError(WireError):
    """Structurally invalid field values in an otherwise long-enough input."""


class MsgType(enum.IntEnum):
    """Control packet kinds carried in the MessageTypeHeader."""

    BEACON = 1
    REPLY = 2
    REPLY_BACK = 3
    ACK = 4


class MessageId(int):
    """64-bit message identity: (source_node << 48) | timestamp_us.

    An int whose value is the raw u64, so hashing, equality and ordering
    are the int's own.
    """

    __slots__ = ()

    def __new__(cls, raw: int) -> "MessageId":
        if not 0 <= raw <= 0xFFFFFFFFFFFFFFFF:
            raise ValueError(f"message id out of 64-bit range: {raw}")
        return int.__new__(cls, raw)

    @property
    def raw(self) -> int:
        return int(self)

    @property
    def source_node(self) -> int:
        return self >> 48

    @property
    def timestamp_us(self) -> int:
        return self & TIMESTAMP_MAX

    def __repr__(self) -> str:
        return f"MessageId({self.source_node}@{self.timestamp_us})"


# Message type by wire code.
_MSG_TYPES = {t.value: t for t in MsgType}

# A MessageId from a decoded u64, which is in range by construction.
_decoded_id = partial(int.__new__, MessageId)


def make_message_id(source_node: int, timestamp_us: int) -> MessageId:
    """Compose a MessageId from a node id and a microsecond timestamp."""
    if not 0 <= source_node <= NODE_ID_MAX:
        raise ValueError(f"source node out of 16-bit range: {source_node}")
    if not 0 <= timestamp_us <= TIMESTAMP_MAX:
        raise ValueError(f"timestamp out of 48-bit range: {timestamp_us}")
    return MessageId((source_node << 48) | timestamp_us)


_MESSAGE_TYPE = struct.Struct(">BH")
_DATA_PACKET = struct.Struct(">QHII")
_ACK = struct.Struct(">QHH")
_EPIDEMIC = struct.Struct(">QI")
_SUMMARY_HEAD = struct.Struct(">HH")
# One id of a SummaryVectorHeader; the receive path unpacks all at once.
_SUMMARY_ID = struct.Struct(">Q")
# EpidemicHeader then DataPacketHeader: the two headers of every data packet.
_DATA_HEADERS = struct.Struct(">QIQHII")
# MessageTypeHeader then AckHeader: a whole ACK packet.
_ACK_PACKET = struct.Struct(">BHQHH")
# Struct(">{n}Q") per id count: struct's own cache holds only 100 formats.
_summary_ids = cache(lambda n: struct.Struct(f">{n}Q"))

MESSAGE_TYPE_SIZE = _MESSAGE_TYPE.size  # 3
DATA_PACKET_SIZE = _DATA_PACKET.size  # 18
ACK_SIZE = _ACK.size  # 12
EPIDEMIC_SIZE = _EPIDEMIC.size  # 12
SUMMARY_HEAD_SIZE = _SUMMARY_HEAD.size  # 4

# The header block in front of every data packet payload.
DATA_HEADERS_SIZE = _DATA_HEADERS.size  # 30 = EPIDEMIC_SIZE + DATA_PACKET_SIZE


def _truncated(data: bytes, size: int, name: str) -> TruncatedHeaderError:
    """The error for `data` holding fewer than `size` bytes; each decoder
    tests the length inline and builds it only to raise."""
    return TruncatedHeaderError(f"{name} needs {size} bytes, got {len(data)}")


def _check_node(node_id: int, name: str) -> None:
    if not 0 <= node_id <= NODE_ID_MAX:
        raise ValueError(f"{name} out of 16-bit range: {node_id}")


class MessageTypeHeader(Frozen):
    """Control packet envelope: packet kind plus sender node id."""

    __slots__ = ("msg_type", "node_id")

    def __init__(self, msg_type: MsgType, node_id: int) -> None:
        if msg_type not in _MSG_TYPES:
            raise ValueError(f"unknown message type: {msg_type}")
        _check_node(node_id, "node_id")
        self._set(msg_type, node_id)

    def encode(self) -> bytes:
        return _MESSAGE_TYPE.pack(int(self.msg_type), self.node_id)

    @classmethod
    def decode(cls, data: bytes) -> "MessageTypeHeader":
        if len(data) < MESSAGE_TYPE_SIZE:
            raise _truncated(data, MESSAGE_TYPE_SIZE, "MessageTypeHeader")
        code, node_id = _MESSAGE_TYPE.unpack_from(data)
        if code not in _MSG_TYPES:
            raise HeaderFormatError(f"unknown msg_type code {code}")
        return cls(_MSG_TYPES[code], node_id)


class DataPacketHeader(Frozen):
    """Per-packet message membership: id, forwarder, and reassembly position."""

    __slots__ = ("message_id", "last_hop", "packet_total", "packet_index")

    def __init__(
        self, message_id: MessageId, last_hop: int, packet_total: int, packet_index: int
    ) -> None:
        _check_node(last_hop, "last_hop")
        if packet_total < 1 or packet_total > 0xFFFFFFFF:
            raise ValueError(f"packet_total out of range: {packet_total}")
        if not 0 <= packet_index < packet_total:
            raise ValueError(f"packet_index {packet_index} not below total {packet_total}")
        self._set(message_id, last_hop, packet_total, packet_index)

    def encode(self) -> bytes:
        return _DATA_PACKET.pack(
            self.message_id, self.last_hop, self.packet_total, self.packet_index
        )

    @classmethod
    def decode(cls, data: bytes) -> "DataPacketHeader":
        if len(data) < DATA_PACKET_SIZE:
            raise _truncated(data, DATA_PACKET_SIZE, "DataPacketHeader")
        raw, last_hop, total, index = _DATA_PACKET.unpack_from(data)
        if total < 1:
            raise HeaderFormatError("packet_total must be at least 1")
        if index >= total:
            raise HeaderFormatError(
                f"packet_index {index} not below total {total}"
            )
        return cls(_decoded_id(raw), last_hop, total, index)


class AckHeader(Frozen):
    """Hop-by-hop acknowledgement of one completely received message."""

    __slots__ = ("message_id", "node_id", "status")

    def __init__(
        self, message_id: MessageId, node_id: int, status: int = ACK_STATUS_SUCCESS
    ) -> None:
        _check_node(node_id, "node_id")
        if not 0 <= status <= STATUS_MAX:
            raise ValueError(f"status out of 16-bit range: {status}")
        self._set(message_id, node_id, status)

    def encode(self) -> bytes:
        return _ACK.pack(self.message_id, self.node_id, self.status)

    @classmethod
    def decode(cls, data: bytes) -> "AckHeader":
        if len(data) < ACK_SIZE:
            raise _truncated(data, ACK_SIZE, "AckHeader")
        raw, node_id, status = _ACK.unpack_from(data)
        return cls(_decoded_id(raw), node_id, status)


class EpidemicHeader(Frozen):
    """Routing header on every data packet: message id and remaining hops."""

    __slots__ = ("message_id", "hop_count")

    def __init__(self, message_id: MessageId, hop_count: int) -> None:
        if not 0 <= hop_count <= HOP_COUNT_MAX:
            raise ValueError(f"hop_count out of 32-bit range: {hop_count}")
        self._set(message_id, hop_count)

    def encode(self) -> bytes:
        return _EPIDEMIC.pack(self.message_id, self.hop_count)

    @classmethod
    def decode(cls, data: bytes) -> "EpidemicHeader":
        if len(data) < EPIDEMIC_SIZE:
            raise _truncated(data, EPIDEMIC_SIZE, "EpidemicHeader")
        raw, hops = _EPIDEMIC.unpack_from(data)
        return cls(_decoded_id(raw), hops)


class SummaryVectorHeader(Frozen):
    """One fragment of a buffer summary: ordered message ids.

    frag_block is 1 when more fragments follow, 0 on the last fragment.
    """

    __slots__ = ("frag_block", "ids")

    def __init__(self, frag_block: int, ids: tuple[MessageId, ...]) -> None:
        if frag_block not in (0, 1):
            raise ValueError(f"frag_block must be 0 or 1: {frag_block}")
        if len(ids) > 0xFFFF:
            raise ValueError(f"too many ids for one fragment: {len(ids)}")
        self._set(frag_block, ids)

    @property
    def length(self) -> int:
        return len(self.ids)

    def encode(self) -> bytes:
        head = _SUMMARY_HEAD.pack(self.frag_block, len(self.ids))
        return head + b"".join(map(_SUMMARY_ID.pack, self.ids))

    @classmethod
    def decode(cls, data: bytes) -> "SummaryVectorHeader":
        if len(data) < SUMMARY_HEAD_SIZE:
            raise _truncated(data, SUMMARY_HEAD_SIZE, "SummaryVectorHeader")
        frag_block, length = _SUMMARY_HEAD.unpack_from(data)
        if frag_block not in (0, 1):
            raise HeaderFormatError(f"frag_block must be 0 or 1: {frag_block}")
        if len(data) != SUMMARY_HEAD_SIZE + 8 * length:
            raise HeaderFormatError(f"summary vector declares {length} ids, got {len(data)} bytes")
        raws = _SUMMARY_ID.iter_unpack(data[SUMMARY_HEAD_SIZE:])
        return cls(frag_block, tuple(_decoded_id(raw) for (raw,) in raws))

