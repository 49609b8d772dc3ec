"""Epidemic routing state machine for one node.

Discovery: periodic jittered beacons. A neighbor is live while anything
was heard from it within two beacon intervals; beacons themselves refresh
a record only once it has gone stale, which is what restarts the summary
exchange on an otherwise idle contact and prevents re-exchanges on a busy
one.

Contacts: a node keeps one NeighborRecord per live neighbor, and that
record holds all of the contact's state: the summary being reassembled,
the messages queued toward the neighbor and the one in flight, and the
multi-packet message being received from it. The record is made by the
first packet heard from the neighbor; removing it (liveness timeout, or a
beacon on a stale record) ends the contact, and a partly received message
goes with it.

Anti-entropy: on a new contact the side with the lower node id sends its
buffer summary (REPLY, fragmented); the higher side answers with its own
summary (REPLY_BACK) and both sides then send the messages the peer
lacks, one complete message per neighbor at a time, gated by hop-by-hop
ACKs. Receivers reassemble one message per neighbor at a time, its id
the plain int they unpack; a message whose one packet arrives completes
at once, without reception state. A complete message has its hop budget
decremented, is dropped when expired or out of hops, and is otherwise
stored (and counted as delivered at its destination).

Control and data packets travel on distinct logical channels, standing in
for the two UDP ports of an IP convergence layer. A node's one identity is
its node id, which is its radio index: a node sends to a neighbor's id.
Every packet goes to the radio through one hand-over, `Transport.hand_over`:
a beacon as one broadcast packet (no destination), an ACK as one packet, a
summary as all its fragments in one call, and a message as its data
packets in one call, each as its header block plus a reference to the
stored payload bytes, which the receiver stores as they are: every copy of
a message shares the originator's payload objects.
"""

from __future__ import annotations

import random
import struct
from collections import deque
from typing import Protocol, Sequence

from ._value import Frozen
from .buffer import MessageBuffer, QueueEntry
from .netsim import MAX_DATAGRAM_PAYLOAD, to_us
from .records import (
    KIND_ACK,
    KIND_BEACON,
    KIND_CONTROL,
    KIND_DATA,
    KIND_REPLY,
    KIND_REPLY_BACK,
    MSG_ARRIVAL_EXPIRED,
    MSG_HOP_EXHAUSTED,
    MSG_PARTIAL_DISCONNECT,
    MSG_PARTIAL_RESET,
    PKT_MALFORMED,
    RunTrace,
)
from .wire import (
    ACK_STATUS_SUCCESS,
    DATA_HEADERS_SIZE,
    HOP_COUNT_MAX,
    MESSAGE_TYPE_SIZE,
    SUMMARY_HEAD_SIZE,
    TIMESTAMP_MAX,
    _ACK_PACKET,
    _DATA_HEADERS,
    _MESSAGE_TYPE,
    _SUMMARY_HEAD,
    MessageId,
    MsgType,
    _check_node,
    _summary_ids,
    make_message_id,
)

PORT_CONTROL = 1
PORT_DATA = 2

# Control packet kinds as the int codes handle_packet dispatches on.
_BEACON = MsgType.BEACON.value
_REPLY = MsgType.REPLY.value
_REPLY_BACK = MsgType.REPLY_BACK.value
_ACK = MsgType.ACK.value

# The payload of a one-packet control hand-over; control packets carry
# none, so k of them hand over _NO_PAYLOAD * k.
_NO_PAYLOAD = (b"",)

# Largest summary fragment: with its 3-byte envelope it fills one
# IPv4/UDP datagram, so it holds at most 8,187 ids.
MAX_CONTROL_PAYLOAD = MAX_DATAGRAM_PAYLOAD - MESSAGE_TYPE_SIZE
# Largest data packet payload: with its 30-byte header block it fills one
# IPv4/UDP datagram.
MAX_PACKET_PAYLOAD = MAX_DATAGRAM_PAYLOAD - DATA_HEADERS_SIZE


class ProtocolConfig(Frozen):
    """Per-node protocol parameters; time fields are seconds."""

    __slots__ = ("beacon_interval", "beacon_randomness", "buffer_capacity",
                 "message_ttl", "hop_limit", "max_control_payload")

    def __init__(self, beacon_interval: float = 1.0, beacon_randomness: float = 0.1,
                 buffer_capacity: int = 5_000_000, message_ttl: float = 3600.0,
                 hop_limit: int = 50, max_control_payload: int = 1400) -> None:
        self._set(beacon_interval, beacon_randomness, buffer_capacity,
                  message_ttl, hop_limit, max_control_payload)
        self._require_finite("beacon_interval", "beacon_randomness", "message_ttl")
        self._require_int("buffer_capacity", "hop_limit", "max_control_payload")
        # Times are whole microseconds: a beacon interval that rounds to 0
        # would fire beacons at one instant forever.
        if self.beacon_interval_us < 1:
            raise ValueError("beacon_interval must be at least 1 µs")
        if self.beacon_randomness < 0:
            raise ValueError("beacon_randomness must be non-negative")
        if self.buffer_capacity <= 0:
            raise ValueError("buffer_capacity must be positive")
        if self.message_ttl_us < 1:
            raise ValueError("message_ttl must be at least 1 µs")
        # Every data packet carries the hop count in a u32 field.
        if not 0 < self.hop_limit <= HOP_COUNT_MAX:
            raise ValueError(f"hop_limit must be in [1, {HOP_COUNT_MAX}]")
        if self.max_control_payload < SUMMARY_HEAD_SIZE + 8:
            raise ValueError("max_control_payload must fit at least one id (12 bytes)")
        if self.max_control_payload > MAX_CONTROL_PAYLOAD:
            raise ValueError(
                f"max_control_payload must be at most {MAX_CONTROL_PAYLOAD} bytes "
                "(a fragment and its envelope fill one UDP datagram)"
            )

    @property
    def beacon_interval_us(self) -> int:
        return to_us(self.beacon_interval)

    @property
    def beacon_randomness_us(self) -> int:
        return to_us(self.beacon_randomness)

    @property
    def message_ttl_us(self) -> int:
        return to_us(self.message_ttl)


def build_summary_fragments(ids: list[MessageId], max_control_payload: int) -> list[bytes]:
    """Split a summary into packed fragments of at most the payload cap.

    Each fragment is its SummaryVectorHeader bytes: frag_block and the id
    count (`_SUMMARY_HEAD`), then the ids (`_summary_ids(n)`). Order is
    preserved; every fragment except the last carries frag_block=1. An
    empty summary still yields one (empty) fragment so the exchange
    proceeds. ValueError if the cap holds no id, or if a fragment would
    hold more ids than its u16 length field counts.
    """
    per_fragment = (max_control_payload - SUMMARY_HEAD_SIZE) // 8
    if per_fragment < 1:
        raise ValueError("max_control_payload too small for one id")
    n = len(ids)
    if min(n, per_fragment) > 0xFFFF:
        raise ValueError("too many ids for one fragment: its length is a u16")
    fragments = []
    for i in range(0, max(n, 1), per_fragment):
        chunk = ids[i : i + per_fragment]
        k = len(chunk)
        frag_block = 1 if i + per_fragment < n else 0
        fragments.append(_SUMMARY_HEAD.pack(frag_block, k) + _summary_ids(k).pack(*chunk))
    return fragments


class NeighborRecord:
    """All state of the contact with one live neighbor.

    A node holds exactly one record per live neighbor; deleting the
    record ends the contact. `summary_accum` holds the ids of each
    fragment of the neighbor's summary received so far, as decoded.
    `pending` and `in_flight` are the messages queued toward the neighbor
    (one in flight at a time, until its ACK). It also holds the reception
    state, for a message that spans packets only: `rx_id` is the plain int
    id of the message being reassembled from the neighbor, or None; while
    it is set, `rx_total` (at least 2), `rx_hop_count` and `rx_dst` are its
    packet total and its first packet's hop count and destination, and
    `rx_parts` maps each packet index received to its payload. A
    one-packet message never enters it.
    """

    __slots__ = ("node_id", "last_heard", "summary_accum", "pending", "in_flight",
                 "rx_id", "rx_total", "rx_hop_count", "rx_dst", "rx_parts")

    def __init__(self, node_id: int, last_heard: int) -> None:
        self.node_id = node_id
        self.last_heard = last_heard
        self.summary_accum: list[tuple[int, ...]] = []
        self.pending: deque[MessageId] = deque()
        self.in_flight: MessageId | None = None
        self.rx_id: int | None = None
        self.rx_total = 0
        self.rx_hop_count = 0
        self.rx_dst = 0
        self.rx_parts: dict[int, bytes] = {}


class Transport(Protocol):
    @property
    def now(self) -> int: ...

    def hand_over(self, dst: int | None, port: int, headers: Sequence[bytes], kind: str,
                  msg_dst: int | None, payloads: Sequence[bytes]) -> None: ...

    def schedule(self, time_us: int, fn) -> None: ...


class EpidemicNode:
    """One node's routing state, driven by packet and timer events."""

    def __init__(
        self,
        node_id: int,
        config: ProtocolConfig,
        transport: Transport,
        trace: RunTrace,
        beacon_rng: random.Random,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.transport = transport
        self._hand_over = transport.hand_over
        self.trace = trace
        self._rng = beacon_rng
        self.buffer = MessageBuffer(
            config.buffer_capacity, config.message_ttl_us, trace, node_id
        )
        self.neighbors: dict[int, NeighborRecord] = {}
        self.delivered_ids: set[int] = set()
        self._interval_us = config.beacon_interval_us
        self._liveness_us = 2 * config.beacon_interval_us
        self._randomness_us = config.beacon_randomness_us
        # Every packet this node sends carries its id in a u16 field; the
        # envelopes of its beacons and summaries are packed once, a beacon
        # as the one-packet hand-over it is.
        _check_node(node_id, "node_id")
        self._beacon = (_MESSAGE_TYPE.pack(_BEACON, node_id),)
        self._reply = _MESSAGE_TYPE.pack(_REPLY, node_id)
        self._reply_back = _MESSAGE_TYPE.pack(_REPLY_BACK, node_id)
        # This node's summary fragments, as built from buffer version
        # _summary_version; REPLY and REPLY_BACK send the same ones.
        self._summary_fragments: list[bytes] = []
        self._summary_version = -1

    # -- timers ----------------------------------------------------------

    def start(self, now: int) -> None:
        """Schedule the first beacon one interval (plus jitter) from now."""
        self.transport.schedule(now + self._interval_us + self._jitter_us(), self._beacon_tick)

    def _jitter_us(self) -> int:
        r = self._randomness_us
        return int(self._rng.random() * r) if r else 0

    def _beacon_tick(self) -> None:
        now = self.transport.now
        self.check_connections(now)
        self.buffer.drop_expired(now)
        self._hand_over(None, PORT_CONTROL, self._beacon, KIND_BEACON, None, _NO_PAYLOAD)
        self.transport.schedule(now + self._interval_us + self._jitter_us(), self._beacon_tick)

    def check_connections(self, now: int) -> None:
        """Drop neighbors silent for at least two beacon intervals."""
        stale = [
            nb for nb in self.neighbors.values()
            if now - nb.last_heard >= self._liveness_us
        ]
        for nb in stale:
            self._end_contact(nb, now)

    # -- packet dispatch --------------------------------------------------

    def handle_packet(
        self,
        sender_addr: int,
        port: int,
        data: bytes,
        msg_dst: int | None,
        now: int,
        payload: bytes = b"",
    ) -> None:
        """One received datagram, `data + payload`.

        A data packet's `data` is its header block (or the whole datagram
        if shorter) and `payload` the rest, which is stored as it is (not
        copied). Each packet makes the receive checks of
        docs/wire-format.md in their order, and one that fails is counted
        once as malformed and changes no state, except that a data packet
        failing check 6 still refreshes its neighbor's record. A data
        packet that passes with a new id drops its neighbor's partial
        message, if any; it is then stored at once if it is the message's
        only packet, and otherwise joins the neighbor's reception state,
        which holds one message at a time. A control packet is checked as
        one unpack per header, the envelope and then the whole ACK or the
        fragment head (checks 1, 3 and 4), and one dispatch on its code
        and the fragment's frag_block and length (checks 2, 5 and 6); any
        failure takes the one malformed exit. The handlers run outside the
        unpacks' `try`, and a fragment's ids go to `on_summary` as ints.
        `sender_addr`, the radio source, only names a malformed packet's
        sender; the neighbor is the node id in the packet's header."""
        if port == PORT_DATA:
            try:
                epi_raw, hops, raw, last_hop, total, index = _DATA_HEADERS.unpack_from(data)
            except struct.error:  # check 1: fewer than 30 bytes
                self._malformed(KIND_DATA, len(data) + len(payload), sender_addr)
                return
            if index >= total:  # checks 2 and 3: a u32 is never below a total of 0
                self._malformed(KIND_DATA, len(data) + len(payload), sender_addr)
                return
            if epi_raw != raw or msg_dst is None:
                self._malformed(KIND_DATA, len(payload), sender_addr)
                return
            nb = self.neighbors.get(last_hop)
            if nb is None:
                nb = self.neighbors[last_hop] = NeighborRecord(last_hop, now)
            else:
                nb.last_heard = now
            rx_id = nb.rx_id
            if rx_id == raw:
                if nb.rx_total != total:  # check 6
                    self._malformed(KIND_DATA, len(payload), sender_addr)
                    return
                parts = nb.rx_parts
                parts[index] = payload
                if len(parts) == total:
                    nb.rx_id = None
                    self._complete_message(nb, raw, nb.rx_hop_count, nb.rx_dst,
                                           tuple(parts[i] for i in range(total)), now)
                return
            if rx_id is not None:
                self._drop_msg(now, rx_id, MSG_PARTIAL_RESET)
                nb.rx_id = None
            if total == 1:
                self._complete_message(nb, raw, hops, msg_dst, (payload,), now)
                return
            nb.rx_id = raw
            nb.rx_total = total
            nb.rx_hop_count = hops
            nb.rx_dst = msg_dst
            nb.rx_parts = {index: payload}
            return
        try:  # checks 1, 3 and 4: a header cut short
            code, node_id = _MESSAGE_TYPE.unpack_from(data)
            if code == _ACK:
                _, _, message_id, ack_node, _status = _ACK_PACKET.unpack_from(data)
            elif code == _REPLY or code == _REPLY_BACK:
                frag_block, length = _SUMMARY_HEAD.unpack_from(data, MESSAGE_TYPE_SIZE)
        except struct.error:
            code = None
        if code == _BEACON:
            self.on_beacon(node_id, now)
        elif code == _ACK:
            self.on_ack(ack_node, message_id, now)
        # checks 5 and 6: the envelope and the fragment head are 7 bytes
        elif ((code == _REPLY or code == _REPLY_BACK)
              and frag_block <= 1 and len(data) == 7 + 8 * length):
            ids = _summary_ids(length).unpack_from(data, 7)
            self.on_summary(code, node_id, frag_block, ids, now)
        else:  # check 2 (an unknown code), or any check above failed
            self._malformed(KIND_CONTROL, len(data), sender_addr)

    def _malformed(self, kind: str, size: int, sender_addr: int) -> None:
        self.trace.packet_event(kind, PKT_MALFORMED, size, sender_addr, self.node_id)

    # -- discovery --------------------------------------------------------

    def on_beacon(self, node_id: int, now: int) -> None:
        """A beacon opens an exchange, led by the lower node id, only on a new or stale contact."""
        existing = self.neighbors.get(node_id)
        if existing is not None and now - existing.last_heard < self._liveness_us:
            return
        if existing is not None:
            self._end_contact(existing, now)
        nb = self._touch_neighbor(node_id, now)
        if self.node_id < node_id:
            self._send_summary(self._reply, KIND_REPLY, nb, now)

    def _touch_neighbor(self, node_id: int, now: int) -> NeighborRecord:
        nb = self.neighbors.get(node_id)
        if nb is None:
            nb = self.neighbors[node_id] = NeighborRecord(node_id, now)
        else:
            nb.last_heard = now
        return nb

    def _end_contact(self, nb: NeighborRecord, now: int) -> None:
        """Delete a neighbor's record; a partly received message is dropped."""
        if nb.rx_id is not None:
            self._drop_msg(now, nb.rx_id, MSG_PARTIAL_DISCONNECT)
        del self.neighbors[nb.node_id]

    # -- anti-entropy exchange ---------------------------------------------

    def on_summary(
        self,
        msg_type: int,
        sender_node: int,
        frag_block: int,
        ids: tuple[int, ...],
        now: int,
    ) -> None:
        """One fragment of the peer's REPLY or REPLY_BACK summary.

        `msg_type` is the REPLY or REPLY_BACK code, and `ids` the
        fragment's message ids as ints. A complete summary loads the
        pipeline toward the peer; a complete REPLY is first answered with
        this node's REPLY_BACK.
        """
        nb = self._touch_neighbor(sender_node, now)
        is_reply = msg_type == _REPLY
        if (self.node_id < sender_node) is is_reply:
            return  # only the leading side sends REPLY; ignore on violation
        nb.summary_accum.append(ids)
        if frag_block == 0:
            remote, nb.summary_accum = nb.summary_accum, []
            if is_reply:
                self._send_summary(self._reply_back, KIND_REPLY_BACK, nb, now)
            self._load_pipeline(nb, remote, now)

    def _send_summary(self, envelope: bytes, kind: str, nb: NeighborRecord, now: int) -> None:
        buffer = self.buffer
        buffer.drop_expired(now)
        if buffer.version != self._summary_version:
            self._summary_fragments = build_summary_fragments(
                buffer.summary(), self.config.max_control_payload
            )
            self._summary_version = buffer.version
        frags = self._summary_fragments
        # A one-element list, a one-fragment summary's, needs no comprehension's frame.
        datagrams = [envelope + frags[0]] if len(frags) == 1 else [envelope + f for f in frags]
        self._hand_over(nb.node_id, PORT_CONTROL, datagrams, kind, None, _NO_PAYLOAD * len(frags))

    def _load_pipeline(self, nb: NeighborRecord, remote: list[tuple[int, ...]], now: int) -> None:
        nb.pending = deque(self.buffer.find_disjoint(*remote))
        self._advance_pipeline(nb, now)

    # -- message transfer ---------------------------------------------------

    def _advance_pipeline(self, nb: NeighborRecord, now: int) -> None:
        if nb.in_flight is not None:
            return
        while nb.pending:
            mid = nb.pending.popleft()
            entry = self.buffer.get(mid)
            if entry is None:
                continue  # evicted or expired since the pipeline was built
            # Header block i is EpidemicHeader then DataPacketHeader of
            # packet i; packet i on the wire is block i then payload i.
            packets = entry.packets
            hops, node_id, total = entry.hop_budget, self.node_id, len(packets)
            pack = _DATA_HEADERS.pack
            headers = ([pack(mid, hops, mid, node_id, 1, 0)] if total == 1 else
                       [pack(mid, hops, mid, node_id, total, index) for index in range(total)])
            self._hand_over(nb.node_id, PORT_DATA, headers, KIND_DATA, entry.destination, packets)
            nb.in_flight = mid
            return

    def on_ack(self, node_id: int, message_id: int, now: int) -> None:
        nb = self._touch_neighbor(node_id, now)
        if nb.in_flight != message_id:
            return  # stale or unknown ACK
        nb.in_flight = None
        self._advance_pipeline(nb, now)

    # -- reception ------------------------------------------------------------

    def _complete_message(self, nb: NeighborRecord, mid: int, hop_count: int,
                          destination: int, packets: tuple[bytes, ...], now: int) -> None:
        """Store (or drop) a message received whole from `nb` and ACK it.

        `hop_count` and `destination` are those of its first packet, and
        `packets` its payloads in index order."""
        budget = hop_count - 1 if hop_count > 0 else 0
        self.trace.transfer_completed(now, mid, nb.node_id, self.node_id)
        age = now - (mid & TIMESTAMP_MAX)
        if age > self.buffer.ttl_us:
            self._drop_msg(now, mid, MSG_ARRIVAL_EXPIRED)
        else:
            if destination == self.node_id and mid not in self.delivered_ids:
                self.delivered_ids.add(mid)
                self.trace.message_delivered(
                    now, mid, self.node_id, age, self.config.hop_limit - budget
                )
            if budget == 0:
                if destination != self.node_id:
                    self._drop_msg(now, mid, MSG_HOP_EXHAUSTED)
            else:
                self.buffer.enqueue(QueueEntry(mid, destination, packets, budget), now)
        node_id = self.node_id
        ack = _ACK_PACKET.pack(_ACK, node_id, mid, node_id, ACK_STATUS_SUCCESS)
        self._hand_over(nb.node_id, PORT_CONTROL, (ack,), KIND_ACK, None, _NO_PAYLOAD)

    # -- local message injection -----------------------------------------------

    def originate(self, entry: QueueEntry, now: int) -> None:
        """Store a locally generated message and record its creation."""
        self.trace.message_generated(
            now,
            entry.message_id,
            self.node_id,
            entry.destination,
            entry.byte_size,
            entry.packet_total,
        )
        self.buffer.enqueue(entry, now)

    def wrap_raw_packet(self, payload: bytes, destination: int, now: int) -> MessageId:
        """Wrap a headerless packet as a one-packet message and store it."""
        mid = make_message_id(self.node_id, now)
        entry = QueueEntry(mid, destination, (payload,), self.config.hop_limit)
        self.originate(entry, now)
        return mid

    # -- record helpers -----------------------------------------------------------

    def _drop_msg(self, now: int, mid: int, cause: str) -> None:
        self.trace.message_dropped(now, self.node_id, mid, cause)
