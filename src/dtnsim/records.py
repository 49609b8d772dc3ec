"""Simulation trace records and the per-run trace accumulators.

The protocol and the buffer report message events as record fields. A
plain RunTrace counts messages, transfers and drops by cause, and keeps the
deliveries, at most one per message; a ReplayTrace also keeps every record,
and only it has a `dump()`. A record is a NamedTuple: it prints as
`Name(field=value, ...)` and equals the plain tuple of its values. A
record holds its id as a MessageId, where the trace was given a plain int.
`runner.build_run` fills the trace it is given, a plain RunTrace by default.

Packet outcomes are counted in rows, one flat list of ints per (src, dst,
kind) that occurs, holding a packet count and a byte total per outcome of
PKT_OUTCOMES. The radio updates the submitted, transmitted and delivered
slots in place (a broadcast's delivery in its receiver's row); each drop
is one `packet_event` call. A trace whose `observe` is not None also sees
every outcome, in order, as one `observe(kind, outcome, size, src, dst)`
call each: that is how a ReplayTrace folds the packet stream.
`runner.run_once` checks every run it makes with `RunTrace.audit`.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .wire import MessageId

# Packet kinds.
KIND_BEACON = "beacon"
KIND_REPLY = "reply"
KIND_REPLY_BACK = "reply_back"
KIND_ACK = "ack"
KIND_DATA = "data"
# Kind of a malformed packet that arrived on the control channel.
KIND_CONTROL = "control"

CONTROL_KINDS = (KIND_BEACON, KIND_REPLY, KIND_REPLY_BACK, KIND_ACK)

# Packet outcomes. A packet is submitted to its device queue, then either
# transmitted or dropped before service; a transmitted unicast packet is
# delivered, lost, or misses an out-of-range receiver.
PKT_SUBMITTED = "submitted"
PKT_TRANSMITTED = "transmitted"
PKT_DELIVERED = "delivered"
PKT_OVERFLOW = "overflow"
PKT_RESIDENCY = "residency"
PKT_OUT_OF_RANGE = "out_of_range"
PKT_LOSS = "loss"
PKT_MALFORMED = "malformed"
PKT_UNSENT_AT_END = "unsent_at_end"
PKT_IN_FLIGHT_AT_END = "in_flight_at_end"

PKT_DROP_OUTCOMES = (
    PKT_OVERFLOW,
    PKT_RESIDENCY,
    PKT_OUT_OF_RANGE,
    PKT_LOSS,
    PKT_MALFORMED,
    PKT_UNSENT_AT_END,
    PKT_IN_FLIGHT_AT_END,
)

# Outcomes in row order: outcome i's packet count is at row[2 * i] and its
# bytes at row[2 * i + 1]. netsim updates the first three slots in place.
PKT_OUTCOMES = (PKT_SUBMITTED, PKT_TRANSMITTED, PKT_DELIVERED, *PKT_DROP_OUTCOMES)
_SLOT = {outcome: 2 * i for i, outcome in enumerate(PKT_OUTCOMES)}
_ROW_LEN = 2 * len(PKT_OUTCOMES)

# Message-level drop causes.
MSG_EXPIRED = "expired"
MSG_EVICTED = "evicted"
MSG_DUPLICATE = "duplicate"
MSG_TOO_LARGE = "too_large"
MSG_ARRIVAL_EXPIRED = "arrival_expired"
MSG_HOP_EXHAUSTED = "hop_exhausted"
MSG_PARTIAL_RESET = "partial_reset"
MSG_PARTIAL_DISCONNECT = "partial_disconnect"

MSG_DROP_CAUSES = (
    MSG_EXPIRED,
    MSG_EVICTED,
    MSG_DUPLICATE,
    MSG_TOO_LARGE,
    MSG_ARRIVAL_EXPIRED,
    MSG_HOP_EXHAUSTED,
    MSG_PARTIAL_RESET,
    MSG_PARTIAL_DISCONNECT,
)


class MessageGenerated(NamedTuple):
    time_us: int
    message_id: MessageId
    source: int
    destination: int
    size_bytes: int
    packet_total: int


class MessageDelivered(NamedTuple):
    time_us: int
    message_id: MessageId
    node: int
    latency_us: int
    hops: int


class TransferCompleted(NamedTuple):
    """One complete hop-by-hop message reception, duplicates included."""

    time_us: int
    message_id: MessageId
    from_node: int
    to_node: int


class MessageDropped(NamedTuple):
    time_us: int
    node: int
    message_id: MessageId
    cause: str


class RunLawError(ValueError):
    """A finished run broke a law of `RunTrace.audit`."""


class RunTrace:
    """Counts one run's messages, transfers and drops, keeps its deliveries,
    and counts its packet outcomes in rows."""

    # Called with (kind, outcome, size, src, dst) for every packet outcome,
    # in the order they happen; None on a plain trace. A subclass that wants
    # the packet stream defines it as a method.
    observe = None

    def __init__(self) -> None:
        self.n_generated = 0
        self.n_transfers = 0
        self.drop_counts = dict.fromkeys(MSG_DROP_CAUSES, 0)
        self.deliveries: list[MessageDelivered] = []
        # (src, dst, kind) -> [packets, bytes] per outcome of PKT_OUTCOMES;
        # dst is None for broadcast outcomes with no specific receiver.
        self._rows: dict[tuple[int, int | None, str], list[int]] = {}

    def message_generated(
        self,
        now: int,
        mid: MessageId,
        source: int,
        destination: int,
        size_bytes: int,
        packet_total: int,
    ) -> None:
        self.n_generated += 1

    def message_delivered(
        self, now: int, mid: int, node: int, latency_us: int, hops: int
    ) -> None:
        self.deliveries.append(MessageDelivered(now, MessageId(mid), node, latency_us, hops))

    def transfer_completed(self, now: int, mid: int, from_node: int, to_node: int) -> None:
        self.n_transfers += 1

    def message_dropped(self, now: int, node: int, mid: int, cause: str) -> None:
        self.drop_counts[cause] += 1

    def row(self, src: int, dst: int | None, kind: str) -> list[int]:
        """The row of (src, dst, kind), made on first use."""
        row = self._rows.get((src, dst, kind))
        if row is None:
            row = self._rows[(src, dst, kind)] = [0] * _ROW_LEN
        return row

    def packet_event(
        self, kind: str, outcome: str, size: int, src: int, dst: int | None
    ) -> None:
        """Count one packet drop; the radio counts the other outcomes in place."""
        row = self.row(src, dst, kind)
        slot = _SLOT[outcome]
        row[slot] += 1
        row[slot + 1] += size
        if self.observe is not None:
            self.observe(kind, outcome, size, src, dst)

    def audit(self, protocol=None) -> None:
        """Raise RunLawError unless the finished run keeps the laws of every run.

        Per (src, dst, kind) row: each packet handed to a device queue is
        transmitted or dropped before service or at the end; each transmitted
        unicast has one outcome; a broadcast reaches a receiver at most once,
        never out of range; no packet is malformed. No message is delivered
        twice, nor more often than messages were generated; each delivery is
        at most `protocol.message_ttl_us` old, the TTL as the node rounds it,
        after 1 to hop-limit hops (None: no delivery)."""
        sub, sent, got, over, res, out, loss, bad, unsent, flying = _SLOT.values()
        for key, row in self._rows.items():
            src, dst, kind = key
            if row[sub] != row[sent] + row[over] + row[res] + row[unsent]:
                raise RunLawError(f"{key}: submitted packets without one fate each")
            if row[bad]:
                raise RunLawError(f"{key}: malformed packets")
            if dst is not None and kind == KIND_BEACON:
                beacons = (self._rows.get((src, None, kind)) or [0] * _ROW_LEN)[sent]
                if row[out] or row[got] + row[loss] + row[flying] > beacons:
                    raise RunLawError(f"{key}: a broadcast heard twice or out of range")
            elif dst is not None and row[sent] != row[got] + row[loss] + row[out] + row[flying]:
                raise RunLawError(f"{key}: transmitted packets without one outcome each")
        n, ids = len(self.deliveries), {d.message_id for d in self.deliveries}
        if len(ids) < n or n > self.n_generated:
            raise RunLawError(f"{n} deliveries of {len(ids)} ids, {self.n_generated} generated")
        if protocol is None and n:
            raise RunLawError("a radio-only run delivered a message")
        for d in self.deliveries:
            if d.latency_us > protocol.message_ttl_us or not (
                1 <= d.hops <= protocol.hop_limit
            ):
                raise RunLawError(f"{d}: past the TTL or beyond 1 to {protocol.hop_limit} hops")

    @property
    def pair_counts(self) -> Counter[tuple[int, int | None, str, str]]:
        """(src, dst, kind, outcome) -> packet count."""
        return Counter({
            (src, dst, kind, outcome): row[slot]
            for (src, dst, kind), row in self._rows.items()
            for outcome, slot in _SLOT.items()
            if row[slot]
        })

    @property
    def packet_totals(self) -> dict[tuple[str, str], tuple[int, int]]:
        """(kind, outcome) -> (packets, total on-air bytes), in one pass."""
        by_kind: dict[str, list[int]] = {}
        for (_, _, kind), row in self._rows.items():
            total = by_kind.get(kind)
            by_kind[kind] = row.copy() if total is None else [a + b for a, b in zip(total, row)]
        return {
            (kind, outcome): (total[slot], total[slot + 1])
            for kind, total in by_kind.items()
            for outcome, slot in _SLOT.items()
            if total[slot]
        }

    @property
    def packet_counts(self) -> Counter[tuple[str, str]]:
        """(kind, outcome) -> packet count."""
        return Counter({key: n for key, (n, _) in self.packet_totals.items()})

    def count(self, kind: str, outcome: str) -> int:
        return self.packet_totals.get((kind, outcome), (0, 0))[0]

    def bytes_of(self, kind: str, outcome: str) -> int:
        return self.packet_totals.get((kind, outcome), (0, 0))[1]


class ReplayTrace(RunTrace):
    """A RunTrace that keeps every record and folds the packet stream, for replay checks."""

    def __init__(self) -> None:
        super().__init__()
        self.generated: list[MessageGenerated] = []
        self.transfers: list[TransferCompleted] = []
        self.message_drops: list[MessageDropped] = []
        # Fold of each packet's (code, size), a code being its key's first-seen
        # number. Only ints are hashed, so the fold is the same in every process:
        # str hashes are salted per process, and so is the hash of None on 3.11.
        self._codes: dict[tuple[int, int | None, str, str], int] = {}
        self._fold = 0

    def message_generated(self, now: int, mid: MessageId, source: int, destination: int,
                          size_bytes: int, packet_total: int) -> None:
        fields = (now, mid, source, destination, size_bytes, packet_total)
        super().message_generated(*fields)
        self.generated.append(MessageGenerated(*fields))

    def transfer_completed(self, now: int, mid: int, from_node: int, to_node: int) -> None:
        super().transfer_completed(now, mid, from_node, to_node)
        self.transfers.append(TransferCompleted(now, MessageId(mid), from_node, to_node))

    def message_dropped(self, now: int, node: int, mid: int, cause: str) -> None:
        super().message_dropped(now, node, mid, cause)
        self.message_drops.append(MessageDropped(now, node, MessageId(mid), cause))

    def observe(self, kind: str, outcome: str, size: int, src: int, dst: int | None) -> None:
        code = self._codes.setdefault((src, dst, kind, outcome), len(self._codes))
        self._fold = hash((self._fold, code, size))

    def dump(self) -> str:
        """Deterministic text: the records, the counters, the packet stream digest."""
        import hashlib  # here, not at the top: loading OpenSSL slows every import

        records = (self.generated, self.deliveries, self.transfers, self.message_drops)
        lines = [repr(r) for recs in records for r in recs]
        lines += [
            f"packets {kind}/{outcome}: n={n} bytes={size}"
            for (kind, outcome), (n, size) in sorted(self.packet_totals.items())
        ]
        lines += [
            f"pair {src}->{dst} {kind}/{outcome}: {n}"
            for (src, dst, kind, outcome), n in sorted(
                self.pair_counts.items(), key=lambda kv: (str(kv[0]), kv[1])
            )
        ]
        # The first-seen key order maps each code of the fold back to its key.
        stream = f"{self._fold & 0xFFFFFFFFFFFFFFFF:016x}|{list(self._codes)!r}".encode()
        digest = hashlib.blake2b(stream, digest_size=16).hexdigest()
        return "\n".join([*lines, f"packet stream digest: {digest}"])
