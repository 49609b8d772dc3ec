"""Per-node message store: complete messages only, byte-capacity bounded.

Expiry removes entries older than the configured ttl; when space runs out
the oldest-generated entries are purged first. Summaries and disjoint sets
drive the anti-entropy exchange. The stored ids are kept ascending by raw
id, so a summary is a copy, not a sort, and as a set, which a disjoint set
copies; `version` changes on every store and removal, so a caller can
reuse what it built from an unchanged buffer. A purge and a disjoint set
take ids oldest first by one rule, `_oldest_first`: by generation time,
then by source.

Each drop the buffer decides (expired, evicted, or a rejected duplicate,
arrival_expired or too_large message) is recorded in the run's trace.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable, Iterator

from .records import (
    MSG_ARRIVAL_EXPIRED,
    MSG_DUPLICATE,
    MSG_EVICTED,
    MSG_EXPIRED,
    MSG_TOO_LARGE,
    RunTrace,
)
from .wire import NODE_ID_MAX, TIMESTAMP_MAX, MessageId

# Oldest generation time of an empty buffer: later than any 48-bit timestamp.
_NONE_STORED = TIMESTAMP_MAX + 1


class QueueEntry:
    """One complete message: ordered packet payloads plus routing state.

    The payloads are `bytes`, shared by reference with every other copy
    of the message in the run.
    """

    __slots__ = ("message_id", "destination", "packets", "hop_budget", "byte_size")

    def __init__(
        self, message_id: MessageId, destination: int, packets: tuple[bytes, ...], hop_budget: int
    ) -> None:
        if not packets:
            raise ValueError("a message has at least one packet")
        if not 0 <= destination <= NODE_ID_MAX:
            raise ValueError(f"destination out of 16-bit range: {destination}")
        if hop_budget < 0:
            raise ValueError("hop_budget must be non-negative")
        # Shared payloads must be immutable.
        size = 0
        for p in packets:
            if type(p) is not bytes:
                raise TypeError(f"packet payloads must be bytes, got {type(p).__name__}")
            size += len(p)
        self.message_id = message_id
        self.destination = destination
        self.packets = packets
        self.hop_budget = hop_budget
        self.byte_size = size

    @property
    def packet_total(self) -> int:
        return len(self.packets)


def _oldest_first(ids: list[MessageId]) -> list[MessageId]:
    """`ids`, ascending by raw id, sorted in place by generation time.
    The sort is stable, so the order is (generation time, source)."""
    ids.sort(key=TIMESTAMP_MAX.__and__)
    return ids


class MessageBuffer:
    """Map of MessageId to QueueEntry with byte capacity and ttl enforcement."""

    def __init__(self, capacity_bytes: int, ttl_us: int, trace: RunTrace, node: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if ttl_us <= 0:
            raise ValueError("ttl_us must be positive")
        self.capacity_bytes = capacity_bytes
        self.ttl_us = ttl_us
        self._trace = trace
        self._node = node
        self._entries: dict[MessageId, QueueEntry] = {}
        # The keys of _entries, ascending by raw id, and as a set.
        self._ids: list[MessageId] = []
        self._id_set: set[MessageId] = set()
        self._used = 0
        # Bumped on every store and every removal.
        self.version = 0
        # At most the generation time of every stored entry, so an expiry
        # check with now - _oldest <= ttl_us can have nothing to drop.
        self._oldest = _NONE_STORED

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, message_id: MessageId) -> bool:
        return message_id in self._entries

    def get(self, message_id: MessageId) -> QueueEntry | None:
        return self._entries.get(message_id)

    def entries(self) -> Iterator[QueueEntry]:
        return iter(self._entries.values())

    @property
    def used_bytes(self) -> int:
        return self._used

    def drop_expired(self, now: int) -> None:
        """Remove and record every entry older than ttl."""
        ttl = self.ttl_us
        if now - self._oldest <= ttl:
            return
        for mid in [mid for mid in self._entries if now - (mid & TIMESTAMP_MAX) > ttl]:
            self._remove(mid)
            self._record(mid, now, MSG_EXPIRED)
        self._oldest = min(
            (mid & TIMESTAMP_MAX for mid in self._entries), default=_NONE_STORED
        )

    def enqueue(self, entry: QueueEntry, now: int) -> None:
        """Store a complete message, expiring and purging as needed.

        A duplicate, an entry past its ttl and one larger than the whole
        buffer are recorded as dropped and change nothing beyond the
        expiry sweep.
        """
        ttl = self.ttl_us
        if now - self._oldest > ttl:
            self.drop_expired(now)
        mid = entry.message_id
        generated_at = mid & TIMESTAMP_MAX
        size = entry.byte_size
        if mid in self._entries:
            cause = MSG_DUPLICATE
        elif now - generated_at > ttl:
            cause = MSG_ARRIVAL_EXPIRED
        elif size > self.capacity_bytes:
            cause = MSG_TOO_LARGE
        else:
            if size > self.capacity_bytes - self._used:
                self._purge_for(size, now)
            self._entries[mid] = entry
            insort(self._ids, mid)
            self._id_set.add(mid)
            self.version += 1
            self._used += size
            if generated_at < self._oldest:
                self._oldest = generated_at
            return
        self._record(mid, now, cause)

    def summary(self) -> list[MessageId]:
        """All stored ids, ascending by raw id."""
        return self._ids.copy()

    def find_disjoint(self, *remote: Iterable[int]) -> list[MessageId]:
        """Stored ids absent from every iterable of `remote`, oldest generation first."""
        return _oldest_first(sorted(self._id_set.difference(*remote)))

    def _purge_for(self, needed: int, now: int) -> None:
        """Evict oldest first until `needed` bytes are free; they are not yet."""
        free = self.capacity_bytes - self._used
        for mid in _oldest_first(self._ids.copy()):
            free += self._entries[mid].byte_size
            self._remove(mid)
            self._record(mid, now, MSG_EVICTED)
            if needed <= free:
                return

    def _remove(self, message_id: MessageId) -> None:
        entry = self._entries.pop(message_id)
        ids = self._ids
        del ids[bisect_left(ids, message_id)]
        self._id_set.remove(message_id)
        self.version += 1
        self._used -= entry.byte_size

    def _record(self, mid: MessageId, now: int, cause: str) -> None:
        self._trace.message_dropped(now, self._node, mid, cause)
