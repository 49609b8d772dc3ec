"""Application-level message generation and packet segmentation.

Every message of a run has the scenario's one shape: message_size bytes
cut into ceil(size / payload) packets, one payload tuple that all the
run's messages and their copies share. The payload content is a fixed
repeating byte pattern positioned by offset, so reassembly is
byte-checkable. Creation times are quantized to distinct microseconds
per source node, which keeps every message id unique.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .buffer import QueueEntry
from .wire import make_message_id

_PATTERN = bytes(range(256))


class IdCollisionError(ValueError):
    """A source has more messages than its traffic window has microseconds."""


class MessageSpec(NamedTuple):
    source: int
    destination: int
    creation_time_us: int


def message_payloads(size_bytes: int, packet_payload: int) -> tuple[bytes, ...]:
    """Segment the pattern stream for one message into packet payloads."""
    stream = (_PATTERN * (size_bytes // 256 + 2))[:size_bytes]
    return tuple(
        stream[offset : offset + packet_payload]
        for offset in range(0, size_bytes, packet_payload)
    )


def generate_message(
    spec: MessageSpec, packets: tuple[bytes, ...], hop_limit: int
) -> QueueEntry:
    """Build the queue entry for one message carrying `packets`."""
    mid = make_message_id(spec.source, spec.creation_time_us)
    return QueueEntry(mid, spec.destination, packets, hop_limit)


def build_schedule(
    node_count: int,
    message_count: int,
    window_us: tuple[int, int],
    rng: random.Random,
) -> list[MessageSpec]:
    """Draw uniform (source, destination) pairs and creation times.

    Deterministic for a given rng state. Creation times are nudged until
    distinct per source, so every message id is unique; a source whose
    window has no free microsecond left raises IdCollisionError.
    `Scenario` checks the arguments; a bad one fails in the call it breaks.
    """
    start, end = window_us
    used: dict[int, set[int]] = {}
    specs = []
    for _ in range(message_count):
        source = rng.randrange(node_count)
        destination = rng.randrange(node_count - 1)
        if destination >= source:  # never the source itself
            destination += 1
        taken = used.setdefault(source, set())
        if len(taken) > end - start:
            raise IdCollisionError(
                f"traffic window too small for distinct creation times at node {source}"
            )
        t = rng.randint(start, end)
        while t in taken:  # nudge to the next free microsecond
            t = t + 1 if t < end else start
        taken.add(t)
        specs.append(MessageSpec(source, destination, t))
    specs.sort(key=lambda s: (s.creation_time_us, s.source))
    return specs
