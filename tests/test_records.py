"""RunTrace: packet counters and the order-sensitive packet stream fold."""

from dtnsim.records import (
    KIND_BEACON,
    KIND_DATA,
    PKT_DELIVERED,
    PKT_SUBMITTED,
    PKT_TRANSMITTED,
    RunTrace,
)

EVENTS = [
    (KIND_DATA, PKT_SUBMITTED, 1518, 0, 1),
    (KIND_BEACON, PKT_TRANSMITTED, 31, 1, None),
    (KIND_DATA, PKT_DELIVERED, 1518, 0, 1),
    (KIND_DATA, PKT_SUBMITTED, 1518, 0, 1),
]


def trace_of(events):
    trace = RunTrace()
    for event in events:
        trace.packet_event(*event)
    return trace


def test_same_history_same_dump():
    assert trace_of(EVENTS).dump() == trace_of(EVENTS).dump()


def test_reordered_history_changes_dump_not_counts():
    forward, backward = trace_of(EVENTS), trace_of(EVENTS[::-1])
    assert forward.packet_counts == backward.packet_counts
    assert forward.packet_bytes == backward.packet_bytes
    assert forward.pair_counts == backward.pair_counts
    assert forward.dump() != backward.dump()


def test_reorder_with_same_first_appearances_changes_dump():
    # Keys first appear in the same order; only a later repeat moves.
    moved = [EVENTS[0], EVENTS[3], EVENTS[1], EVENTS[2]]
    assert trace_of(moved).packet_counts == trace_of(EVENTS).packet_counts
    assert trace_of(moved).dump() != trace_of(EVENTS).dump()


def test_counts_and_bytes():
    trace = trace_of(EVENTS)
    assert trace.count(KIND_DATA, PKT_SUBMITTED) == 2
    assert trace.bytes_of(KIND_DATA, PKT_SUBMITTED) == 2 * 1518
    assert trace.count(KIND_DATA, PKT_TRANSMITTED) == 0
    assert trace.pair_counts[(1, None, KIND_BEACON, PKT_TRANSMITTED)] == 1
    assert trace.pair_counts[(0, 1, KIND_DATA, PKT_SUBMITTED)] == 2


def test_swapped_keys_of_equal_size_change_dump():
    # Both histories number their keys [0, 1] and have the same sizes, so
    # only the identity of each key tells them apart.
    a_to_b = (KIND_DATA, PKT_SUBMITTED, 100, 0, 1)
    b_to_a = (KIND_DATA, PKT_SUBMITTED, 100, 1, 0)
    forward, backward = trace_of([a_to_b, b_to_a]), trace_of([b_to_a, a_to_b])
    assert forward.pair_counts == backward.pair_counts
    assert forward.packet_bytes == backward.packet_bytes
    assert forward.dump() != backward.dump()
