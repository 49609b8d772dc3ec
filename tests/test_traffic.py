"""Message generation: segmentation math, payload reassembly, schedules."""

import random

import pytest
from hypothesis import example, given, strategies as st

from dtnsim.traffic import (
    IdCollisionError,
    MessageSpec,
    build_schedule,
    generate_message,
    message_payloads,
)
from dtnsim.wire import make_message_id


class TestSegmentation:
    def test_five_megabyte_message(self):
        # Ceiling-division oracle, computed up front:
        # ceil(5_000_000 / 1460) = 3425 packets; last carries
        # 5_000_000 - 3424 * 1460 = 960 bytes.
        entry = generate_message(
            MessageSpec(1, 2, 0), message_payloads(5_000_000, 1460), hop_limit=50
        )
        assert entry.packet_total == 3425
        assert len(entry.packets[-1]) == 960
        assert all(len(p) == 1460 for p in entry.packets[:-1])
        assert entry.byte_size == 5_000_000

    def test_single_byte_message(self):
        entry = generate_message(MessageSpec(1, 2, 0), message_payloads(1, 1460), 50)
        assert entry.packet_total == 1
        assert len(entry.packets[0]) == 1

    def test_size_equal_to_payload_exactly_one_full_packet(self):
        entry = generate_message(MessageSpec(1, 2, 0), message_payloads(1460, 1460), 50)
        assert entry.packet_total == 1
        assert len(entry.packets[0]) == 1460

    def test_id_and_hop_budget(self):
        entry = generate_message(
            MessageSpec(3, 4, 777), message_payloads(100, 10), hop_limit=8
        )
        assert entry.message_id == make_message_id(3, 777)
        assert entry.hop_budget == 8
        assert entry.destination == 4

    @given(st.integers(1, 5000), st.integers(1, 700))
    def test_reassembly_reproduces_exact_bytes(self, size, payload):
        packets = message_payloads(size, payload)
        joined = b"".join(packets)
        assert len(joined) == size
        # The pattern stream is position-derived: byte j is j mod 256.
        assert joined == bytes(j % 256 for j in range(size))


class TestSpecValidation:
    def test_zero_size_rejected(self):
        # A message with no packets is not a message: QueueEntry refuses it.
        with pytest.raises(ValueError):
            generate_message(MessageSpec(1, 2, 0), message_payloads(0, 10), 5)


class TestSchedule:
    def test_zero_messages_empty(self):
        assert build_schedule(5, 0, (0, 1000), random.Random(1)) == []

    def test_unchecked_arguments_fail_in_the_call_they_break(self):
        # Scenario checks both; a direct caller still gets a ValueError.
        with pytest.raises(ValueError):
            build_schedule(1, 1, (0, 1000), random.Random(1))
        with pytest.raises(IdCollisionError):
            build_schedule(5, 1, (1000, 0), random.Random(1))

    def test_deterministic_for_fixed_seed(self):
        a = build_schedule(5, 20, (0, 10**9), random.Random(7))
        b = build_schedule(5, 20, (0, 10**9), random.Random(7))
        assert a == b

    def test_count_and_distinct_endpoints(self):
        specs = build_schedule(8, 50, (0, 10**9), random.Random(3))
        assert len(specs) == 50
        assert all(s.source != s.destination for s in specs)
        assert all(0 <= s.source < 8 and 0 <= s.destination < 8 for s in specs)

    def test_all_ids_unique_even_in_tiny_window(self):
        specs = build_schedule(2, 30, (0, 40), random.Random(3))
        ids = {make_message_id(s.source, s.creation_time_us) for s in specs}
        assert len(ids) == 30

    def test_sorted_by_creation_time(self):
        specs = build_schedule(5, 30, (0, 10**6), random.Random(9))
        times = [s.creation_time_us for s in specs]
        assert times == sorted(times)

    @given(
        st.integers(2, 6),
        st.integers(0, 30),
        st.integers(0, 10**6),
        st.integers(1, 12),
        st.integers(0, 2**32),
    )
    @example(2, 1, 0, 1, 0)  # a 1 µs window holds one message per source
    def test_distinct_ids_or_window_full(self, nodes, count, start, width, seed):
        # The schedule is the only guard on message-id uniqueness.
        window = (start, start + width - 1)  # width microseconds
        try:
            specs = build_schedule(nodes, count, window, random.Random(seed))
        except IdCollisionError:
            assert count > width
            return
        assert len(specs) == count
        assert all(start <= s.creation_time_us <= window[1] for s in specs)
        ids = {make_message_id(s.source, s.creation_time_us) for s in specs}
        assert len(ids) == count
