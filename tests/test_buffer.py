"""Message buffer: capacity, expiry, summaries, and disjoint sets."""

import itertools
import random

import pytest
from conftest import tier1_or_deep
from hypothesis import example, given, settings, strategies as st

from dtnsim.buffer import MessageBuffer, QueueEntry
from dtnsim.records import (
    MSG_ARRIVAL_EXPIRED,
    MSG_DUPLICATE,
    MSG_EVICTED,
    MSG_EXPIRED,
    MSG_TOO_LARGE,
    ReplayTrace,
    RunTrace,
)
from dtnsim.wire import TIMESTAMP_MAX, MessageId, make_message_id

TTL_US = 1_000_000
NODE = 7


def make_buffer(capacity, ttl=TTL_US):
    trace = ReplayTrace()
    return MessageBuffer(capacity, ttl, trace, NODE), trace


def take(trace):
    """(id, cause, time) of each drop recorded since the last take.

    Every drop must be recorded at the buffer's node.
    """
    drops = trace.message_drops
    assert all(d.node == NODE for d in drops)
    taken = [(d.message_id, d.cause, d.time_us) for d in drops]
    drops.clear()
    return taken


def entry(source, gen_us, size=10, destination=99, hop_budget=5):
    mid = make_message_id(source, gen_us)
    return QueueEntry(mid, destination, (bytes(size),), hop_budget)


def multi_packet_entry(source, gen_us, payloads):
    mid = make_message_id(source, gen_us)
    return QueueEntry(mid, 99, tuple(payloads), 5)


class TestEnqueue:
    def test_accept_into_empty(self):
        buf, trace = make_buffer(100)
        e = entry(1, 0, size=10)
        assert buf.enqueue(e, now=0) is None
        assert e.message_id in buf and take(trace) == []
        assert len(buf) == 1 and buf.used_bytes == 10

    def test_duplicate_rejected_without_side_effects(self):
        buf, trace = make_buffer(100)
        e = entry(1, 0)
        buf.enqueue(e, 0)
        assert e.message_id in buf and take(trace) == []
        buf.enqueue(entry(1, 0), 5)
        assert take(trace) == [(e.message_id, MSG_DUPLICATE, 5)]
        assert len(buf) == 1 and buf.get(e.message_id) is e

    def test_oldest_evicted_first(self):
        buf, trace = make_buffer(20)
        a, b = entry(1, 1, size=10), entry(2, 2, size=10)
        buf.enqueue(a, 10)
        buf.enqueue(b, 10)
        assert a.message_id in buf and b.message_id in buf and take(trace) == []
        c = entry(3, 3, size=10)
        buf.enqueue(c, 10)
        assert c.message_id in buf
        assert take(trace) == [(a.message_id, MSG_EVICTED, 10)]
        assert buf.summary() == sorted([b.message_id, c.message_id])

    def test_expired_at_enqueue_rejected(self):
        buf, trace = make_buffer(100)
        e = entry(1, 0)
        buf.enqueue(e, now=TTL_US + 1)
        assert e.message_id not in buf
        assert take(trace) == [(e.message_id, MSG_ARRIVAL_EXPIRED, TTL_US + 1)]

    def test_larger_than_capacity_rejected(self):
        buf, trace = make_buffer(5)
        e = entry(1, 0, size=6)
        buf.enqueue(e, 0)
        assert e.message_id not in buf
        assert take(trace) == [(e.message_id, MSG_TOO_LARGE, 0)]

    def test_final_packet_may_be_smaller(self):
        e = multi_packet_entry(1, 0, [bytes(10), bytes(10), bytes(4)])
        assert e.byte_size == 24
        buf, trace = make_buffer(24)
        buf.enqueue(e, 0)
        assert e.message_id in buf and take(trace) == []
        assert buf.used_bytes == 24

    def test_eviction_matches_brute_force_oracle(self):
        # Oracle: evicting the shortest oldest-first prefix that frees
        # enough bytes, computed independently of the buffer.
        rng = random.Random(42)
        for _ in range(200):
            capacity = rng.randint(20, 60)
            buf, trace = make_buffer(capacity)
            stored = []
            for i in range(rng.randint(0, 6)):
                e = entry(i + 1, rng.randint(0, 50), size=rng.randint(5, 20))
                buf.enqueue(e, 60)
                if e.message_id in buf:
                    stored.append(e)
                    stored = [
                        s for s in stored if s.message_id in buf.summary()
                    ]
            take(trace)
            new = entry(15, rng.randint(0, 50), size=rng.randint(5, 20))
            used = sum(s.byte_size for s in stored)
            expected = []
            free = capacity - used
            for s in sorted(stored, key=lambda s: (s.message_id.timestamp_us, s.message_id.raw)):
                if new.byte_size <= free:
                    break
                expected.append(s.message_id)
                free += s.byte_size
            buf.enqueue(new, 60)
            assert new.message_id in buf
            assert take(trace) == [(m, MSG_EVICTED, 60) for m in expected]


class TestDropExpired:
    def test_boundary_one_microsecond_past_ttl(self):
        buf, trace = make_buffer(100)
        a = entry(1, 0)
        b = entry(2, TTL_US)
        buf.enqueue(a, 0)
        buf.enqueue(b, TTL_US)  # sweeps first; a's age is exactly ttl, kept
        assert len(buf) == 2 and take(trace) == []
        buf.drop_expired(TTL_US + 1)  # a now one microsecond too old
        assert take(trace) == [(a.message_id, MSG_EXPIRED, TTL_US + 1)]
        assert buf.summary() == [b.message_id]

    def test_age_exactly_ttl_kept(self):
        buf, trace = make_buffer(100)
        a = entry(1, 0)
        buf.enqueue(a, 0)
        buf.drop_expired(TTL_US)
        assert take(trace) == []
        assert a.message_id in buf

    def test_empty_buffer(self):
        buf, trace = make_buffer(100)
        assert buf.drop_expired(10) is None
        assert take(trace) == []

    def test_all_expired(self):
        buf, trace = make_buffer(100)
        entries = [entry(i + 1, i) for i in range(3)]
        for i, e in enumerate(entries):
            buf.enqueue(e, i)
        buf.drop_expired(TTL_US + 10)
        assert take(trace) == [(e.message_id, MSG_EXPIRED, TTL_US + 10) for e in entries]
        assert len(buf) == 0

    def test_later_entry_expires_after_oldest_was_evicted(self):
        buf, trace = make_buffer(20, ttl=100)
        a, b, c = entry(1, 0, size=10), entry(2, 50, size=10), entry(3, 60, size=10)
        buf.enqueue(a, 0)
        buf.enqueue(b, 50)
        buf.enqueue(c, 60)
        assert take(trace) == [(a.message_id, MSG_EVICTED, 60)]
        for now, expired in ((150, []), (151, [b]), (160, []), (161, [c])):
            buf.drop_expired(now)
            assert take(trace) == [(e.message_id, MSG_EXPIRED, now) for e in expired]
        assert len(buf) == 0
        buf.drop_expired(10_000)
        assert take(trace) == []


class TestSummary:
    def test_sorted_by_raw_id(self):
        buf, _ = make_buffer(100)
        hi, lo = entry(2, 5), entry(1, 9)
        buf.enqueue(hi, 9)
        buf.enqueue(lo, 9)
        assert buf.summary() == [lo.message_id, hi.message_id]

    def test_empty(self):
        assert make_buffer(100)[0].summary() == []

    def test_excludes_expired(self):
        buf, trace = make_buffer(100)
        e = entry(1, 0)
        buf.enqueue(e, 0)
        buf.drop_expired(TTL_US + 1)
        assert buf.summary() == []
        assert take(trace) == [(e.message_id, MSG_EXPIRED, TTL_US + 1)]


class TestFindDisjoint:
    def test_difference_in_generation_order(self):
        buf, _ = make_buffer(100)
        a, b, c = entry(1, 30), entry(2, 10), entry(3, 20)
        for e in (a, b, c):
            buf.enqueue(e, 30)
        assert buf.find_disjoint({b.message_id}) == [c.message_id, a.message_id]

    def test_subset_of_remote(self):
        buf, _ = make_buffer(100)
        a = entry(1, 0)
        buf.enqueue(a, 0)
        assert buf.find_disjoint({a.message_id, entry(2, 1).message_id}) == []

    def test_against_brute_force_over_all_subsets(self):
        buf, _ = make_buffer(1000)
        entries = [entry(i + 1, 10 * i) for i in range(8)]
        for e in entries:
            buf.enqueue(e, 100)
        ids = [e.message_id for e in entries]
        for r in range(len(ids) + 1):
            for remote in itertools.combinations(ids, r):
                expected = sorted(
                    set(ids) - set(remote), key=lambda m: (m.timestamp_us, m.raw)
                )
                assert buf.find_disjoint(set(remote)) == expected

    def test_disjoint_of_own_summary_is_empty(self):
        buf, _ = make_buffer(100)
        for i in range(4):
            buf.enqueue(entry(i + 1, i), 5)
        assert buf.find_disjoint(buf.summary()) == []


class TestAgeOrder:
    """Purge and disjoint order is (generation time, raw id), ties included."""

    stamps = st.lists(
        st.tuples(st.integers(0, 0xFFFF), st.integers(0, 3)), min_size=1, max_size=12,
        unique=True,
    )

    @staticmethod
    def oracle(ids):
        return sorted(ids, key=lambda m: (m.timestamp_us, m.raw))

    def test_equal_timestamps_order_by_source(self):
        buf, _ = make_buffer(100)
        for source in (7, 2, 300, 5):
            buf.enqueue(entry(source, 4), 4)
        buf.enqueue(entry(9, 3), 4)
        assert [(m.source_node, m.timestamp_us) for m in buf.find_disjoint(())] == [
            (9, 3), (2, 4), (5, 4), (7, 4), (300, 4)
        ]

    @given(stamps)
    def test_find_disjoint_order(self, stamps):
        buf, _ = make_buffer(1000)
        ids = [make_message_id(source, ts) for source, ts in stamps]
        for mid in ids:
            buf.enqueue(QueueEntry(mid, 99, (bytes(10),), 5), 10)
        assert buf.find_disjoint(()) == self.oracle(ids)
        assert buf.find_disjoint(ids[::2]) == self.oracle(ids[1::2])

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 0xFFFF),
                st.one_of(st.integers(0, 7), st.integers(0, TIMESTAMP_MAX)),
                st.booleans(),  # a MessageId, else a plain int
                st.booleans(),  # in the remote summary
            ),
            max_size=40, unique_by=lambda s: s[:2],
        )
    )
    # Times whose low 32 bits order them the other way, and a tie.
    @example([(1, 1 << 40, True, False), (2, 5, False, False), (0, 5, True, False),
              (3, 6, False, True)])
    def test_find_disjoint_matches_the_age_order_key(self, stamps):
        # Buffer keys are MessageIds (originated) or plain ints (received),
        # over the whole 16-bit node and 48-bit time ranges. None is past
        # its ttl at 10 us.
        buf, _ = make_buffer(1000)
        ids = [
            make_message_id(source, ts) if wrap else (source << 48) | ts
            for source, ts, wrap, _ in stamps
        ]
        for mid in ids:
            buf.enqueue(QueueEntry(mid, 99, (bytes(10),), 5), 10)
        remote = {mid for mid, (*_, held) in zip(ids, stamps) if held}
        by_age = sorted(set(ids) - remote, key=lambda mid: (mid & TIMESTAMP_MAX, mid))
        assert buf.find_disjoint(remote) == by_age

    @given(stamps)
    def test_purge_order(self, stamps):
        capacity = 10 * len(stamps)
        buf, trace = make_buffer(capacity)
        ids = [make_message_id(source, ts) for source, ts in stamps]
        for mid in ids:
            buf.enqueue(QueueEntry(mid, 99, (bytes(10),), 5), 10)
        assert take(trace) == []
        big = entry(0x10000 - 1, 10, size=capacity)
        buf.enqueue(big, 10)
        assert big.message_id in buf
        assert take(trace) == [(m, MSG_EVICTED, 10) for m in self.oracle(ids)]


class ReferenceBuffer:
    """Brute-force model: every expiry check scans every entry."""

    def __init__(self, capacity, ttl):
        self.capacity, self.ttl = capacity, ttl
        self.entries = {}  # raw id -> (generated_at, size), in insertion order

    def drop_expired(self, now):
        dropped = [r for r, (gen, _) in self.entries.items() if now - gen > self.ttl]
        for r in dropped:
            del self.entries[r]
        return dropped

    def enqueue(self, raw, gen, size, now):
        """Returns (rejection cause or None, expired ids, evicted ids)."""
        expired = self.drop_expired(now)
        if raw in self.entries:
            return MSG_DUPLICATE, expired, []
        if now - gen > self.ttl:
            return MSG_ARRIVAL_EXPIRED, expired, []
        if size > self.capacity:
            return MSG_TOO_LARGE, expired, []
        free = self.capacity - sum(s for _, s in self.entries.values())
        evicted = []
        for r in sorted(self.entries, key=lambda r: (self.entries[r][0], r)):
            if size <= free:
                break
            evicted.append(r)
            free += self.entries[r][1]
        for r in evicted:
            del self.entries[r]
        self.entries[raw] = (gen, size)
        return None, expired, evicted


buffer_ops = st.lists(
    st.tuples(
        # "evict" enqueues an entry large enough to purge older ones,
        # "too_large" one larger than the whole buffer.
        st.sampled_from(["enqueue", "evict", "too_large", "expire"]),
        st.integers(0, 5),  # source
        st.integers(0, 80),  # age at arrival (ttl is 50)
        st.integers(0, 30),  # time step before the operation
        st.integers(0, 15),  # bit i set: the remote holds the i-th stored id
        st.booleans(),  # the remote also holds an id never stored
    ),
    max_size=40,
)


@tier1_or_deep(300)
@given(buffer_ops)
@example([("enqueue", 1, 0, 0, 0, False), ("enqueue", 2, 0, 20, 1, True),
          ("evict", 3, 0, 10, 2, False), ("too_large", 4, 0, 0, 0, True),
          ("expire", 0, 0, 41, 3, False), ("expire", 0, 0, 10, 0, False)])
def test_expiry_and_eviction_match_brute_force(op_list):
    # Compares the drops each operation records with the oracle's, and the
    # summary and disjoint set with the oracle's contents.
    buf, trace = make_buffer(40, ttl=50)
    ref = ReferenceBuffer(40, 50)
    now = 0
    for op, source, age, step, remote_mask, foreign in op_list:
        now += step
        if op == "expire":
            buf.drop_expired(now)
            expected = [(r, MSG_EXPIRED, now) for r in ref.drop_expired(now)]
        else:
            gen = max(now - age, 0)
            size = {"evict": 25, "too_large": 41}.get(op, 10)
            buf.enqueue(entry(source, gen, size=size), now)
            raw = make_message_id(source, gen)
            rejected, expired, evicted = ref.enqueue(raw, gen, size, now)
            expected = [(r, MSG_EXPIRED, now) for r in expired]
            expected += [(r, MSG_EVICTED, now) for r in evicted]
            if rejected is not None:
                expected.append((raw, rejected, now))
        assert take(trace) == expected
        assert [
            (e.message_id, e.message_id.timestamp_us, e.byte_size) for e in buf.entries()
        ] == [(MessageId(r), gen, size) for r, (gen, size) in ref.entries.items()]
        assert buf.summary() == sorted(ref.entries)
        remote = [r for i, r in enumerate(ref.entries) if remote_mask >> i & 1]
        if foreign:
            remote.append(make_message_id(6, now))
        # As a summary's fragments: the remote's ids in two tuples.
        assert buf.find_disjoint(tuple(remote[::2]), tuple(remote[1::2])) == sorted(
            set(ref.entries) - set(remote), key=lambda r: (ref.entries[r][0], r)
        )


ops = st.lists(
    st.tuples(
        st.sampled_from(["enqueue", "expire"]),
        st.integers(0, 7),  # source
        st.integers(0, 40),  # generation time
        st.integers(1, 30),  # size
    ),
    max_size=30,
)


@settings(max_examples=200)
@given(ops, st.integers(10, 60))
def test_capacity_never_exceeded(op_list, capacity):
    buf, _ = make_buffer(capacity, ttl=50)
    now = 0
    for op, source, gen, size in op_list:
        now = max(now, gen)
        if op == "enqueue":
            buf.enqueue(entry(source, gen, size=size), now)
        else:
            buf.drop_expired(now)
        assert buf.used_bytes <= capacity
        assert buf.used_bytes == sum(e.byte_size for e in buf.entries())


@settings(max_examples=200)
@given(ops, st.integers(10, 60))
def test_eviction_is_oldest_first(op_list, capacity):
    # No eviction may remove an entry generated later than one it keeps,
    # other than the incoming entry itself.
    buf, trace = make_buffer(capacity, ttl=1_000_000)
    for op, source, gen, size in op_list:
        if op != "enqueue":
            continue
        incoming = entry(source, gen, size=size)
        buf.enqueue(incoming, 100)
        evicted = [mid for mid, cause, _ in take(trace) if cause == MSG_EVICTED]
        if incoming.message_id in buf and evicted:
            newest_evicted = max(m.timestamp_us for m in evicted)
            for e in buf.entries():
                if e.message_id != incoming.message_id:
                    assert e.message_id.timestamp_us >= newest_evicted


def test_constructor_validation():
    with pytest.raises(ValueError):
        MessageBuffer(0, TTL_US, RunTrace(), NODE)
    with pytest.raises(ValueError):
        MessageBuffer(10, 0, RunTrace(), NODE)
    with pytest.raises(ValueError):
        QueueEntry(make_message_id(1, 0), 99, (), 5)
    for destination in (-1, 0x10000):
        with pytest.raises(ValueError, match="destination out of 16-bit range"):
            QueueEntry(make_message_id(1, 0), destination, (b"x",), 5)
    with pytest.raises(ValueError, match="hop_budget must be non-negative"):
        QueueEntry(make_message_id(1, 0), 99, (b"x",), -1)


@pytest.mark.parametrize(
    "mutable", [bytearray(b"abc"), memoryview(bytearray(b"abc")), [97, 98, 99]]
)
def test_entry_payloads_must_be_immutable_bytes(mutable):
    # Every copy of a message shares its payload objects, so one mutable
    # payload would let a change at one node reach every node.
    mid = make_message_id(1, 0)
    with pytest.raises(TypeError, match="bytes"):
        QueueEntry(mid, 2, (mutable,), 3)
    with pytest.raises(TypeError, match="bytes"):
        QueueEntry(mid, 2, (b"ok", mutable), 3)
    assert QueueEntry(mid, 2, (b"abc", b""), 3).byte_size == 3
