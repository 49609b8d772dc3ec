"""RunTrace: message and packet counters, deliveries, and the audit of the
run laws, each law broken once; ReplayTrace: every message record, built
from reported fields, and the order-sensitive packet stream fold on top."""

from collections import Counter
from contextlib import nullcontext

import pytest
from workloads import random_waypoint_trace

from dtnsim import runner
from dtnsim.mobility import parse_ns2_trace
from dtnsim.netsim import LinkModel
from dtnsim.protocol import ProtocolConfig
from dtnsim.records import (
    KIND_BEACON,
    KIND_CONTROL,
    KIND_DATA,
    MSG_DROP_CAUSES,
    MSG_EVICTED,
    MSG_EXPIRED,
    MSG_HOP_EXHAUSTED,
    MSG_PARTIAL_DISCONNECT,
    PKT_DELIVERED,
    PKT_MALFORMED,
    PKT_OUT_OF_RANGE,
    PKT_SUBMITTED,
    PKT_TRANSMITTED,
    MessageDelivered,
    MessageDropped,
    MessageGenerated,
    ReplayTrace,
    RunLawError,
    RunTrace,
    TransferCompleted,
)
from dtnsim.scenario import Scenario, TrafficParams, load_scenario
from dtnsim.wire import make_message_id

EVENTS = [
    (KIND_DATA, PKT_SUBMITTED, 1518, 0, 1),
    (KIND_BEACON, PKT_TRANSMITTED, 31, 1, None),
    (KIND_DATA, PKT_DELIVERED, 1518, 0, 1),
    (KIND_DATA, PKT_SUBMITTED, 1518, 0, 1),
]


def trace_of(events):
    trace = ReplayTrace()
    for event in events:
        trace.packet_event(*event)
    return trace


def test_same_history_same_dump():
    assert trace_of(EVENTS).dump() == trace_of(EVENTS).dump()


def test_reordered_history_changes_dump_not_counts():
    forward, backward = trace_of(EVENTS), trace_of(EVENTS[::-1])
    assert forward.packet_counts == backward.packet_counts
    assert forward.packet_totals == backward.packet_totals
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
    assert forward.packet_totals == backward.packet_totals
    assert forward.dump() != backward.dump()


class TestMessageRecords:
    A, B = make_message_id(1, 10), make_message_id(2, 20)

    def test_each_method_appends_the_record_of_its_fields_in_call_order(self):
        a, b = self.A, self.B
        trace = ReplayTrace()
        trace.message_generated(10, a, 1, 2, 3000, 3)
        trace.message_generated(20, b, 2, 1, 100, 1)
        trace.transfer_completed(30, a, 1, 3)
        trace.transfer_completed(31, b, 2, 3)
        trace.message_delivered(40, a, 2, 30, 2)
        trace.message_delivered(41, b, 1, 21, 1)
        trace.message_dropped(50, 3, b, MSG_EXPIRED)
        trace.message_dropped(51, 3, a, MSG_EVICTED)
        assert trace.generated == [
            MessageGenerated(10, a, 1, 2, 3000, 3),
            MessageGenerated(20, b, 2, 1, 100, 1),
        ]
        assert trace.transfers == [
            TransferCompleted(30, a, 1, 3),
            TransferCompleted(31, b, 2, 3),
        ]
        assert trace.deliveries == [
            MessageDelivered(40, a, 2, 30, 2),
            MessageDelivered(41, b, 1, 21, 1),
        ]
        assert trace.message_drops == [
            MessageDropped(50, 3, b, MSG_EXPIRED),
            MessageDropped(51, 3, a, MSG_EVICTED),
        ]

    def test_records_appear_in_the_dump_in_call_order(self):
        trace = ReplayTrace()
        trace.message_dropped(7, 1, self.B, MSG_HOP_EXHAUSTED)
        trace.message_dropped(5, 2, self.A, MSG_EXPIRED)
        assert trace.dump().splitlines()[:2] == [
            repr(MessageDropped(7, 1, self.B, MSG_HOP_EXHAUSTED)),
            repr(MessageDropped(5, 2, self.A, MSG_EXPIRED)),
        ]


class DropLog(RunTrace):
    """Keeps each reported drop's fields itself instead of counting it."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def message_dropped(self, now, node, mid, cause):
        self.seen.append((now, node, mid, cause))


def lossy_scenario():
    # Six moving nodes, 5% loss, a small buffer, a short ttl and two hops:
    # the buffer (expired, evicted) and the protocol (hop_exhausted,
    # partial_disconnect) both report drops.
    return Scenario(
        trajectories=tuple(
            parse_ns2_trace(random_waypoint_trace(6, 150, (5, 15), 40, "drops"))
        ),
        duration_s=40.0,
        seeds=(1,),
        protocol=ProtocolConfig(1.0, 0.1, 60_000, 8.0, 2, 60),
        link=LinkModel(2e6, 60.0, loss_probability=0.05, propagation_delay_s=2e-3),
        traffic=TrafficParams(20, 15_000, 1200, 1.0, 30.0),
        queue_capacity=30_000,
        queue_residency_s=0.1,
    )


WORLDS = pytest.mark.parametrize(
    "make_scenario", [lambda: load_scenario("scenarios/mini.cfg"), lossy_scenario],
    ids=["mini", "lossy"],
)


def test_subclass_receives_every_drop_of_a_lossy_run():
    scenario = lossy_scenario()
    _, base = runner.run_once(scenario, 1, ReplayTrace())
    causes = {d.cause for d in base.message_drops}
    assert {MSG_EXPIRED, MSG_EVICTED, MSG_HOP_EXHAUSTED, MSG_PARTIAL_DISCONNECT} <= causes

    _, log = runner.run_once(scenario, 1, DropLog())
    assert isinstance(log, DropLog)
    assert log.drop_counts == dict.fromkeys(MSG_DROP_CAUSES, 0)
    assert [MessageDropped(*fields) for fields in log.seen] == base.message_drops


@WORLDS
def test_plain_and_replay_traces_of_one_run_agree(make_scenario):
    scenario = make_scenario()
    plain_report, plain = runner.run_once(scenario, 1)
    replay_report, replay = runner.run_once(scenario, 1, ReplayTrace())
    assert type(plain) is RunTrace
    assert plain.n_generated == len(replay.generated) == replay.n_generated
    assert plain.deliveries == replay.deliveries
    assert plain.n_transfers == len(replay.transfers) == replay.n_transfers
    by_cause = Counter(d.cause for d in replay.message_drops)
    assert plain.drop_counts == {cause: by_cause[cause] for cause in MSG_DROP_CAUSES}
    assert plain.drop_counts == replay.drop_counts
    assert plain.pair_counts == replay.pair_counts
    assert plain.packet_counts == replay.packet_counts
    assert plain.packet_totals == replay.packet_totals
    assert list(plain._rows) == list(replay._rows)
    assert plain_report == replay_report
    assert not hasattr(plain, "dump")
    assert replay.dump().splitlines()[-1].startswith("packet stream digest: ")


@WORLDS
def test_plain_trace_keeps_no_per_transfer_state(make_scenario):
    _, trace = runner.run_once(make_scenario(), 1)
    state = {"n_generated", "n_transfers", "drop_counts", "deliveries", "_rows"}
    assert set(vars(trace)) == state
    assert type(trace.n_generated) is int and type(trace.n_transfers) is int
    assert trace.n_transfers > 0
    assert list(trace.drop_counts) == list(MSG_DROP_CAUSES)
    assert all(type(n) is int for n in trace.drop_counts.values())
    assert 0 < len(trace.deliveries) <= trace.n_generated
    assert all(type(d) is MessageDelivered for d in trace.deliveries)


# A clean run: node 0's data packet reaches node 1, node 1's beacon reaches
# node 0, and node 2 gets message 0 of the two generated, 1 s old, in 1 hop.
SENT = [(KIND_DATA, o, 0, 1) for o in (PKT_SUBMITTED, PKT_TRANSMITTED, PKT_DELIVERED)]
SENT += [(KIND_BEACON, PKT_SUBMITTED, 1, None), (KIND_BEACON, PKT_TRANSMITTED, 1, None),
         (KIND_BEACON, PKT_DELIVERED, 1, 0)]
LAWS = ProtocolConfig(message_ttl=10.0, hop_limit=3)
# A TTL of 1.0000006 s is 1,000,001 µs as the node rounds it (message_ttl_us),
# and the node keeps a message of exactly that age.
ODD_TTL = ProtocolConfig(message_ttl=1.0000006)


@pytest.mark.parametrize("packets, deliveries, protocol", [
    ([], [], LAWS),
    ([(KIND_DATA, PKT_SUBMITTED, 0, 1)], [], LAWS),
    ([(KIND_DATA, PKT_SUBMITTED, 0, 1), (KIND_DATA, PKT_TRANSMITTED, 0, 1)], [], LAWS),
    ([(KIND_BEACON, PKT_OUT_OF_RANGE, 1, 0)], [], LAWS),
    ([(KIND_BEACON, PKT_DELIVERED, 1, 0)], [], LAWS),
    ([(KIND_CONTROL, PKT_MALFORMED, 1, 0)], [], LAWS),
    ([], [(0, 1.0, 1)], LAWS),
    ([], [(1, 1.0, 1), (2, 1.0, 1)], LAWS),
    ([], [(1, 10.000001, 1)], LAWS),
    ([], [(1, 1.000001, 1)], ODD_TTL),
    ([], [(1, 1.000002, 1)], ODD_TTL),
    ([], [(1, 1.0, 0)], LAWS),
    ([], [(1, 1.0, 4)], LAWS),
    ([], [], None),
], ids=["clean", "submitted_unsent", "transmitted_unicast_unheard", "broadcast_out_of_range",
        "broadcast_heard_twice", "malformed", "delivered_twice", "more_deliveries_than_messages",
        "past_ttl", "at_rounded_ttl", "past_rounded_ttl", "zero_hops", "beyond_hop_limit",
        "delivery_without_protocol"])
def test_audit_breaks_on_each_law(request, packets, deliveries, protocol):
    trace = RunTrace()
    for source in (0, 1):
        trace.message_generated(0, make_message_id(source, 0), source, 2, 1000, 1)
    for kind, outcome, src, dst in SENT + packets:
        trace.packet_event(kind, outcome, 100, src, dst)
    for source, age_s, hops in [(0, 1.0, 1), *deliveries]:
        age_us = round(age_s * 1_000_000)
        trace.message_delivered(age_us, make_message_id(source, 0), 2, age_us, hops)
    kept = request.node.callspec.id in ("clean", "at_rounded_ttl")
    with nullcontext() if kept else pytest.raises(RunLawError):
        trace.audit(protocol)
