"""Whole-run metamorphic laws: input changes whose effect on a run is known
exactly, checked over the small worlds of the twins. Every run made here
also keeps the laws of every run (`RunTrace.audit`, which `run_once`
calls), under the kernel's tie order and under any other
(`slow_twin.ShuffledTies`)."""

import hashlib
import re

import pytest
from conftest import SEC, build_world, originate_at, tier1_or_deep
from hypothesis import given, strategies as st
from slow_twin import ShuffledTies
from test_slow_twin import small_world_traces, small_worlds
from workloads import random_waypoint_trace

import dtnsim.mobility
import dtnsim.runner
from dtnsim.mobility import Trajectory, parse_ns2_trace
from dtnsim.netsim import LinkModel
from dtnsim.protocol import ProtocolConfig
from dtnsim.records import KIND_BEACON, PKT_LOSS, PKT_SUBMITTED, PKT_TRANSMITTED, ReplayTrace
from dtnsim.runner import run_once
from dtnsim.scenario import Scenario, TrafficParams
from dtnsim.traffic import MessageSpec, generate_message, message_payloads

# The symmetries of the square other than the identity: the mirrors in x,
# in y and in both diagonals, and the rotations by 90, 180 and 270 degrees.
# Each only negates or swaps coordinates, which is exact in floats.
SYMMETRIES = (
    lambda x, y: (-x, y),
    lambda x, y: (x, -y),
    lambda x, y: (y, x),
    lambda x, y: (-y, -x),
    lambda x, y: (-y, x),
    lambda x, y: (-x, -y),
    lambda x, y: (y, -x),
)


def run(scenario, order=None):
    """The ReplayTrace of a run of `scenario`, which `run_once` audits. With
    an `order`, the run's kernel is a ShuffledTies that breaks ties by it."""
    with pytest.MonkeyPatch.context() as patch:
        if order is not None:
            patch.setattr(dtnsim.runner, "Simulator", lambda: ShuffledTies(order))
        return run_once(scenario, 1, ReplayTrace())[1]


def digest(scenario, order=None):
    return hashlib.sha256(run(scenario, order).dump().encode()).hexdigest()


def moved(text, symmetry):
    """The trajectories of trace `text`, with each node's start and waypoints
    moved by `symmetry` before its Trajectory is made."""

    def trajectory(x, y, waypoints):
        moved_waypoints = [(t, *symmetry(wx, wy), v) for t, wx, wy, v in waypoints]
        return Trajectory(*symmetry(x, y), moved_waypoints)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dtnsim.mobility, "Trajectory", trajectory)
        return tuple(parse_ns2_trace(text))


def turned_text(text):
    """Trace `text` turned by 90 degrees, (x, y) to (-y, x), as text. Each
    node's X_ line precedes its Y_ line and no coordinate is negative, as
    the trace generator writes them."""
    text = re.sub(
        r"set X_ (\S+)\n(\S+) set Y_ (\S+)",
        lambda m: f"set X_ -{m[3]}\n{m[2]} set Y_ {m[1]}",
        text,
    )
    return re.sub(r"setdest (\S+) (\S+)", lambda m: f"setdest -{m[2]} {m[1]}", text)


def records_before(trace, t_us):
    records = (trace.generated, trace.deliveries, trace.transfers, trace.message_drops)
    return [[r for r in kind if r.time_us < t_us] for kind in records]


class TestSymmetriesOfTheSquare:
    @given(small_world_traces())
    @tier1_or_deep(40)
    def test_each_symmetry_gives_the_same_run(self, world):
        # Distances, crossing times and the pieces' scales combine the
        # coordinates by sums of products, absolute values and maxima, so
        # they come out bit for bit the same after a symmetry.
        text, scenario = world
        expected = digest(scenario)
        for symmetry in SYMMETRIES:
            assert digest(scenario._replace(trajectories=moved(text, symmetry))) == expected
        turned = tuple(parse_ns2_trace(turned_text(text)))
        assert turned == moved(text, SYMMETRIES[4])  # (-y, x)
        assert digest(scenario._replace(trajectories=turned)) == expected


class TestCausality:
    @given(small_worlds())
    @tier1_or_deep(40)
    def test_a_run_of_half_the_duration_is_the_first_half_of_the_run(self, scenario):
        # The traffic window ends at half the duration, so both runs make
        # the same messages; nothing before then may depend on the run's end.
        half = scenario.duration_s / 2
        world = scenario._replace(traffic=scenario.traffic._replace(end_s=half))
        full, cut = run(world), run(world._replace(duration_s=half))
        assert records_before(cut, half * SEC) == records_before(full, half * SEC)


class TestHopLimitOne:
    @given(small_worlds())
    @tier1_or_deep(40)
    def test_every_copy_leaves_the_source_and_arrives_in_one_hop(self, scenario):
        world = scenario._replace(protocol=scenario.protocol._replace(hop_limit=1))
        trace = run(world)
        assert all(t.from_node == t.message_id.source_node for t in trace.transfers)
        assert all(d.hops == 1 for d in trace.deliveries)


class TestShuffledTies:
    @given(small_worlds(), st.integers(0, 2**32 - 1))
    @tier1_or_deep(40)
    def test_any_tie_order_keeps_the_run_laws(self, scenario, order):
        run(scenario, order)

    def test_the_twin_reorders_the_ties(self):
        # With no beacon jitter, every node's beacon tick falls on the same
        # microseconds, and so do the completions of their beacons.
        text = random_waypoint_trace(6, 150, (5, 15), 20, 1)
        scenario = Scenario(
            tuple(parse_ns2_trace(text)), 20.0, ProtocolConfig(1.0, 0.0, 100_000, 5.0, 3, 60),
            LinkModel(2e6, 60.0), TrafficParams(6, 600, 1200, 1.0, 20.0), 30_000, 0.1,
        )
        fifo = digest(scenario)
        assert all(digest(scenario, order) != fifo for order in range(5))


@st.composite
def parked_worlds(draw):
    """A `small_world_traces` world with its traffic given per message among
    its n nodes: (trace text, Scenario, specs). `build_schedule` would draw
    the traffic over every node, the parked one too."""
    text, scenario = draw(small_world_traces())
    n = len(scenario.trajectories)
    # (source, destination offset, creation time), one id per source and time.
    sends = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.integers(0, 20 * SEC))
    messages = draw(st.lists(sends, min_size=1, max_size=12, unique_by=lambda m: (m[0], m[2])))
    return text, scenario, [MessageSpec(source, (source + k) % n, t) for source, k, t in messages]


def assert_a_parked_node_changes_nothing(text, scenario, specs):
    """Node n, parked 100 km away, leaves the records of nodes 0..n-1 and
    every packet outcome among them as they were: it hears nothing and is
    heard by no one, and the shared loss stream draws only for receivers
    in range. Returns the RecordingTrace of the run without it."""
    n = len(scenario.trajectories)
    protocol, traffic = scenario.protocol, scenario.traffic
    packets = message_payloads(traffic.message_size, traffic.packet_payload)
    traces = []
    for world_text in (text, f"{text}\n$node_({n}) set X_ 1e5\n$node_({n}) set Y_ 1e5"):
        sim, net, nodes, trace = build_world(
            world_text, protocol, scenario.link, queue_capacity=scenario.queue_capacity,
            residency_s=scenario.queue_residency_s,
        )
        for spec in specs:
            entry = generate_message(spec, packets, protocol.hop_limit)
            originate_at(sim, nodes[spec.source], entry)
        sim.run(scenario.duration_us)
        net.finalize()
        trace.audit(protocol)
        traces.append(trace)
    alone, with_parked = traces
    for records in ("generated", "deliveries", "transfers", "message_drops"):
        assert getattr(with_parked, records) == getattr(alone, records), records
    assert [e for e in with_parked.events if e[2] != n] == alone.events
    # The parked node's own events are its beacons, sent and never received.
    assert {e[:4] for e in with_parked.events if e[2] == n} == {
        (KIND_BEACON, PKT_SUBMITTED, n, None), (KIND_BEACON, PKT_TRANSMITTED, n, None)
    }
    return alone


class TestParkedNode:
    @given(parked_worlds())
    @tier1_or_deep(40)
    def test_a_node_out_of_everyone_s_range_changes_no_record(self, world):
        assert_a_parked_node_changes_nothing(*world)

    def test_a_pinned_world_that_delivers_under_loss(self):
        text = random_waypoint_trace(5, 150, (5, 15), 20, 3)
        scenario = Scenario(
            tuple(parse_ns2_trace(text)), 20.0, ProtocolConfig(1.0, 0.1, 100_000, 8.0, 3, 60),
            LinkModel(2e6, 60.0, 0.05, 2e-3), TrafficParams(4, 15_000, 1200), 30_000, 0.1,
        )
        specs = [MessageSpec(0, 2, 1 * SEC), MessageSpec(3, 1, 2 * SEC), MessageSpec(4, 0, 0),
                 MessageSpec(1, 4, 5 * SEC)]
        trace = assert_a_parked_node_changes_nothing(text, scenario, specs)
        assert len(trace.deliveries) == 4
        assert trace.count("data", PKT_LOSS) > 0
