"""Whole-run metamorphic laws: input changes whose effect on a run is known
exactly, checked over the small worlds of the twins. Every run made here
also keeps the laws of every run (`conftest.assert_run_laws`)."""

import hashlib
import re

import pytest
from conftest import SEC, assert_run_laws, tier1_or_deep
from hypothesis import given
from test_slow_twin import small_world_traces, small_worlds

import dtnsim.mobility
from dtnsim.mobility import Trajectory, parse_ns2_trace
from dtnsim.records import ReplayTrace
from dtnsim.runner import run_once

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


def run(scenario):
    """The ReplayTrace of a run of `scenario`, which keeps the run laws."""
    _, trace = run_once(scenario, 1, ReplayTrace())
    assert_run_laws(trace, scenario.protocol)
    return trace


def digest(scenario):
    return hashlib.sha256(run(scenario).dump().encode()).hexdigest()


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
