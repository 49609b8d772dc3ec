"""Whole runs through the plain path of a fast path match the fast run."""

import pytest
from conftest import tier1_or_deep
from hypothesis import given, settings, strategies as st
from slow_twin import (
    CopyingTransport,
    ExactRadio,
    HeapKernel,
    PerPacketTransport,
    RebuildingNode,
    ScanningBuffer,
)
from workloads import random_waypoint_trace

import dtnsim.protocol
import dtnsim.runner
from dtnsim.mobility import parse_ns2_trace
from dtnsim.netsim import LinkModel
from dtnsim.protocol import ProtocolConfig
from dtnsim.records import ReplayTrace
from dtnsim.runner import run_once
from dtnsim.scenario import Scenario, TrafficParams


@st.composite
def small_world_traces(draw):
    """A world's trace text and its Scenario: 3-8 random-waypoint nodes that
    meet often, with loss, an optional propagation delay, a device queue
    that overflows and hits residency, and a TTL short enough to expire
    messages. Messages are of one packet or of 13 (600 or 15,000 bytes at
    1,200 per packet), so that both receive paths run: stored on arrival,
    and reassembled."""
    nodes = draw(st.integers(3, 8))
    text = random_waypoint_trace(nodes, 150, (5, 15), 20, draw(st.integers(0, 2**32 - 1)))
    return text, Scenario(
        trajectories=tuple(parse_ns2_trace(text)),
        duration_s=20.0,
        protocol=ProtocolConfig(1.0, 0.1, 100_000, draw(st.floats(2.0, 8.0)), 3, 60),
        link=LinkModel(
            2e6,
            60.0,
            loss_probability=draw(st.floats(0.0, 0.05)),
            propagation_delay_s=draw(st.sampled_from([0.0, 2e-3])),
        ),
        traffic=TrafficParams(
            draw(st.integers(1, 12)), draw(st.sampled_from([600, 15_000])), 1200, 1.0, 20.0
        ),
        queue_capacity=30_000,
        queue_residency_s=0.1,
    )


def small_worlds():
    """The Scenario of a `small_world_traces` world."""
    return small_world_traces().map(lambda world: world[1])


def test_a_budget_is_n_examples_in_tier1_and_ten_times_n_under_deep():
    # The twins' 40 worlds in tier-1 and 400 in CI's deep run, and every
    # other `tier1_or_deep` budget, come from this one rule. Hypothesis
    # loads "ci" by itself on a CI runner, so tier-1 there runs under it.
    previous = settings.get_current_profile_name()
    try:
        budgets = []
        for profile in ("default", "ci", "deep"):
            settings.load_profile(profile)
            budget = tier1_or_deep(40)
            budgets.append((profile, budget.max_examples, budget.deadline))
    finally:
        settings.load_profile(previous)
    assert budgets == [("default", 40, None), ("ci", 40, None), ("deep", 400, None)]


def replay(scenario):
    _, trace = run_once(scenario, 1, ReplayTrace())
    return trace.dump()


def twin_replay(scenario, module, name, twin):
    """The replay dump of `scenario` with `module.name` swapped for `twin`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, twin)
        return replay(scenario)


class TestExactRadioTwin:
    @given(small_worlds())
    @tier1_or_deep(40)
    def test_certificates_off_give_the_same_run(self, scenario):
        fast = replay(scenario)
        assert twin_replay(scenario, dtnsim.runner, "RadioNetwork", ExactRadio) == fast


class TestPerPacketTransportTwin:
    @given(small_worlds())
    @tier1_or_deep(40)
    def test_one_unicast_per_packet_gives_the_same_run(self, scenario):
        fast = replay(scenario)
        assert twin_replay(scenario, dtnsim.runner, "NodeTransport", PerPacketTransport) == fast


class TestScanningBufferTwin:
    @given(small_worlds())
    @tier1_or_deep(40)
    def test_a_buffer_that_scans_and_sorts_gives_the_same_run(self, scenario):
        fast = replay(scenario)
        assert twin_replay(scenario, dtnsim.protocol, "MessageBuffer", ScanningBuffer) == fast


class TestSummaryRebuildTwin:
    @given(small_worlds())
    @tier1_or_deep(40)
    def test_summaries_built_per_send_give_the_same_run(self, scenario):
        fast = replay(scenario)
        assert twin_replay(scenario, dtnsim.runner, "EpidemicNode", RebuildingNode) == fast


class TestHeapKernelTwin:
    @given(small_worlds())
    @tier1_or_deep(40)
    def test_one_heap_for_every_event_gives_the_same_run(self, scenario):
        fast = replay(scenario)
        assert twin_replay(scenario, dtnsim.runner, "Simulator", HeapKernel) == fast


class TestCopiedPayloadTwin:
    @given(small_worlds())
    @tier1_or_deep(40)
    def test_a_payload_copy_per_hand_over_gives_the_same_run(self, scenario):
        fast = replay(scenario)
        assert twin_replay(scenario, dtnsim.runner, "NodeTransport", CopyingTransport) == fast
