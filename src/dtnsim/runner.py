"""Wires a scenario into a simulation run and produces reports.

Setup schedules the traffic before it starts the nodes, and the kernel runs
the events of one microsecond in the order they were scheduled. So a
message created in the microsecond of a node's first beacon tick is stored
before that tick runs. The order only fixes that tie: the exchange a beacon
opens begins when the beacon is received, at least one service time after
the tick, with the message stored either way.
"""

from __future__ import annotations

import random

from .metrics import RunReport, compute
from .netsim import EVENT_TRAFFIC, NodeTransport, RadioNetwork, Simulator, to_us
from .protocol import EpidemicNode
from .records import RunTrace
from .scenario import Scenario
from .traffic import build_schedule, generate_message, message_payloads


def build_run(
    scenario: Scenario, seed: int, trace: RunTrace | None = None
) -> tuple[Simulator, RadioNetwork, list[EpidemicNode], RunTrace]:
    trajectories = scenario.trajectories
    node_count = len(trajectories)
    sim = Simulator()
    trace = RunTrace() if trace is None else trace
    network = RadioNetwork(
        sim,
        scenario.link,
        trajectories,
        scenario.queue_capacity,
        to_us(scenario.queue_residency_s),
        random.Random(f"{seed}:loss"),
        trace,
    )
    nodes = []
    for i in range(node_count):
        node = EpidemicNode(
            node_id=i,
            config=scenario.protocol,
            transport=NodeTransport(network, i),
            trace=trace,
            beacon_rng=random.Random(f"{seed}:beacon:{i}"),
        )
        network.attach(i, node.handle_packet)
        nodes.append(node)

    traffic = scenario.traffic
    if traffic.message_count:
        window = (to_us(traffic.start_s), to_us(traffic.end_s))
        specs = build_schedule(
            node_count, traffic.message_count, window, random.Random(f"{seed}:traffic")
        )
        packets = message_payloads(traffic.message_size, traffic.packet_payload)
        for spec in specs:
            entry = generate_message(spec, packets, scenario.protocol.hop_limit)
            sim.schedule(
                spec.creation_time_us,
                EVENT_TRAFFIC,
                lambda node=nodes[spec.source], e=entry, t=spec.creation_time_us: (
                    node.originate(e, t)
                ),
            )
    for node in nodes:
        node.start(0)
    return sim, network, nodes, trace


def run_once(
    scenario: Scenario, seed: int, trace: RunTrace | None = None
) -> tuple[RunReport, RunTrace]:
    """Run `scenario` at `seed`; a run that breaks a law raises RunLawError."""
    sim, network, _, trace = build_run(scenario, seed, trace)
    sim.run(scenario.duration_us)
    network.finalize()
    trace.audit(scenario.protocol)
    return compute(trace, seed), trace


def run_seeds(scenario: Scenario) -> list[RunReport]:
    return [run_once(scenario, seed)[0] for seed in scenario.seeds]
