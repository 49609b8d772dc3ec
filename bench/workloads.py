"""Workload definitions and input generation for the dtnsim benchmark.

Every input is made here from the workload seed: a random-waypoint ns-2
trace and a scenario file next to it. The generator is the benchmark's own
copy of the random-waypoint walk (same draws, same text), so the inputs do
not change when the program's generator does, and seed 1 of `desk` is
byte-for-byte the trace of the acceptance desk fixture.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path


# Planned cost of one child process, in seconds; a run of S seconds makes
# S // NOMINAL_CHILD_S children.
NOMINAL_CHILD_S = 7.5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sim": one in-process simulation; "sweep": a `dtnsim sweep` process
    nodes: int
    side_m: float
    speed: tuple[float, float]
    duration_s: float
    scenario: dict[str, str]
    # Sim only: simulations (distinct sub-seeds) per child process.
    sims_per_child: int = 1
    # Sweep only: scenario seeds per cell (seed, seed + 1, ...) and the axes.
    seeds_per_cell: int = 1
    axes: tuple[tuple[str, tuple[str, ...]], ...] = field(default=())


DESK = Workload(
    "desk",
    "sim",
    nodes=20,
    side_m=500,
    speed=(15, 25),
    duration_s=90,
    scenario={
        "beacon_interval": "0.5",
        "beacon_randomness": "0.05",
        "buffer_capacity": "25000000",
        "message_ttl": "30",
        "hop_limit": "4",
        "max_control_payload": "1400",
        "data_rate": "24e6",
        "radio_range": "40",
        "message_count": "200",
        "message_size": "60000",
        "packet_payload": "1460",
        "traffic_start": "5",
        "traffic_end": "40",
        "queue_capacity": "25000000",
        "queue_residency": "1.0",
    },
)

GOSSIP = Workload(
    "gossip",
    "sim",
    sims_per_child=2,
    nodes=24,
    side_m=200,
    speed=(1, 5),
    duration_s=45,
    scenario={
        "buffer_capacity": "50000000",
        "message_ttl": "600",
        "radio_range": "50",
        "loss_probability": "0.02",
        "message_count": "300",
        "message_size": "512",
        "packet_payload": "1460",
    },
)

CLI_SWEEP = Workload(
    "cli_sweep",
    "sweep",
    nodes=16,
    side_m=200,
    speed=(5, 15),
    duration_s=18,
    scenario={
        "message_ttl": "15",
        "message_count": "10",
        "message_size": "20000",
        "traffic_end": "10",
    },
    seeds_per_cell=2,
    axes=(("data_rate", ("2e6", "12e6")), ("radio_range", ("40", "80"))),
)

WORKLOADS = {w.name: w for w in (DESK, GOSSIP, CLI_SWEEP)}

# The same code paths at a size that runs in about a second, for the
# benchmark's own smoke test.
TINY = {
    "desk": replace(
        DESK, nodes=6, side_m=150, duration_s=8,
        scenario={**DESK.scenario, "message_count": "6", "traffic_start": "1",
                  "traffic_end": "4"},
    ),
    "gossip": replace(
        GOSSIP, nodes=6, side_m=100, duration_s=8,
        scenario={**GOSSIP.scenario, "message_count": "20"},
    ),
    "cli_sweep": replace(
        CLI_SWEEP, nodes=4, side_m=100, duration_s=6,
        scenario={**CLI_SWEEP.scenario, "message_count": "4", "traffic_end": "4"},
    ),
}


def random_waypoint_trace(
    n_nodes: int, side_m: float, speed: tuple[float, float], duration_s: float, seed: int
) -> str:
    """ns-2 trace text of a random-waypoint walk without pauses."""
    rng = random.Random(f"rwp:{seed}")
    lines = []
    walks = []
    for node in range(n_nodes):
        x, y = rng.uniform(0, side_m), rng.uniform(0, side_m)
        lines.append(f"$node_({node}) set X_ {x:.4f}")
        lines.append(f"$node_({node}) set Y_ {y:.4f}")
        t = 0.0
        walk = []
        while t < duration_s:
            nx, ny = rng.uniform(0, side_m), rng.uniform(0, side_m)
            v = rng.uniform(*speed)
            walk.append(f'$ns_ at {t:.4f} "$node_({node}) setdest {nx:.4f} {ny:.4f} {v:.4f}"')
            t += math.hypot(nx - x, ny - y) / v
            x, y = nx, ny
        walks.append(walk)
    for walk in walks:
        lines.extend(walk)
    return "\n".join(lines) + "\n"


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the trace and scenario file for `seed`; returns the scenario path."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "trace.ns").write_text(
        random_waypoint_trace(
            workload.nodes, workload.side_m, workload.speed, workload.duration_s, seed
        )
    )
    seeds = " ".join(str(seed + i) for i in range(workload.seeds_per_cell))
    keys = {"trace": "trace.ns", "duration": f"{workload.duration_s:g}", "seeds": seeds}
    keys.update(workload.scenario)
    path = directory / "scenario.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path
