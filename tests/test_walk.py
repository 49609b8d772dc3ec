"""The random-waypoint walk that every tier-1 world uses keeps the model's
exact laws, at desk's shape: a 500 m square and speeds of 15-25 m/s.

Every leg joins two points uniform in the square (the first starts at a
uniform initial position), so its mean length over the side is the mean
distance between two uniform points of the unit square. The speed of a
leg is uniform and independent of its length, so the time-average speed
is 1 / E[1/v]. Each law is checked on the per-seed values of 40 seeds of
20 nodes walking for 600 s, within 4 standard errors of their mean."""

import math
import re
import statistics

import pytest

from dtnsim.mobility import parse_ns2_trace
from workloads import random_waypoint_trace

SIDE = 500.0
V_MIN, V_MAX = 15.0, 25.0
NODES, DURATION_S, SEEDS = 20, 600.0, range(40)

MEAN_LEG_OVER_SIDE = (2 + math.sqrt(2) + 5 * math.log(1 + math.sqrt(2))) / 15  # 0.52141
TIME_AVERAGE_SPEED = (V_MAX - V_MIN) / math.log(V_MAX / V_MIN)  # 19.5762 m/s

# The trace prints every time, coordinate and speed to 4 decimals, each off
# by at most H. So a leg's parsed end is off in time by at most 2H (its own
# start and the next one's) plus DIAG * H / V_MIN**2 (its length over its
# rounded speed); at V_MAX that, plus 2H for the waypoint's own rounding, is
# the distance allowed, 6.5 mm.
H = 0.5e-4
DIAG = SIDE * math.sqrt(2)
ARRIVAL_TOLERANCE_M = V_MAX * (2 * H + DIAG * H / V_MIN**2) + 2 * H

_INITIAL = re.compile(r"\$node_\((\d+)\) set ([XY])_ (\S+)")
_SETDEST = re.compile(r'\$ns_ at (\S+) "\$node_\((\d+)\) setdest (\S+) (\S+) (\S+)"')


def walks(text):
    """Each node's initial (x, y) and its legs, (t, x, y, speed), as printed."""
    starts, legs = {}, {}
    for line in text.splitlines():
        if m := _INITIAL.fullmatch(line):
            starts.setdefault(int(m[1]), {})[m[2]] = float(m[3])
        elif m := _SETDEST.fullmatch(line):
            legs.setdefault(int(m[2]), []).append(tuple(map(float, (m[1], m[3], m[4], m[5]))))
        else:
            raise AssertionError(f"unexpected trace line {line!r}")
    return {node: ((xy["X"], xy["Y"]), legs[node]) for node, xy in starts.items()}


@pytest.fixture(scope="module")
def seed_walks():
    texts = [random_waypoint_trace(NODES, SIDE, (V_MIN, V_MAX), DURATION_S, s) for s in SEEDS]
    return [(walks(text), parse_ns2_trace(text)) for text in texts]


def mean_and_se(values):
    return statistics.fmean(values), statistics.stdev(values) / math.sqrt(len(values))


def test_mean_leg_length_and_time_average_speed(seed_walks):
    leg_means, speeds = [], []
    for nodes, _ in seed_walks:
        lengths, durations = [], []
        for (x, y), legs in nodes.values():
            for _, nx, ny, speed in legs:
                length = math.hypot(nx - x, ny - y)
                lengths.append(length)
                durations.append(length / speed)
                x, y = nx, ny
        leg_means.append(statistics.fmean(lengths) / SIDE)
        speeds.append(sum(lengths) / sum(durations))
    leg, leg_se = mean_and_se(leg_means)
    speed, speed_se = mean_and_se(speeds)
    measured = (f"leg/side {leg:.5f} ± {leg_se:.5f} (law {MEAN_LEG_OVER_SIDE:.5f}), "
                f"speed {speed:.4f} ± {speed_se:.4f} m/s (law {TIME_AVERAGE_SPEED:.4f})")
    assert abs(leg - MEAN_LEG_OVER_SIDE) <= 4 * leg_se, measured
    assert abs(speed - TIME_AVERAGE_SPEED) <= 4 * speed_se, measured


def test_every_waypoint_lies_in_the_square(seed_walks):
    outside = [
        (x, y)
        for nodes, _ in seed_walks
        for start, legs in nodes.values()
        for x, y in [start] + [(x, y) for _, x, y, _ in legs]
        if not (0 <= x <= SIDE and 0 <= y <= SIDE)
    ]
    assert outside == []


def test_parsed_trajectory_reaches_each_waypoint_at_its_arrival(seed_walks):
    # A leg arrives when the next one starts; the last, at its length over its speed.
    worst = 0.0
    for nodes, trajectories in seed_walks:
        for node, ((x, y), legs) in nodes.items():
            for k, (t, nx, ny, speed) in enumerate(legs):
                length = math.hypot(nx - x, ny - y)
                arrival = legs[k + 1][0] if k + 1 < len(legs) else t + length / speed
                px, py = trajectories[node].position_at(arrival)
                worst = max(worst, math.hypot(px - nx, py - ny))
                x, y = nx, ny
    assert worst <= ARRIVAL_TOLERANCE_M, f"{worst:.6f} m off a waypoint"
