"""ns-2 mobility traces: parsing, and the piecewise-linear trajectories they describe.

Accepted lines:

    $node_(3) set X_ 12.5
    $node_(3) set Y_ 40.0
    $node_(3) set Z_ 0.0                       # parsed, ignored
    $ns_ at 10.0 "$node_(3) setdest 50.0 40.0 2.5"

Position between waypoints is linear at the given speed and clamps at the
destination; a waypoint mid-flight cuts the current move short. Node
indices must be contiguous from 0, every node needs an initial X_ and Y_,
every time, coordinate and speed must be finite, and no time or speed may
be negative. A Trajectory keeps its motion as one table of linear pieces,
which `position_at` and `piece_at` both look up. The module reads traces
and makes none.
"""

from __future__ import annotations

import bisect
import math
import re
from typing import Iterable


class TraceParseError(ValueError):
    """Malformed mobility trace; the message carries the line number."""


_INIT_RE = re.compile(
    r"^\$node_\((\d+)\)\s+set\s+([XYZ])_\s+(\S+)$"
)
_WAYPOINT_RE = re.compile(
    r"^\$ns_\s+at\s+(\S+)\s+\"\$node_\((\d+)\)\s+setdest\s+(\S+)\s+(\S+)\s+(\S+)\"$"
)


class Trajectory:
    """A single node's position over time: it starts at (x, y) and follows
    its (t, x, y, speed) waypoints, finite, with no negative time or speed,
    and in time order (else ValueError). It never changes once made; it
    compares and hashes by value.

    Its motion is one table of pieces in time order, (t0, x0, y0, t1, x1,
    y1, vx, vy, end, scale): from (x0, y0) at t0 to (x1, y1) at t1, then
    still until `end`. A parked piece has t1 = t0; the first starts at
    -inf. The scale is the largest coordinate and, if moving, speed times
    t1 (a rounded t shifts the point by speed * ulp(t)).
    """

    def __init__(
        self, x: float, y: float, waypoints: Iterable[tuple[float, float, float, float]] = ()
    ) -> None:
        waypoints = tuple(waypoints)
        if not all(map(math.isfinite, (x, y, *(v for w in waypoints for v in w)))):
            raise ValueError("non-finite position, time or speed in a trajectory")
        if any(t < 0 or speed < 0 for t, _, _, speed in waypoints):
            raise ValueError("negative time or speed in a waypoint")
        if any(later[0] < w[0] for w, later in zip(waypoints, waypoints[1:])):
            raise ValueError("a waypoint is earlier than the one before it")
        # (t0, x0, y0, t1, x1, y1) per move; the node stops at (sx, sy) after the last.
        segments = []
        sx, sy = x, y
        for t, wx, wy, speed in waypoints:
            if segments and t < segments[-1][3]:
                # A new command mid-flight cuts the last segment short.
                t0, x0, y0, t1, x1, y1 = segments[-1]
                frac = (t - t0) / (t1 - t0)
                sx, sy = x0 + (x1 - x0) * frac, y0 + (y1 - y0) * frac
                segments[-1] = (t0, x0, y0, t, sx, sy)
            dist = math.hypot(wx - sx, wy - sy)
            if speed > 0.0 and dist > 0.0:
                segments.append((t, sx, sy, t + dist / speed, wx, wy))
                sx, sy = wx, wy
        ends = [t0 for t0, *_ in segments] + [math.inf]
        pieces = [(-math.inf, x, y, -math.inf, x, y, 0.0, 0.0, ends[0], max(abs(x), abs(y)))]
        for (t0, x0, y0, t1, x1, y1), end in zip(segments, ends[1:]):
            if t1 > t0:
                vx, vy = (x1 - x0) / (t1 - t0), (y1 - y0) / (t1 - t0)
                scale = max(abs(x0), abs(y0), abs(x1), abs(y1), math.hypot(vx, vy) * t1)
                pieces.append((t0, x0, y0, t1, x1, y1, vx, vy, t1, scale))
            pieces.append((t1, x1, y1, t1, x1, y1, 0.0, 0.0, end, max(abs(x1), abs(y1))))
        self._pieces = tuple(pieces)
        self._starts = tuple(piece[0] for piece in pieces)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Trajectory:
            return NotImplemented
        return self._pieces == other._pieces

    def __hash__(self) -> int:
        return hash(self._pieces)

    def position_at(self, t: float) -> tuple[float, float]:
        return self.piece_at(t)[:2]

    def piece_at(self, t: float) -> tuple[float, float, float, float, float, float]:
        """(x, y, vx, vy, end_s, scale): the point at t, then the linear piece
        of motion holding t: its velocity; its end (the segment's end while
        moving, the next start while parked, inf after the last); and a
        magnitude whose epsilon bounds the point's rounding. A jump is no
        piece. A nan time is a ValueError."""
        piece = self._pieces[bisect.bisect_right(self._starts, t) - 1]
        t0, x0, y0, t1, x1, y1, vx, vy, end, scale = piece
        if t >= t1:
            return (x1, y1, vx, vy, end, scale)
        if t != t:  # nan compares false to every start and end
            raise ValueError("the time is nan")
        frac = (t - t0) / (t1 - t0)
        return (x0 + (x1 - x0) * frac, y0 + (y1 - y0) * frac, vx, vy, end, scale)


def crossing_time(dx: float, dy: float, ux: float, uy: float, r: float, inside: bool) -> float:
    """The first s > 0 at which d + u * s, moving from d = (dx, dy) at
    velocity u = (ux, uy), is at distance r from the origin: where it
    leaves that circle if `inside`, else where it enters it; inf if never.

    The point crosses at ahead -/+ h along its path, h = sqrt((r - miss)
    * (r + miss)), where ahead is the way to its closest approach and miss
    the distance there. Each root is taken in the form that adds its terms
    (their product is |d|^2 - r^2), so s is exact to a few ulps of |d|, r
    and |u| * s. 0 if the arithmetic overflows.
    """
    speed = math.hypot(ux, uy)
    if not speed:
        return math.inf
    ex, ey = ux / speed, uy / speed
    ahead = -(dx * ex + dy * ey)
    miss = abs(dx * ey - dy * ex)
    if not inside and (ahead <= 0.0 or miss >= r):
        return math.inf
    dist = math.hypot(dx, dy)
    c = (dist - r) * (dist + r)
    h = math.sqrt(max(0.0, (r - miss) * (r + miss)))
    if inside:
        tau = ahead + h if ahead >= 0.0 else -c / (h - ahead)
    else:
        tau = c / (ahead + h)
    s = tau / speed
    return s if s >= 0.0 else 0.0  # a nan, or a start on the circle


def parse_ns2_trace(text: str) -> list[Trajectory]:
    """Parse trace text into trajectories indexed by node id."""
    initials: dict[int, dict[str, float]] = {}
    waypoints: list[tuple[float, int, float, float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _INIT_RE.match(line)
        if m:
            node, axis, value = int(m.group(1)), m.group(2), m.group(3)
            try:
                coord = float(value)
            except ValueError:
                raise TraceParseError(
                    f"line {lineno}: bad coordinate {value!r}"
                ) from None
            if not math.isfinite(coord):
                raise TraceParseError(
                    f"line {lineno}: non-finite coordinate {value!r}"
                )
            initials.setdefault(node, {})[axis] = coord
            continue
        m = _WAYPOINT_RE.match(line)
        if m:
            try:
                t = float(m.group(1))
                node = int(m.group(2))
                x, y, speed = (float(m.group(k)) for k in (3, 4, 5))
            except ValueError:
                raise TraceParseError(f"line {lineno}: bad waypoint numbers") from None
            if not all(map(math.isfinite, (t, x, y, speed))):
                raise TraceParseError(
                    f"line {lineno}: non-finite time, coordinate or speed in waypoint"
                )
            if t < 0 or speed < 0:
                raise TraceParseError(
                    f"line {lineno}: negative time or speed in waypoint"
                )
            waypoints.append((t, node, x, y, speed))
            continue
        raise TraceParseError(f"line {lineno}: unrecognized trace line {line!r}")

    if not initials:
        raise TraceParseError("trace defines no nodes")
    count = max(initials) + 1
    for node in range(count):
        axes = initials.get(node)
        if axes is None:
            raise TraceParseError(f"node index gap: node {node} has no position")
        if "X" not in axes or "Y" not in axes:
            raise TraceParseError(f"node {node} is missing an initial X_ or Y_")

    per_node: list[list[tuple[float, float, float, float]]] = [[] for _ in range(count)]
    waypoints.sort(key=lambda w: (w[0], w[1]))
    for t, node, x, y, speed in waypoints:
        if node >= count:
            raise TraceParseError(
                f"waypoint references node {node}, but only {count} nodes have positions"
            )
        per_node[node].append((t, x, y, speed))
    return [
        Trajectory(initials[node]["X"], initials[node]["Y"], per_node[node])
        for node in range(count)
    ]
