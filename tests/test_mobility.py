"""ns-2 trace parsing and trajectory interpolation."""

import math

import pytest
from conftest import tier1_or_deep
from hypothesis import assume, example, given, strategies as st
from slow_twin import SegmentWalk
from workloads import random_waypoint_trace

from dtnsim.mobility import TraceParseError, Trajectory, parse_ns2_trace

BASIC = """\
$node_(0) set X_ 0.0
$node_(0) set Y_ 0.0
$node_(1) set X_ 100.0
$node_(1) set Y_ 50.0
$ns_ at 0.0 "$node_(0) setdest 10.0 0.0 1.0"
"""


class TestParsing:
    def test_linear_motion(self):
        trajs = parse_ns2_trace(BASIC)
        assert trajs[0].position_at(5.0) == (5.0, 0.0)

    def test_clamps_at_destination(self):
        trajs = parse_ns2_trace(BASIC)
        # Analytic arrival: distance 10 at speed 1 -> arrives at t = 10.
        assert trajs[0].position_at(10.0) == (10.0, 0.0)
        assert trajs[0].position_at(500.0) == (10.0, 0.0)

    def test_no_waypoints_means_stationary(self):
        trajs = parse_ns2_trace(BASIC)
        assert trajs[1].position_at(0.0) == (100.0, 50.0)
        assert trajs[1].position_at(1e6) == (100.0, 50.0)

    def test_fast_arrival_before_next_waypoint(self):
        text = BASIC + '$ns_ at 20.0 "$node_(0) setdest 0.0 0.0 100.0"\n'
        trajs = parse_ns2_trace(text)
        # Covers 10m at 100 m/s: arrival at t = 20.1, clamped afterwards.
        x, y = trajs[0].position_at(20.05)
        assert x == pytest.approx(5.0) and y == 0.0
        assert trajs[0].position_at(20.1) == (0.0, 0.0)
        assert trajs[0].position_at(30.0) == (0.0, 0.0)

    def test_mid_flight_redirect(self):
        text = BASIC + '$ns_ at 5.0 "$node_(0) setdest 5.0 10.0 2.0"\n'
        trajs = parse_ns2_trace(text)
        assert trajs[0].position_at(5.0) == (5.0, 0.0)  # redirect point
        assert trajs[0].position_at(10.0) == (5.0, 10.0)  # 10m at 2 m/s

    def test_position_before_first_waypoint(self):
        text = (
            "$node_(0) set X_ 3.0\n$node_(0) set Y_ 4.0\n"
            '$ns_ at 10.0 "$node_(0) setdest 0.0 0.0 1.0"\n'
        )
        trajs = parse_ns2_trace(text)
        assert trajs[0].position_at(2.0) == (3.0, 4.0)

    def test_z_lines_and_comments_accepted(self):
        text = "# comment\n$node_(0) set X_ 1.0\n$node_(0) set Y_ 2.0\n$node_(0) set Z_ 0.0\n"
        assert len(parse_ns2_trace(text)) == 1


class TestParseErrors:
    def test_malformed_line_reports_line_number(self):
        text = "$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\ngarbage here\n"
        with pytest.raises(TraceParseError, match="line 3"):
            parse_ns2_trace(text)

    def test_node_index_gap(self):
        text = "$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\n$node_(2) set X_ 1.0\n$node_(2) set Y_ 1.0\n"
        with pytest.raises(TraceParseError, match="gap"):
            parse_ns2_trace(text)

    def test_missing_y(self):
        with pytest.raises(TraceParseError, match="missing"):
            parse_ns2_trace("$node_(0) set X_ 1.0\n")

    def test_waypoint_for_unknown_node(self):
        text = (
            "$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\n"
            '$ns_ at 1.0 "$node_(5) setdest 0.0 0.0 1.0"\n'
        )
        with pytest.raises(TraceParseError):
            parse_ns2_trace(text)

    def test_bad_number(self):
        with pytest.raises(TraceParseError, match="line 1"):
            parse_ns2_trace("$node_(0) set X_ abc\n")

    def test_empty_trace(self):
        with pytest.raises(TraceParseError):
            parse_ns2_trace("\n# nothing\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    def test_non_finite_initial_coordinate(self, axis, value):
        text = "$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\n" + (
            f"$node_(0) set {axis}_ {value}\n"
        )
        with pytest.raises(TraceParseError, match="line 3: non-finite coordinate"):
            parse_ns2_trace(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["time", "x", "y", "speed"])
    def test_non_finite_waypoint_number(self, field, value):
        numbers = {"time": "1.0", "x": "10.0", "y": "0.0", "speed": "2.0"}
        numbers[field] = value
        text = BASIC + (
            f'$ns_ at {numbers["time"]} "$node_(1) setdest '
            f'{numbers["x"]} {numbers["y"]} {numbers["speed"]}"\n'
        )
        with pytest.raises(TraceParseError, match="line 6: non-finite"):
            parse_ns2_trace(text)

    @pytest.mark.parametrize(
        "value, message", [("abc", "bad waypoint numbers"), ("-1", "negative time or speed")]
    )
    @pytest.mark.parametrize("field", [0, 3])
    def test_unparsable_or_negative_waypoint_time_or_speed(self, field, value, message):
        numbers = ["1.0", "10.0", "0.0", "2.0"]  # time, x, y, speed
        numbers[field] = value
        time, x, y, speed = numbers
        text = BASIC + f'$ns_ at {time} "$node_(1) setdest {x} {y} {speed}"\n'
        with pytest.raises(TraceParseError, match=f"line 6: {message}"):
            parse_ns2_trace(text)


class TestMotionBounds:
    def test_truncated_segment_keeps_its_speed(self):
        text = BASIC + '$ns_ at 5.0 "$node_(0) setdest 5.0 10.0 2.0"\n'
        trajs = parse_ns2_trace(text)
        assert trajs[0].piece_at(2.0) == pytest.approx((2.0, 0.0, 1.0, 0.0, 5.0, 5.0))
        assert trajs[0].piece_at(7.0) == pytest.approx((5.0, 4.0, 0.0, 2.0, 10.0, 20.0))

    def test_jump_is_infinitely_fast(self):
        # 10 m at 1e300 m/s arrives at t + 1e-299 == t: a zero-duration move.
        text = BASIC + '$ns_ at 20.0 "$node_(1) setdest 0.0 50.0 1e300"\n'
        trajs = parse_ns2_trace(text)
        assert trajs[1].position_at(20.0) == (0.0, 50.0)

    def test_piece_scale_covers_coordinates_and_speed_times_time(self):
        # Parked at (-300, 2), then 10 m at 0.5 m/s from 1000 s to 1020 s,
        # then parked at (-290, 2). Only the moving piece has the speed
        # term: 0.5 m/s * 1020 s outgrows its coordinates.
        text = (
            "$node_(0) set X_ -300.0\n$node_(0) set Y_ 2.0\n"
            '$ns_ at 1000.0 "$node_(0) setdest -290.0 2.0 0.5"\n'
        )
        traj = parse_ns2_trace(text)[0]
        assert traj.piece_at(5.0) == (-300.0, 2.0, 0.0, 0.0, 1000.0, 300.0)
        assert traj.piece_at(1010.0) == (-295.0, 2.0, 0.5, 0.0, 1020.0, 0.5 * 1020.0)
        assert traj.piece_at(2000.0) == (-290.0, 2.0, 0.0, 0.0, math.inf, 290.0)


@st.composite
def pieces(draw):
    """A trajectory, the breakpoints of its segment walk, a query time in
    whole microseconds, as the radio asks, and a fraction of the way to
    the end of the piece holding it.
    Coordinates may sit a million metres out, and times a million seconds
    in, where speed times time outgrows the coordinates; some waypoints
    are jumps (1e300 m/s)."""
    base = draw(st.sampled_from([0.0, 1e6, -3e6 + 0.1]))
    start = draw(st.sampled_from([0, 10**6]))
    units = st.floats(-100.0, 100.0)
    speeds = st.one_of(st.floats(0.001, 50.0), st.just(1e300))
    waypoints = sorted(
        draw(st.lists(st.tuples(st.floats(0.0, 100.0), units, units, speeds), max_size=4))
    )
    walk = (
        base + draw(units),
        base + draw(units),
        [(start + t, base + x, base + y, v) for t, x, y, v in waypoints],
    )
    # Up to 20 s after a waypoint, where a piece often moves.
    since = draw(st.sampled_from([start + t for t, *_ in waypoints] or [start]))
    t_us = round(since * 10**6) + draw(st.integers(0, 20 * 10**6))
    frac = draw(st.floats(0.0, 1.0, exclude_max=True))
    return Trajectory(*walk), SegmentWalk(*walk).breakpoints(), t_us, frac


class TestPieceAt:
    """piece_at: the point at t, the velocity of the linear piece holding it, and its end."""

    TEXT = (
        "$node_(0) set X_ 0.0\n$node_(0) set Y_ 0.0\n"
        '$ns_ at 10.0 "$node_(0) setdest 30.0 40.0 5.0"\n'  # arrives at 20 s
        '$ns_ at 25.0 "$node_(0) setdest 30.0 0.0 4.0"\n'  # cut short at 30 s
        '$ns_ at 30.0 "$node_(0) setdest 50.0 20.0 1.0"\n'  # from (30, 20): 50 s
    )

    def trajectory(self):
        return parse_ns2_trace(self.TEXT)[0]

    def test_before_the_first_segment_parked_until_it_starts(self):
        assert self.trajectory().piece_at(0.0) == (0.0, 0.0, 0.0, 0.0, 10.0, 0.0)
        assert self.trajectory().piece_at(9.999) == (0.0, 0.0, 0.0, 0.0, 10.0, 0.0)

    def test_mid_segment_its_velocity_until_its_end(self):
        traj = self.trajectory()
        assert traj.piece_at(10.0) == pytest.approx((0.0, 0.0, 3.0, 4.0, 20.0, 100.0))
        assert traj.piece_at(15.0) == pytest.approx((15.0, 20.0, 3.0, 4.0, 20.0, 100.0))

    def test_parked_after_arrival_until_the_next_start(self):
        assert self.trajectory().piece_at(20.0) == (30.0, 40.0, 0.0, 0.0, 25.0, 40.0)
        assert self.trajectory().piece_at(24.0) == (30.0, 40.0, 0.0, 0.0, 25.0, 40.0)

    def test_truncated_segment_ends_at_the_next_command(self):
        assert self.trajectory().piece_at(27.0) == pytest.approx(
            (30.0, 32.0, 0.0, -4.0, 30.0, 120.0))

    def test_after_the_last_segment_parked_for_ever(self):
        traj = self.trajectory()
        assert traj.piece_at(31.0) == pytest.approx((31.0, 20.0, 1.0, 0.0, 50.0, 50.0))
        assert traj.piece_at(50.0) == (50.0, 20.0, 0.0, 0.0, math.inf, 50.0)
        assert traj.piece_at(1e9) == (50.0, 20.0, 0.0, 0.0, math.inf, 50.0)

    def test_no_waypoints_parked_for_ever(self):
        assert parse_ns2_trace(BASIC)[1].piece_at(3.0) == (100.0, 50.0, 0.0, 0.0, math.inf, 100.0)

    def test_jump_ends_the_piece_before_it_and_moves_in_no_piece(self):
        text = BASIC + '$ns_ at 20.0 "$node_(1) setdest 0.0 50.0 1e300"\n'
        traj = parse_ns2_trace(text)[1]
        assert traj.piece_at(19.0) == (100.0, 50.0, 0.0, 0.0, 20.0, 100.0)
        assert traj.piece_at(20.0) == (0.0, 50.0, 0.0, 0.0, math.inf, 50.0)

    @pytest.mark.parametrize("waypoints", [[], [(1.0, 10.0, 0.0, 2.0)]])
    def test_a_nan_time_is_a_value_error_and_infinite_times_the_ends(self, waypoints):
        # A nan time raised ZeroDivisionError with waypoints (the last piece
        # is parked) and was (nan, nan) without them.
        traj = Trajectory(0.0, 0.0, waypoints)
        for ask in (traj.piece_at, traj.position_at):
            with pytest.raises(ValueError, match="nan"):
                ask(math.nan)
        assert traj.position_at(-math.inf) == (0.0, 0.0)
        assert traj.position_at(math.inf) == ((10.0, 0.0) if waypoints else (0.0, 0.0))

    @given(pieces())
    @tier1_or_deep(200)
    def test_linear_until_the_next_breakpoint(self, scene):
        traj, breakpoints, t_us, frac = scene
        t = t_us / 1e6
        x, y, vx, vy, end, scale = traj.piece_at(t)
        assert end == min((b for b in breakpoints if b > t), default=math.inf)
        span_us = (end - t) * 1e6 if end < math.inf else 1e12
        later_us = t_us + int(frac * span_us)
        assume(later_us / 1e6 < end)
        # The radio extrapolates over whole microseconds, so the query
        # times' rounding to seconds counts: speed * ulp(t) per node.
        elapsed = (later_us - t_us) / 1e6
        lx, ly = traj.position_at(later_us / 1e6)
        # 4,096 ulps of the scale, far below the radio's margin of 1e-9
        # times it (netsim.CERT_MARGIN_REL).
        tolerance = 2.0**-40 * scale
        assert abs(lx - (x + vx * elapsed)) <= tolerance
        assert abs(ly - (y + vy * elapsed)) <= tolerance


@st.composite
def walks(draw):
    """The (x, y, waypoints) of a trajectory and times to query it at.
    Waypoints may jump (1e300 m/s), stop the node (speed 0), share a time
    with the one before, or come before the node arrives, cutting its
    move short mid-flight. Coordinates may sit a million metres out and
    times a million seconds in."""
    base = draw(st.sampled_from([0.0, 1e6, -3e6 + 0.1]))
    start = draw(st.sampled_from([0.0, 1e6]))
    units = st.floats(-100.0, 100.0)
    speeds = st.one_of(st.floats(0.001, 50.0), st.just(0.0), st.just(1e300))
    times = st.one_of(st.floats(0.0, 100.0), st.sampled_from([0.0, 10.0, 20.0]))
    waypoints = sorted(draw(st.lists(st.tuples(times, units, units, speeds), max_size=6)))
    queries = draw(st.lists(st.floats(-1.0, 150.0), max_size=10))
    return (
        base + draw(units),
        base + draw(units),
        [(start + t, base + x, base + y, v) for t, x, y, v in waypoints],
    ), [start + q for q in queries]


class TestSegmentWalkReference:
    """The piece table against the segment walk, bit for bit."""

    @given(walks())
    @example(
        (
            (0.0, 0.0, [
                (0.0, 100.0, 0.0, 1.0),  # cut short at 10 s, at (10, 0)
                (10.0, 10.0, 50.0, 1e300),  # a jump
                (10.0, 10.0, 90.0, 2.0),  # at the jump's time, arrives at 30 s
                (20.0, 0.0, 0.0, 0.0),  # stops at (10, 70), mid-flight
                (20.0, 5.0, 70.0, 1.0),  # at the stop's time
            ]),
            [5.0, 25.0, 40.0],
        )
    )
    @tier1_or_deep(300)
    def test_positions_and_piece_ends_match_the_segment_walk(self, scene):
        walk, queries = scene
        traj, ref = Trajectory(*walk), SegmentWalk(*walk)
        breakpoints = ref.breakpoints()
        edges = breakpoints | {t for t, *_ in walk[2]}
        near = {math.nextafter(b, way) for b in edges for way in (-math.inf, math.inf)}
        for t in sorted(edges | near | set(queries) | {-math.inf, math.inf}):
            assert traj.position_at(t) == ref.position_at(t), t
            end = traj.piece_at(t)[4]
            assert end == min((b for b in breakpoints if b > t), default=math.inf), t


class TestTrajectoryChecks:
    def test_waypoint_earlier_than_the_one_before_rejected(self):
        # Accepted, the second waypoint cut the first segment short at 5 s,
        # before it started, and piece_at(4) said parked until 10 s while
        # position_at(6) was already moving.
        with pytest.raises(ValueError, match="earlier than the one before"):
            Trajectory(0.0, 0.0, [(10.0, 100.0, 0.0, 10.0), (5.0, 0.0, 100.0, 10.0)])

    def test_waypoints_at_one_time_accepted_and_the_last_one_wins(self):
        traj = Trajectory(0.0, 0.0, [(5.0, 100.0, 0.0, 10.0), (5.0, 0.0, 100.0, 10.0)])
        assert traj.piece_at(5.0) == (0.0, 0.0, 0.0, 10.0, 15.0, 150.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(4))
    def test_non_finite_waypoint_rejected(self, field, value):
        waypoint = [1.0, 10.0, 0.0, 2.0]  # time, x, y, speed
        waypoint[field] = value
        with pytest.raises(ValueError, match="non-finite position, time or speed"):
            Trajectory(0.0, 0.0, [tuple(waypoint)])

    @pytest.mark.parametrize(
        "waypoints",
        [
            # Accepted, the node never moved: position_at(100) was (0, 0).
            [(1.0, 10.0, 0.0, -2.0)],
            # Accepted, the node moved before 0 and was at (10, 0) at 0 s.
            [(-5.0, 10.0, 0.0, 2.0)],
            [(-5.0, 10.0, 0.0, 2.0), (3.0, 0.0, 10.0, 2.0)],
            [(2.0, 10.0, 0.0, 2.0), (3.0, 0.0, 10.0, -0.5)],
        ],
    )
    def test_negative_time_or_speed_rejected(self, waypoints):
        with pytest.raises(ValueError, match="negative time or speed in a waypoint"):
            Trajectory(0.0, 0.0, waypoints)

    def test_zero_time_and_zero_speed_accepted(self):
        # A zero speed stops the node where it is, as in a trace.
        traj = Trajectory(0.0, 0.0, [(0.0, 10.0, 0.0, 2.0), (2.0, 50.0, 0.0, 0.0)])
        assert traj.position_at(1.0) == (2.0, 0.0)
        assert traj.position_at(100.0) == (4.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_position_rejected(self, value):
        for x, y in ((value, 0.0), (0.0, value)):
            with pytest.raises(ValueError, match="non-finite position, time or speed"):
                Trajectory(x, y)


def test_trajectories_compare_and_hash_by_value():
    first, second = parse_ns2_trace(BASIC), parse_ns2_trace(BASIC)
    assert first == second and first[0] is not second[0]
    assert [hash(t) for t in first] == [hash(t) for t in second]
    assert first[0] != first[1]
    # Nothing can add a waypoint to a trajectory once it is made.
    assert not hasattr(first[0], "add_waypoint")


class TestGenerator:
    def test_deterministic_and_parseable(self):
        a = random_waypoint_trace(5, 100, (1, 3), 60, 7)
        b = random_waypoint_trace(5, 100, (1, 3), 60, 7)
        assert a == b
        trajs = parse_ns2_trace(a)
        assert len(trajs) == 5
        for t in (0.0, 10.0, 59.0):
            for traj in trajs:
                x, y = traj.position_at(t)
                assert -1e-6 <= x <= 100 + 1e-6
                assert -1e-6 <= y <= 100 + 1e-6

    def test_different_seeds_differ(self):
        assert random_waypoint_trace(3, 50, (1, 2), 30, 1) != (
            random_waypoint_trace(3, 50, (1, 2), 30, 2)
        )
