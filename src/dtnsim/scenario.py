"""Scenario files: line-oriented `key = value` text.

Each key sets one field of `ProtocolConfig`, `LinkModel`, `TrafficParams`
or the `Scenario` itself (`_SCHEMA`). Those classes hold the only defaults
and rules, and check them however they are built; they compare by value,
and a Scenario is frozen. `Scenario` checks the rules that span fields: node
ids fit their 16-bit wire field, and with traffic, the trace has two nodes
or more, the traffic window lies within the duration and the 48-bit message
timestamp, a message fits a node's buffer, and its packets fit the device
queue in one hand-over. It also defaults the device queue to the buffer
capacity and two beacon intervals. The file parser rejects unknown or
repeated keys and non-finite numbers, `build_scenario` an unknown key of
any mapping (a file's keys with overrides laid over them). The trace
path is resolved relative to the scenario file, and the trace is read and
parsed once per build: every seed run of a built scenario shares its
trajectories. A command reads and parses its scenario file once, and
each sweep cell builds its own scenario, trace included, from that.
Example:

    trace = mini_trace.ns_movements
    duration = 30
    seeds = 1 2 3
    data_rate = 12e6
    radio_range = 100
    message_count = 2
    message_size = 10000
"""

from __future__ import annotations

import math
from pathlib import Path

from ._value import Frozen, require_int
from .mobility import Trajectory, parse_ns2_trace
from .netsim import IP_UDP_HEADER_BYTES, LinkModel, to_us
from .protocol import MAX_PACKET_PAYLOAD, ProtocolConfig
from .wire import DATA_HEADERS_SIZE, NODE_ID_MAX, TIMESTAMP_MAX


class ScenarioError(ValueError):
    """Bad scenario text, value, or referenced file."""


class TrafficParams(Frozen):
    """Generated traffic; `Scenario` sets an end_s of None to its duration."""

    __slots__ = ("message_count", "message_size", "packet_payload", "start_s", "end_s")

    def __init__(self, message_count: int = 0, message_size: int = 100_000,
                 packet_payload: int = 1460, start_s: float = 0.0,
                 end_s: float | None = None) -> None:
        self._set(message_count, message_size, packet_payload, start_s, end_s)
        self._require_finite("start_s", "end_s")
        self._require_int("message_count", "message_size", "packet_payload")
        if self.message_count < 0:
            raise ValueError("message_count must be non-negative")
        if self.message_size < 1 or self.packet_payload < 1:
            raise ValueError("message_size and packet_payload must be positive")
        if self.packet_payload > MAX_PACKET_PAYLOAD:
            raise ValueError(
                f"packet_payload must be at most {MAX_PACKET_PAYLOAD} bytes "
                "(a data packet and its headers fill one UDP datagram)"
            )


class Scenario(Frozen):
    """A run's inputs, however built; its runs share, and never modify, its
    trajectories. A queue_capacity of None is the buffer capacity, and a
    queue_residency_s of None two beacon intervals."""

    __slots__ = ("trajectories", "duration_s", "protocol", "link", "traffic",
                 "queue_capacity", "queue_residency_s", "seeds")  # queue_capacity in bytes

    def __init__(self, trajectories: tuple[Trajectory, ...], duration_s: float,
                 protocol: ProtocolConfig, link: LinkModel, traffic: TrafficParams,
                 queue_capacity: int | None = None, queue_residency_s: float | None = None,
                 seeds: tuple[int, ...] = (1,)) -> None:
        if queue_capacity is None:
            queue_capacity = protocol.buffer_capacity
        if queue_residency_s is None:
            queue_residency_s = 2 * protocol.beacon_interval
        self._set(trajectories, duration_s, protocol, link, traffic,
                  queue_capacity, queue_residency_s, seeds)
        self._require_finite("duration_s", "queue_residency_s")
        self._require_int("queue_capacity")
        for seed in self.seeds:
            require_int("seeds", seed)
        # Times are whole microseconds, as in ProtocolConfig.
        if self.duration_us < 1:
            raise ValueError("duration must be at least 1 µs")
        if to_us(self.queue_residency_s) < 1:
            raise ValueError("queue_residency must be at least 1 µs")
        if self.queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        if len(trajectories) > NODE_ID_MAX + 1:
            raise ValueError(f"the trace has more than {NODE_ID_MAX + 1} nodes (16-bit node ids)")
        # Each seed is one independent run of the aggregate's sample.
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {' '.join(map(str, self.seeds))}")
        if traffic.end_s is None:  # open-ended: traffic until the run ends
            traffic = traffic._replace(end_s=duration_s)
            object.__setattr__(self, "traffic", traffic)
        if traffic.message_count:  # rules for the messages the run will make
            if to_us(traffic.end_s) > TIMESTAMP_MAX:
                raise ValueError(
                    f"traffic_end must be at most {TIMESTAMP_MAX / 1e6} s "
                    "(message ids hold creation times in 48 bits of microseconds)"
                )
            if len(trajectories) < 2:
                raise ValueError("traffic needs at least two nodes in the trace")
            if not 0 <= traffic.start_s <= traffic.end_s <= duration_s:
                raise ValueError("traffic window must lie within [0, duration]")
            # A larger message could only be dropped as too large by its source.
            if traffic.message_size > protocol.buffer_capacity:
                raise ValueError(
                    f"message_size {traffic.message_size} exceeds buffer_capacity "
                    f"{protocol.buffer_capacity}: no node could store a message"
                )
            # A message's packets enter the queue in one hand-over, which drops any that do not fit.
            packets = -(-traffic.message_size // traffic.packet_payload)
            on_air = traffic.message_size + packets * (DATA_HEADERS_SIZE + IP_UDP_HEADER_BYTES)
            if self.queue_capacity < on_air:
                raise ValueError(
                    f"queue_capacity {self.queue_capacity} is below a message's {on_air} "
                    "bytes on the air: no node could send a message whole"
                )

    @property
    def duration_us(self) -> int:
        return to_us(self.duration_s)

    def load_trajectories(self) -> tuple[Trajectory, ...]:
        return self.trajectories


def _parse_float(value: str) -> float:
    f = float(value)
    if not math.isfinite(f):
        raise ValueError(f"expected a finite number, got {value}")
    return f


def _parse_int(value: str) -> int:
    try:
        return int(value)  # exact, however many digits
    except ValueError:
        pass
    # Accept scientific notation for byte counts (e.g. 5e6).
    f = _parse_float(value)
    i = int(round(f))
    if abs(f - i) > 1e-9:
        raise ValueError(f"expected an integer, got {value}")
    return i


def _parse_seeds(value: str) -> tuple[int, ...]:
    parts = value.replace(",", " ").split()
    if not parts:
        raise ValueError("empty seed list")
    return tuple(int(p) for p in parts)


# key -> (parser, the object it configures, the keyword it sets there).
# The trace path becomes the scenario's trajectories in build_scenario.
_SCHEMA: dict[str, tuple] = {
    "trace": (str, "scenario", "trajectories"),
    "duration": (_parse_float, "scenario", "duration_s"),
    "seeds": (_parse_seeds, "scenario", "seeds"),
    "beacon_interval": (_parse_float, "protocol", "beacon_interval"),
    "beacon_randomness": (_parse_float, "protocol", "beacon_randomness"),
    "buffer_capacity": (_parse_int, "protocol", "buffer_capacity"),
    "message_ttl": (_parse_float, "protocol", "message_ttl"),
    "hop_limit": (_parse_int, "protocol", "hop_limit"),
    "max_control_payload": (_parse_int, "protocol", "max_control_payload"),
    "data_rate": (_parse_float, "link", "data_rate_bps"),
    "radio_range": (_parse_float, "link", "radio_range_m"),
    "loss_probability": (_parse_float, "link", "loss_probability"),
    "propagation_delay": (_parse_float, "link", "propagation_delay_s"),
    "queue_capacity": (_parse_int, "scenario", "queue_capacity"),
    "queue_residency": (_parse_float, "scenario", "queue_residency_s"),
    "message_count": (_parse_int, "traffic", "message_count"),
    "message_size": (_parse_int, "traffic", "message_size"),
    "packet_payload": (_parse_int, "traffic", "packet_payload"),
    "traffic_start": (_parse_float, "traffic", "start_s"),
    "traffic_end": (_parse_float, "traffic", "end_s"),
}

_REQUIRED = ("trace", "duration")


def parse_scenario_text(text: str) -> dict[str, str]:
    """Parse scenario text into a raw key -> value-string mapping."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioError(f"line {lineno}: expected `key = value`, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ScenarioError(f"line {lineno}: empty value for {key!r}")
        if key in raw:
            raise ScenarioError(f"line {lineno}: key {key!r} is given more than once")
        raw[key] = value
    return raw


def build_scenario(raw: dict[str, str], base_dir: Path) -> Scenario:
    """Parse raw values, read and parse the trace, and assemble a Scenario."""
    for key in _REQUIRED:
        if key not in raw:
            raise ScenarioError(f"missing required key {key!r}")
    kwargs: dict[str, dict] = {"scenario": {}, "protocol": {}, "link": {}, "traffic": {}}
    for key, value in raw.items():
        if key not in _SCHEMA:
            raise ScenarioError(f"unknown scenario key {key!r}")
        parser, target, name = _SCHEMA[key]
        try:
            kwargs[target][name] = parser(value)
        except ValueError as exc:
            raise ScenarioError(f"bad value for {key!r}: {exc}") from exc

    fields = kwargs["scenario"]
    trace_path = (base_dir / fields["trajectories"]).resolve()
    try:
        text = trace_path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read trace file {trace_path}: {exc}") from exc
    fields["trajectories"] = tuple(parse_ns2_trace(text))

    try:
        return Scenario(
            protocol=ProtocolConfig(**kwargs["protocol"]),
            traffic=TrafficParams(**kwargs["traffic"]),
            link=LinkModel(**kwargs["link"]),
            **fields,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def read_scenario(path: Path) -> dict[str, str]:
    """The raw mapping of the scenario file at `path`."""
    try:
        return parse_scenario_text(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc


def load_scenario(path: str | Path, overrides: dict[str, str] | None = None) -> Scenario:
    path = Path(path)
    return build_scenario({**read_scenario(path), **(overrides or {})}, path.parent)


def with_seeds(scenario: Scenario, seeds: tuple[int, ...]) -> Scenario:
    return scenario._replace(seeds=seeds)
