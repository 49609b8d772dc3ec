"""Scenario files: line-oriented `key = value` text.

Unknown keys are rejected. The mobility trace path is resolved relative
to the scenario file. Example:

    trace = mini_trace.ns_movements
    duration = 30
    seeds = 1 2 3
    data_rate = 12e6
    radio_range = 100
    message_count = 2
    message_size = 10000
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .mobility import Trajectory, parse_ns2_trace
from .netsim import LinkModel
from .protocol import MAX_PACKET_PAYLOAD, ProtocolConfig


class ScenarioError(ValueError):
    """Bad scenario text, value, or referenced file."""


@dataclass(frozen=True, slots=True)
class TrafficParams:
    message_count: int = 0
    message_size: int = 100_000
    packet_payload: int = 1460
    start_s: float = 0.0
    end_s: float | None = None  # defaults to the scenario duration


@dataclass(frozen=True, slots=True)
class Scenario:
    trace_path: Path
    duration_s: float
    seeds: tuple[int, ...]
    protocol: ProtocolConfig
    link: LinkModel
    traffic: TrafficParams
    queue_capacity: int  # bytes
    queue_residency_s: float

    @property
    def duration_us(self) -> int:
        return int(round(self.duration_s * 1_000_000))

    def load_trajectories(self) -> list[Trajectory]:
        try:
            text = self.trace_path.read_text()
        except OSError as exc:
            raise ScenarioError(f"cannot read trace file {self.trace_path}: {exc}") from exc
        return parse_ns2_trace(text)


def _parse_float(value: str) -> float:
    return float(value)


def _parse_int(value: str) -> int:
    # Accept scientific notation for byte counts (e.g. 5e6).
    f = float(value)
    i = int(round(f))
    if abs(f - i) > 1e-9:
        raise ValueError(f"expected an integer, got {value}")
    return i


def _parse_seeds(value: str) -> tuple[int, ...]:
    parts = value.replace(",", " ").split()
    if not parts:
        raise ValueError("empty seed list")
    return tuple(int(p) for p in parts)


# key -> (parser, default). The required keys are _REQUIRED; an optional
# key whose default is None is resolved in build_scenario.
_SCHEMA: dict[str, tuple] = {
    "trace": (str, None),
    "duration": (_parse_float, None),
    "seeds": (_parse_seeds, (1,)),
    "beacon_interval": (_parse_float, 1.0),
    "beacon_randomness": (_parse_float, 0.1),
    "buffer_capacity": (_parse_int, 5_000_000),
    "message_ttl": (_parse_float, 3600.0),
    "hop_limit": (_parse_int, 50),
    "max_control_payload": (_parse_int, 1400),
    "data_rate": (_parse_float, 12e6),
    "radio_range": (_parse_float, 100.0),
    "loss_probability": (_parse_float, 0.0),
    "propagation_delay": (_parse_float, 0.0),
    "queue_capacity": (_parse_int, None),  # defaults to buffer_capacity
    "queue_residency": (_parse_float, None),  # defaults to 2 * beacon_interval
    "message_count": (_parse_int, 0),
    "message_size": (_parse_int, 100_000),
    "packet_payload": (_parse_int, 1460),
    "traffic_start": (_parse_float, 0.0),
    "traffic_end": (_parse_float, None),  # defaults to duration
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
        raw[key] = value
    return raw


def apply_overrides(raw: dict[str, str], overrides: dict[str, str]) -> dict[str, str]:
    """Overlay key=value overrides, validating key names."""
    merged = dict(raw)
    for key, value in overrides.items():
        if key not in _SCHEMA:
            raise ScenarioError(f"unknown scenario key {key!r}")
        merged[key] = value
    return merged


def build_scenario(raw: dict[str, str], base_dir: Path) -> Scenario:
    """Validate raw values and assemble a Scenario."""
    for key in _REQUIRED:
        if key not in raw:
            raise ScenarioError(f"missing required key {key!r}")
    values: dict = {}
    for key, (parser, default) in _SCHEMA.items():
        if key in raw:
            try:
                values[key] = parser(raw[key])
            except ValueError as exc:
                raise ScenarioError(f"bad value for {key!r}: {exc}") from exc
        else:
            values[key] = default

    duration = values["duration"]
    if duration <= 0:
        raise ScenarioError("duration must be positive")

    trace_path = (base_dir / values["trace"]).resolve()
    if not trace_path.is_file():
        raise ScenarioError(f"trace file not found: {trace_path}")

    try:
        protocol = ProtocolConfig(
            beacon_interval=values["beacon_interval"],
            beacon_randomness=values["beacon_randomness"],
            buffer_capacity=values["buffer_capacity"],
            message_ttl=values["message_ttl"],
            hop_limit=values["hop_limit"],
            max_control_payload=values["max_control_payload"],
        )
        link = LinkModel(
            data_rate_bps=values["data_rate"],
            radio_range_m=values["radio_range"],
            loss_probability=values["loss_probability"],
            propagation_delay_s=values["propagation_delay"],
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    traffic_end = values["traffic_end"]
    traffic = TrafficParams(
        message_count=values["message_count"],
        message_size=values["message_size"],
        packet_payload=values["packet_payload"],
        start_s=values["traffic_start"],
        end_s=duration if traffic_end is None else traffic_end,
    )
    if traffic.message_count < 0:
        raise ScenarioError("message_count must be non-negative")
    if traffic.message_count and (
        traffic.start_s < 0 or traffic.end_s > duration or traffic.end_s < traffic.start_s
    ):
        raise ScenarioError("traffic window must lie within [0, duration]")
    if traffic.message_size < 1 or traffic.packet_payload < 1:
        raise ScenarioError("message_size and packet_payload must be positive")
    if traffic.packet_payload > MAX_PACKET_PAYLOAD:
        raise ScenarioError(
            f"packet_payload must be at most {MAX_PACKET_PAYLOAD} bytes "
            "(a data packet and its headers fill one UDP datagram)"
        )

    queue_capacity = values["queue_capacity"]
    queue_residency = values["queue_residency"]
    scenario = Scenario(
        trace_path=trace_path,
        duration_s=duration,
        seeds=values["seeds"],
        protocol=protocol,
        link=link,
        traffic=traffic,
        queue_capacity=protocol.buffer_capacity if queue_capacity is None else queue_capacity,
        queue_residency_s=(
            2 * protocol.beacon_interval if queue_residency is None else queue_residency
        ),
    )
    if scenario.queue_capacity <= 0 or scenario.queue_residency_s <= 0:
        raise ScenarioError("queue capacity and residency must be positive")
    scenario.load_trajectories()  # validates the trace parses
    return scenario


def load_scenario(path: str | Path, overrides: dict[str, str] | None = None) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    raw = parse_scenario_text(text)
    if overrides:
        raw = apply_overrides(raw, overrides)
    return build_scenario(raw, path.parent)


def with_seeds(scenario: Scenario, seeds: tuple[int, ...]) -> Scenario:
    return replace(scenario, seeds=seeds)
