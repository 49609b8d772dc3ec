"""Scenario file parsing, validation, and overrides."""

import math
import pickle
import sys

import pytest
from conftest import static_trace

from dtnsim import mobility
from dtnsim.netsim import IP_UDP_HEADER_BYTES, MAX_DATAGRAM_PAYLOAD, LinkModel, to_us
from dtnsim.protocol import MAX_PACKET_PAYLOAD, ProtocolConfig
from dtnsim.records import ReplayTrace
from dtnsim.runner import run_once, run_seeds
from dtnsim.scenario import (
    Scenario,
    ScenarioError,
    TrafficParams,
    build_scenario,
    load_scenario,
    parse_scenario_text,
    with_seeds,
)
from dtnsim.wire import DATA_HEADERS_SIZE, HOP_COUNT_MAX, NODE_ID_MAX, TIMESTAMP_MAX

MINIMAL = """\
trace = trace.ns_movements
duration = 10
"""

TRACE = """\
$node_(0) set X_ 0.0
$node_(0) set Y_ 0.0
$node_(1) set X_ 10.0
$node_(1) set Y_ 0.0
"""


@pytest.fixture
def scenario_dir(tmp_path):
    (tmp_path / "trace.ns_movements").write_text(TRACE)
    (tmp_path / "scenario.cfg").write_text(MINIMAL)
    return tmp_path


class TestParsing:
    def test_defaults_applied(self, scenario_dir):
        s = load_scenario(scenario_dir / "scenario.cfg")
        assert s.duration_s == 10
        assert s.seeds == (1,)
        assert s.protocol.beacon_interval == 1.0
        assert s.protocol.hop_limit == 50
        assert s.link.data_rate_bps == 12e6
        assert s.queue_capacity == s.protocol.buffer_capacity
        assert s.queue_residency_s == 2.0
        assert s.traffic.end_s == 10  # defaults to duration

    def test_full_key_set(self, scenario_dir):
        text = MINIMAL + (
            "seeds = 4 5\nbeacon_interval = 0.5\nbeacon_randomness = 0.05\n"
            "buffer_capacity = 1e6\nmessage_ttl = 120\nhop_limit = 4\n"
            "max_control_payload = 100\ndata_rate = 54e6\nradio_range = 30\n"
            "loss_probability = 0.1\npropagation_delay = 1e-6\n"
            "queue_capacity = 2e6\nqueue_residency = 3\nmessage_count = 7\n"
            "message_size = 5000\npacket_payload = 500\ntraffic_start = 1\n"
            "traffic_end = 9\n"
        )
        (scenario_dir / "full.cfg").write_text(text)
        s = load_scenario(scenario_dir / "full.cfg")
        assert s.seeds == (4, 5)
        assert s.protocol.buffer_capacity == 1_000_000
        assert s.queue_capacity == 2_000_000
        assert s.traffic.message_count == 7
        assert s.link.loss_probability == 0.1

    def test_comments_and_blank_lines(self):
        raw = parse_scenario_text("# header\n\nduration = 5  # trailing\n")
        assert raw == {"duration": "5"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario_text("not_a_key = 5\n")

    def test_repeated_key_rejected_naming_line_and_key(self):
        # The later line would silently replace the earlier one.
        text = "duration = 5\nhop_limit = 4\n# duration = 6\nduration = 7\n"
        with pytest.raises(ScenarioError, match="^line 4: key 'duration' is given more than once$"):
            parse_scenario_text(text)

    def test_missing_equals_rejected(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario_text("duration 5\n")

    def test_missing_required_key(self, scenario_dir):
        (scenario_dir / "bad.cfg").write_text("duration = 5\n")
        with pytest.raises(ScenarioError, match="trace"):
            load_scenario(scenario_dir / "bad.cfg")

    def test_missing_trace_file_mentions_path(self, scenario_dir):
        (scenario_dir / "bad.cfg").write_text(
            "trace = nowhere.ns_movements\nduration = 5\n"
        )
        with pytest.raises(ScenarioError, match="nowhere.ns_movements"):
            load_scenario(scenario_dir / "bad.cfg")

    def test_nonpositive_duration(self, scenario_dir):
        (scenario_dir / "bad.cfg").write_text("trace = trace.ns_movements\nduration = 0\n")
        with pytest.raises(ScenarioError, match="duration"):
            load_scenario(scenario_dir / "bad.cfg")

    def test_bad_value_type(self, scenario_dir):
        (scenario_dir / "bad.cfg").write_text(MINIMAL + "hop_limit = 2.5\n")
        with pytest.raises(ScenarioError, match="hop_limit"):
            load_scenario(scenario_dir / "bad.cfg")

    def test_traffic_window_outside_duration(self, scenario_dir):
        (scenario_dir / "bad.cfg").write_text(
            MINIMAL + "message_count = 1\ntraffic_end = 99\n"
        )
        with pytest.raises(ScenarioError, match="window"):
            load_scenario(scenario_dir / "bad.cfg")

    @pytest.mark.parametrize("size", ["1000001", "1e12"])
    def test_message_larger_than_buffer_rejected_at_load(self, scenario_dir, size):
        # Such a message could only be dropped as too large by its source,
        # and a huge one would be built in memory first.
        overrides = {"message_count": "1", "buffer_capacity": "1e6", "message_size": size}
        with pytest.raises(ScenarioError, match="message_size .* exceeds buffer_capacity"):
            load_scenario(scenario_dir / "scenario.cfg", overrides)

    def test_message_filling_the_buffer_accepted(self, scenario_dir):
        overrides = {
            "message_count": "1", "buffer_capacity": "1e6", "message_size": "1e6",
            "queue_capacity": "2e6",
        }
        s = load_scenario(scenario_dir / "scenario.cfg", overrides)
        assert s.traffic.message_size == s.protocol.buffer_capacity == 1_000_000
        # Without traffic no message is built, so the sizes need not fit.
        s = load_scenario(scenario_dir / "scenario.cfg", {"buffer_capacity": "1000"})
        assert s.traffic.message_size > s.protocol.buffer_capacity

    def test_message_filling_the_buffer_rejected_by_the_default_queue(self, scenario_dir):
        # The default queue is the buffer capacity, but a message's headers
        # make it larger on the air than in the buffer.
        overrides = {"message_count": "1", "buffer_capacity": "1e6", "message_size": "1e6"}
        with pytest.raises(ScenarioError, match="queue_capacity 1000000 is below a message's"):
            load_scenario(scenario_dir / "scenario.cfg", overrides)

    def test_queue_must_hold_one_message_on_the_air(self):
        # mini.cfg's 20,000-byte message is 14 packets of at most 1,460
        # bytes, each with 30 bytes of data headers and 28 of IPv4/UDP.
        assert 20_000 + 14 * (DATA_HEADERS_SIZE + IP_UDP_HEADER_BYTES) == 20_812
        with pytest.raises(ScenarioError, match="queue_capacity 20811 is below a message's 20812"):
            load_scenario("scenarios/mini.cfg", {"queue_capacity": "20811"})
        s = load_scenario("scenarios/mini.cfg", {"queue_capacity": "20812"})
        assert s.queue_capacity == 20_812

    @pytest.mark.parametrize("value", ["4294967296", "5e9"])
    def test_hop_limit_beyond_the_u32_field_rejected_at_load(self, scenario_dir, value):
        # A data packet carries its hop count in 32 bits; a larger limit
        # would only fail once the first data packet is encoded.
        with pytest.raises(ScenarioError, match="hop_limit"):
            load_scenario(scenario_dir / "scenario.cfg", {"hop_limit": value})
        s = load_scenario(scenario_dir / "scenario.cfg", {"hop_limit": "4294967295"})
        assert s.protocol.hop_limit == HOP_COUNT_MAX

    def test_traffic_window_past_the_48_bit_timestamp_rejected_at_load(self, scenario_dir):
        # A message id holds its creation time in 48 bits of microseconds;
        # a later window would only fail when the run makes the first id.
        cfg = scenario_dir / "scenario.cfg"
        window = {"duration": "1e9", "message_count": "1", "traffic_start": "3e8"}
        for end in ("3.1e8", repr((TIMESTAMP_MAX + 1) / 1e6)):
            with pytest.raises(ScenarioError, match="traffic_end must be at most"):
                load_scenario(cfg, {**window, "traffic_end": end})

    def test_traffic_window_ending_within_the_timestamp_accepted(self, scenario_dir):
        cfg = scenario_dir / "scenario.cfg"
        window = {"duration": "1e9", "message_count": "1", "traffic_start": "2e8"}
        s = load_scenario(cfg, {**window, "traffic_end": repr(TIMESTAMP_MAX / 1e6)})
        assert to_us(s.traffic.end_s) == TIMESTAMP_MAX
        # Without traffic no message id is made, so any window loads.
        s = load_scenario(cfg, {**window, "message_count": "0", "traffic_end": "3.1e8"})
        assert s.traffic.end_s == 3.1e8

    def test_traffic_fields_of_a_run_without_messages_are_not_used(self, scenario_dir):
        # Scenario checks no traffic rule without messages, so the runner must
        # not convert the window: 1e303 s is past every microsecond int.
        cfg = scenario_dir / "scenario.cfg"
        s = load_scenario(cfg, {"message_count": "0", "traffic_end": "1e303"})
        _, trace = run_once(s, 1)
        assert trace.n_generated == 0

    def test_traffic_on_a_one_node_trace_rejected_at_load(self, scenario_dir):
        (scenario_dir / "one.ns_movements").write_text(
            "$node_(0) set X_ 0.0\n$node_(0) set Y_ 0.0\n"
        )
        (scenario_dir / "one.cfg").write_text("trace = one.ns_movements\nduration = 10\n")
        with pytest.raises(ScenarioError, match="at least two nodes"):
            load_scenario(scenario_dir / "one.cfg", {"message_count": "1"})
        # Without traffic a lone node is a valid, if quiet, scenario.
        assert len(load_scenario(scenario_dir / "one.cfg").trajectories) == 1

    @pytest.mark.parametrize("seeds", ["2 2 2", "1 2 1"])
    def test_repeated_seeds_rejected(self, scenario_dir, seeds):
        with pytest.raises(ScenarioError, match="seeds must be distinct"):
            load_scenario(scenario_dir / "scenario.cfg", {"seeds": seeds})

    def test_repeated_seeds_rejected_on_every_construction(self, scenario_dir):
        s = load_scenario(scenario_dir / "scenario.cfg", {"seeds": "1 2"})
        with pytest.raises(ValueError, match="seeds must be distinct"):
            with_seeds(s, (3, 3))
        fields = {name: getattr(s, name) for name in Scenario.__slots__}
        with pytest.raises(ValueError, match="seeds must be distinct"):
            Scenario(**{**fields, "seeds": (1, 2, 2)})
        assert with_seeds(s, (2, 1)).seeds == (2, 1)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("radio_range", "0"),
            ("radio_range", "-5"),
            ("loss_probability", "1"),
            ("loss_probability", "-0.1"),
            ("propagation_delay", "-1e-3"),
            ("beacon_randomness", "-0.1"),
            ("message_count", "-1"),
            ("message_size", "0"),
            ("packet_payload", "0"),
            ("queue_capacity", "0"),
        ],
    )
    def test_value_outside_its_range_rejected_at_load(self, scenario_dir, key, value):
        with pytest.raises(ScenarioError, match=key):
            load_scenario(scenario_dir / "scenario.cfg", {key: value})

    @pytest.mark.parametrize(
        "text, message",
        [
            ("trace = trace.ns_movements\nduration =\n", "^line 2: empty value for 'duration'$"),
            (MINIMAL + "seeds = ,\n", "^bad value for 'seeds': empty seed list$"),
        ],
        ids=["duration", "seeds"],
    )
    def test_empty_value_rejected(self, scenario_dir, text, message):
        (scenario_dir / "bad.cfg").write_text(text)
        with pytest.raises(ScenarioError, match=message):
            load_scenario(scenario_dir / "bad.cfg")

    def test_invalid_protocol_value_surfaces(self, scenario_dir):
        (scenario_dir / "bad.cfg").write_text(MINIMAL + "buffer_capacity = -5\n")
        with pytest.raises(ScenarioError):
            load_scenario(scenario_dir / "bad.cfg")

    def test_oversized_control_payload_rejected_at_load(self, scenario_dir):
        (scenario_dir / "bad.cfg").write_text(MINIMAL + "max_control_payload = 1e6\n")
        with pytest.raises(ScenarioError, match="max_control_payload"):
            load_scenario(scenario_dir / "bad.cfg")

    def test_largest_packet_payload_fills_one_datagram(self, scenario_dir):
        # 65,477 payload bytes + 30 header bytes = 65,507, one UDP datagram.
        s = load_scenario(scenario_dir / "scenario.cfg", {"packet_payload": "65477"})
        assert s.traffic.packet_payload == MAX_PACKET_PAYLOAD == 65_477
        assert MAX_PACKET_PAYLOAD + DATA_HEADERS_SIZE == MAX_DATAGRAM_PAYLOAD

    @pytest.mark.parametrize("value", ["65478", "100000"])
    def test_packet_payload_beyond_one_datagram_rejected(self, scenario_dir, value):
        with pytest.raises(ScenarioError, match="packet_payload"):
            load_scenario(
                scenario_dir / "scenario.cfg",
                {"packet_payload": value, "message_size": "100000"},
            )

    def test_only_required_keys_give_the_class_defaults(self, scenario_dir):
        s = load_scenario(scenario_dir / "scenario.cfg")
        assert s.protocol == ProtocolConfig()
        assert s.link == LinkModel()
        assert s.traffic == TrafficParams(end_s=10.0)
        assert (s.queue_capacity, s.queue_residency_s, s.seeds) == (5_000_000, 2.0, (1,))

    NUMERIC_KEYS = (
        "duration", "seeds", "beacon_interval", "beacon_randomness", "buffer_capacity",
        "message_ttl", "hop_limit", "max_control_payload", "data_rate", "radio_range",
        "loss_probability", "propagation_delay", "queue_capacity", "queue_residency",
        "message_count", "message_size", "packet_payload", "traffic_start", "traffic_end",
    )

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_non_finite_number_rejected_naming_its_key(self, scenario_dir, key, value):
        with pytest.raises(ScenarioError, match=f"'{key}'"):
            load_scenario(scenario_dir / "scenario.cfg", {key: value})

    def test_big_integer_is_exact(self, scenario_dir):
        # 2**53 + 1 has no float: a float round trip would give ...992.
        s = load_scenario(scenario_dir / "scenario.cfg", {"buffer_capacity": "9007199254740993"})
        assert s.protocol.buffer_capacity == 9_007_199_254_740_993
        assert s.queue_capacity == 9_007_199_254_740_993

    @pytest.mark.parametrize(
        "key, value",
        [
            ("beacon_interval", "1e-7"),
            ("message_ttl", "1e-7"),
            ("data_rate", "0.4"),
            ("duration", "1e-7"),
            ("queue_residency", "1e-7"),
        ],
    )
    def test_value_rounding_to_zero_rejected_at_load(self, scenario_dir, key, value):
        # Only loads: a 0 µs beacon interval would never let a run finish.
        with pytest.raises(ScenarioError, match=key):
            load_scenario(scenario_dir / "scenario.cfg", {key: value, "beacon_randomness": "0"})

    def test_run_of_0_us_with_traffic_rejected_at_load(self, scenario_dir):
        # The traffic window [0, 0] lies within the duration, so only the
        # duration's own check stops a run that would simulate nothing.
        overrides = {"duration": "1e-7", "traffic_end": "0", "message_count": "1"}
        with pytest.raises(ScenarioError, match="duration must be at least 1 µs"):
            load_scenario(scenario_dir / "scenario.cfg", overrides)

    @pytest.mark.parametrize(
        "key, field", [("duration", "duration_s"), ("queue_residency", "queue_residency_s")]
    )
    def test_time_of_1_us_accepted(self, scenario_dir, key, field):
        # Only loads: what a 1 µs run or residency does is not checked here.
        s = load_scenario(scenario_dir / "scenario.cfg", {key: "1e-6"})
        assert to_us(getattr(s, field)) == 1


def test_trace_parsed_once_per_load(monkeypatch):
    original = mobility.parse_ns2_trace
    calls = []

    def counting(text):
        calls.append(text)
        return original(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("dtnsim") and getattr(module, "parse_ns2_trace", None) is original:
            monkeypatch.setattr(module, "parse_ns2_trace", counting)
    scenario = load_scenario("scenarios/mini.cfg")
    reports = run_seeds(scenario)
    assert [r.seed for r in reports] == [1, 2, 3]
    assert len(calls) == 1


FLOAT_FIELDS = [
    (ProtocolConfig, "beacon_interval"),
    (ProtocolConfig, "beacon_randomness"),
    (ProtocolConfig, "message_ttl"),
    (LinkModel, "data_rate_bps"),
    (LinkModel, "radio_range_m"),
    (LinkModel, "loss_probability"),
    (LinkModel, "propagation_delay_s"),
    (TrafficParams, "start_s"),
    (TrafficParams, "end_s"),
    (Scenario, "duration_s"),
    (Scenario, "queue_residency_s"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "cls, field", FLOAT_FIELDS, ids=[f"{cls.__name__}.{field}" for cls, field in FLOAT_FIELDS]
)
def test_non_finite_float_field_rejected_naming_it(cls, field, value):
    # The loader rejects these as text; a class built in code must reject
    # them too, with a ValueError that a sweep cell catches, not a NaN run
    # or an OverflowError from the microsecond conversion.
    kwargs = {field: value}
    if cls is Scenario:
        mini = load_scenario("scenarios/mini.cfg")
        kwargs = {**{name: getattr(mini, name) for name in Scenario.__slots__}, **kwargs}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        cls(**kwargs)


INT_FIELDS = [
    (ProtocolConfig, "buffer_capacity"),
    (ProtocolConfig, "hop_limit"),
    (ProtocolConfig, "max_control_payload"),
    (TrafficParams, "message_count"),
    (TrafficParams, "message_size"),
    (TrafficParams, "packet_payload"),
    (Scenario, "queue_capacity"),
    (Scenario, "seeds"),
]


@pytest.mark.parametrize("value", [2.5, 2.0, True], ids=["2.5", "2.0", "True"])
@pytest.mark.parametrize(
    "cls, field", INT_FIELDS, ids=[f"{cls.__name__}.{field}" for cls, field in INT_FIELDS]
)
def test_non_int_field_rejected_naming_it(cls, field, value):
    # A float or a bool in an int field would otherwise fail mid-run with a
    # struct.error or a TypeError, run as another value (True as 1), or
    # reach runs.csv: a ValueError lets the sweep cell fail alone.
    kwargs = {field: (value,) if field == "seeds" else value}
    if cls is Scenario:
        mini = load_scenario("scenarios/mini.cfg")
        kwargs = {**{name: getattr(mini, name) for name in Scenario.__slots__}, **kwargs}
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        cls(**kwargs)


def test_traffic_end_of_none_runs_to_the_scenario_duration():
    mini = load_scenario("scenarios/mini.cfg")
    fields = {name: getattr(mini, name) for name in Scenario.__slots__}
    open_ended = Scenario(**{**fields, "traffic": TrafficParams(4, 20_000)})
    bounded = Scenario(**{**fields, "traffic": TrafficParams(4, 20_000, end_s=mini.duration_s)})
    assert open_ended == bounded
    dumps = [run_once(s, 1, ReplayTrace())[1].dump() for s in (open_ended, bounded)]
    assert dumps[0] == dumps[1]
    assert "MessageGenerated" in dumps[0]


def test_queue_of_none_is_the_buffer_capacity_and_two_beacon_intervals():
    mini = load_scenario("scenarios/mini.cfg")
    parts = {
        name: getattr(mini, name) for name in Scenario.__slots__ if not name.startswith("queue_")
    }
    assert Scenario(**parts) == mini
    assert (mini.queue_capacity, mini.queue_residency_s) == (1_000_000, 2.0)


def test_trace_with_more_nodes_than_16_bit_ids_rejected():
    # Built only: a network of that many nodes would allocate n² range
    # certificates before any node rejected its id.
    mini = load_scenario("scenarios/mini.cfg")
    fields = {name: getattr(mini, name) for name in Scenario.__slots__}
    node = mini.trajectories[0]
    widest = Scenario(**{**fields, "trajectories": (node,) * (NODE_ID_MAX + 1)})
    assert len(widest.trajectories) == 65_536
    with pytest.raises(ValueError, match="more than 65536 nodes"):
        Scenario(**{**fields, "trajectories": (node,) * (NODE_ID_MAX + 2)})


# Changes to the mini scenario that its run could not honour as written,
# each with its loader message: the traffic would fall after the run, fit
# no buffer or device queue, have no destination, or get no valid
# creation time.
UNRUNNABLE_WITH_TRAFFIC = {
    "window_past_the_run": (
        lambda mini: {"traffic": TrafficParams(4, 20_000, end_s=1e6)},
        "traffic window must lie within",
    ),
    "message_larger_than_the_buffer": (
        lambda mini: {"protocol": ProtocolConfig(buffer_capacity=1000)},
        "message_size 20000 exceeds buffer_capacity 1000",
    ),
    # Four static nodes whose 8,000-byte messages (6 packets) could never be
    # sent whole through a 6,000-byte queue: none would be delivered.
    "message_larger_than_the_queue": (
        lambda mini: {
            "trajectories": tuple(mobility.parse_ns2_trace(
                static_trace((0, 0), (30, 0), (0, 30), (30, 30))
            )),
            "duration_s": 20.0,
            "link": LinkModel(1e5),
            "traffic": TrafficParams(12, 8000),
            "queue_capacity": 6000,
        },
        "queue_capacity 6000 is below a message's 8348 bytes on the air",
    ),
    "one_node": (
        lambda mini: {"trajectories": mini.trajectories[:1]},
        "traffic needs at least two nodes",
    ),
    "start_after_end": (
        lambda mini: {"traffic": TrafficParams(4, 20_000, start_s=20.0, end_s=10.0)},
        "traffic window must lie within",
    ),
    "open_end_past_the_timestamp": (
        lambda mini: {"duration_s": 3e8, "traffic": TrafficParams(4, 20_000)},
        "traffic_end must be at most",
    ),
}


@pytest.mark.parametrize("case", UNRUNNABLE_WITH_TRAFFIC)
def test_code_built_scenario_checks_the_rules_that_span_fields(case):
    # A Scenario built in code passes the loader's gate: a sweep worker that
    # gets one checks it only by constructing it.
    changes, message = UNRUNNABLE_WITH_TRAFFIC[case]
    mini = load_scenario("scenarios/mini.cfg")
    kwargs = {**{name: getattr(mini, name) for name in Scenario.__slots__}, **changes(mini)}
    with pytest.raises(ValueError, match=message):
        Scenario(**kwargs)
    # Without traffic no message is made, so each input is a valid scenario.
    Scenario(**{**kwargs, "traffic": kwargs["traffic"]._replace(message_count=0)})


def test_loaded_scenario_survives_a_pickle_round_trip():
    scenario = load_scenario("scenarios/mini.cfg")
    copy = pickle.loads(pickle.dumps(scenario))
    assert copy is not scenario and copy == scenario
    assert copy.trajectories[0] is not scenario.trajectories[0]
    dumps = [run_once(s, 1, ReplayTrace())[1].dump() for s in (scenario, copy)]
    assert dumps[0] == dumps[1]
    with pytest.raises(AttributeError):
        scenario.seeds = (2,)  # runs share a scenario and never change it


def test_scenario_and_its_pickle_round_trip_hash_equal():
    scenario = load_scenario("scenarios/mini.cfg")
    copy = pickle.loads(pickle.dumps(scenario))
    assert hash(copy) == hash(scenario)
    assert {scenario: 1}[copy] == 1
    assert hash(copy.trajectories) == hash(scenario.trajectories)


@pytest.mark.parametrize(
    "part, field, value",
    [("protocol", "buffer_capacity", 1000), ("link", "radio_range_m", 1.0)],
)
def test_configs_of_a_loaded_scenario_are_read_only(part, field, value):
    # Assigning would undo the checks the constructors made: a 1000-byte
    # buffer could not store the mini scenario's messages.
    config = getattr(load_scenario("scenarios/mini.cfg"), part)
    with pytest.raises(AttributeError):
        setattr(config, field, value)
    with pytest.raises(AttributeError):
        delattr(config, field)


class TestOverrides:
    def test_override_applied(self, scenario_dir):
        s = load_scenario(scenario_dir / "scenario.cfg", {"hop_limit": "3"})
        assert s.protocol.hop_limit == 3

    def test_unknown_override_key(self, scenario_dir):
        with pytest.raises(ScenarioError, match="^unknown scenario key 'bogus'$"):
            load_scenario(scenario_dir / "scenario.cfg", {"bogus": "1"})

    def test_override_of_a_key_the_file_sets_wins(self, scenario_dir):
        s = load_scenario(scenario_dir / "scenario.cfg", {"duration": "7"})
        assert s.duration_s == 7

    def test_unknown_key_rejected_before_the_trace_is_read(self, tmp_path):
        raw = {"trace": "nowhere.ns_movements", "duration": "5", "bogus": "1"}
        with pytest.raises(ScenarioError, match="^unknown scenario key 'bogus'$"):
            build_scenario(raw, tmp_path)

    def test_bundled_mini_scenario_loads(self):
        s = load_scenario("scenarios/mini.cfg")
        assert len(s.load_trajectories()) == 3
        assert s.traffic.message_count == 4
