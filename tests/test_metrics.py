"""Metric computation from run traces."""

import math
from pathlib import Path

import pytest

from dtnsim.metrics import aggregate, compute, mean_ci95, t_critical_95
from dtnsim.records import (
    KIND_ACK,
    KIND_BEACON,
    KIND_DATA,
    PKT_TRANSMITTED,
    RunTrace,
)
from dtnsim.wire import DATA_HEADERS_SIZE, make_message_id


def mid(i):
    return make_message_id(1, i)


def trace_with(generated=0, delivered_ids=(), transfers=()):
    trace = RunTrace()
    for i in range(generated):
        trace.message_generated(0, mid(i), 1, 2, 100, 1)
    for i in delivered_ids:
        trace.message_delivered(50, mid(i), 2, 50, 1)
    for i, frm, to in transfers:
        trace.transfer_completed(40, mid(i), frm, to)
    return trace


class TestCompute:
    def test_mdr_four_of_ten(self):
        trace = trace_with(generated=10, delivered_ids=range(4))
        assert compute(trace).mdr == pytest.approx(0.4)

    def test_single_direct_delivery_zero_overhead(self):
        trace = trace_with(generated=1, delivered_ids=[0], transfers=[(0, 1, 2)])
        report = compute(trace)
        assert report.replication_overhead == 0.0

    def test_overhead_counts_extra_transfers(self):
        trace = trace_with(
            generated=1,
            delivered_ids=[0],
            transfers=[(0, 1, 2), (0, 1, 3), (0, 3, 4)],
        )
        assert compute(trace).replication_overhead == pytest.approx(2.0)

    def test_zero_generated_mdr_absent(self):
        report = compute(RunTrace())
        assert report.mdr is None
        assert report.avg_latency_s is None
        assert report.replication_overhead is None

    def test_latency_and_hops_mean(self):
        trace = RunTrace()
        trace.message_generated(0, mid(0), 1, 2, 100, 1)
        trace.message_generated(0, mid(1), 1, 2, 100, 1)
        trace.message_delivered(10, mid(0), 2, 1_000_000, 1)
        trace.message_delivered(20, mid(1), 2, 3_000_000, 3)
        report = compute(trace)
        assert report.avg_latency_s == pytest.approx(2.0)
        assert report.avg_hop_count == pytest.approx(2.0)

    def test_byte_fractions(self):
        trace = RunTrace()
        trace.packet_event(KIND_BEACON, PKT_TRANSMITTED, 3, 0, None)
        trace.packet_event(KIND_ACK, PKT_TRANSMITTED, 15, 1, 0)
        data_size = DATA_HEADERS_SIZE + 1000
        for _ in range(4):
            trace.packet_event(KIND_DATA, PKT_TRANSMITTED, data_size, 0, 1)
        report = compute(trace)
        total = 3 + 15 + 4 * data_size
        assert report.control_byte_fraction == pytest.approx(18 / total)
        assert report.header_byte_fraction == pytest.approx(
            4 * DATA_HEADERS_SIZE / total
        )
        assert report.control_byte_fraction + report.header_byte_fraction <= 1.0
        assert report.bytes_transmitted == total

    def test_submitted_but_untransmitted_bytes_not_counted(self):
        trace = RunTrace()
        trace.packet_event(KIND_DATA, "submitted", 500, 0, 1)
        assert compute(trace).bytes_transmitted == 0

    def test_recompute_is_identical(self):
        trace = trace_with(generated=3, delivered_ids=[0, 1], transfers=[(0, 1, 2)])
        assert compute(trace, 7) == compute(trace, 7)


class TestAggregate:
    def test_mean_and_ci_against_known_values(self):
        # 95% two-sided t critical value for df=3 is 3.1824.
        values = [1.0, 2.0, 3.0, 4.0]
        mean, half = mean_ci95(values)
        assert mean == pytest.approx(2.5)
        sem = math.sqrt(5 / 3) / 2
        assert half == pytest.approx(3.1824 * sem, rel=1e-3)

    @pytest.mark.parametrize(
        "df, expected",
        [
            (1, 12.7062047361747),  # tan(0.475 pi)
            (2, 4.30265272974946),
            (3, 3.18244630528371),
            (10, 2.22813885198627),
            (30, 2.04227245630124),
            (1000, 1.96233908082641),
        ],
    )
    def test_t_critical_95_pinned(self, df, expected):
        assert t_critical_95(df) == pytest.approx(expected, rel=1e-13)

    def test_t_critical_95_matches_scipy(self):
        # scipy 1.17.1's stats.t.ppf(0.975, df) for df 1-500, one
        # "df value" line each, as committed in t_critical_95.txt.
        text = (Path(__file__).parent / "t_critical_95.txt").read_text()
        rows = [line.split() for line in text.splitlines()]
        assert [int(df) for df, _ in rows] == list(range(1, 501))
        for df, value in rows:
            assert t_critical_95(int(df)) == pytest.approx(float(value), rel=1e-12), df

    def test_single_value_zero_halfwidth(self):
        assert mean_ci95([5.0]) == (5.0, 0.0)

    def test_aggregate_skips_undefined_metrics(self):
        defined = compute(trace_with(generated=2, delivered_ids=[0]), 1)
        undefined = compute(RunTrace(), 2)
        agg = aggregate([defined, undefined])
        assert agg["mdr"][0] == pytest.approx(0.5)  # only the defined run
        assert agg["avg_latency_s"] is not None
