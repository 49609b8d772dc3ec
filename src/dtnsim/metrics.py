"""Run metrics: delivery ratio, latency, hops, replication and byte overheads.

A report reads only a plain RunTrace's counters and its deliveries, the
first arrival of each message at its destination; replication overhead
counts completed hop-by-hop transfers beyond those, per delivery. Byte
fractions are taken over all transmitted bytes. Reports serialize to CSV,
with a seed-aggregate companion carrying means and 95% confidence intervals.

The confidence interval's Student-t critical value is computed here with
the standard library: the two-sided mass P(|T| <= t) for an integer number
of degrees of freedom is the finite series of Abramowitz & Stegun 26.7.3
(odd df) and 26.7.4 (even df), bisected for 0.95.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .records import (
    CONTROL_KINDS,
    KIND_DATA,
    MSG_DROP_CAUSES,
    PKT_DROP_OUTCOMES,
    PKT_TRANSMITTED,
    RunTrace,
)
from .wire import DATA_HEADERS_SIZE

METRIC_FIELDS = (
    "mdr",
    "avg_latency_s",
    "avg_hop_count",
    "replication_overhead",
    "control_byte_fraction",
    "header_byte_fraction",
)


class RunReport(NamedTuple):
    seed: int
    generated: int
    delivered: int
    transfers: int
    mdr: float | None
    avg_latency_s: float | None
    avg_hop_count: float | None
    replication_overhead: float | None
    control_byte_fraction: float
    header_byte_fraction: float
    bytes_transmitted: int
    data_packets_sent: int
    control_packets_sent: int
    drops: dict[str, int]


def compute(trace: RunTrace, seed: int = 0) -> RunReport:
    """Fold one run's trace into a report."""
    generated = trace.n_generated
    deliveries = trace.deliveries
    delivered = len(deliveries)
    transfers = trace.n_transfers

    mdr = delivered / generated if generated else None
    avg_latency_s = (
        sum(d.latency_us for d in deliveries) / delivered / 1_000_000
        if delivered
        else None
    )
    avg_hop_count = sum(d.hops for d in deliveries) / delivered if delivered else None
    replication_overhead = (transfers - delivered) / delivered if delivered else None

    totals = trace.packet_totals
    none = (0, 0)
    sent = [totals.get((kind, PKT_TRANSMITTED), none) for kind in CONTROL_KINDS]
    control_packets = sum(n for n, _ in sent)
    control_bytes = sum(size for _, size in sent)
    data_packets, data_bytes = totals.get((KIND_DATA, PKT_TRANSMITTED), none)
    total_bytes = control_bytes + data_bytes
    control_byte_fraction = control_bytes / total_bytes if total_bytes else 0.0
    header_byte_fraction = (
        data_packets * DATA_HEADERS_SIZE / total_bytes if total_bytes else 0.0
    )

    drops = {f"msg_{cause}": n for cause, n in trace.drop_counts.items()}
    for outcome in PKT_DROP_OUTCOMES:
        drops[f"pkt_{outcome}"] = sum(n for (_, out), (n, _) in totals.items() if out == outcome)

    return RunReport(
        seed=seed,
        generated=generated,
        delivered=delivered,
        transfers=transfers,
        mdr=mdr,
        avg_latency_s=avg_latency_s,
        avg_hop_count=avg_hop_count,
        replication_overhead=replication_overhead,
        control_byte_fraction=control_byte_fraction,
        header_byte_fraction=header_byte_fraction,
        bytes_transmitted=total_bytes,
        data_packets_sent=data_packets,
        control_packets_sent=control_packets,
        drops=drops,
    )


def _t_central_mass(t: float, df: int) -> float:
    """P(|T| <= t) for df degrees of freedom (A&S 26.7.3 odd, 26.7.4 even)."""
    theta = math.atan(t / math.sqrt(df))
    cos2 = df / (df + t * t)
    term = series = 1.0
    for k in range(1 + df % 2, df - 1, 2):
        term *= cos2 * k / (k + 1)
        series += term
    if df % 2 == 0:
        return math.sin(theta) * series
    if df == 1:
        return 2 * theta / math.pi
    return 2 / math.pi * (theta + math.sin(theta) * math.cos(theta) * series)


def t_critical_95(df: int) -> float:
    """Two-sided 95% Student-t critical value for df >= 1 degrees of freedom."""
    # df = 1 has the largest value, tan(0.475 pi) = 12.706...
    lo, hi = 0.0, 13.0
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return mid
        if _t_central_mass(mid, df) < 0.95:
            lo = mid
        else:
            hi = mid


def mean_ci95(values: list[float]) -> tuple[float, float]:
    """Sample mean and Student-t 95% confidence half-width."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = t_critical_95(n - 1) * math.sqrt(var / n)
    return mean, half


def aggregate(reports: list[RunReport]) -> dict[str, tuple[float, float] | None]:
    """Per-metric mean and CI across seeds; None when no run defines it."""
    out: dict[str, tuple[float, float] | None] = {}
    for name in METRIC_FIELDS:
        values = [v for r in reports if (v := getattr(r, name)) is not None]
        out[name] = mean_ci95(values) if values else None
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


DROP_COLUMNS = tuple(f"msg_{c}" for c in MSG_DROP_CAUSES) + tuple(
    f"pkt_{o}" for o in PKT_DROP_OUTCOMES
)

RUN_COLUMNS = tuple(name for name in RunReport._fields if name != "drops") + DROP_COLUMNS


def run_row(report: RunReport) -> dict[str, str]:
    row = {name: _fmt(value) for name, value in zip(RunReport._fields, report) if name != "drops"}
    for col in DROP_COLUMNS:
        row[col] = str(report.drops.get(col, 0))
    return row


AGGREGATE_COLUMNS = ("runs",) + tuple(
    f"{name}_{suffix}" for name in METRIC_FIELDS for suffix in ("mean", "ci95")
)


def aggregate_row(reports: list[RunReport]) -> dict[str, str]:
    row = {"runs": str(len(reports))}
    for name, pair in aggregate(reports).items():
        mean, ci95 = pair or (None, None)
        row[f"{name}_mean"] = _fmt(mean)
        row[f"{name}_ci95"] = _fmt(ci95)
    return row


def write_csv(path: Path, columns: tuple[str, ...], rows: list[dict[str, str]]) -> None:
    import csv  # here, not at the top: a simulation that writes no CSV skips it

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows(rows)
