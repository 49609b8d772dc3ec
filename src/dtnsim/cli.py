"""Command line interface: parameter sweeps, and `run`, a sweep with no axes.

    dtnsim run scenario.cfg --seeds 10 --out reports/
    dtnsim sweep scenario.cfg --axis data_rate=6e6,24e6,54e6 --seeds 10

Both commands write runs.csv (one row per run) and aggregate.csv (mean
and 95% CI across seeds) into the output directory; a sweep prefixes
both with one column per axis. `--seeds N` is the override seeds = 1..N.
Input that is wrong for every cell (a flag argparse rejects, an unknown
key, a key named twice by `--seeds`, `--set` or `--axis`, an unusable
`--out`, a scenario file that cannot be read or parsed) is one `error:`
line and exit 2 before anything runs. A failing cell prints one `error:`
line and the other cells still run: the exit code is 1 if some cell
failed, and 2 if none ran (nothing is written).
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

from .metrics import (
    AGGREGATE_COLUMNS,
    RUN_COLUMNS,
    aggregate_row,
    run_row,
    write_csv,
)
from .runner import run_seeds
from .scenario import _SCHEMA, ScenarioError, build_scenario, read_scenario


def _parse_assignment(text: str, flag: str) -> tuple[str, str]:
    """A KEY=VALUE flag whose key is a scenario key, checked before any run."""
    if "=" not in text:
        raise ScenarioError(f"{flag} expects KEY=VALUE, got {text!r}")
    key, value = (part.strip() for part in text.split("=", 1))
    if key not in _SCHEMA:
        raise ScenarioError(f"{flag} {key}: unknown scenario key")
    return key, value


def _parse_axis(text: str) -> tuple[str, list[str]]:
    """An axis key and its values as written.

    Two values that the key's parser reads as equal (4 and 4.0) would run
    the same cell twice, so they are rejected. A value it cannot parse is
    compared as written and fails its own cell.
    """
    key, values = _parse_assignment(text, "--axis")
    parts = [v.strip() for v in values.split(",") if v.strip()]
    if not parts:
        raise ScenarioError(f"--axis {key} has no values")
    parse = _SCHEMA[key][0]
    parsed = set()
    for value in parts:
        try:
            parsed.add(parse(value))
        except ValueError:
            parsed.add(value)
    if len(parsed) < len(parts):
        raise ScenarioError(f"--axis {key} repeats a value")
    return key, parts


def _add_common(parser) -> None:
    parser.add_argument("scenario", help="scenario file path")
    parser.add_argument(
        "--seeds", type=int, action="append", default=[], metavar="N",
        help="run seeds 1..N (overrides the scenario)",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario key (repeatable)",
    )
    parser.add_argument(
        "--out", default="reports", metavar="DIR", help="report directory"
    )


def _make_out_dir(path: str) -> tuple[Path, list[Path]]:
    """Create the report directory before anything is simulated.

    Returns it and the directories this call created, deepest first.
    """
    out = Path(path)
    created = [d for d in (out, *out.parents) if not d.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot create report directory {out}: {exc}") from exc
    return out, created


def _cmd(args) -> int:
    """Run each cell of the sweep over its seeds; `run` is one empty cell."""
    if any(n < 1 for n in args.seeds):
        raise ScenarioError("--seeds must be at least 1")
    named = [("--seeds", "seeds", " ".join(map(str, range(1, n + 1)))) for n in args.seeds]
    named += [("--set", *_parse_assignment(text, "--set")) for text in args.overrides]
    axes = [_parse_axis(a) for a in args.axis]
    named += [("--axis", key, values) for key, values in axes]
    labels: dict[str, str] = {}  # each key's first label: `--seeds` or `<flag> <key>`
    for flag, key, _ in named:
        label = flag if flag == "--seeds" else f"{flag} {key}"
        if labels.get(key) == label:
            raise ScenarioError(f"{label} is given more than once")
        if key in labels:
            raise ScenarioError(f"{labels[key]} conflicts with {label}")
        labels[key] = label
    overrides = {key: value for flag, key, value in named if flag != "--axis"}
    axis_keys = [key for key, _ in axes]
    for name in ("runs.csv", "aggregate.csv"):
        report = Path(args.out) / name
        if report.exists() and not report.is_file():
            raise ScenarioError(f"report path {report} is not a regular file")
    path = Path(args.scenario)
    raw = read_scenario(path)
    out, created = _make_out_dir(args.out)

    run_rows: list[dict[str, str]] = []
    agg_rows: list[dict[str, str]] = []
    failed = 0
    try:
        for combo in itertools.product(*(values for _, values in axes)):
            cell = dict(zip(axis_keys, combo))
            prefix = "".join(f"[{key}={value}] " for key, value in cell.items())
            try:
                reports = run_seeds(build_scenario({**raw, **overrides, **cell}, path.parent))
            except ValueError as exc:  # ScenarioError, TraceParseError, IdCollisionError too
                failed += 1
                print(f"error: {prefix}{exc}", file=sys.stderr)
                continue
            for report in reports:
                print(
                    f"{prefix}seed {report.seed}: generated={report.generated} "
                    f"delivered={report.delivered} mdr={report.mdr}"
                )
                run_rows.append({**cell, **run_row(report)})
            agg_rows.append({**cell, **aggregate_row(reports)})
    finally:
        if not agg_rows:  # a call that reports nothing leaves no directory
            for d in created:
                d.rmdir()
    if not agg_rows:
        return 2

    write_csv(out / "runs.csv", tuple(axis_keys) + RUN_COLUMNS, run_rows)
    write_csv(out / "aggregate.csv", tuple(axis_keys) + AGGREGATE_COLUMNS, agg_rows)
    print(f"wrote {out / 'runs.csv'} and {out / 'aggregate.csv'}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    import argparse  # here, not at the top: a simulation that parses no flags skips it

    class Parser(argparse.ArgumentParser):
        def error(self, message: str):  # one `error:` line, as every rejection
            raise ScenarioError(message)

    parser = Parser(
        prog="dtnsim",
        description="Epidemic DTN routing simulator over an IP-style convergence layer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scenario over its seeds")
    _add_common(run_parser)
    run_parser.set_defaults(axis=[])

    sweep_parser = sub.add_parser("sweep", help="run a cartesian parameter sweep")
    _add_common(sweep_parser)
    sweep_parser.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="KEY=V1,V2,...",
        help="sweep axis over a scenario key (repeatable)",
    )

    try:
        return _cmd(parser.parse_args(argv))
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
