"""dtnsim benchmark: host cost of simulating, with the simulated results pinned.

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Workloads (see README.md): `desk`, `gossip`, `cli_sweep`. Each is a closed
loop: one simulation at a time in one process, one process at a time.

A run simulates K distinct inputs, its sub-seeds `seed + 100000 * j` for
j = 0..K-1; sub-seed 0 is `seed` itself. K follows from `--seconds` and a
fixed nominal cost per child process, never from how fast this machine
is, so a seed and a run length always give the same simulations. Timings
are means over the K inputs, which averages out how much work each seed
happens to make.

With `--trace 0` the run reports the end-to-end metrics. With `--trace 1`
it simulates sub-seed 0 in one untraced and one traced child and reports
the per-layer metrics. The last line of standard output is one JSON object:

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

Every run checks the simulated outputs: the conservation audit of every
simulation, equal results from the traced and the untraced child, equal
CSVs from `dtnsim sweep` and from the library, and, for a seed recorded in
invariants.json, equality with the recorded invariants. A failed check
counts in `failed` and makes the exit code 1. Run from a directory that has
no `src/dtnsim`, the benchmark exits with code 2 and prints no result.

`--record` stores the invariants of one workload and seed in the
invariants file, for a change that alters the simulated results on
purpose and says so.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibration
import workloads as wl
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
INVARIANTS = BENCH / "invariants.json"

SUBSEED_STRIDE = 100_000
# Children are killed once a run is this old, inside the 180 s limit.
HARD_LIMIT_S = 160.0
IMPORTTIME_SETUPS = 3
PARENT_PROBE_PASSES = 4

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ChildFailed(Exception):
    pass


class Run:
    """One benchmark invocation: its inputs, children and check results."""

    def __init__(self, workload: wl.Workload, seed: int, seconds: float, traced: bool,
                 key: str, invariants_path: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.children = 1 if traced else max(1, int(seconds // wl.NOMINAL_CHILD_S))
        per_child = workload.sims_per_child if workload.kind == "sim" else 1
        self.subseeds = [
            seed + SUBSEED_STRIDE * j for j in range(self.children * (1 if traced else per_child))
        ]
        self.work = WORK / f"{workload.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.seen: dict[int, dict] = {}
        self.key = key
        self.invariants_path = invariants_path
        self.recorded = self._load_recorded()
        self._spawned = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def _load_recorded(self) -> dict:
        if not self.invariants_path.is_file():
            return {}
        data = json.loads(self.invariants_path.read_text())
        return data.get("workloads", {}).get(self.key, {}).get(str(self.seed), {})

    def scenario(self, subseed: int) -> str:
        """The scenario file of one sub-seed, written on first use."""
        directory = self.work / f"inputs-{subseed}"
        path = directory / "scenario.cfg"
        if not path.is_file():
            wl.write_inputs(self.workload, subseed, directory)
        return str(path)

    # -- children -------------------------------------------------------------

    def spawn(self, argv: list[str]) -> dict:
        """Run one child to completion; returns its wall time, rusage and output.

        `probe_before` and `probe_after` are the speed probe's times right
        before and right after the child.
        """
        self._spawned += 1
        tag = self.work / f"child{self._spawned}"
        timeout = HARD_LIMIT_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise ChildFailed("the run is out of time")
        probe_before = calibration.measure(PARENT_PROBE_PASSES)
        with open(f"{tag}.out", "wb") as out, open(f"{tag}.err", "wb") as err:
            launch = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own rusage, peak RSS included.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - launch
            proc.returncode = os.waitstatus_to_exitcode(status)
        info = {
            "launch": launch,
            "probe_before": probe_before,
            "probe_after": calibration.measure(PARENT_PROBE_PASSES),
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024,
            "stdout": Path(f"{tag}.out").read_text(),
        }
        if proc.returncode != 0:
            err = Path(f"{tag}.err").read_text()[-2000:]
            raise ChildFailed(f"{' '.join(argv[1:3])}... exited {proc.returncode}: {err}")
        info["stderr"] = Path(f"{tag}.err").read_text()
        return info

    def out_dir(self) -> Path:
        path = self.work / f"out{self._spawned + 1}"
        path.mkdir(parents=True)
        return path

    def child(self, spec: dict, importtime: bool = False) -> tuple[dict, dict]:
        """Run bench/child.py with `spec`; returns (process info, its JSON result)."""
        flags = ["-X", "importtime"] if importtime else []
        info = self.spawn([sys.executable, *flags, str(BENCH / "child.py"), json.dumps(spec)])
        return info, json.loads(info["stdout"].strip().splitlines()[-1])

    def attempt(self, fn, *args, **kwargs):
        """Run one child through `fn`; it fails if the child fails or a check does."""
        self.attempted += 1
        before = len(self.problems)
        try:
            return fn(*args, **kwargs)
        except ChildFailed as exc:
            self.fail(str(exc))
            return None
        finally:
            if len(self.problems) > before:
                self.failed += 1

    def fail(self, problem: str) -> None:
        self.problems.append(problem)
        print(f"FAILED: {problem}", file=sys.stderr)

    def check_invariants(self, subseed: int, invariants: dict, source: str) -> bool:
        """A sub-seed's invariants repeat within the run and match the recorded ones."""
        seen = self.seen.setdefault(subseed, invariants)
        if invariants != seen:
            self.fail(f"{source}, sub-seed {subseed}: invariants differ within the run")
            return False
        recorded = self.recorded.get(str(subseed))
        if recorded is not None and invariants != recorded:
            self.fail(f"{source}, sub-seed {subseed}: invariants differ from "
                      f"{self.invariants_path.name}")
            return False
        return True

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


class Samples:
    """Host times scaled to the reference speed, plus the raw wall times."""

    def __init__(self) -> None:
        self.setup, self.wall, self.cpu, self.events, self.rss = [], [], [], [], []
        self.raw_wall: list[float] = []
        self.imports: list[dict[str, float]] = []  # import split of each set-up


# -- desk and gossip: in-process simulations --------------------------------------


def sim_child(run: Run, samples: Samples, subseeds: list[int], build_only=False,
              overrides=None, importtime=False) -> dict:
    info, result = run.child({
        "mode": "sim", "scenarios": [run.scenario(s) for s in subseeds],
        "build_only": build_only, "overrides": overrides,
    }, importtime)
    # Set-up lies between the parent's probe and the child's first probe.
    scale = calibration.scale(info["probe_before"], result["setup_probe_s"])
    samples.setup.append((result["setup_stamp"] - info["launch"]) * scale)
    if importtime:
        samples.imports.append(
            {k: v * scale for k, v in import_split(info["stderr"]).items()})
    for subseed, s in zip(subseeds, result["samples"]):
        if run.check_invariants(subseed, s["invariants"], "simulation"):
            samples.wall.append(s["scaled_wall_s"])
            samples.raw_wall.append(s["wall_s"])
            samples.cpu.append(s["scaled_cpu_s"])
            samples.events.append(s["invariants"]["events"])
    if not build_only:
        samples.rss.append(info["maxrss_mb"])
    return result


def measure_sim(run: Run) -> Samples:
    samples = Samples()
    per_child = len(run.subseeds) // run.children
    for c in range(run.children):
        run.attempt(sim_child, run, samples, run.subseeds[c * per_child:(c + 1) * per_child])
    return samples


# -- cli_sweep: `dtnsim sweep` processes ---------------------------------------------


def sweep_argv(run: Run, subseed: int, out: Path) -> list[str]:
    argv = ["sweep", run.scenario(subseed), "--out", str(out)]
    for key, values in run.workload.axes:
        argv += ["--axis", f"{key}={','.join(values)}"]
    return argv


def sweep_reference(run: Run) -> dict[int, dict]:
    """Each sub-seed's sweep computed through the library, in one child."""
    out = run.out_dir()
    _, result = run.child({"mode": "sweep_ref", "axes": run.workload.axes, "out": str(out),
                           "scenarios": [run.scenario(s) for s in run.subseeds]})
    refs = {}
    for i, (subseed, events) in enumerate(zip(run.subseeds, result["events"])):
        refs[subseed] = csv_invariants(out / str(i), events)
        run.check_invariants(subseed, refs[subseed], "library sweep")
    return refs


def csv_invariants(out: Path, events: int) -> dict:
    return {
        "events": events,
        "runs_csv_sha256": hashlib.sha256((out / "runs.csv").read_bytes()).hexdigest(),
        "aggregate_csv_sha256": hashlib.sha256((out / "aggregate.csv").read_bytes()).hexdigest(),
    }


def cli_process(run: Run, subseed: int, reference: dict, samples: Samples) -> None:
    """One `dtnsim sweep` process, started the way the console script starts it."""
    out = run.out_dir()
    info = run.spawn(
        [sys.executable, "-c", "import sys; from dtnsim.cli import main; sys.exit(main())"]
        + sweep_argv(run, subseed, out)
    )
    got = csv_invariants(out, reference["events"])
    if run.check_invariants(subseed, got, "dtnsim sweep"):
        scale = calibration.scale(info["probe_before"], info["probe_after"])
        samples.wall.append(info["wall_s"] * scale)
        samples.raw_wall.append(info["wall_s"])
        samples.cpu.append(info["cpu_s"] * scale)
        samples.events.append(reference["events"])
        samples.rss.append(info["maxrss_mb"])


def setup_probe(run: Run, subseed: int, samples: Samples, importtime=False) -> None:
    """A child that stops once the first simulation is built.

    For `cli_sweep` it does what the sweep does first: imports, the first
    cell's scenario and trace, and the build of its first seed.
    """
    first_cell = {key: values[0] for key, values in run.workload.axes} or None
    sim_child(run, samples, [subseed], build_only=True, overrides=first_cell,
              importtime=importtime)


def measure_sweep(run: Run) -> Samples:
    samples = Samples()
    refs = run.attempt(sweep_reference, run)
    if refs is None:
        return samples
    for subseed in run.subseeds:
        run.attempt(cli_process, run, subseed, refs[subseed], samples)
        run.attempt(setup_probe, run, subseed, samples)
    return samples


# -- traced run ----------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)$")


def import_split(stderr: str) -> dict[str, float]:
    """Split `-X importtime` self times into scipy, dtnsim and everything else.

    A module counts toward scipy when it or an enclosing import is a scipy
    module (numpy, pulled in by scipy, included), and toward dtnsim when it
    or an enclosing import is a dtnsim module and it is not scipy's.
    """
    rows = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(1))))
    totals = {"scipy": 0, "dtnsim": 0, "other": 0}
    stack: list[tuple[int, str]] = []  # (depth, category) of enclosing imports
    # importtime prints a module after the modules it imported; reversed, the
    # listing is a pre-order walk of the import tree.
    for depth, name, self_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        category = stack[-1][1] if stack else "other"
        root = name.split(".")[0]
        if root == "scipy":
            category = "scipy"
        elif root == "dtnsim" and category == "other":
            category = "dtnsim"
        stack.append((depth, category))
        totals[category] += self_us
    return {
        "import.total_s": sum(totals.values()) / 1e6,
        "import.scipy_s": totals["scipy"] / 1e6,
        "import.dtnsim_s": totals["dtnsim"] / 1e6,
    }


def traced_child(run: Run) -> tuple[dict, dict] | None:
    """The traced child; its simulated results must equal the untraced child's."""
    subseed = run.subseeds[0]
    if run.workload.kind == "sim":
        info, result = run.child(
            {"mode": "sim", "scenarios": [run.scenario(subseed)], "trace": True})
        invariants = result["samples"][0]["invariants"]
    else:
        out = run.work / "traced-out"
        info, result = run.child(
            {"mode": "sweep_cli", "argv": sweep_argv(run, subseed, out), "trace": True})
        invariants = csv_invariants(out, result["trace"]["counts"]["sim.events"])
    if not run.check_invariants(subseed, invariants, "traced child"):
        return None
    return info, result


PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace_overhead_frac": "fraction",
    "sim.events": "count",
    "sim.events.timer": "count",
    "sim.events.packet_delivery": "count",
    "sim.events.traffic_generation": "count",
    "sim.pending_peak": "count",
    "radio.submit_calls": "count",
    "radio.in_range_calls": "count",
    **{f"radio.pkt.{o}": "count" for o in (
        "submitted", "transmitted", "delivered", "overflow", "residency", "out_of_range", "loss")},
    "radio.unicast_delivery_ratio": "fraction",
    "protocol.handle_packet_calls": "count",
    "protocol.exchanges": "count",
    "protocol.transfers": "count",
    "protocol.partial_aborts": "count",
    "protocol.duplicate_ratio": "fraction",
    "wire.encode_calls": "count",
    "wire.decode_calls": "count",
    "wire.summary_ids_decoded": "count",
    "wire.malformed": "count",
    "buffer.enqueue_calls": "count",
    "buffer.drop_expired_calls": "count",
    "buffer.summary_calls": "count",
    "buffer.summary_len_mean": "ids",
    "buffer.find_disjoint_calls": "count",
    "buffer.expired": "count",
    "buffer.evicted": "count",
    "buffer.peak_bytes": "bytes",
    "mobility.position_at_calls": "count",
    "mobility.position_at_self_s": "s",
    "mobility.parse_calls": "count",
    "mobility.parse_s": "s",
    "records.packet_event_calls": "count",
    "scenario.load_s": "s",
    "runner.build_run_s": "s",
    "runner.run_once_calls": "count",
    "metrics.compute_s": "s",
    "metrics.aggregate_s": "s",
    "cli.write_csv_s": "s",
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.dtnsim_s": "s",
    "setup.other_s": "s",
    "error_rate": "fraction",
}


def layer_metrics(run: Run, untraced: Samples, traced_info: dict,
                  traced: dict) -> dict[str, float]:
    t = traced["trace"]
    counts, incl, peaks, packets, drops = (
        t["counts"], t["inclusive_s"], t["peaks"], t["packets"], t["drops"])
    scale = calibration.scale(traced_info["probe_before"], traced_info["probe_after"])
    m = {f"{layer}.self_s": t["self_s"].get(layer, 0.0) * scale for layer in LAYERS}
    m["unattributed_s"] = t["unattributed_s"] * scale
    m["trace.wall_s"] = t["root_s"] * scale
    # Same span in both children: the timed simulation, or the whole process.
    traced_wall = traced["samples"][0]["wall_s"] if "samples" in traced else traced_info["wall_s"]
    m["trace_overhead_frac"] = traced_wall * scale / untraced.wall[0] - 1
    m["sim.pending_peak"] = peaks.get("sim.pending_peak", 0)
    m["buffer.peak_bytes"] = peaks.get("buffer.peak_bytes", 0)
    for name in ("sim.events", "sim.events.timer", "sim.events.packet_delivery",
                 "sim.events.traffic_generation", "radio.submit_calls", "radio.in_range_calls",
                 "protocol.handle_packet_calls", "protocol.exchanges", "wire.encode_calls",
                 "wire.decode_calls", "wire.summary_ids_decoded", "buffer.enqueue_calls",
                 "buffer.drop_expired_calls", "buffer.summary_calls", "buffer.find_disjoint_calls",
                 "mobility.position_at_calls", "mobility.parse_calls",
                 "records.packet_event_calls", "runner.run_once_calls"):
        m[name] = counts.get(name, 0)
    for name in ("mobility.position_at_self_s", "mobility.parse_s", "scenario.load_s",
                 "runner.build_run_s", "metrics.compute_s", "metrics.aggregate_s",
                 "cli.write_csv_s"):
        m[name] = incl.get(name, 0.0) * scale

    def packet_sum(outcome, unicast_only=False):
        return sum(n for key, n in packets.items()
                   if key.endswith(f"/{outcome}") and not (unicast_only and key.startswith("beacon/")))

    for outcome in ("submitted", "transmitted", "delivered", "overflow", "residency",
                    "out_of_range", "loss"):
        m[f"radio.pkt.{outcome}"] = packet_sum(outcome)
    unicast_tx = packet_sum("transmitted", unicast_only=True)
    m["radio.unicast_delivery_ratio"] = (
        packet_sum("delivered", unicast_only=True) / unicast_tx if unicast_tx else 0.0)
    transfers = t["transfers"]
    m["protocol.transfers"] = transfers
    m["protocol.partial_aborts"] = drops["msg_partial_reset"] + drops["msg_partial_disconnect"]
    m["protocol.duplicate_ratio"] = drops["msg_duplicate"] / transfers if transfers else 0.0
    m["wire.malformed"] = drops["pkt_malformed"]
    summaries = counts.get("buffer.summary_calls", 0)
    m["buffer.summary_len_mean"] = counts.get("buffer.summary_ids", 0) / summaries if summaries else 0.0
    m["buffer.expired"] = drops["msg_expired"]
    m["buffer.evicted"] = drops["msg_evicted"]

    # Set-ups run under -X importtime; each is split within its own process.
    timed = untraced.setup[-len(untraced.imports):]
    for name in untraced.imports[0]:
        m[name] = statistics.median(i[name] for i in untraced.imports)
    m["setup.other_s"] = statistics.median(
        setup - i["import.scipy_s"] - i["import.dtnsim_s"]
        for setup, i in zip(timed, untraced.imports))
    m["error_rate"] = run.failed / run.attempted
    return m


def traced_run(run: Run) -> dict[str, float] | None:
    """Untraced and traced children of sub-seed 0, and the start-up split."""
    untraced = Samples()
    subseed = run.subseeds[0]
    if run.workload.kind == "sim":
        run.attempt(sim_child, run, untraced, [subseed], importtime=True)
    else:
        refs = run.attempt(sweep_reference, run)
        if refs is not None:
            run.attempt(cli_process, run, subseed, refs[subseed], untraced)
            run.attempt(setup_probe, run, subseed, untraced, importtime=True)
    while len(untraced.imports) < IMPORTTIME_SETUPS and run.failed == 0:
        run.attempt(setup_probe, run, subseed, untraced, importtime=True)
    traced = run.attempt(traced_child, run)
    if not (untraced.wall and untraced.imports and traced):
        return None
    return layer_metrics(run, untraced, *traced)


def untraced_run(run: Run) -> dict[str, float] | None:
    samples = measure_sim(run) if run.workload.kind == "sim" else measure_sweep(run)
    if not (samples.wall and samples.setup and samples.rss):
        return None
    what = "simulations" if run.workload.kind == "sim" else "dtnsim sweep processes"
    print(f"  wall_s, cpu_s, events_per_s: over {len(samples.wall)} {what}; scaled wall "
          f"{min(samples.wall):.4g}..{max(samples.wall):.4g} s, raw wall "
          f"{min(samples.raw_wall):.4g}..{max(samples.raw_wall):.4g} s (raw mean "
          f"{statistics.fmean(samples.raw_wall):.4g} s, scale "
          f"{statistics.fmean(samples.wall) / statistics.fmean(samples.raw_wall):.3f})")
    print(f"  setup_s: median of {len(samples.setup)} set-ups, scaled "
          f"{min(samples.setup):.4g}..{max(samples.setup):.4g} s; "
          f"peak_rss_mb: mean of {len(samples.rss)} processes")
    return {
        # Means over distinct inputs: each seed makes a different amount of work.
        "wall_s": statistics.fmean(samples.wall),
        "cpu_s": statistics.fmean(samples.cpu),
        "events_per_s": sum(samples.events) / sum(samples.wall),
        "setup_s": statistics.median(samples.setup),
        "peak_rss_mb": statistics.fmean(samples.rss),
    }


def record(run: Run) -> int:
    """Store the invariants of this workload and seed in the invariants file."""
    run.recorded = {}
    samples = measure_sim(run) if run.workload.kind == "sim" else measure_sweep(run)
    if run.failed or len(samples.wall) != len(run.subseeds):
        return 1
    path = run.invariants_path
    data = json.loads(path.read_text()) if path.is_file() else {}
    data.setdefault("default_seed", 1)
    data.setdefault("held_out_seed", 2)
    data.setdefault("workloads", {}).setdefault(run.key, {})[str(run.seed)] = {
        str(s): run.seen[s] for s in run.subseeds
    }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {run.key} seed {run.seed} ({len(run.subseeds)} sub-seeds) in {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workload at smoke-test size")
    parser.add_argument("--invariants", type=Path, default=INVARIANTS,
                        help="recorded invariants file (default: bench/invariants.json)")
    parser.add_argument("--record", action="store_true",
                        help="store this workload and seed's invariants instead of measuring")
    args = parser.parse_args(argv)

    if not (SRC / "dtnsim" / "__init__.py").is_file():
        print(f"error: no dtnsim sources at {SRC}", file=sys.stderr)
        return 2
    workload = (wl.TINY if args.tiny else wl.WORKLOADS)[args.workload]
    key = workload.name + (".tiny" if args.tiny else "")
    run = Run(workload, args.seed, args.seconds, bool(args.trace), key, args.invariants)
    try:
        if args.record:
            return record(run)
        print(f"{key} seed {args.seed}, trace {args.trace}: sub-seeds {run.subseeds}, "
              f"{len(run.recorded)} of them recorded")
        values = traced_run(run) if args.trace else untraced_run(run)
    finally:
        run.cleanup()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {}
    if values is not None:
        for name, unit in units.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name} = {values[name]:.6g} {unit}")
    for problem in run.problems:
        print(f"  check failed: {problem}")
    correct = run.failed == 0 and values is not None
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
