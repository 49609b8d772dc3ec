"""Lockstep CPU-time pairs: the simulator of a git revision against the working tree.

    python3 tools/lockstep_ab.py --base REV --workload W [--seed S] [--reps N] [--tiny]

It extracts `src/dtnsim` of REV with `git archive` into a temporary
directory and imports it as the package `dtnsim_base`, next to the working
tree's `dtnsim`. Each rep builds one world per side from the inputs that
`bench/workloads.write_inputs` makes for the workload seed (for cli_sweep,
the first cell of the sweep and its first seed), then advances the two
worlds through the same 200 slices of simulated time, alternating which
side runs a slice first, and sums the `time.process_time` of each side.
Which side builds its world first alternates between reps.
Both sides run in one process at once, so drift of the machine's speed
falls on both.

It exits 1 unless both worlds end every rep with equal `events_run` and
an equal `metrics.run_row`; it stops at the first rep where they differ.
Its stdout is one JSON object: the base as given and its commit, the
workload, the seed, each finished rep's CPU seconds per side and ratio
(base CPU seconds over working-tree CPU seconds, so above 1 means the
working tree is faster), the median, the quartiles, the number of reps
the working tree won and `equal_outputs`. Each rep's line and a
difference in outputs go to stderr. It writes nothing into the checkout.

This is a development aid, not the benchmark: a claimed gain is measured
with `bench/run.py`. `--tiny` uses `workloads.TINY`, which runs in about a
second.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # leave src/ and bench/ as they are

import workloads  # noqa: E402

SLICES = 200
SIDES = ("base", "tree")


def extract_base(rev: str, directory: Path) -> None:
    """`src/dtnsim` of `rev` as the package directory `directory/dtnsim_base`."""
    git = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/dtnsim"],
        capture_output=True,
    )
    if git.returncode:
        raise SystemExit(f"git archive of {rev} failed: {git.stderr.decode().strip()}")
    archive = git.stdout
    # The "data" filter where this Python has it; without it, 3.12 and 3.13 warn.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, **safe)
    (directory / "src" / "dtnsim").rename(directory / "dtnsim_base")


def scenario_of(package: str, workload: workloads.Workload, path: Path):
    """The scenario of `path` as `package` loads it, in the first sweep cell."""
    scenario_mod = importlib.import_module(f"{package}.scenario")
    cell = {key: values[0] for key, values in workload.axes}
    return scenario_mod.load_scenario(path, cell or None)


def one_rep(
    packages: dict[str, str], workload: workloads.Workload, path: Path, first: int
) -> tuple[dict[str, float], dict[str, tuple]]:
    """CPU seconds and the (events_run, run_row) result per side of one
    lockstep pass.

    Side `first` (0 or 1 in SIDES) builds its world first and runs the
    odd-numbered slices first."""
    order = SIDES if first == 0 else SIDES[::-1]
    worlds, cpu = {}, dict.fromkeys(SIDES, 0.0)
    for side in order:
        package = packages[side]
        scenario = scenario_of(package, workload, path)
        runner = importlib.import_module(f"{package}.runner")
        seed = scenario.seeds[0]
        worlds[side] = (scenario, seed, *runner.build_run(scenario, seed))
    duration_us = worlds["tree"][0].duration_us
    for k in range(1, SLICES + 1):
        end_us = duration_us * k // SLICES
        for side in order if k % 2 else order[::-1]:
            sim = worlds[side][2]
            start = time.process_time()
            sim.run(end_us)
            cpu[side] += time.process_time() - start
    results = {}
    for side, package in packages.items():
        _, seed, sim, network, _, trace = worlds[side]
        network.finalize()
        metrics = importlib.import_module(f"{package}.metrics")
        results[side] = (sim.events_run, metrics.run_row(metrics.compute(trace, seed)))
    return cpu, results


def commit_of(rev: str) -> str:
    """The full hash of the commit that `rev` names."""
    git = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True,
    )
    if git.returncode:
        raise SystemExit(f"{rev} is not a commit: {git.stderr.strip()}")
    return git.stdout.strip()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--reps", type=int, default=10, help="lockstep passes (default 10)")
    parser.add_argument("--tiny", action="store_true", help="the smoke-test sizes")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    workload = (workloads.TINY if args.tiny else workloads.WORKLOADS)[args.workload]
    base_commit = commit_of(args.base)
    cpus, ratios, equal = {side: [] for side in SIDES}, [], True
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        extract_base(base_commit, tmp_path)
        sys.path.insert(0, tmp)
        path = workloads.write_inputs(workload, args.seed, tmp_path / "inputs")
        packages = {"base": "dtnsim_base", "tree": "dtnsim"}
        for rep in range(args.reps):
            cpu, results = one_rep(packages, workload, path, rep % 2)
            if results["base"] != results["tree"]:
                equal = False
                print(f"the two sides simulated different results:\n{results}", file=sys.stderr)
                break
            for side in SIDES:
                cpus[side].append(cpu[side])
            ratios.append(cpu["base"] / cpu["tree"])
            print(f"rep {rep}: base {cpu['base']:.3f} s, tree {cpu['tree']:.3f} s, "
                  f"ratio {ratios[-1]:.3f}", file=sys.stderr, flush=True)
    median = statistics.median(ratios) if ratios else None
    quartiles = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else [median] * 3
    print(json.dumps({
        "base": args.base, "base_commit": base_commit,
        "workload": args.workload, "seed": args.seed, "tiny": args.tiny,
        "base_cpu_s": cpus["base"], "tree_cpu_s": cpus["tree"], "ratios": ratios,
        "median": median, "quartiles": [quartiles[0], quartiles[2]],
        "wins": sum(r > 1 for r in ratios), "equal_outputs": equal,
    }))
    if not equal:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
