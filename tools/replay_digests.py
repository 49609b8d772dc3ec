"""The sha256 of `ReplayTrace.dump()` for every simulation of the benchmark.

    python3 tools/replay_digests.py [--tiny] > digests.txt

It rebuilds the inputs of a 30 s `bench/run.py` run of each workload at
workload seeds 1 and 2, with `bench/workloads.write_inputs` in a temporary
directory: 4 desk sub-seeds, 8 gossip sub-seeds, and 4 cli_sweep sub-seeds
of 4 cells and 2 seeds each, 88 simulations. Then, for each seed, it runs
the desk and the gossip world of sub-seed `seed` again with the overrides
of PRESSURE, which overflow device queues, drop packets past residency and
evict messages from buffers, paths that the bench's worlds never take: 92
simulations in all. It prints one line each,

    workload seed subseed cell sha256

`cell` being the sweep cell's axis values or the overrides, and the run's
seed. Two commits that simulate the same thing print the same lines:
`diff` their outputs.
`run_once` audits each simulation (`RunTrace.audit`): a RunLawError stops
the tool at the first run that breaks a law of every run. It needs no test
extra: neither pytest nor hypothesis.
`tools/replay_digests.expected` holds the full-size lines; CI diffs a
fresh run against it.
`--tiny` uses `workloads.TINY`, which runs in about a second.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # leave bench/ as it is

import workloads  # noqa: E402
from run import SUBSEED_STRIDE  # noqa: E402

from dtnsim.records import ReplayTrace  # noqa: E402
from dtnsim.runner import run_once  # noqa: E402
from dtnsim.scenario import load_scenario  # noqa: E402

SEEDS = (1, 2)
CHILDREN = int(30 // workloads.NOMINAL_CHILD_S)  # child processes of a 30 s run
# Overrides that make a workload's world overflow queues, drop packets past
# residency and evict messages: small queues and buffers (and, for gossip's
# one-packet messages, a 1 ms residency).
PRESSURE = {
    "desk": {"queue_capacity": "70000", "buffer_capacity": "300000"},
    "gossip": {"queue_capacity": "3000", "buffer_capacity": "20000",
               "queue_residency": "0.001"},
}


def print_digests(name: str, seed: int, subseed: int, path: Path, cell: dict[str, str]) -> None:
    """The digest line of every run of the scenario at `path` with `cell`'s overrides."""
    scenario = load_scenario(path, cell or None)
    for run_seed in scenario.seeds:
        dump = run_once(scenario, run_seed, ReplayTrace())[1].dump()
        label = ",".join([*(f"{k}={v}" for k, v in cell.items()), f"seed={run_seed}"])
        digest = hashlib.sha256(dump.encode()).hexdigest()
        print(name, seed, subseed, label, digest, flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="the smoke-test sizes")
    chosen = workloads.TINY if parser.parse_args().tiny else workloads.WORKLOADS
    with tempfile.TemporaryDirectory() as tmp:
        for name, w in chosen.items():
            keys = [key for key, _ in w.axes]
            cells = [dict(zip(keys, c)) for c in itertools.product(*(v for _, v in w.axes))]
            for seed in SEEDS:
                for j in range(CHILDREN * (w.sims_per_child if w.kind == "sim" else 1)):
                    subseed = seed + SUBSEED_STRIDE * j
                    path = workloads.write_inputs(w, subseed, Path(tmp) / f"{name}{subseed}")
                    for cell in cells:
                        print_digests(name, seed, subseed, path, cell)
        for name, cell in PRESSURE.items():
            for seed in SEEDS:
                print_digests(name, seed, seed, Path(tmp) / f"{name}{seed}" / "scenario.cfg", cell)


if __name__ == "__main__":
    main()
