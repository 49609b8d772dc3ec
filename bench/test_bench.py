"""Smoke test of the benchmark: every workload, at a tiny size, through run.py.

    python3 -m pytest bench/test_bench.py -q

It checks the metric names and units against BENCHMARK.json, that a
wrong recorded invariant fails the run, that a checkout without the
program makes no result, and the recorded desk baseline.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--tiny", "--seconds", "1", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_match_benchmark_json(workload, trace):
    code, result = bench("--workload", workload, "--seed", "1", "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if trace == 0:
        assert all(v > 0 for v in values)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_recorded_invariant_fails_the_run(workload, tmp_path):
    path = tmp_path / "invariants.json"
    args = ("--workload", workload, "--seed", "3", "--invariants", str(path))
    assert bench(*args, "--record")[0] == 0
    code, result = bench(*args)
    assert code == 0 and result["correct"]

    data = json.loads(path.read_text())
    recorded = data["workloads"][f"{workload}.tiny"]["3"]
    first = recorded[min(recorded, key=int)]
    first["events"] += 1
    path.write_text(json.dumps(data))
    code, result = bench(*args)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("--workload", "desk", "--seed", "1", cwd=tmp_path)
    assert code != 0 and result is None


def test_desk_seed_1_is_the_roadmap_baseline():
    data = json.loads((BENCH / "invariants.json").read_text())
    desk = data["workloads"]["desk"][str(data["default_seed"])]
    first = desk[str(data["default_seed"])]
    packets = first["packets_transmitted"]
    assert first["events"] == 362_551
    assert packets["data"] == 172_452
    assert sum(n for kind, n in packets.items() if kind != "data") == 8_256
    assert first["run_row"]["mdr"] == "0.82"
    for workload in WORKLOADS:
        recorded = data["workloads"][workload]
        assert {str(data["default_seed"]), str(data["held_out_seed"])} <= set(recorded)


def test_import_split_follows_the_import_tree():
    listing = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   _io",
        "import time:       300 |        300 |       numpy",
        "import time:       200 |        500 |     scipy",
        "import time:        50 |         50 |       dtnsim.wire",
        "import time:        70 |        620 |     dtnsim.metrics",
        "import time:        10 |        630 |   dtnsim",
        "import time:        40 |         40 |   scipy.stats",
    ])
    split = run.import_split(listing)
    assert split["import.scipy_s"] == pytest.approx(540e-6)
    assert split["import.dtnsim_s"] == pytest.approx(130e-6)
    assert split["import.total_s"] == pytest.approx(770e-6)
