"""One benchmark child process; run.py starts it and reads its JSON line.

    python3 bench/child.py '{"mode": "sim", ...}'

Modes:
  sim         for each scenario: load it, build the run (the first build is
              the set-up stamp), then time `sim.run` + `finalize` +
              `compute`, raw and scaled to the reference speed;
              `build_only` stops after the set-up stamp.
  sweep_ref   the reference for `cli_sweep`: each scenario's sweep computed
              in-process through the library, giving the expected CSVs (in
              out/<i>/) and the number of kernel events.
  sweep_cli   `dtnsim.cli.main` in-process; used only for the traced run,
              because the untraced sweep runs in a `dtnsim` process of its own.

With "trace": true the child installs the span wrappers of tracer.py after
its imports and reports per-layer figures as well.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import calibration
from dtnsim import cli, metrics, runner, scenario as scenario_mod
from dtnsim.records import CONTROL_KINDS, KIND_BEACON, KIND_DATA

KINDS = CONTROL_KINDS + (KIND_DATA,)
SLICES = 10


class AuditError(Exception):
    pass


def audit(trace, report, ttl_us: int) -> None:
    """Conservation laws every run must satisfy, from the run's own counters."""
    pc = trace.packet_counts
    for kind in KINDS:
        submitted = pc[(kind, "submitted")]
        accounted = sum(
            pc[(kind, o)] for o in ("transmitted", "overflow", "residency", "unsent_at_end")
        )
        if submitted != accounted:
            raise AuditError(f"{kind}: {submitted} submitted but {accounted} accounted for")
        if kind != KIND_BEACON:  # unicast: one outcome per transmission
            transmitted = pc[(kind, "transmitted")]
            outcomes = sum(
                pc[(kind, o)] for o in ("delivered", "loss", "out_of_range", "in_flight_at_end")
            )
            if transmitted != outcomes:
                raise AuditError(f"{kind}: {transmitted} transmitted but {outcomes} outcomes")
    malformed = sum(n for (_, outcome), n in pc.items() if outcome == "malformed")
    if malformed:
        raise AuditError(f"{malformed} malformed packets")
    if report.delivered > report.generated:
        raise AuditError(f"{report.delivered} delivered of {report.generated} generated")
    if any(d.latency_us > ttl_us for d in trace.deliveries):
        raise AuditError("a delivery exceeded the message TTL")


def sim_invariants(sim, trace, report) -> dict:
    return {
        "events": sim.events_run,
        "packets_transmitted": {k: trace.count(k, "transmitted") for k in KINDS},
        "run_row": metrics.run_row(report),
    }


def run_sim(spec: dict) -> dict:
    samples = []
    setup_stamp = None
    # The traced child skips the speed probe: its root span holds program time only.
    measure = (lambda: calibration.REFERENCE_S) if spec.get("trace") else calibration.measure
    for path in spec["scenarios"]:
        scenario = scenario_mod.load_scenario(path, spec.get("overrides"))
        seed = scenario.seeds[0]
        sim, network, _, trace = runner.build_run(scenario, seed)
        if setup_stamp is None:
            setup_stamp = time.monotonic()
            probe = setup_probe = measure()
        if spec.get("build_only"):
            break
        # `sim.run` + `finalize` + `compute`, timed in slices of simulated
        # time with the speed probe between them, so that each slice is
        # scaled by the machine's speed around it. Running to successive
        # end times executes exactly the events one call would.
        sample = {"wall_s": 0.0, "cpu_s": 0.0, "scaled_wall_s": 0.0, "scaled_cpu_s": 0.0}
        for i in range(1, SLICES + 1):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            sim.run(scenario.duration_us * i // SLICES)
            if i == SLICES:
                network.finalize()
                report = metrics.compute(trace, seed)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            probe_before, probe = probe, measure()
            factor = calibration.scale(probe_before, probe)
            sample["wall_s"] += wall
            sample["cpu_s"] += cpu
            sample["scaled_wall_s"] += wall * factor
            sample["scaled_cpu_s"] += cpu * factor
        audit(trace, report, scenario.protocol.message_ttl_us)
        sample["invariants"] = sim_invariants(sim, trace, report)
        samples.append(sample)
        del sim, network, trace
    return {"setup_stamp": setup_stamp, "setup_probe_s": setup_probe, "samples": samples}


def run_sweep_ref(spec: dict) -> dict:
    """Each scenario's sweep through the library: the rows `dtnsim sweep` writes."""
    axes = spec["axes"]
    keys = [key for key, _ in axes]
    results = []
    for i, path in enumerate(spec["scenarios"]):
        out = Path(spec["out"]) / str(i)
        out.mkdir()
        run_rows, agg_rows, events = [], [], 0
        for combo in itertools.product(*(values for _, values in axes)):
            cell = dict(zip(keys, combo))
            scenario = scenario_mod.load_scenario(path, cell)
            reports = []
            for seed in scenario.seeds:
                sim, network, _, trace = runner.build_run(scenario, seed)
                sim.run(scenario.duration_us)
                network.finalize()
                report = metrics.compute(trace, seed)
                audit(trace, report, scenario.protocol.message_ttl_us)
                events += sim.events_run
                reports.append(report)
            run_rows += [{**cell, **metrics.run_row(r)} for r in reports]
            agg_rows.append({**cell, **metrics.aggregate_row(reports)})
        metrics.write_csv(out / "runs.csv", tuple(keys) + metrics.RUN_COLUMNS, run_rows)
        metrics.write_csv(out / "aggregate.csv", tuple(keys) + metrics.AGGREGATE_COLUMNS, agg_rows)
        results.append(events)
    return {"events": results}


def run_sweep_cli(spec: dict) -> dict:
    code = cli.main(spec["argv"])
    if code != 0:
        raise AuditError(f"dtnsim sweep exited with {code}")
    return {}


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
    run = {"sim": run_sim, "sweep_ref": run_sweep_ref, "sweep_cli": run_sweep_cli}[spec["mode"]]
    # Everything the traced child does after its imports is inside the root span.
    with tracer.root() if tracer else nullcontext():
        result = run(spec)
    if tracer is not None:
        result["trace"] = {
            "root_s": tracer.root_s,
            "unattributed_s": tracer.unattributed_s,
            "self_s": dict(tracer.self_s),
            "inclusive_s": dict(tracer.inclusive_s),
            "counts": dict(tracer.counts),
            "peaks": dict(tracer.peaks),
            "packets": dict(tracer.packets),
            "drops": dict(tracer.drops),
            "transfers": tracer.transfers,
        }
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except AuditError as exc:
        print(f"audit failed: {exc}", file=sys.stderr)
        sys.exit(3)
