"""CLI commands: run, sweep, overrides, and failure handling."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dtnsim import cli, runner
from dtnsim.cli import main
from dtnsim.records import PKT_LOSS, RunTrace

TRACE = """\
$node_(0) set X_ 0.0
$node_(0) set Y_ 0.0
$node_(1) set X_ 50.0
$node_(1) set Y_ 0.0
"""

SCENARIO = """\
trace = trace.ns_movements
duration = 8
seeds = 1 2
message_count = 2
message_size = 5000
packet_payload = 1000
traffic_end = 3
beacon_randomness = 0.05
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "trace.ns_movements").write_text(TRACE)
    (tmp_path / "two_node.cfg").write_text(SCENARIO)
    return tmp_path


@pytest.fixture
def rejects(workdir, capsys, monkeypatch):
    """Check that `main` rejects a command line as every rejection must.

    `rejects(argv, message)` runs `argv` (a command and its flags) on
    `scenario` in workdir, with an `--out` there. It must exit 2 with one
    `error:` line, its stderr must `match` `message` (equal it, by
    default), and no file or directory may be left behind. Unless the
    rejection `simulates`, `run_seeds` must not be called.
    """

    def no_simulation(scenario):
        pytest.fail("simulated although the command line is rejected")

    def check(argv, message, match=str.__eq__, *, simulates=False, scenario="two_node.cfg",
              out="rejected"):
        if not simulates:
            monkeypatch.setattr(cli, "run_seeds", no_simulation)
        before = set(workdir.rglob("*"))
        code = main([argv[0], str(workdir / scenario), *argv[1:], "--out", str(workdir / out)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err
        assert match(err, message), err
        assert set(workdir.rglob("*")) == before

    return check


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunCommand:
    def test_writes_per_run_and_aggregate(self, workdir, capsys):
        out = workdir / "reports"
        code = main(["run", str(workdir / "two_node.cfg"), "--out", str(out)])
        assert code == 0
        runs = read_csv(out / "runs.csv")
        assert [r["seed"] for r in runs] == ["1", "2"]
        assert all(r["mdr"] == "1" for r in runs)
        agg = read_csv(out / "aggregate.csv")
        assert len(agg) == 1
        assert agg[0]["runs"] == "2"
        assert float(agg[0]["mdr_mean"]) == 1.0

    def test_seeds_flag_expands_to_range(self, workdir):
        out = workdir / "r2"
        code = main(
            ["run", str(workdir / "two_node.cfg"), "--seeds", "3", "--out", str(out)]
        )
        assert code == 0
        assert [r["seed"] for r in read_csv(out / "runs.csv")] == ["1", "2", "3"]

    def test_set_override(self, workdir):
        out = workdir / "r3"
        code = main(
            [
                "run",
                str(workdir / "two_node.cfg"),
                "--set",
                "message_count=0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        runs = read_csv(out / "runs.csv")
        assert all(r["generated"] == "0" and r["mdr"] == "" for r in runs)

    def test_deterministic_scenario_exact_metric_row(self, workdir):
        # Hand-computed oracle: generation at t=0, first beacons at t=1
        # (zero jitter), REPLY + REPLY_BACK, then 5 data packets of
        # 1000 B payload. Every packet adds 30 B of DTN headers (data)
        # or its control header, plus 28 B of IPv4/UDP.
        (workdir / "oracle.cfg").write_text(
            "trace = trace.ns_movements\nduration = 4\nseeds = 1 2\n"
            "beacon_randomness = 0\nmessage_count = 1\nmessage_size = 5000\n"
            "packet_payload = 1000\ntraffic_start = 0\ntraffic_end = 0\n"
        )
        out = workdir / "oracle"
        assert main(["run", str(workdir / "oracle.cfg"), "--out", str(out)]) == 0
        rate = 12e6
        oracle = 1.0 + 8 * ((3 + 28) + (15 + 28) + (7 + 28) + 5 * (30 + 1000 + 28)) / rate
        for row in read_csv(out / "runs.csv"):
            assert row["generated"] == "1" and row["delivered"] == "1"
            assert row["transfers"] == "1" and row["avg_hop_count"] == "1"
            assert row["replication_overhead"] == "0"
            assert abs(float(row["avg_latency_s"]) - oracle) < 1e-3

    def test_missing_trace_mentions_path(self, workdir, rejects):
        (workdir / "broken.cfg").write_text("trace = gone.ns_movements\nduration = 5\n")
        rejects(["run"], "gone.ns_movements", str.__contains__, scenario="broken.cfg")

    def test_unknown_scenario_file(self, rejects):
        rejects(["run"], "missing.cfg", str.__contains__, scenario="missing.cfg")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--set", "message_size=1e12"], "exceeds buffer_capacity"),
            (["--set", "seeds=2 2 2"], "seeds must be distinct"),
            (["--set", "hop_limit=5000000000"], "hop_limit must be in"),
            (["--set", "queue_residency=1e-7"], "queue_residency must be at least 1 µs"),
            (
                "--set duration=1e9 --set traffic_start=3e8 --set traffic_end=3.1e8".split(),
                "traffic_end must be at most 281474976.710655 s",
            ),
            (
                "--set duration=1e-7 --set traffic_end=0 --set message_count=1".split(),
                "duration must be at least 1 µs",
            ),
        ],
        ids=[
            "oversize_message",
            "repeated_seed",
            "hop_limit_beyond_u32",
            "residency_below_1us",
            "traffic_end_beyond_48_bits",
            "zero_us_run_with_traffic",
        ],
    )
    def test_rejected_at_load_exits_2(self, rejects, flags, message):
        rejects(["run", *flags], message, str.__contains__)

    def test_traffic_window_too_narrow_for_distinct_ids_exits_2(self, rejects):
        # Three messages from two sources in one microsecond: two of them
        # share a source and so a message id, for every seed.
        flags = ["--set", "message_count=3", "--set", "traffic_end=0"]
        rejects(["run", *flags], "window too small", str.__contains__, simulates=True)


class TestSweepCommand:
    def test_product_of_axes(self, workdir):
        out = workdir / "sweep"
        code = main(
            [
                "sweep",
                str(workdir / "two_node.cfg"),
                "--axis",
                "data_rate=6e6,12e6",
                "--axis",
                "buffer_capacity=1e6,5e6",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        agg = read_csv(out / "aggregate.csv")
        assert len(agg) == 4
        cells = {(r["data_rate"], r["buffer_capacity"]) for r in agg}
        assert cells == {
            ("6e6", "1e6"),
            ("6e6", "5e6"),
            ("12e6", "1e6"),
            ("12e6", "5e6"),
        }
        runs = read_csv(out / "runs.csv")
        assert len(runs) == 8  # 4 cells x 2 seeds

    def test_single_point_sweep_matches_run(self, workdir):
        run_out = workdir / "plain"
        sweep_out = workdir / "point"
        assert main(["run", str(workdir / "two_node.cfg"), "--out", str(run_out)]) == 0
        assert (
            main(
                [
                    "sweep",
                    str(workdir / "two_node.cfg"),
                    "--axis",
                    "data_rate=12e6",
                    "--out",
                    str(sweep_out),
                ]
            )
            == 0
        )
        plain = read_csv(run_out / "runs.csv")
        point = read_csv(sweep_out / "runs.csv")
        for row in point:
            row.pop("data_rate")
        assert point == plain

    @pytest.mark.parametrize(
        "axis",
        [
            "buffer_capacity=1e6,-1,5e6",
            "hop_limit=4,inf,8",
            "radio_range=50,nan,100",
            "message_size=5000,1e12,6000",
            "hop_limit=4,5e9,8",
        ],
        ids=[
            "negative_buffer",
            "infinite_hop_limit",
            "nan_radio_range",
            "oversize_message",
            "hop_limit_beyond_u32",
        ],
    )
    def test_bad_cell_fails_others_complete(self, workdir, capsys, axis):
        out = workdir / "faulty"
        code = main(
            [
                "sweep",
                str(workdir / "two_node.cfg"),
                "--axis",
                axis,
                "--out",
                str(out),
            ]
        )
        assert code == 1
        agg = read_csv(out / "aggregate.csv")
        assert len(agg) == 2  # the two valid cells completed
        key, values = axis.split("=")
        err = capsys.readouterr().err
        assert err.startswith(f"error: [{key}={values.split(',')[1]}] ")
        assert err.count("\n") == 1

    def test_every_cell_failing_exits_2_and_leaves_no_directory(self, workdir, capsys):
        out = workdir / "new" / "faulty"
        argv = ["sweep", str(workdir / "two_node.cfg"), "--out", str(out)]
        assert main(argv + ["--axis", "hop_limit=inf,nan"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("error: [hop_limit=inf] ")
        assert lines[1].startswith("error: [hop_limit=nan] ")
        assert captured.out == ""
        assert not (workdir / "new").exists()

    def test_each_run_line_names_its_cell(self, workdir, capsys):
        out = workdir / "lines"
        argv = ["sweep", str(workdir / "two_node.cfg"), "--out", str(out)]
        assert main(argv + ["--axis", "data_rate=6e6,12e6", "--axis", "hop_limit=4,8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[0] for line in lines[:-1]] == [
            f"[data_rate={rate}] [hop_limit={hops}] seed {seed}"
            for rate in ("6e6", "12e6")
            for hops in ("4", "8")
            for seed in (1, 2)
        ]
        assert all("generated=2 delivered=2 mdr=1.0" in line for line in lines[:-1])
        assert lines[-1] == f"wrote {out / 'runs.csv'} and {out / 'aggregate.csv'}"

    def test_id_collision_fails_only_its_cell(self, workdir, capsys):
        out = workdir / "collided"
        argv = ["sweep", str(workdir / "two_node.cfg"), "--set", "message_count=3"]
        code = main(argv + ["--axis", "traffic_end=3,0", "--out", str(out)])
        assert code == 1
        assert [row["traffic_end"] for row in read_csv(out / "aggregate.csv")] == ["3"]
        assert "window too small" in capsys.readouterr().err

    def test_a_cell_that_breaks_a_run_law_fails_alone(self, workdir, capsys, monkeypatch):
        class LosesLosses(RunTrace):  # a loss drop goes uncounted
            def packet_event(self, kind, outcome, size, src, dst):
                if outcome != PKT_LOSS:
                    super().packet_event(kind, outcome, size, src, dst)

        monkeypatch.setattr(runner, "RunTrace", LosesLosses)
        mini = Path(__file__).parents[1] / "scenarios" / "mini.cfg"
        argv = ["sweep", str(mini), "--axis", "loss_probability=0,0.3", "--seeds", "1"]
        assert main(argv + ["--out", str(workdir)]) == 1
        err = capsys.readouterr().err  # one line, and no traceback
        assert err.startswith("error: [loss_probability=0.3] ") and err.count("\n") == 1
        assert [row["loss_probability"] for row in read_csv(workdir / "aggregate.csv")] == ["0"]

    def test_queue_smaller_than_a_message_fails_its_cell_alone(self, capsys, tmp_path):
        # mini.cfg's messages are 20,812 bytes on the air.
        mini = Path(__file__).parents[1] / "scenarios" / "mini.cfg"
        argv = ["sweep", str(mini), "--axis", "queue_capacity=20000,1e6", "--seeds", "1"]
        assert main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [queue_capacity=20000] queue_capacity 20000 is below")
        assert err.count("\n") == 1
        assert [row["queue_capacity"] for row in read_csv(tmp_path / "aggregate.csv")] == ["1e6"]

    def test_repeated_axis_key_exits_2_before_any_cell(self, rejects):
        # A later --axis of the same key would overwrite the earlier one
        # in every cell: the cells would repeat, under duplicate columns.
        rejects(
            ["sweep", "--axis", "hop_limit=4,8", "--axis", "hop_limit=2"],
            "error: --axis hop_limit is given more than once\n",
        )

    def test_repeated_axis_value_exits_2_before_any_cell(self, rejects):
        # A repeated value would run the same cell twice and aggregate it
        # as two cells. Values are compared as the key's parser reads them.
        for values in ("4, 8,4 ", "4,4.0"):
            rejects(
                ["sweep", "--axis", "data_rate=6e6,12e6", "--axis", f"hop_limit={values}"],
                "error: --axis hop_limit repeats a value\n",
            )

    def test_set_key_that_is_an_axis_key_exits_2_before_any_cell(self, rejects):
        # Each cell's axis value would silently replace the --set value.
        rejects(
            ["sweep", "--set", "hop_limit=3", "--axis", "hop_limit=4,8"],
            "error: --set hop_limit conflicts with --axis hop_limit\n",
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--axis", "bogus=1,2"], "error: --axis bogus: unknown scenario key\n"),
            (
                ["--set", "bogus=1", "--axis", "hop_limit=4,8"],
                "error: --set bogus: unknown scenario key\n",
            ),
        ],
        ids=["axis", "set"],
    )
    def test_unknown_key_exits_2_before_any_cell(self, rejects, flags, message):
        # Every cell would load the scenario and fail on the same key.
        rejects(["sweep", *flags], message)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--set", "hop_limit", "--axis", "data_rate=6e6,12e6"],
                "error: --set expects KEY=VALUE, got 'hop_limit'\n",
            ),
            (["--axis", "hop_limit=,"], "error: --axis hop_limit has no values\n"),
            (["--seeds", "0", "--axis", "hop_limit=4,8"], "error: --seeds must be at least 1\n"),
        ],
        ids=["set_without_equals", "axis_without_values", "zero_seeds"],
    )
    def test_malformed_flag_exits_2_before_any_cell(self, rejects, flags, message):
        rejects(["sweep", *flags], message)

    @pytest.mark.parametrize(
        "text, message, match",
        [
            (None, "error: cannot read scenario file ", str.startswith),
            (
                "trace = trace.ns_movements\nduration = 8\nbogus = 1\n",
                "error: line 3: unknown key 'bogus'\n",
                str.__eq__,
            ),
            (
                "trace = trace.ns_movements\nduration 8\n",
                "error: line 2: expected `key = value`, got 'duration 8'\n",
                str.__eq__,
            ),
        ],
        ids=["missing_file", "unknown_key", "line_without_equals"],
    )
    def test_unusable_scenario_file_exits_2_before_any_cell(
        self, workdir, rejects, text, message, match
    ):
        # The file is read and parsed once, not once per cell: one line,
        # with no cell prefix.
        if text is not None:
            (workdir / "bad.cfg").write_text(text)
        rejects(["sweep", "--axis", "data_rate=1e6,2e6"], message, match, scenario="bad.cfg")


@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--axis", "data_rate=6e6,12e6"]], ids=["run", "sweep"]
)
def test_out_path_that_is_a_file_exits_2_before_simulating(workdir, rejects, command):
    taken = workdir / "taken"
    taken.write_text("keep")
    for out in ("taken", "taken/sub"):
        message = f"error: cannot create report directory {workdir / out}: "
        rejects(command, message, str.startswith, out=out)
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("name", ["runs.csv", "aggregate.csv"])
@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--axis", "data_rate=6e6,12e6"]], ids=["run", "sweep"]
)
def test_report_path_that_is_not_a_file_exits_2_before_simulating(
    workdir, rejects, command, name
):
    # Found only when the report is written, it would cost every cell's run
    # and leave runs.csv without aggregate.csv.
    (workdir / "busy" / name).mkdir(parents=True)
    message = f"error: report path {workdir / 'busy' / name} is not a regular file\n"
    rejects(command, message, out="busy")


@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--axis", "data_rate=6e6,12e6"]], ids=["run", "sweep"]
)
def test_repeated_set_key_exits_2_before_any_cell(rejects, command):
    # A later --set of the same key would silently replace the earlier one.
    rejects(
        [*command, "--set", "message_count=1", "--set", "message_count = 2"],
        "error: --set message_count is given more than once\n",
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["run", "--set", "seeds=3"], "error: --seeds conflicts with --set seeds\n"),
        (["sweep", "--axis", "seeds=1,2"], "error: --seeds conflicts with --axis seeds\n"),
        (["run", "--seeds", "3"], "error: --seeds is given more than once\n"),
    ],
    ids=["set", "axis", "seeds"],
)
def test_seeds_flag_with_a_seeds_key_exits_2_before_any_cell(rejects, flags, message):
    # --seeds would silently replace the seeds of every cell: a seeds axis
    # would run identical cells under different labels, and a second
    # --seeds the first.
    rejects([*flags, "--seeds", "2"], message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--seeds", "x"], "error: argument --seeds: invalid int value: 'x'\n"),
        (["sweep"], "error: the following arguments are required: --axis\n"),
    ],
    ids=["unreadable_value", "missing_axis"],
)
def test_argparse_rejection_is_one_error_line(rejects, argv, message):
    # argparse's own rejections print no usage lines and no `dtnsim run:` prefix.
    rejects(argv, message)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dtnsim run ")


def modules_after_import(module):
    """The names in sys.modules of a fresh interpreter that imported `module`."""
    root = Path(__file__).resolve().parents[1]
    code = f"import sys, {module}\nprint('\\n'.join(sorted(sys.modules)))\n"
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return result.stdout.split()


@pytest.fixture(scope="module")
def fresh_modules():
    return modules_after_import("dtnsim.cli")


def test_package_import_loads_no_submodule():
    # Each name is imported from its module; the package re-exports none.
    modules = modules_after_import("dtnsim")
    assert "dtnsim" in modules
    assert [m for m in modules if m.startswith("dtnsim.")] == []


def test_cli_import_loads_no_scipy_or_numpy(fresh_modules):
    assert "dtnsim.cli" in fresh_modules
    assert [m for m in fresh_modules if m.split(".")[0] in ("scipy", "numpy")] == []


def test_cli_import_loads_no_dataclasses_argparse_or_csv(fresh_modules):
    # Each is start-up time a simulation does not need: dataclasses also
    # loads inspect, argparse is imported by main, csv by write_csv.
    assert "dtnsim.cli" in fresh_modules
    assert [m for m in ("dataclasses", "inspect", "argparse", "csv") if m in fresh_modules] == []


def test_cli_import_loads_no_openssl(fresh_modules):
    # hashlib, and with it OpenSSL, is imported only to dump a ReplayTrace.
    assert "dtnsim.cli" in fresh_modules
    assert "_hashlib" not in fresh_modules
