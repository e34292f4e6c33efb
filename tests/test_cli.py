"""CLI flags, config files, overrides, and exit codes."""

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nichebench import harness
from nichebench.algorithms import AlgorithmConfig
from nichebench.cli import main
from nichebench.harness import ExperimentSpec, run_experiment
import conftest
from test_import_guard import SRC

TESTS = str(Path(__file__).resolve().parent)


def test_basic_run_writes_reports(tmp_path, capsys):
    out = tmp_path / "results"
    code = main([
        "--algorithm", "crowding_de",
        "--algorithm", "sde",
        "--problem", "deb1",
        "--runs", "2",
        "--evals", "80",
        "--pop-size", "8",
        "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "runs.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "traces.csv").exists()
    captured = capsys.readouterr()
    assert "deb1" in captured.out
    assert "crowding_de" in captured.out


def test_unknown_algorithm_exits_2(tmp_path, capsys):
    code = main(["--algorithm", "foo", "--problem", "deb1", "--out", str(tmp_path / "r")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_test_exits_2(tmp_path, capsys):
    code = main([
        "--algorithm", "sde", "--problem", "deb1", "--runs", "1",
        "--evals", "60", "--pop-size", "6", "--tests", "chi2",
        "--out", str(tmp_path / "r"),
    ])
    assert code == 2


def test_single_run_with_t_test_exits_2_before_running(tmp_path, capsys):
    out = tmp_path / "r"
    code = main([
        "--algorithm", "crowding_de", "--algorithm", "sde", "--problem", "deb1",
        "--runs", "1", "--evals", "60", "--pop-size", "6", "--out", str(out),
    ])
    assert code == 2
    assert "runs >= 2" in capsys.readouterr().err
    assert not (out / "runs.csv").exists()


def test_bad_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code = main(["--config", str(cfg)])
    assert code == 2


def test_config_file_with_flag_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "algorithms": [{"name": "sde", "population_size": 6}],
        "problems": ["deb1"],
        "runs": 1,
        "max_evals": 500,
        "base_seed": 3,
        "output_dir": str(tmp_path / "from_file"),
    }))
    out = tmp_path / "from_flag"
    code = main(["--config", str(cfg), "--evals", "60", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert not (tmp_path / "from_file").exists()
    rows = (out / "traces.csv").read_text().splitlines()
    last_eval = max(int(r.split(",")[3]) for r in rows[1:])
    assert last_eval <= 60  # flag override beat the file's 500


def test_config_entry_rejects_unknown_fields(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "algorithms": [{"name": "sde", "wrong_knob": 1}],
        "problems": ["deb1"],
        "runs": 1,
    }))
    code = main(["--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "wrong_knob" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (["crowding_de"], "JSON object"),
    ({"runs": "two"}, "'runs' must be an integer"),
    ({"algorithms": [{"name": "sde", "population_size": "abc"}]}, "population_size"),
    ({"algorithms": [{"name": "sde", "population_size": 10.5}]}, "population_size"),
    ({"problems": "deb1"}, "'problems' must be a list"),
    ({"max_evals": 10.5}, "'max_evals' must be an integer"),
    ({"base_seed": True}, "'base_seed' must be an integer"),
    ({"tests": "mwu"}, "'tests' must be a list"),
    ({"alpha": "x"}, "'alpha' must be a number"),
    ({"jobs": "two"}, "'jobs' must be an integer"),
    ({"output_dir": 5}, "'output_dir' must be a string"),
    ({"grating_profile": 3}, "'grating_profile' must be a string"),
    ({"algorithms": "sde"}, "'algorithms' must be a list"),
    ({"algorithms": [{"name": "crowding_de", "population_size": 3}]},
     "population_size must be at least 4"),
    ({"max_eval": 500}, "cfg.json: ['max_eval']"),
    ({"algorithms": [5]}, "algorithm entry must be a name or an object"),
    ({"algorithms": [{"population_size": 10}]}, "without a 'name' field"),
    ({"algorithms": [{"name": "sharing_ga", "mutation_sigma": math.nan}]},
     "sharing_ga: mutation_sigma must be finite"),
    ({"algorithms": [{"name": "sde", "de_F": math.nan}]}, "sde: de_F must be finite"),
    ({"algorithms": [{"name": "scga", "species_distance": math.inf}]},
     "scga: species_distance must be finite"),
    ({"algorithms": [{"name": "sde", "de_F": 10 ** 400}]}, "sde: de_F must be finite"),
], ids=["top_level_list", "runs_not_a_number", "population_size_text", "population_size_fraction",
        "problems_not_a_list", "max_evals_fraction", "base_seed_bool", "tests_not_a_list",
        "alpha_text", "jobs_text", "output_dir_number", "grating_profile_number",
        "algorithms_not_a_list", "de_population_below_4", "unknown_top_level_key",
        "entry_not_a_name_or_object", "entry_without_name", "mutation_sigma_nan", "de_F_nan",
        "species_distance_infinity", "de_F_beyond_float_range"])
def test_malformed_config_values_exit_2_before_running(tmp_path, monkeypatch, capsys,
                                                       content, message):
    # the output directory comes from the file, so a bad output_dir is not
    # overridden by --out; relative directories land under tmp_path
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "r"
    base = {"problems": ["deb1"], "runs": 2, "max_evals": 60, "output_dir": str(out)}
    cfg.write_text(json.dumps(content if isinstance(content, list) else {**base, **content}))
    code = main(["--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert not list(tmp_path.rglob("runs.csv"))


@pytest.mark.parametrize("content, message", [
    (b'{"runs": 2, "x": "\xff"}', "can't decode byte 0xff"),
    (b'{"runs": 2,}', "Expecting property name"),
    (b'{"runs": 1' + b"0" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
], ids=["not_utf8", "invalid_json", "integer_too_long"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: config file {cfg} is not valid JSON: ")
    assert message in err
    assert not (tmp_path / "r").exists()


def test_alpha_outside_unit_interval_exits_2_before_running(tmp_path, capsys):
    out = tmp_path / "r"
    code = main(["--algorithm", "crowding_de", "--algorithm", "sde", "--problem", "deb1",
                 "--runs", "2", "--evals", "60", "--pop-size", "6", "--alpha", "2",
                 "--out", str(out)])
    assert code == 2
    assert "alpha must be in (0, 1)" in capsys.readouterr().err
    assert not (out / "runs.csv").exists()


def test_de_population_below_minimum_exits_2_before_running(tmp_path, capsys):
    out = tmp_path / "r"
    code = main(["--algorithm", "sde", "--problem", "deb1", "--runs", "2", "--evals", "60",
                 "--pop-size", "3", "--out", str(out)])
    assert code == 2
    assert "sde: population_size must be at least 4" in capsys.readouterr().err
    assert not (out / "runs.csv").exists()


PROFILE = {"n0": 1400.0, "b2": 8.2453e-4, "b3": 3.0015e-7, "b4": 0.0, "w0": 90.0,
           "lambda0": 4.131e-4}
MISSPELT = {k: v for k, v in PROFILE.items() if k != "lambda0"}


def grating_main(tmp_path, profile) -> int:
    return main(["--algorithm", "sde", "--problem", "grating", "--grating-profile", str(profile),
                 "--runs", "2", "--evals", "60", "--pop-size", "6", "--out", str(tmp_path / "r")])


@pytest.mark.parametrize("text, message", [
    ("{not json", "Expecting property name"),
    ("[1, 2]", "must be a JSON object, got list"),
    (json.dumps({**PROFILE, "bounds": [1, 2]}), "bounds must be an object of [lo, hi] pairs"),
    (json.dumps({**PROFILE, "bounds": {"angle": [1]}}), "bounds.angle must be a list of two"),
    (json.dumps({**PROFILE, "n0": "abc"}), "n0 must be a number, got 'abc'"),
    (json.dumps({**PROFILE, "w0": None}), "w0 must be a number, got None"),
    (json.dumps({k: v for k, v in PROFILE.items() if k != "b3"}), "b3 must be a number"),
    (json.dumps({**PROFILE, "n0": -5}), "n0 must be positive, got -5.0"),
    (json.dumps({**PROFILE, "mirror_radii": [1000.0, "x"]}), "mirror_radii must be a number"),
    (json.dumps({**PROFILE, "bounds": {"angle": [1, 0]}}), "lo < hi"),
    (json.dumps({**PROFILE, "n0": math.nan, "bounds": {"angle": [-1, math.nan]}}),
     "n0 must be finite"),
    (json.dumps({**PROFILE, "lambda0": math.inf}), "lambda0 must be finite"),
    (json.dumps({**PROFILE, "n0": 10 ** 400}), "n0 must be finite"),
    (json.dumps({**PROFILE, "bounds": {"angle": [-1, math.nan]}}),
     "bounds rows must be finite with lo < hi"),
    (json.dumps({**PROFILE, "bounds": {"distance": [100, math.inf]}}),
     "bounds rows must be finite with lo < hi"),
    (json.dumps({**MISSPELT, "lamda0": 4.131e-4}), "unknown profile key 'lamda0'"),
    (json.dumps({**PROFILE, "bounds": {"angel": [-1.0, 1.0]}}), "unknown bounds key 'angel'"),
], ids=["invalid_json", "top_level_list", "bounds_list", "angle_one_value", "n0_text", "w0_null",
        "b3_missing", "n0_negative", "radius_text", "angle_reversed", "n0_and_angle_nan",
        "lambda0_inf", "n0_beyond_float_range", "angle_nan", "distance_inf", "lambda0_misspelt", "angle_misspelt"])
def test_malformed_grating_profile_exits_2_before_running(tmp_path, capsys, text, message):
    profile = tmp_path / "profile.json"
    profile.write_text(text)
    assert grating_main(tmp_path, profile) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: grating profile {profile}: ") and message in err
    assert not (tmp_path / "r").exists()


def test_missing_grating_profile_exits_1_before_running(tmp_path, capsys):
    assert grating_main(tmp_path, tmp_path / "absent.json") == 1
    assert capsys.readouterr().err.startswith("i/o error:")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failed_run_exits_3_naming_the_run(tmp_path, capsys, nan_problem, jobs):
    out = tmp_path / "r"
    code = main(["--algorithm", "sde", "--problem", "deb1", "--problem", "nan", "--runs", "2",
                 "--evals", "60", "--pop-size", "6", "--seed", "7", "--jobs", jobs,
                 "--out", str(out)])
    assert code == 3
    seed = harness.derive_seed(7, "sde", "nan", 0)
    err = capsys.readouterr().err
    assert err.startswith(f"run failed: sde on nan, run 0, seed {seed}: ValueError: "
                          "objective returned non-finite value nan")
    rows = (out / "runs.csv").read_text().splitlines()
    assert rows[0] == "algorithm,problem,run,seed,metric,value"
    assert {tuple(row.split(",")[:3]) for row in rows[1:]} == {("sde", "deb1", "0"),
                                                              ("sde", "deb1", "1")}
    assert sorted(p.name for p in out.iterdir()) == ["runs.csv"]  # no reports


@pytest.mark.parametrize("start_method", ["fork", "spawn"], indirect=True)
def test_dead_worker_exits_3_naming_the_first_run_not_recorded(tmp_path, capsys, doomed_problem,
                                                                start_method):
    out, whole = tmp_path / "r", tmp_path / "whole"
    grid = ["--algorithm", "crowding_de", "--algorithm", "sharing_ga", "--problem", "doomed",
            "--runs", "4", "--evals", "2000", "--seed", "7"]
    assert main([*grid, "--jobs", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert sorted(p.name for p in out.iterdir()) == ["runs.csv"]  # no reports
    rows = (out / "runs.csv").read_text().splitlines()
    # the same grid, serial and with no worker to kill
    doomed_problem()
    assert main([*grid, "--out", str(whole)]) == 0
    assert rows == (whole / "runs.csv").read_text().splitlines()[:len(rows)]
    # each run writes 3 metric rows; the next run in grid order is named
    recorded = (len(rows) - 1) // 3
    assert 3 * recorded + 1 == len(rows) and recorded < 8
    algorithm, run = ("crowding_de", "sharing_ga")[recorded // 4], recorded % 4
    seed = harness.derive_seed(7, algorithm, "doomed", run)
    assert len(err) == 1 and err[0].startswith(
        f"run failed: {algorithm} on doomed, run {run}, seed {seed}: a pool worker died "
        "(BrokenProcessPool: ")


def _wait_for(condition, what, seconds=60.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


@pytest.mark.parametrize("jobs, interrupt_at", [(1, None), (2, None), (2, 4)],
                         ids=["1", "2", "2-while-recording"])
def test_interrupt_exits_130_keeping_a_prefix_of_the_rows(tmp_path, monkeypatch, jobs,
                                                          interrupt_at):
    # Ctrl-C sends SIGINT to the foreground process group: the CLI and its
    # pool workers. The grid runs in a session of its own, so the signal
    # reaches that group and not the test's. The test sends it once the
    # first run's rows are in, mostly while the CLI waits in pool.map's
    # result iterator, which cancels the chunks not yet queued on its way
    # out; or the CLI sends it as it writes line ``interrupt_at`` of
    # runs.csv, outside that iterator, where only run_experiment's own
    # ``cancel_futures`` drops them. The objective writes a line to
    # ``starts`` as each run starts, so the runs started after the signal
    # show, though their rows are never recorded
    out, starts = tmp_path / "r", tmp_path / "starts"
    runs = 400
    grid = ["--algorithm", "crowding_de", "--problem", "counted", "--runs", str(runs),
            "--evals", str(conftest.RUN_EVALS), "--seed", "5", "--jobs", str(jobs),
            "--out", str(out)]
    path = os.pathsep.join(p for p in (SRC, TESTS, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, conftest.STARTS: str(starts)}
    if interrupt_at:
        env[conftest.INTERRUPT_AT] = str(interrupt_at)
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys, conftest; sys.exit(conftest.counted_cli(sys.argv[1:]))",
         *grid], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    runs_csv = out / "runs.csv"
    try:
        if not interrupt_at:
            # the header and one run's three metric rows
            _wait_for(lambda: proc.poll() is not None or runs_csv.exists()
                      and runs_csv.read_text().count("\n") >= 4, "the first run's rows")
            assert proc.poll() is None, proc.stderr.read()
            conftest.mark_interrupt(starts)
            os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130
    assert err.splitlines() == ["interrupted: the rows of the runs finished are in runs.csv"]
    assert sorted(p.name for p in out.iterdir()) == ["runs.csv"]  # no reports

    def group_is_empty():
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return True
        return False

    _wait_for(group_is_empty, "the workers to exit", seconds=10.0)

    # after the signal a pool runs only the chunks it had handed out, one
    # in each worker and up to workers + 1 queued; a serial grid starts at
    # most the run it reached as the signal came
    marks = starts.read_text().splitlines()
    late = len(marks) - 1 - marks.index("interrupt")
    assert late <= ((2 * jobs + 1) * harness._chunksize(runs, jobs) if jobs > 1 else 1), \
        f"{late} runs started after the signal"
    rows = runs_csv.read_text().splitlines()
    assert 4 <= len(rows) < 1 + 3 * runs
    # the same grid left to finish, up to the run the interrupted file reached
    monkeypatch.setitem(harness.PROBLEM_FACTORIES, "counted", conftest.counted_problem)
    whole = tmp_path / "whole"
    spec = ExperimentSpec([("crowding_de", AlgorithmConfig())], ["counted"],
                          runs=int(rows[-1].split(",")[2]) + 1, max_evals=conftest.RUN_EVALS,
                          base_seed=5, output_dir=whole)
    run_experiment(spec)
    assert (whole / "runs.csv").read_text().splitlines()[:len(rows)] == rows
