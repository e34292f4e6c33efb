"""CLI flags, config files, overrides, and exit codes."""

import json

from nichebench.cli import main


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
