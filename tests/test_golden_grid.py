"""Golden grid: every byte the CLI writes for a small full grid is pinned.

The grid is all 7 algorithms x 6 problems, 3 runs of 200 evaluations at
population 10, with all three significance tests. ``golden_grid.json``
holds its argv and the sha256 of each file ``cli.main`` writes; the grid
must reproduce those bytes at ``--jobs 1`` and at ``--jobs 2``, whether the
pool starts its workers by fork, spawn or forkserver. The digests are
computed by ``tools/grid_digests.py``, which also checks the paper's
protocol against ``protocol_digests.json``.

Regenerate the file (only for a deliberate, versioned change of the
published numbers) with::

    PYTHONPATH=src python tools/grid_digests.py --runs 3 --pop-size 10 --evals 200 \\
        --tests mwu,ks,t > tests/golden_grid.json
"""

import json
from pathlib import Path

from test_code_lines import load_tool

GOLDEN = Path(__file__).with_name("golden_grid.json")
ARGV = ["--runs", "3", "--pop-size", "10", "--evals", "200", "--tests", "mwu,ks,t"]


def test_golden_grid_bytes(tmp_path, capsys, pool_jobs):
    golden = json.loads(GOLDEN.read_text())
    assert golden["argv"] == ARGV
    digests = load_tool("grid_digests").grid_digests([*ARGV, "--jobs", str(pool_jobs)],
                                                     tmp_path / "out")
    assert digests == golden["files"]


def test_the_tool_prints_and_checks_a_table(tmp_path, capsys):
    tool = load_tool("grid_digests")
    argv = ["--algorithm", "sde", "--problem", "deb1", "--runs", "2", "--evals", "60",
            "--pop-size", "6", "--tests", "mwu"]
    assert tool.main(argv) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["argv"] == argv and sorted(table["files"]) == ["runs.csv", "summary.csv",
                                                                 "traces.csv"]
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    assert tool.main(["--check", str(path)]) == 0
    table["files"]["summary.csv"] = "0" * 64
    path.write_text(json.dumps(table))
    assert tool.main(["--check", str(path)]) == 1
    assert "differs: summary.csv" in capsys.readouterr().err
