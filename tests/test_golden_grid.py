"""Golden grid: every byte the CLI writes for a small full grid is pinned.

The grid is all 7 algorithms x 6 problems, 3 runs of 200 evaluations at
population 10, with all three significance tests. ``golden_grid.json``
holds its argv and the sha256 of each file ``cli.main`` writes; the grid
must reproduce those bytes at ``--jobs 1`` and at ``--jobs 2``, whether the
pool starts its workers by fork, spawn or forkserver.

Regenerate the file (only for a deliberate, versioned change of the
published numbers) with ``PYTHONPATH=src python tests/test_golden_grid.py``.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from nichebench.cli import main

GOLDEN = Path(__file__).with_name("golden_grid.json")
ARGV = ["--runs", "3", "--pop-size", "10", "--evals", "200", "--tests", "mwu,ks,t"]


def grid_digests(out_dir: Path, jobs: int) -> dict[str, str]:
    code = main([*ARGV, "--jobs", str(jobs), "--out", str(out_dir)])
    assert code == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())}


def test_golden_grid_bytes(tmp_path, capsys, pool_jobs):
    golden = json.loads(GOLDEN.read_text())
    assert golden["argv"] == ARGV
    assert grid_digests(tmp_path / "out", pool_jobs) == golden["files"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = grid_digests(Path(tmp) / "out", jobs=1)
    GOLDEN.write_text(json.dumps({"argv": ARGV, "files": files}, indent=2) + "\n")
    print(f"wrote {len(files)} digests to {GOLDEN}", file=sys.stderr)
