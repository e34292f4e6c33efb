"""Run a grid through the CLI and print, or check, the sha256 of each file
it writes.

    python tools/grid_digests.py [CLI ARGS...] > TABLE
    python tools/grid_digests.py --check TABLE

A table is JSON, ``{"argv": [...], "files": {name: sha256}}``: ``argv`` is
what ``nichebench.cli.main`` is given besides ``--out``, which is a
temporary directory. The first form prints the table of the grid that
the arguments describe; ``--check`` runs the table's grid again, names
each file whose digest differs and exits 1 if any does. Both print, on
stderr, the CLI's own output and the sha256 over each file's name
followed by its bytes, in sorted name order: one digest of the whole
grid. Run with ``src`` on ``PYTHONPATH``, as the tests do.

    PYTHONPATH=src python tools/grid_digests.py --check tests/protocol_digests.json

checks the paper's protocol (7 algorithms x 6 problems x 50 runs x 10000
evaluations at ``--jobs 2``; about 90 s on 2 cores).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from nichebench.cli import main as cli_main


def grid_digests(argv: list[str], out_dir: Path) -> dict[str, str]:
    """Run ``nichebench`` with ``argv`` into ``out_dir`` and return the
    sha256 of each file it wrote, by name."""
    code = cli_main([*argv, "--out", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"nichebench {' '.join(argv)} exited with status {code}")
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())}


def combined_digest(out_dir: Path) -> str:
    """The sha256 over each file's name followed by its bytes, in sorted name order."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(args: list[str]) -> int:
    table = None
    if args[:1] == ["--check"]:
        if len(args) != 2:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        table = json.loads(Path(args[1]).read_text(encoding="utf-8"))
        args = table["argv"]
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        with contextlib.redirect_stdout(sys.stderr):
            files = grid_digests(args, out_dir)
        print(f"sha256 over the files' names and bytes: {combined_digest(out_dir)}", file=sys.stderr)
    if table is None:
        print(json.dumps({"argv": args, "files": files}, indent=2))
        return 0
    differ = sorted(name for name in files.keys() | table["files"].keys()
                    if files.get(name) != table["files"].get(name))
    for name in differ:
        print(f"differs: {name}", file=sys.stderr)
    if not differ:
        print(f"all {len(files)} files match", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
