"""The README's Python examples run as written, so a stale API example
fails the suite."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    monkeypatch.chdir(tmp_path)  # the examples write their reports here
    namespace = {"__name__": "readme"}
    for block in blocks:
        # padded so a traceback names the README's own line numbers
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), namespace)
