"""The README's Python examples run as written, and every module-qualified
name it cites exists, so a stale API example or name fails the suite."""

import importlib
import pkgutil
import re
from pathlib import Path

import nichebench

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


def test_readme_module_names_resolve():
    # `core.x`, `draws.x`, ..., `nichebench.x`: each must name an attribute of the package
    text = README.read_text(encoding="utf-8")
    modules = "|".join(["nichebench"] + [m.name for m in pkgutil.iter_modules(nichebench.__path__)])
    names = sorted(set(re.findall(rf"`((?:{modules})(?:\.\w+)+)[`(]", text)))
    assert names
    missing = []
    for name in names:
        parts = name.removeprefix("nichebench.").split(".")
        obj = importlib.import_module(f"nichebench.{parts[0]}")
        for part in parts[1:]:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert not missing
