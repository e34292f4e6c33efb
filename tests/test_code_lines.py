"""``tools/code_lines.py`` counts the lines that hold code: not blank
lines, comments or docstrings, and a multi-line string or bracket once
per line it spans."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name: str):
    """The module of ``tools/<name>.py``."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    source = '''"""Module docstring,
on two lines."""

# a comment
import math  # a trailing comment


class Box:
    """Class docstring."""

    def area(self):
        """Function
        docstring."""
        text = """not a docstring,
        but a string value"""
        return math.pi * (
            len(text))
'''
    # import, class, def, the two lines of text, the two of the return
    assert load_tool("code_lines").code_lines(source) == 7
