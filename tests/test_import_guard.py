"""What ``import nichebench`` loads and runs: NumPy, but neither SciPy, the
process pool nor a first-use probe. SciPy comes with the first Welch t
p-value, the pool with the first grid run at ``jobs > 1``, and each probe
with the first DE generation, GA generation or distance block. These
checks look at ``sys.modules`` and the probe outcomes in a fresh
interpreter, not at import time, so they are deterministic. Two
last checks read the source: only ``nichebench.draws`` calls a Generator,
and in ``nichebench.algorithms`` only ``_RunState`` draws for a
generation, caps it at the budget left or reads the run's RNG."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import nichebench

SRC = str(Path(nichebench.__file__).resolve().parents[1])


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter that imports this source tree; it
    prints one JSON object, returned here."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def heavy(modules) -> list[str]:
    return [m for m in modules
            if m == "scipy" or m.startswith("scipy.") or m == "concurrent.futures.process"]


def test_import_loads_neither_scipy_nor_the_process_pool():
    out = run_fresh(
        "import json, sys\n"
        "import nichebench, nichebench.cli\n"
        "print(json.dumps({'file': nichebench.__file__, 'modules': sorted(sys.modules)}))\n"
    )
    assert Path(out["file"]).resolve() == Path(nichebench.__file__).resolve()
    assert "numpy" in out["modules"] and "nichebench.cli" in out["modules"]
    assert heavy(out["modules"]) == []


def test_first_welch_t_loads_scipy_and_keeps_every_p_value_bit():
    # welch_t runs before anything imports SciPy; its p-values are then
    # recomputed with an eagerly imported stdtr from the same df and t
    out = run_fresh(
        "import json, math, sys\n"
        "import numpy as np\n"
        "from nichebench.stats import welch_t\n"
        "before = sorted(sys.modules)\n"
        "rng = np.random.default_rng(20)\n"
        "cases = [(rng.normal(0, 1, int(rng.integers(2, 30))),\n"
        "          rng.normal(rng.normal(0, 2), rng.uniform(0.1, 5), int(rng.integers(2, 30))))\n"
        "         for _ in range(300)]\n"
        "got = [welch_t(a, b) for a, b in cases]\n"
        "from scipy.special import stdtr\n"
        "want = []\n"
        "for a, b in cases:\n"
        "    n, m = a.size, b.size\n"
        "    var_a, var_b = float(a.var(ddof=1)), float(b.var(ddof=1))\n"
        "    se2 = var_a / n + var_b / m\n"
        "    t = (float(a.mean()) - float(b.mean())) / math.sqrt(se2)\n"
        "    df = se2 ** 2 / ((var_a / n) ** 2 / (n - 1) + (var_b / m) ** 2 / (m - 1))\n"
        "    want.append((t, min(1.0, 2.0 * float(stdtr(df, -abs(t))))))\n"
        "print(json.dumps({'before': before, 'after': sorted(sys.modules),\n"
        "                  'got': [[t.hex(), p.hex()] for t, p in got],\n"
        "                  'want': [[t.hex(), p.hex()] for t, p in want]}))\n"
    )
    assert heavy(out["before"]) == []
    assert "scipy.special" in out["after"]
    assert out["got"] == out["want"]


def test_import_runs_no_probe_and_the_first_de_generation_runs_it_once():
    # the DE decoder's probe and layouts wait for the first DE generation;
    # default_rng is wrapped before the import to see whether anything draws
    out = run_fresh(
        "import json\n"
        "import numpy as np\n"
        "made = []\n"
        "default_rng = np.random.default_rng\n"
        "np.random.default_rng = lambda *a: made.append(a) or default_rng(*a)\n"
        "import nichebench, nichebench.cli\n"
        "from nichebench import draws\n"
        "at_import = {'generators': len(made), 'decodes': draws._decodes,\n"
        "             'layouts': draws._de_layout.cache_info().currsize}\n"
        "probes = []\n"
        "probe = draws._decoder_probe\n"
        "draws._decoder_probe = lambda: probes.append(1) or probe()\n"
        "config = nichebench.AlgorithmConfig(population_size=10)\n"
        "for run in (nichebench.sharing_de, nichebench.sde, nichebench.crowding_de):\n"
        "    run(nichebench.himmelblau(), config, budget=40, rng=1)\n"
        "print(json.dumps({'at_import': at_import, 'probes': len(probes),\n"
        "                  'decodes': draws._decodes}))\n"
    )
    assert out["at_import"] == {"generators": 0, "decodes": None, "layouts": 0}
    assert out["probes"] == 1 and out["decodes"] is True


def test_import_runs_no_ga_or_sum_probe_and_the_first_ga_generation_runs_it_once():
    # the GA decoder's probe and normal layers wait for the first GA
    # generation, and the sum-order probe for the first distance block
    out = run_fresh(
        "import json\n"
        "import numpy as np\n"
        "import nichebench, nichebench.cli\n"
        "from nichebench import core, draws\n"
        "at_import = {'ga': draws._ga_decodes, 'sums': core._in_order,\n"
        "             'layers': int((~np.isnan(draws._normal_scale)).sum())}\n"
        "probes = []\n"
        "probe = draws._ga_decoder_probe\n"
        "draws._ga_decoder_probe = lambda: probes.append(1) or probe()\n"
        "config = nichebench.AlgorithmConfig(population_size=10)\n"
        "for run in (nichebench.crowding_ga, nichebench.scga, nichebench.preselection_ga,\n"
        "            nichebench.sharing_ga):\n"
        "    run(nichebench.himmelblau(), config, budget=40, rng=1)\n"
        "print(json.dumps({'at_import': at_import, 'probes': len(probes),\n"
        "                  'ga': draws._ga_decodes, 'sums': core._in_order}))\n"
    )
    assert out["at_import"] == {"ga": None, "sums": None, "layers": 0}
    assert out["probes"] == 1 and out["ga"] is True and out["sums"] is True


def generator_calls(path: Path) -> list[int]:
    """Lines of ``path`` that call a Generator or bit-generator method: an
    attribute call on ``rng`` or ``*.rng``, on ``bit_generator``, or of
    ``random_raw``. ``np.random.default_rng`` is none of these."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name in ("rng", "bit_generator") or node.func.attr == "random_raw":
                lines.append(node.lineno)
    return sorted(lines)


def test_only_the_draws_module_calls_a_generator():
    modules = sorted(Path(nichebench.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    calls = {path.name: generator_calls(path) for path in modules if path.name != "draws.py"}
    assert {name: lines for name, lines in calls.items() if lines} == {}


# what only the two child streams of algorithms._RunState may call
STREAM_ONLY = ("ga_generation_draws", "de_generation_draws", "budgeted")


def stream_reads_outside_run_state(path: Path) -> dict[str, list[int]]:
    """Per top-level definition of ``path`` but ``class _RunState``, the
    lines that name a function of ``STREAM_ONLY`` (``budgeted`` or
    ``st.budgeted``) or read an ``rng`` attribute (``st.rng``)."""
    found = {}
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, ast.ClassDef) and top.name == "_RunState":
            continue
        lines = {node.lineno for node in ast.walk(top)
                 if isinstance(node, ast.Name) and node.id in STREAM_ONLY
                 or isinstance(node, ast.Attribute) and node.attr in STREAM_ONLY + ("rng",)}
        if lines:
            found[getattr(top, "name", f"line {top.lineno}")] = sorted(lines)
    return found


def test_only_the_run_state_draws_for_or_caps_a_generation():
    path = Path(nichebench.__file__).parent / "algorithms.py"
    assert stream_reads_outside_run_state(path) == {}
