"""What ``import nichebench`` loads and runs: NumPy, but neither SciPy, the
process pool nor a first-use probe. SciPy comes with the first Welch t
p-value, the pool with the first grid run at ``jobs > 1``, and each probe
with the first DE generation, GA generation or distance block. These
checks look at ``sys.modules`` and the probe outcomes in a fresh
interpreter, not at import time, so they are deterministic. Three
last checks read the source: only ``nichebench.draws`` calls a Generator,
in ``nichebench.algorithms`` only ``_RunState`` draws for a generation,
caps it at the budget left or reads the run's RNG, and ``tests/spec.py``
takes from the library only the two per-call draws and no private
name."""

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
    # default_rng is wrapped before the import to see whether anything draws.
    # The probe's cache counts its runs as misses and later calls as hits.
    out = run_fresh(
        "import json\n"
        "import numpy as np\n"
        "made = []\n"
        "default_rng = np.random.default_rng\n"
        "np.random.default_rng = lambda *a: made.append(a) or default_rng(*a)\n"
        "import nichebench, nichebench.cli\n"
        "from nichebench import draws\n"
        "probe = draws._decoder_probe.cache_info\n"
        "at_import = {'generators': len(made), 'runs': probe().misses,\n"
        "             'layouts': draws._de_layout.cache_info().currsize}\n"
        "config = nichebench.AlgorithmConfig(population_size=10)\n"
        "nichebench.crowding_de(nichebench.himmelblau(), config, budget=20, rng=1)\n"
        "first = probe().misses  # after one generation\n"
        "for run in (nichebench.sharing_de, nichebench.sde, nichebench.crowding_de):\n"
        "    run(nichebench.himmelblau(), config, budget=40, rng=1)\n"
        "print(json.dumps({'at_import': at_import, 'first': first, 'after': probe()[:2],\n"
        "                  'decodes': draws._decoder_probe()}))\n"
    )
    assert out["at_import"] == {"generators": 0, "runs": 0, "layouts": 0}
    assert out["first"] == 1
    hits, misses = out["after"]
    assert misses == 1 and hits > 0 and out["decodes"] is True


def test_import_runs_no_ga_or_sum_probe_and_the_first_ga_generation_runs_it_once():
    # the GA decoder's probe and normal layers wait for the first GA
    # generation, and the sum-order probe for the first distance block
    out = run_fresh(
        "import json\n"
        "import numpy as np\n"
        "import nichebench, nichebench.cli\n"
        "from nichebench import core, draws\n"
        "probes = (draws._ga_decoder_probe, core._sum_order_probe)\n"
        "runs = lambda: [probe.cache_info().misses for probe in probes]\n"
        "at_import = {'runs': runs(), 'layers': int((~np.isnan(draws._normal_scale)).sum())}\n"
        "config = nichebench.AlgorithmConfig(population_size=10)\n"
        "nichebench.crowding_ga(nichebench.himmelblau(), config, budget=20, rng=1)\n"
        "first = runs()  # after one generation\n"
        "for run in (nichebench.crowding_ga, nichebench.scga, nichebench.preselection_ga,\n"
        "            nichebench.sharing_ga):\n"
        "    run(nichebench.himmelblau(), config, budget=40, rng=1)\n"
        "print(json.dumps({'at_import': at_import, 'first': first,\n"
        "                  'after': [probe.cache_info()[:2] for probe in probes],\n"
        "                  'answers': [probe() for probe in probes]}))\n"
    )
    assert out["at_import"] == {"runs": [0, 0], "layers": 0}
    assert out["first"] == [1, 1]
    assert all(misses == 1 and hits > 0 for hits, misses in out["after"])
    assert out["answers"] == [True, True]


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


# what tests/spec.py may take from the library: the two per-call draws
SPEC_IMPORTS = {("nichebench.draws", "de_draws"), ("nichebench.draws", "mutation_draws")}


def library_reach(source: str) -> tuple[list[tuple[str, str]], list[str]]:
    """What ``source`` takes from ``nichebench``: each imported (module, name),
    a plain ``import nichebench...`` as (module, ""), and every private name
    it uses (a name, attribute or import alias that starts with one
    underscore and is more than the throwaway ``_``)."""
    imported, private = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nichebench"):
            imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, "") for alias in node.names
                         if alias.name.startswith("nichebench")]
        name = (getattr(node, "id", None) or getattr(node, "attr", None)
                or getattr(node, "name", None) or getattr(node, "asname", None))
        if isinstance(name, str) and name[:1] == "_" and name[1:2] not in ("", "_"):
            private.append(name)
    return imported, private


def test_the_spec_takes_only_the_per_call_draws_from_the_library():
    imported, private = library_reach((Path(__file__).parent / "spec.py").read_text())
    assert imported and set(imported) <= SPEC_IMPORTS
    assert private == []
    # the guard sees what it guards against
    assert library_reach("import nichebench.core\n"
                         "from nichebench.algorithms import _RunState as state\n"
                         "def f(rng, _=0):\n"
                         "    return rng._bit_generator, state\n") == (
        [("nichebench.core", ""), ("nichebench.algorithms", "_RunState")],
        ["_RunState", "_bit_generator"])
