"""Determinism fingerprint of every (algorithm, problem) cell.

Each of the 42 cells runs at 2000 evaluations with 2 derived seeds. The
final genomes' bytes, the final fitnesses, the convergence trace and the
evaluations used are hashed with sha256 (:func:`result_digest`) and
compared with the committed table in ``fingerprints.json``. Criterion 2 only compares two runs inside one
process, so it would pass a change that moved every result in the same
way; this table pins the results themselves.

The table must only be regenerated for a deliberate, documented change
of results::

    PYTHONPATH=src python tests/test_fingerprint.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from nichebench.algorithms import ALGORITHMS, AlgorithmConfig
from nichebench.harness import PROBLEM_NAMES, derive_seed, resolve_problem

TABLE = Path(__file__).with_name("fingerprints.json")
BASE_SEED = 20150801
MAX_EVALS = 2000
RUNS = 2
CELLS = [(alg, prob) for alg in sorted(ALGORITHMS) for prob in PROBLEM_NAMES]


def result_digest(result) -> str:
    """A run's identity: sha256 over its final genomes, its final
    fitnesses, its trace and its ``evals_used``. Every test that asks
    whether two runs are the same run compares these digests."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.genomes, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(result.fitness, dtype=np.float64).tobytes())
    h.update(np.array(result.trace, dtype=np.float64).tobytes())
    h.update(str(result.evals_used).encode())
    return h.hexdigest()


def run_digest(algorithm: str, problem_name: str, seed, config=None) -> str:
    """The :func:`result_digest` of a run with ``config`` (default
    ``AlgorithmConfig()``); ``seed`` is the run's ``rng``, an int or a
    Generator."""
    problem = resolve_problem(problem_name)
    return result_digest(ALGORITHMS[algorithm](problem, config or AlgorithmConfig(), MAX_EVALS, seed))


def cell_seeds(algorithm: str, problem_name: str) -> list[int]:
    return [derive_seed(BASE_SEED, algorithm, problem_name, run) for run in range(RUNS)]


def compute_table() -> dict[str, dict[str, str]]:
    return {
        f"{alg}/{prob}": {str(seed): run_digest(alg, prob, seed) for seed in cell_seeds(alg, prob)}
        for alg, prob in CELLS
    }


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


def test_table_covers_every_cell(table):
    assert sorted(table) == sorted(f"{alg}/{prob}" for alg, prob in CELLS)
    assert len(table) == 42


@pytest.mark.parametrize("algorithm,problem_name", CELLS)
def test_cell_fingerprint(table, algorithm, problem_name):
    expected = table[f"{algorithm}/{problem_name}"]
    for seed in cell_seeds(algorithm, problem_name):
        got = run_digest(algorithm, problem_name, seed)
        assert got == expected[str(seed)], (
            f"{algorithm} on {problem_name} with seed {seed} no longer reproduces "
            f"its fingerprint ({MAX_EVALS} evals)"
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_fingerprint.py --write")
    TABLE.write_text(json.dumps(compute_table(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
