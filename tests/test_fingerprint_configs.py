"""Determinism fingerprints of the non-default configuration space.

``tests/test_fingerprint.py`` runs every cell with ``AlgorithmConfig()``
only. This table pins, at the same 2000 evaluations and 2 derived seeds
per cell, on deb1, himmelblau and grating, the paths the defaults never
take:

- crowding factors of 1, 3 and 49, below the population size of 50
  (crowding_ga and crowding_de draw a crowding sample per child; 1 and
  49 are the two ends of its range);
- mutation rates 0 and 1 (the four GAs: no normals, all normals);
- an odd population of 11 (all seven);
- ``species_distance = sharing_radius = 0.05`` (scga, sde, sharing_ga and
  sharing_de), which gives sde species of fewer than 4.

A first-use probe is forced off by patching it to answer False. The
crowding-factor cells run once more with both decoders forced off, on
the real calls that wrote them. The default cells of the three DE
algorithms run twice more: with the DE decoder forced off, where every
generation takes the real-call path and must give the digests of
``fingerprints.json``, and on an MT19937 generator, against their own
digests here. The default cells of the four GAs run once more, with the
GA decoder forced off, against ``fingerprints.json``. The default cells
of all seven run once more with the sum-order probe forced off, where
every distance block is summed by ``.sum``, against
``fingerprints.json``.

The table must only be regenerated for a deliberate, documented change
of results::

    PYTHONPATH=src python tests/test_fingerprint_configs.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from nichebench import core, draws
from nichebench.algorithms import ALGORITHMS, AlgorithmConfig
from test_fingerprint import TABLE as DEFAULT_TABLE
from test_fingerprint import cell_seeds, run_digest

TABLE = Path(__file__).with_name("fingerprints_configs.json")
PROBLEMS = ["deb1", "himmelblau", "grating"]
GAS = ["crowding_ga", "preselection_ga", "scga", "sharing_ga"]
DES = ["crowding_de", "sde", "sharing_de"]
# setting name -> (algorithms, AlgorithmConfig fields)
SETTINGS = {
    "crowding_factor=1": (["crowding_de", "crowding_ga"], {"crowding_factor": 1}),
    "crowding_factor=3": (["crowding_de", "crowding_ga"], {"crowding_factor": 3}),
    "crowding_factor=49": (["crowding_de", "crowding_ga"], {"crowding_factor": 49}),
    "mutation_rate=0": (GAS, {"mutation_rate": 0.0}),
    "mutation_rate=1": (GAS, {"mutation_rate": 1.0}),
    "population_size=11": (sorted(ALGORITHMS), {"population_size": 11}),
    "distance=0.05": (["scga", "sde", "sharing_de", "sharing_ga"],
                      {"species_distance": 0.05, "sharing_radius": 0.05}),
}
CASES = [(alg, prob, setting) for setting, (algs, _) in SETTINGS.items()
         for alg in algs for prob in PROBLEMS]
CROWDING_CASES = [case for case in CASES if case[2].startswith("crowding_factor")]
DE_CELLS = [(alg, prob) for alg in DES for prob in PROBLEMS]
GA_CELLS = [(alg, prob) for alg in GAS for prob in PROBLEMS]


def mt19937(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.MT19937(seed))


def config_digests(algorithm: str, problem_name: str, setting: str) -> dict[str, str]:
    config = AlgorithmConfig(**SETTINGS[setting][1])
    return {str(seed): run_digest(algorithm, problem_name, seed, config)
            for seed in cell_seeds(algorithm, problem_name)}


def mt19937_digests(algorithm: str, problem_name: str) -> dict[str, str]:
    return {str(seed): run_digest(algorithm, problem_name, mt19937(seed))
            for seed in cell_seeds(algorithm, problem_name)}


def compute_table() -> dict[str, dict[str, str]]:
    table = {f"{alg}/{prob}/{setting}": config_digests(alg, prob, setting)
             for alg, prob, setting in CASES}
    table.update({f"{alg}/{prob}/mt19937": mt19937_digests(alg, prob) for alg, prob in DE_CELLS})
    return table


def assert_default_digests(algorithm: str, problem_name: str) -> None:
    """The cell's runs give their digests in ``fingerprints.json``."""
    want = json.loads(DEFAULT_TABLE.read_text())[f"{algorithm}/{problem_name}"]
    for seed in cell_seeds(algorithm, problem_name):
        assert run_digest(algorithm, problem_name, seed) == want[str(seed)]


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


def test_table_covers_every_case(table):
    assert sorted(table) == sorted([f"{alg}/{prob}/{setting}" for alg, prob, setting in CASES]
                                   + [f"{alg}/{prob}/mt19937" for alg, prob in DE_CELLS])
    assert len(CASES) == 75


@pytest.mark.parametrize("algorithm,problem_name,setting", CASES)
def test_config_fingerprint(table, algorithm, problem_name, setting):
    assert config_digests(algorithm, problem_name, setting) == \
        table[f"{algorithm}/{problem_name}/{setting}"]


@pytest.mark.parametrize("algorithm,problem_name,setting", CROWDING_CASES)
def test_real_calls_reproduce_the_crowding_factor_rows(table, monkeypatch, algorithm,
                                                       problem_name, setting):
    # the rows were written on the real-call path; the decoders must give them too
    monkeypatch.setattr(draws, "_decoder_probe", lambda: False)
    monkeypatch.setattr(draws, "_ga_decoder_probe", lambda: False)
    assert config_digests(algorithm, problem_name, setting) == \
        table[f"{algorithm}/{problem_name}/{setting}"]


@pytest.mark.parametrize("algorithm,problem_name", DE_CELLS)
def test_real_de_draws_reproduce_the_default_fingerprints(monkeypatch, algorithm, problem_name):
    monkeypatch.setattr(draws, "_decoder_probe", lambda: False)
    assert_default_digests(algorithm, problem_name)


@pytest.mark.parametrize("algorithm,problem_name", GA_CELLS)
def test_real_ga_draws_reproduce_the_default_fingerprints(monkeypatch, algorithm, problem_name):
    monkeypatch.setattr(draws, "_ga_decoder_probe", lambda: False)
    assert_default_digests(algorithm, problem_name)


@pytest.mark.parametrize("algorithm,problem_name", DE_CELLS + GA_CELLS)
def test_summed_distances_reproduce_the_default_fingerprints(monkeypatch, algorithm,
                                                             problem_name):
    monkeypatch.setattr(core, "_sum_order_probe", lambda: False)
    assert_default_digests(algorithm, problem_name)


@pytest.mark.parametrize("algorithm,problem_name", DE_CELLS)
def test_mt19937_fingerprint(table, algorithm, problem_name):
    assert mt19937_digests(algorithm, problem_name) == table[f"{algorithm}/{problem_name}/mt19937"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_fingerprint_configs.py --write")
    TABLE.write_text(json.dumps(compute_table(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
