"""Acceptance gate.

Each criterion runs at its stated tolerance and prints one PASS/FAIL
line (visible with ``pytest tests/test_acceptance.py -v -s``). The
statistical criteria execute the full 50-run protocol and take a few
minutes; everything else is seconds.
"""

import math
import itertools
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from nichebench.algorithms import (
    ALGORITHMS,
    AlgorithmConfig,
    _nearest,
    crowding_replacement,
    determine_species_seeds,
    scga,
)
from nichebench.core import Individual, Population
from nichebench.grating import (
    default_anchor,
    integrated_square_error,
    load_profile,
    make_default_problem,
)
from nichebench.harness import ExperimentSpec, derive_seed, run_experiment
from nichebench.metrics import avg_min_distance, distinct_peaks, peak_ratio
from nichebench.problems import PROBLEM_FACTORIES, six_hump_camel
from nichebench.stats import ks_two_sample, mann_whitney_u, pairwise_matrix, welch_t
from test_draw_equivalence import population as make_pop

JOBS = 2  # worker processes for the 50-run protocol criteria
COMMITTED_RESULTS = Path(__file__).resolve().parent.parent / "results"


def assert_matches_committed_runs(out_dir, name):
    """The protocol run's runs.csv must reproduce the committed file byte for byte."""
    got = (Path(out_dir) / "runs.csv").read_bytes()
    expected = (COMMITTED_RESULTS / name / "runs.csv").read_bytes()
    assert got == expected, f"{name}/runs.csv differs from the committed file"


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {title}: FAIL")
        raise
    print(f"[criterion {number}] {title}: PASS")


# ---------------------------------------------------------------------------
# criterion 1: deterministic operators match independent brute-force oracles
# ---------------------------------------------------------------------------

def _oracle_u(a, b):
    u = 0.0
    for x in a:
        for y in b:
            u += 1.0 if x > y else 0.5 if x == y else 0.0
    return u


def _oracle_mwu_pvalue(a, b):
    pooled = list(a) + list(b)
    n, nm = len(a), len(a) * len(b)
    obs = abs(_oracle_u(a, b) - nm / 2.0)
    favorable = total = 0
    for idx in itertools.combinations(range(len(pooled)), n):
        chosen = set(idx)
        aa = [pooled[i] for i in idx]
        bb = [pooled[i] for i in range(len(pooled)) if i not in chosen]
        total += 1
        favorable += abs(_oracle_u(aa, bb) - nm / 2.0) >= obs - 1e-12
    return favorable / total


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence on >=1000 random instances each"):
        rng = np.random.default_rng(2025)

        for _ in range(1000):  # crowding replacement, full crowding factor
            n = int(rng.integers(2, 9))
            dim = int(rng.integers(1, 4))
            genomes = rng.uniform(-1, 1, size=(n, dim))
            fits = rng.integers(0, 4, size=n).astype(float)
            child = Individual(rng.uniform(-1, 1, size=dim), float(rng.integers(0, 4)))
            pop = make_pop(list(genomes), fits)
            row = np.sqrt(((genomes - child.genome) ** 2).sum(axis=1))  # the whole population
            crowding_replacement(child, pop, _nearest(row, None), direction="max")
            dists = [math.dist(child.genome, g) for g in genomes]
            nearest = min(range(n), key=lambda i: (dists[i], i))
            if child.fitness > fits[nearest]:
                assert pop[nearest] is child
            else:
                assert all(pop[i].fitness == fits[i] for i in range(n))

        for _ in range(1000):  # species seed scan vs quadratic oracle
            n = int(rng.integers(1, 10))
            genomes = rng.uniform(-1, 1, size=(n, 2))
            fits = rng.integers(0, 5, size=n).astype(float)
            sigma = float(rng.uniform(0.05, 2.0))
            seeds = determine_species_seeds(make_pop(list(genomes), fits), sigma, "max")
            order = sorted(range(n), key=lambda i: (-fits[i], i))
            expected = []
            for i in order:
                if all(math.dist(genomes[i], genomes[j]) >= sigma / 2 for j in expected):
                    expected.append(i)
            assert [s.genome.tolist() for s in seeds] == [genomes[i].tolist() for i in expected]

        for _ in range(1000):  # avg_min_distance vs double loop
            peaks = rng.uniform(-3, 3, size=(int(rng.integers(1, 5)), 2))
            members = rng.uniform(-3, 3, size=(int(rng.integers(1, 7)), 2))
            expected = float(np.mean([min(math.dist(p, m) for m in members) for p in peaks]))
            got = avg_min_distance(members, peaks)
            assert got == pytest.approx(expected, abs=1e-12)

        for _ in range(1000):  # distinct_peaks vs independent greedy re-scan
            n = int(rng.integers(1, 12))
            points = rng.uniform(0, 1, size=(n, 2))
            fits = rng.uniform(0, 2e-4, size=n)
            counted = []
            for p, f in zip(points, fits):
                if f < 1e-4 and all(math.dist(p, q) >= 0.1 for q in counted):
                    counted.append(p)
            assert distinct_peaks(points, fits) == len(counted)

        for _ in range(1000):  # exact Mann-Whitney branch vs full enumeration
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            if rng.random() < 0.5:
                values = rng.integers(0, 5, size=n + m).astype(float)
            else:
                values = rng.normal(size=n + m)
            a, b = values[:n], values[n:]
            _, p = mann_whitney_u(a, b)
            assert abs(p - _oracle_mwu_pvalue(a, b)) <= 1e-10

        for _ in range(1000):  # KS statistic vs breakpoint scan
            n = int(rng.integers(2, 16))
            m = int(rng.integers(2, 16))
            a = rng.integers(0, 6, size=n).astype(float)
            b = rng.normal(size=m)
            d, _ = ks_two_sample(a, b)
            best = max(
                abs(sum(v <= t for v in a) / n - sum(v <= t for v in b) / m)
                for t in list(a) + list(b)
            )
            assert d == pytest.approx(best, abs=1e-12)


# ---------------------------------------------------------------------------
# criterion 2: budget exactness and bit-identical determinism
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_2_budget_exactness_and_determinism():
    with criterion(2, "10000-eval budget exactness and fixed-seed determinism"):
        for problem_name, factory in sorted(PROBLEM_FACTORIES.items()):
            problem = factory()
            for alg_name, algorithm in sorted(ALGORITHMS.items()):
                seed = derive_seed(1, alg_name, problem_name, 0)
                first = algorithm(problem, AlgorithmConfig(), 10000, seed)
                second = algorithm(problem, AlgorithmConfig(), 10000, seed)
                assert first.evals_used <= 10000
                assert first.evals_used == 10000  # these algorithms never stop early
                assert np.array_equal(first.genomes, second.genomes)
                assert first.fitness.tolist() == second.fitness.tolist()


# ---------------------------------------------------------------------------
# criterion 3: CrowdingDE niching efficacy floors
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_3_crowding_de_peak_ratio_floors(tmp_path):
    with criterion(3, "CrowdingDE mean peak ratio >= 0.90 (himmelblau), >= 0.80 (deb1)"):
        spec = ExperimentSpec(
            algorithms=[("crowding_de", AlgorithmConfig(population_size=50))],
            problems=["himmelblau", "deb1"],
            runs=50,
            max_evals=10000,
            base_seed=31,
            output_dir=tmp_path / "acceptance_c3",
        )
        table = run_experiment(spec, jobs=JOBS)
        assert_matches_committed_runs(spec.output_dir, "acceptance_c3")
        mean_himmelblau = table.mean("crowding_de", "himmelblau", "peak_ratio")
        mean_deb1 = table.mean("crowding_de", "deb1", "peak_ratio")
        print(f"  mean peak ratio: himmelblau={mean_himmelblau:.3f} deb1={mean_deb1:.3f}")
        assert mean_himmelblau >= 0.90
        assert mean_deb1 >= 0.80


@pytest.mark.slow
def test_crowding_ga_spans_multiple_deb1_peaks(tmp_path):
    # supplementary example-level check: CrowdingGA keeps at least two of
    # deb1's five peaks populated in at least 90% of 50 seeded runs
    with criterion("3b", "CrowdingGA covers >=2 deb1 peaks in >=90% of runs"):
        spec = ExperimentSpec(
            algorithms=[("crowding_ga", AlgorithmConfig(population_size=50))],
            problems=["deb1"],
            runs=50,
            max_evals=10000,
            base_seed=33,
            output_dir=tmp_path / "acceptance_c3b",
        )
        table = run_experiment(spec, jobs=JOBS)
        assert_matches_committed_runs(spec.output_dir, "acceptance_c3b")
        ratios = table.raw("crowding_ga", "deb1", "peak_ratio")
        covered = sum(r >= 2 / 5 for r in ratios)
        print(f"  runs with >=2 peaks: {covered}/50")
        assert covered >= 45


# ---------------------------------------------------------------------------
# criterion 4: qualitative ordering on the grating problem
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_4_grating_ordering_crowding_vs_sharing(tmp_path):
    with criterion(4, "grating: CrowdingDE finds more distinct peaks than SharingDE (MWU significant)"):
        spec = ExperimentSpec(
            algorithms=[
                ("crowding_de", AlgorithmConfig(population_size=50)),
                ("sharing_de", AlgorithmConfig(population_size=50)),
            ],
            problems=["grating"],
            runs=50,
            max_evals=10000,
            base_seed=47,
            output_dir=tmp_path / "acceptance_c4",
        )
        table = run_experiment(spec, jobs=JOBS)
        assert_matches_committed_runs(spec.output_dir, "acceptance_c4")
        crowding_peaks = table.raw("crowding_de", "grating", "distinct_peaks")
        sharing_peaks = table.raw("sharing_de", "grating", "distinct_peaks")
        mean_crowding = float(np.mean(crowding_peaks))
        mean_sharing = float(np.mean(sharing_peaks))
        print(f"  mean distinct peaks: crowding_de={mean_crowding:.2f} sharing_de={mean_sharing:.2f}")
        assert mean_crowding > mean_sharing

        pvalues = pairwise_matrix([crowding_peaks, sharing_peaks], test="mwu")
        assert pvalues[0, 1] < 0.05 and pvalues[1, 0] < 0.05


# ---------------------------------------------------------------------------
# criterion 5: grating math and the default parameter profile
# ---------------------------------------------------------------------------

def test_criterion_5_grating_math_and_profile():
    with criterion(5, "grating error identities and bit-exact default profile"):
        assert integrated_square_error((0.0, 0.0, 0.0, 0.0), 90.0) == 0.0
        assert integrated_square_error((1.0, 0.0, 0.0, 0.0), 90.0) == 1.0
        assert integrated_square_error((0.0, 1.0, 0.0, 0.0), 90.0) == 2700.0

        params, _ = load_profile()
        assert params.n0 == 1400.0
        assert params.b2 == 8.2453e-4
        assert params.b3 == 3.0015e-7
        assert params.b4 == 0.0
        assert params.w0 == 90.0
        assert params.lambda0 == 4.131e-4
        assert params.mirror_radii == (1000.0, 1000.0)

        problem = make_default_problem()
        assert problem.objective(default_anchor()) < 1e-18


# ---------------------------------------------------------------------------
# criterion 6: SCGA conservation invariant over 50 generations
# ---------------------------------------------------------------------------

def test_criterion_6_scga_seed_conservation():
    with criterion(6, "SCGA: every generation's seeds survive into the next (50 generations)"):
        problem = six_hump_camel()
        config = AlgorithmConfig(population_size=50, species_distance=1.0)
        snapshots = []

        def observer(generation, population):
            snapshots.append([Individual(m.genome.copy(), m.fitness) for m in population])

        budget = 50 + 50 * 50  # initialization plus 50 full generations
        scga(problem, config, budget, derive_seed(6, "scga", "six_hump_camel", 0),
             observer=observer)
        assert len(snapshots) >= 51
        violations = 0
        for before, after in zip(snapshots[:51], snapshots[1:51]):
            seeds = determine_species_seeds(
                Population(before), config.species_distance, problem.direction
            )
            after_genomes = {tuple(m.genome) for m in after}
            for seed in seeds:
                violations += tuple(seed.genome) not in after_genomes
        print(f"  generations checked: {min(len(snapshots) - 1, 50)}, violations: {violations}")
        assert violations == 0


# ---------------------------------------------------------------------------
# criterion 7: false-positive calibration of the significance tests
# ---------------------------------------------------------------------------

def test_criterion_7_statistics_null_calibration():
    with criterion(7, "null false-positive rates within [0.03, 0.07] at alpha=0.05"):
        rng = np.random.default_rng(777)
        trials = 10_000
        hits = {"mwu": 0, "ks": 0, "t": 0}
        for _ in range(trials):
            a = rng.normal(size=50)
            b = rng.normal(size=50)
            hits["mwu"] += mann_whitney_u(a, b)[1] < 0.05
            hits["ks"] += ks_two_sample(a, b)[1] < 0.05
            hits["t"] += welch_t(a, b)[1] < 0.05
        rates = {name: count / trials for name, count in hits.items()}
        print(f"  false-positive rates: {rates}")
        for name, rate in rates.items():
            assert 0.03 <= rate <= 0.07, (name, rate)
