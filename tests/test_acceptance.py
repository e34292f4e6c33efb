"""Acceptance gate.

Each criterion runs at its stated tolerance and prints one PASS/FAIL
line (visible with ``pytest tests/test_acceptance.py -v -s``). The
statistical criteria execute the full 50-run protocol and take a few
minutes; everything else is seconds.
"""

from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from nichebench.algorithms import ALGORITHMS, AlgorithmConfig, determine_species_seeds, scga
from nichebench.grating import (
    default_anchor,
    integrated_square_error,
    load_profile,
    make_default_problem,
)
from nichebench.harness import ExperimentSpec, derive_seed, run_experiment
from nichebench.problems import PROBLEM_FACTORIES, six_hump_camel
from nichebench.stats import ks_two_sample, mann_whitney_u, pairwise_matrix, welch_t
# modules, not their classes: a class imported here would be collected twice
import test_algorithms
import test_metrics
import test_stats
from test_fingerprint import result_digest

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

def test_criterion_1_oracle_equivalence():
    # the unit checks, each 1000 random instances against its oracle
    with criterion(1, "oracle equivalence on >=1000 random instances each"):
        test_algorithms.TestCrowdingReplacement().test_full_cf_against_brute_force()
        test_algorithms.TestDetermineSpeciesSeeds().test_against_quadratic_oracle()
        test_metrics.TestAvgMinDistance().test_against_quadratic_scan()
        test_metrics.TestDistinctPeaks().test_against_independent_rescan()
        test_stats.TestMannWhitneyU().test_exact_p_matches_permutation_enumeration()
        test_stats.TestKsTwoSample().test_d_matches_breakpoint_scan()


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
                assert result_digest(first) == result_digest(second)


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

        def observer(generation, genomes, fitness):
            snapshots.append((genomes.copy(), fitness.copy()))

        budget = 50 + 50 * 50  # initialization plus 50 full generations
        scga(problem, config, budget, derive_seed(6, "scga", "six_hump_camel", 0),
             observer=observer)
        assert len(snapshots) >= 51
        violations = 0
        for before, after in zip(snapshots[:51], snapshots[1:51]):
            seeds = determine_species_seeds(*before, config.species_distance, problem.direction)
            after_genomes = {tuple(genome) for genome in after[0]}
            for i in seeds:
                violations += tuple(before[0][i]) not in after_genomes
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
