"""Population metrics against brute-force reference implementations."""

import math

import numpy as np
import pytest

from nichebench import algorithms, core, metrics
from nichebench.algorithms import conserve_species_seeds, determine_species_seeds
from nichebench.metrics import avg_min_distance, best_fitness, distinct_peaks, peak_ratio
from nichebench.problems import deb1


def as_genomes(rows):
    return np.array([np.asarray(g, dtype=float) for g in rows])


class TestPeakRatio:
    def test_population_contains_all_peaks(self):
        peaks = [[0.0, 0.0], [1.0, 1.0]]
        assert peak_ratio(as_genomes(peaks), peaks) == 1.0

    def test_nothing_found(self):
        assert peak_ratio(as_genomes([[5.0, 5.0]]), [[0.0, 0.0], [1.0, 1.0]]) == 0.0

    def test_deb1_single_member(self):
        # member at 0.95 reaches only the peak at 0.9 within radius 0.1
        peaks = deb1().known_peaks
        assert peak_ratio(as_genomes([[0.95]]), peaks) == pytest.approx(0.2)

    def test_genome_at_exactly_the_radius_counts(self):
        assert peak_ratio(as_genomes([[0.5], [9.0]]), [[0.0], [8.0]], radius=0.5) == 0.5
        assert peak_ratio(as_genomes([[3.0, 4.0]]), [[0.0, 0.0]], radius=5.0) == 1.0

    def test_empty_peaks_rejected(self):
        with pytest.raises(ValueError):
            peak_ratio(as_genomes([[0.0]]), [])

    def test_adding_member_never_decreases(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            peaks = rng.uniform(-1, 1, size=(4, 2))
            members = list(rng.uniform(-1, 1, size=(5, 2)))
            before = peak_ratio(as_genomes(members), peaks)
            members.append(rng.uniform(-1, 1, size=2))
            assert peak_ratio(as_genomes(members), peaks) >= before


class TestAvgMinDistance:
    def test_population_covers_peaks(self):
        peaks = [[0.0, 0.0], [1.0, 1.0]]
        assert avg_min_distance(as_genomes(peaks + [[0.3, 0.3]]), peaks) == 0.0

    def test_symmetric_point(self):
        d = avg_min_distance(as_genomes([[0.5, 0.5]]), [[0.0, 0.0], [1.0, 1.0]])
        assert d == pytest.approx(math.sqrt(0.5))

    def test_against_quadratic_scan(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            dim = int(rng.integers(1, 4))
            peaks = rng.uniform(-3, 3, size=(rng.integers(1, 5), dim))
            members = rng.uniform(-3, 3, size=(rng.integers(1, 7), dim))
            expected = np.mean(
                [min(math.dist(p, m) for m in members) for p in peaks]
            )
            got = avg_min_distance(as_genomes(list(members)), peaks)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_adding_member_never_increases(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            peaks = rng.uniform(-1, 1, size=(3, 2))
            members = list(rng.uniform(-1, 1, size=(4, 2)))
            before = avg_min_distance(as_genomes(members), peaks)
            members.append(rng.uniform(-1, 1, size=2))
            assert avg_min_distance(as_genomes(members), peaks) <= before + 1e-15


class TestBestFitness:
    def test_singleton(self):
        assert best_fitness(np.array([7.5]), "min") == 7.5

    def test_min_max(self):
        fitness = np.array([3.0, 1.0, 2.0])
        assert best_fitness(fitness, "min") == 1.0
        assert best_fitness(fitness, "max") == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^fitness must be nonempty$"):
            best_fitness(np.empty(0), "min")

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            best_fitness(np.array([1.0, 2.0]), "up")
        with pytest.raises(ValueError, match="direction"):
            best_fitness(np.array([1.0]), "up")

    @pytest.mark.parametrize("direction", ["min", "max"])
    def test_signed_zero_tie_keeps_the_first(self, direction):
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            got = best_fitness(np.array([first, second]), direction)
            assert math.copysign(1.0, got) == math.copysign(1.0, first)


NAN, INF = math.nan, math.inf


def determine(genomes, fitness=None):
    """``determine_species_seeds`` on array arguments, zero fitness by default."""
    genomes = np.asarray(genomes, dtype=float)
    fitness = np.zeros(len(genomes)) if fitness is None else np.asarray(fitness, dtype=float)
    return determine_species_seeds(genomes, fitness, 0.5, "max")


def conserve(genomes, fitness=None, seeds=((5.0,),), seed_fitness=None):
    """``conserve_species_seeds`` on array arguments, zero fitness and seed
    fitness one by default."""
    genomes = np.asarray(genomes, dtype=float)
    fitness = np.zeros(len(genomes)) if fitness is None else np.asarray(fitness, dtype=float)
    seeds = np.asarray(seeds, dtype=float)
    seed_fitness = np.ones(len(seeds)) if seed_fitness is None else np.asarray(seed_fitness, float)
    conserve_species_seeds(genomes, fitness, seeds, seed_fitness, 0.5, "max")


G1D, G3D, EMPTY = [0.1, 0.12, 0.9], np.zeros((3, 1, 1)), np.empty((0, 1))
G2 = [[0.1, 0.1], [0.12, 0.1], [0.9, 0.1]]
ONE_D = r"^genomes must be an \(n, d\) matrix, got shape \(3,\)$"
THREE_D = r"^genomes must be an \(n, d\) matrix, got shape \(3, 1, 1\)$"
NONEMPTY = "^genomes must be nonempty$"
PER_ROW = r"^fitness of shape \(2,\) for genomes \(3, 1\)$"


@pytest.mark.parametrize("score, message", [
    # 1-D genomes were read as one member of n coordinates: peak_ratio 0.0 where
    # the column gives 1.0, distinct_peaks 3 where it gives 2, seeds [0, 1, 2]
    # where it gives [0, 2]; with bounds, or in conserve, an IndexError
    pytest.param(lambda: peak_ratio(G1D, [0.1, 0.9]), ONE_D, id="peak_ratio_1d"),
    pytest.param(lambda: avg_min_distance(G1D, [0.1, 0.9]), ONE_D, id="avg_min_distance_1d"),
    pytest.param(lambda: distinct_peaks(G1D, [0, 0, 0]), ONE_D, id="distinct_peaks_1d"),
    pytest.param(lambda: distinct_peaks(G1D, [0, 0, 0], bounds=[[0, 1]]), ONE_D,
                 id="distinct_peaks_1d_bounds"),
    pytest.param(lambda: determine(G1D, [3.0, 2.0, 1.0]), ONE_D, id="determine_seeds_1d"),
    pytest.param(lambda: conserve(G1D), ONE_D, id="conserve_seeds_1d"),
    # a 3-D array once scored peak_ratio 1.0
    pytest.param(lambda: peak_ratio(G3D, [[[0.0]]]), THREE_D, id="peak_ratio_3d"),
    pytest.param(lambda: avg_min_distance(G3D, [[[0.0]]]), THREE_D, id="avg_min_distance_3d"),
    pytest.param(lambda: distinct_peaks(G3D, [0, 0, 0]), THREE_D, id="distinct_peaks_3d"),
    pytest.param(lambda: determine(G3D), THREE_D, id="determine_seeds_3d"),
    pytest.param(lambda: conserve(G3D), THREE_D, id="conserve_seeds_3d"),
    pytest.param(lambda: peak_ratio(EMPTY, [[0.0]]), NONEMPTY, id="peak_ratio_empty"),
    pytest.param(lambda: avg_min_distance(EMPTY, [[0.0]]), NONEMPTY, id="avg_min_distance_empty"),
    pytest.param(lambda: distinct_peaks(EMPTY, []), NONEMPTY, id="distinct_peaks_empty"),
    pytest.param(lambda: determine(EMPTY), NONEMPTY, id="determine_seeds_empty"),
    pytest.param(lambda: conserve(EMPTY), NONEMPTY, id="conserve_seeds_empty"),
    # a NaN row once hid the hit of the row beside it: 0.0
    pytest.param(lambda: peak_ratio(as_genomes([[NAN], [0.3]]), [[0.1], [0.3]]),
                 "^genomes must be finite$", id="peak_ratio_nan"),
    pytest.param(lambda: peak_ratio(as_genomes([[INF], [0.3]]), [[0.3]]),
                 "^genomes must be finite$", id="peak_ratio_inf"),
    pytest.param(lambda: avg_min_distance(as_genomes([[NAN], [0.3]]), [[0.3]]),  # once nan
                 "^genomes must be finite$", id="avg_min_distance_nan"),
    pytest.param(lambda: best_fitness(np.array([NAN, 1.0]), "min"),  # once nan
                 "^fitness must be finite$", id="best_fitness_nan"),
    pytest.param(lambda: best_fitness(np.array([-INF, 1.0]), "min"),
                 "^fitness must be finite$", id="best_fitness_inf"),
    # a 2-D fitness once raised IndexError, or read a 1-element array as a float
    pytest.param(lambda: best_fitness(np.array([[3.0, 1.0]]), "min"),
                 r"^fitness must be an \(n,\) vector, got shape \(1, 2\)$",
                 id="best_fitness_row"),
    pytest.param(lambda: best_fitness(np.array([[3.0], [1.0]]), "min"),
                 r"^fitness must be an \(n,\) vector, got shape \(2, 1\)$",
                 id="best_fitness_column"),
    # a NaN seed once claimed every member: seeds [0] where [[0.5], ...] gives [0, 1, 2]
    pytest.param(lambda: determine([[NAN], [0.1], [0.9]], [3.0, 2.0, 1.0]),
                 "^genomes must be finite$", id="determine_seeds_nan_genome"),
    pytest.param(lambda: determine([[0.5], [0.1], [0.9]], [NAN, 2.0, 1.0]),
                 "^fitness must be finite$", id="determine_seeds_nan_fitness"),
    pytest.param(lambda: conserve([[INF], [0.1], [0.9]]), "^genomes must be finite$",
                 id="conserve_seeds_inf_genome"),
    pytest.param(lambda: conserve([[0.5], [0.1], [0.9]], [0.0, NAN, 0.0]),
                 "^fitness must be finite$", id="conserve_seeds_nan_fitness"),
    pytest.param(lambda: conserve([[0.5], [0.1], [0.9]], seeds=[[NAN]]),
                 "^seed_genomes must be finite$", id="conserve_seeds_nan_seed"),
    pytest.param(lambda: conserve([[0.5], [0.1], [0.9]], seed_fitness=[-INF]),
                 "^seed_fitness must be finite$", id="conserve_seeds_inf_seed_fitness"),
    pytest.param(lambda: distinct_peaks(as_genomes([[NAN], [0.3]]), [0.0, 0.0]),
                 "^genomes must be finite$", id="distinct_peaks_nan_genome"),
    pytest.param(lambda: distinct_peaks(as_genomes([[0.0], [0.3]]), [NAN, 0.0]),
                 "^fitness must be finite$", id="distinct_peaks_nan_fitness"),
    pytest.param(lambda: distinct_peaks(as_genomes([[0.0], [0.3]]), [-INF, 0.0]),
                 "^fitness must be finite$", id="distinct_peaks_inf_fitness"),
    pytest.param(lambda: peak_ratio(as_genomes([[0.1], [0.3]]), [[NAN], [0.3]]),  # once 0.5
                 "^peaks must be finite$", id="peak_ratio_nan_peak"),
    pytest.param(lambda: peak_ratio(as_genomes([[0.1]]), [[INF]]),  # once 0.0
                 "^peaks must be finite$", id="peak_ratio_inf_peak"),
    pytest.param(lambda: avg_min_distance(as_genomes([[0.1], [0.3]]), [[NAN], [0.3]]),
                 "^peaks must be finite$", id="avg_min_distance_nan_peak"),  # once nan
    pytest.param(lambda: distinct_peaks(as_genomes([[0.0], [0.3], [0.5]]), [0.0, 0.0]), PER_ROW,
                 id="distinct_peaks_fitness_per_row"),
    pytest.param(lambda: determine([[0.0], [0.3], [0.5]], [0.0, 0.0]), PER_ROW,
                 id="determine_seeds_fitness_per_row"),
    pytest.param(lambda: conserve([[0.0], [0.3], [0.5]], [0.0, 0.0]), PER_ROW,
                 id="conserve_seeds_fitness_per_row"),
    # one column broadcast over both: the seed [[5.0]] was written as [5.0, 5.0]
    pytest.param(lambda: peak_ratio(G2, [[0.1]]),
                 r"^peak_genomes must be an \(n, 2\) matrix, got shape \(1, 1\)$",
                 id="peak_ratio_narrow_peak"),
    pytest.param(lambda: avg_min_distance(G2, [[0.1]]),
                 r"^peak_genomes must be an \(n, 2\) matrix, got shape \(1, 1\)$",
                 id="avg_min_distance_narrow_peak"),
    pytest.param(lambda: distinct_peaks(G2, [0, 0, 0], bounds=[[0, 1]]),
                 r"^bounds must have shape \(2, 2\), got \(1, 2\)$", id="distinct_peaks_narrow_bounds"),
    pytest.param(lambda: conserve(G2, seeds=[[5.0]]),
                 r"^seed_genomes must be an \(n, 2\) matrix, got shape \(1, 1\)$",
                 id="conserve_seeds_narrow_seed"),
    pytest.param(lambda: conserve(G2, seeds=[[5.0, 5.0, 5.0]]),
                 r"^seed_genomes must be an \(n, 2\) matrix, got shape \(1, 3\)$",
                 id="conserve_seeds_wide_seed"),
])
def test_malformed_population_rejected_before_any_distance(score, message, monkeypatch):
    # every entry point that takes a population raises its rule's ValueError
    # (core.check_rows, check_finite or check_bounds) before any distance
    def no_distance(*args):
        raise AssertionError("a distance was computed")

    for module in (core, metrics, algorithms):
        monkeypatch.setattr(module, "row_distances", no_distance)
    with pytest.raises(ValueError, match=message):
        score()


@pytest.mark.parametrize("radius, message", [
    (NAN, "radius must be finite"),  # peak_ratio once scored 0.0, distinct_peaks 1
    (-1.0, "radius must be positive"),  # distinct_peaks once counted duplicates too
    (0.0, "radius must be positive"),
    (INF, "radius must be finite"),
    (True, "radius must be a number"),
    ("0.1", "radius must be a number"),
])
def test_radius_must_be_a_positive_real(radius, message):
    genomes = as_genomes([[0.3], [0.3], [0.5]])
    with pytest.raises(ValueError, match=message):
        peak_ratio(genomes, [[0.3]], radius=radius)
    with pytest.raises(ValueError, match=message):
        distinct_peaks(genomes, [0.0, 0.0, 0.0], radius=radius)


@pytest.mark.parametrize("threshold, message", [
    (NAN, "fitness_threshold must be finite"),  # once counted 0
    (INF, "fitness_threshold must be finite"),
    (False, "fitness_threshold must be a number"),
    (None, "fitness_threshold must be a number"),
])
def test_fitness_threshold_must_be_a_real(threshold, message):
    with pytest.raises(ValueError, match=message):
        distinct_peaks(as_genomes([[0.0], [0.5]]), [0.0, 0.0], fitness_threshold=threshold)


def test_numpy_scalars_and_integers_pass_for_radius_and_threshold():
    genomes = as_genomes([[0.0], [0.5], [2.0]])
    assert distinct_peaks(genomes, [0, 0, 0], np.float64(1e-4), 1, "min") == 2
    assert peak_ratio(genomes, [[0.4], [1.5]], radius=np.float64(0.1)) == 0.5


def oracle_distinct_peaks(genomes, fitness, threshold=1e-4, radius=0.1, direction="min",
                          bounds=None):
    """Independent greedy re-scan, with nothing from ``nichebench``: in row
    order, a member strictly better than ``threshold`` counts iff it lies
    at distance >= ``radius`` from every member counted before it, the
    genomes first min-max normalised by ``bounds`` when given."""
    points = np.array(genomes, dtype=float)
    if bounds is not None:
        bounds = np.asarray(bounds, dtype=float)
        points = (points - bounds[:, 0]) / (bounds[:, 1] - bounds[:, 0])
    counted = []
    for p, f in zip(points, fitness):
        good = f < threshold if direction == "min" else f > threshold
        if good and all(math.dist(p, q) >= radius for q in counted):
            counted.append(p)
    return len(counted)


class TestDistinctPeaks:
    def test_all_above_threshold(self):
        genomes = as_genomes([[0.0], [1.0]])
        assert distinct_peaks(genomes, [1.0, 2.0], fitness_threshold=1e-4) == 0

    def test_exclusion_radius(self):
        genomes = as_genomes([[0.0, 0.0], [0.05, 0.0]])
        assert distinct_peaks(genomes, [1e-6, 1e-6]) == 1

    def test_direction_max(self):
        genomes = as_genomes([[0.0], [0.5]])
        assert distinct_peaks(genomes, [0.9, 0.95], fitness_threshold=0.92, direction="max") == 1

    @pytest.mark.parametrize("direction", ["min", "max"])
    def test_fitness_at_exactly_the_threshold_does_not_count(self, direction):
        # the good side is strict: 0.5 at threshold 0.5 is out, one ulp past it is in
        past = float(np.nextafter(0.5, -1.0 if direction == "min" else 1.0))
        genomes = as_genomes([[0.0], [1.0], [2.0]])
        assert distinct_peaks(genomes, [0.5, past, 0.5], 0.5, 0.1, direction) == 1

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            distinct_peaks(as_genomes([[0.0], [0.5]]), [0.9, 0.95], direction="up")

    @pytest.mark.parametrize("row", [[0.0, 0.0], [1.0, 0.0], [0.0, math.nan], [-math.inf, 1.0]])
    def test_bounds_rows_not_finite_with_lo_below_hi_rejected_before_any_distance(
            self, row, monkeypatch):
        # a zero-width or NaN row once counted 1 where valid bounds count 2
        genomes = as_genomes([[0.0, 0.0], [0.5, 0.0]])
        assert distinct_peaks(genomes, [0.0, 0.0], bounds=[[0.0, 1.0], [0.0, 1.0]]) == 2
        monkeypatch.setattr(metrics, "leader_scan", None)
        with pytest.raises(ValueError, match="finite with lo < hi"):
            distinct_peaks(genomes, [0.0, 0.0], bounds=[[0.0, 1.0], row])

    @pytest.mark.parametrize("fitness", [[1e-6, 1e-6], [[0.0, 0.0, 0.0]], [1e-6] * 5,
                                         [[1e-6], [1e-6], [1e-6]], 1e-6])
    def test_fitness_not_one_value_per_row_rejected_before_any_distance(
            self, fitness, monkeypatch):
        monkeypatch.setattr(metrics, "leader_scan", None)
        genomes = as_genomes([[0.0], [0.5], [1.0]])
        with pytest.raises(ValueError, match=r"fitness of shape .* for genomes \(3, 1\)"):
            distinct_peaks(genomes, fitness)

    def test_against_independent_rescan(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            n = rng.integers(1, 12)
            points = rng.uniform(0, 1, size=(n, 2))
            fits = rng.uniform(0, 2e-4, size=n)
            expected = oracle_distinct_peaks(points, fits)
            assert distinct_peaks(points, fits) == expected

    def test_normalized_bounds(self):
        # raw distance 50 but 0.05 after min-max normalization: one peak
        bounds = np.array([[0.0, 1000.0]])
        genomes, fits = as_genomes([[100.0], [150.0]]), [1e-6, 1e-6]
        assert distinct_peaks(genomes, fits, bounds=bounds) == 1
        assert distinct_peaks(genomes, fits) == 2

    def test_count_stable_for_separated_clusters(self):
        # well-separated clusters: the count ignores population order
        rng = np.random.default_rng(41)
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        points = []
        for c in centers:
            points.extend(c + rng.uniform(-0.01, 0.01, size=(4, 2)))
        fits = [1e-6] * len(points)
        counts = set()
        for _ in range(20):
            order = rng.permutation(len(points))
            counts.add(distinct_peaks(as_genomes([points[i] for i in order]),
                                      [fits[i] for i in order]))
        assert counts == {3}
