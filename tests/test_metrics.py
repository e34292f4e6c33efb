"""Population metrics against brute-force reference implementations."""

import math

import numpy as np
import pytest

from nichebench import metrics
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

    def test_empty_peaks_rejected(self):
        with pytest.raises(ValueError):
            peak_ratio(as_genomes([[0.0]]), [])

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError, match="empty population"):
            peak_ratio(np.empty((0, 2)), [[0.0, 0.0]])
        with pytest.raises(ValueError, match="empty population"):
            avg_min_distance(np.empty((0, 2)), [[0.0, 0.0]])

    @pytest.mark.parametrize("metric", [peak_ratio, avg_min_distance])
    def test_peak_of_another_width_rejected_before_any_distance(self, metric, monkeypatch):
        # a 1-wide peak would broadcast against the 2-wide genomes
        monkeypatch.setattr(metrics, "row_distances", None)
        genomes = as_genomes([[0.5, 0.5], [3.0, 3.0]])
        with pytest.raises(ValueError, match=r"a peak is not as wide as the genomes \(2, 2\)"):
            metric(genomes, [[0.5]])

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
            peaks = rng.uniform(-3, 3, size=(rng.integers(1, 5), 3))
            members = rng.uniform(-3, 3, size=(rng.integers(1, 7), 3))
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
        with pytest.raises(ValueError, match="empty population"):
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


def oracle_distinct_peaks(points, fits, threshold, radius, direction):
    """Independent greedy re-scan."""
    counted = []
    for p, f in zip(points, fits):
        good = f < threshold if direction == "min" else f > threshold
        if not good:
            continue
        if all(math.dist(p, q) >= radius for q in counted):
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

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            distinct_peaks(as_genomes([[0.0], [0.5]]), [0.9, 0.95], direction="up")

    def test_bounds_of_another_width_rejected_before_any_distance(self, monkeypatch):
        # one bounds row would broadcast over both coordinates
        monkeypatch.setattr(metrics, "leader_scan", None)
        genomes = as_genomes([[0.5, 0.5], [3.0, 3.0]])
        with pytest.raises(ValueError, match=r"bounds of shape \(1, 2\) for genomes \(2, 2\)"):
            distinct_peaks(genomes, [1e-6, 1e-6], bounds=[[0, 1]])

    @pytest.mark.parametrize("row", [[0.0, 0.0], [1.0, 0.0], [0.0, math.nan], [-math.inf, 1.0]])
    def test_bounds_rows_not_finite_with_lo_below_hi_rejected_before_any_distance(
            self, row, monkeypatch):
        # a zero-width or NaN row once counted 1 where valid bounds count 2
        genomes = as_genomes([[0.0, 0.0], [0.5, 0.0]])
        assert distinct_peaks(genomes, [0.0, 0.0], bounds=[[0.0, 1.0], [0.0, 1.0]]) == 2
        monkeypatch.setattr(metrics, "leader_scan", None)
        with pytest.raises(ValueError, match="finite with lo < hi"):
            distinct_peaks(genomes, [0.0, 0.0], bounds=[[0.0, 1.0], row])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty population"):
            distinct_peaks(np.empty((0, 2)), np.empty(0))

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
            expected = oracle_distinct_peaks(points, fits, 1e-4, 0.1, "min")
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
