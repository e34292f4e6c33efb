"""Benchmark definitions: frozen values, peak lists, and local optimality."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import minimize

from nichebench.core import is_better
from nichebench.harness import ConfigError, resolve_problem
from nichebench.problems import (
    PROBLEM_FACTORIES,
    BoundedProblem,
    branin,
    deb1,
    himmelblau,
    rosenbrock,
    six_hump_camel,
)

ALL_PROBLEMS = [deb1(), himmelblau(), six_hump_camel(), branin(), rosenbrock()]


class TestFrozenValues:
    def test_deb1(self):
        p = deb1()
        assert p.objective(np.array([0.0])) == pytest.approx(0.0, abs=1e-30)
        assert p.objective(np.array([0.1])) == pytest.approx(1.0, abs=1e-12)
        assert p.direction == "max"
        assert len(p.known_peaks) == 5

    def test_himmelblau(self):
        p = himmelblau()
        assert p.objective(np.array([3.0, 2.0])) == 0.0
        assert p.objective(np.array([0.0, 0.0])) == 170.0
        assert len(p.known_peaks) == 4
        assert any(
            np.allclose(peak, [-2.805118, 3.131312], atol=1e-5) for peak in p.known_peaks
        )

    def test_six_hump_camel(self):
        p = six_hump_camel()
        assert p.objective(np.array([0.0898, -0.7126])) == pytest.approx(-1.0316, abs=1e-3)
        assert len(p.known_peaks) == 6

    def test_branin(self):
        p = branin()
        best = 0.39788735772973816
        for peak in p.known_peaks:
            assert p.objective(peak) == pytest.approx(best, abs=1e-10)
        assert any(np.allclose(peak, [np.pi, 2.275]) for peak in p.known_peaks)
        assert len(p.known_peaks) == 3

    def test_rosenbrock(self):
        p = rosenbrock()
        assert p.objective(np.array([1.0, 1.0])) == 0.0
        assert len(p.known_peaks) == 1

    def test_bounds(self):
        assert np.array_equal(deb1().bounds, [[0.0, 1.0]])
        assert np.array_equal(himmelblau().bounds, [[-6.0, 6.0], [-6.0, 6.0]])
        assert np.array_equal(six_hump_camel().bounds, [[-1.9, 1.9], [-1.1, 1.1]])
        assert np.array_equal(branin().bounds, [[-5.0, 10.0], [0.0, 15.0]])
        assert np.array_equal(rosenbrock().bounds, [[-2.0, 2.0], [-2.0, 2.0]])

    def test_dimension_is_the_number_of_bounds(self):
        assert [p.dimension for p in ALL_PROBLEMS] == [1, 2, 2, 2, 2]
        assert dataclasses.replace(himmelblau(), objective=abs).dimension == 2


@pytest.mark.parametrize("bounds, peaks, message", [
    ([[0.0, 1.0], [1.0, 1.0]], (), "lo < hi"),
    ([[0.0, np.nan]], (), "finite"),
    ([[np.nan, 1.0]], (), "finite"),
    ([[-np.inf, 1.0]], (), "finite"),
    ([[0.0, np.inf]], (), "finite"),
    ([0.0, 1.0], (), "shape"),
    (np.empty((0, 2)), (), "shape"),
    ([[0.0, 1.0]], ([0.5, 0.5],), "wrong dimension"),
    ([[0.0, 1.0]], ([np.nan],), "outside bounds"),
    ([[0.0, 1.0]], ([1.5],), "outside bounds"),
], ids=["lo_equals_hi", "nan_hi", "nan_lo", "minus_inf_lo", "inf_hi", "flat_bounds",
        "no_bounds", "peak_dimension", "nan_peak", "peak_outside"])
def test_bounded_problem_rejects_bad_bounds_and_peaks(bounds, peaks, message):
    with pytest.raises(ValueError, match=message):
        BoundedProblem("p", np.array(bounds), "min", lambda x: 0.0, peaks)


@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: p.name)
def test_known_peaks_are_local_optima(problem):
    rng = np.random.default_rng(7)
    sign = 1.0 if problem.direction == "min" else -1.0
    for peak in problem.known_peaks:
        f_peak = problem.objective(peak)
        for _ in range(1000):
            step = rng.normal(size=problem.dimension)
            step *= rng.uniform(0, 1e-3) / np.linalg.norm(step)
            x = np.clip(peak + step, problem.bounds[:, 0], problem.bounds[:, 1])
            # allow float-level noise only; no perturbation may genuinely win
            assert sign * (problem.objective(x) - f_peak) >= -1e-12


@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: p.name)
def test_objective_purity(problem):
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.uniform(problem.bounds[:, 0], problem.bounds[:, 1])
        assert problem.objective(x) == problem.objective(x.copy())


def _multistart_minima(problem, starts):
    """Independent oracle: collect distinct local optima by local search."""
    sign = 1.0 if problem.direction == "min" else -1.0
    lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
    found = []
    for start in starts:
        res = minimize(
            lambda x: sign * problem.objective(x),
            start,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 5000},
        )
        x = res.x
        if np.any(x < lo - 1e-9) or np.any(x > hi + 1e-9):
            continue
        if not any(np.linalg.norm(x - q) < 1e-4 for q in found):
            found.append(x)
    return found


@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: p.name)
def test_peak_list_matches_multistart_oracle(problem):
    rng = np.random.default_rng(23)
    grid = rng.uniform(problem.bounds[:, 0], problem.bounds[:, 1], size=(300, problem.dimension))
    minima = _multistart_minima(problem, grid)
    # interior optima only; Nelder-Mead may stop on the box edge
    interior = [
        x for x in minima
        if np.all(x > problem.bounds[:, 0] + 1e-6) and np.all(x < problem.bounds[:, 1] - 1e-6)
    ]
    for x in interior:
        assert any(np.linalg.norm(x - peak) < 1e-5 for peak in problem.known_peaks), (
            f"oracle found an optimum {x} missing from known_peaks of {problem.name}"
        )
    for peak in problem.known_peaks:
        assert any(np.linalg.norm(np.asarray(x) - peak) < 1e-5 for x in minima), (
            f"known peak {peak} of {problem.name} not recovered by the oracle"
        )


def test_registry_roundtrip():
    for name in PROBLEM_FACTORIES:
        assert resolve_problem(name).name == name
    with pytest.raises(ConfigError):
        resolve_problem("nope")


def test_direction_orientation_of_peaks():
    # every known peak must carry the problem's extremal value region
    for problem in ALL_PROBLEMS:
        rng = np.random.default_rng(3)
        xs = rng.uniform(problem.bounds[:, 0], problem.bounds[:, 1], size=(200, problem.dimension))
        sample_best = min(
            (problem.objective(x) for x in xs),
            key=lambda v: v if problem.direction == "min" else -v,
        )
        peak_values = [problem.objective(p) for p in problem.known_peaks]
        best_peak = min(peak_values) if problem.direction == "min" else max(peak_values)
        assert not is_better(sample_best, best_peak, problem.direction)
