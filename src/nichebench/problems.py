"""Benchmark objective functions with box bounds and known optima.

The five classic multimodal benchmarks used by the harness. Each factory
returns an immutable :class:`BoundedProblem`; ``known_peaks`` lists every
local optimum inside the box (polished to near machine precision with an
offline multi-start Newton solve) so that peak-based metrics can score
final populations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import check_bounds, check_direction

__all__ = [
    "BoundedProblem",
    "deb1",
    "himmelblau",
    "six_hump_camel",
    "branin",
    "rosenbrock",
    "PROBLEM_FACTORIES",
]


@dataclass(frozen=True, eq=False)
class BoundedProblem:
    """A box-bounded objective with optimization direction and known optima.
    It holds arrays, so it is equal to and hashed as itself alone."""

    name: str
    bounds: np.ndarray  # shape (dimension, 2), rows [lo, hi]
    direction: str  # "min" | "max"
    objective: Callable[[np.ndarray], float]
    known_peaks: tuple = ()

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    def __post_init__(self):
        bounds = check_bounds(self.bounds)
        check_direction(self.direction)
        object.__setattr__(self, "bounds", bounds)
        peaks = tuple(np.asarray(p, dtype=float) for p in self.known_peaks)
        for p in peaks:
            if p.shape != (self.dimension,):
                raise ValueError("known peak with wrong dimension")
            # written so that a NaN coordinate fails too
            if not (np.all(p >= bounds[:, 0]) and np.all(p <= bounds[:, 1])):
                raise ValueError(f"known peak {p} outside bounds")
        object.__setattr__(self, "known_peaks", peaks)


def _deb1_objective(x: np.ndarray) -> float:
    return float(np.sin(5.0 * np.pi * x[0]) ** 6)


def _himmelblau_objective(x: np.ndarray) -> float:
    x1, x2 = float(x[0]), float(x[1])
    return (x1 * x1 + x2 - 11.0) ** 2 + (x1 + x2 * x2 - 7.0) ** 2


def _six_hump_objective(x: np.ndarray) -> float:
    x1, x2 = float(x[0]), float(x[1])
    return (
        (4.0 - 2.1 * x1 * x1 + x1 ** 4 / 3.0) * x1 * x1
        + x1 * x2
        + (-4.0 + 4.0 * x2 * x2) * x2 * x2
    )


_BRANIN_B = 5.1 / (4.0 * np.pi ** 2)
_BRANIN_C = 5.0 / np.pi
_BRANIN_S = 10.0
_BRANIN_T = 1.0 / (8.0 * np.pi)


def _branin_objective(x: np.ndarray) -> float:
    x1, x2 = float(x[0]), float(x[1])
    return (
        (x2 - _BRANIN_B * x1 * x1 + _BRANIN_C * x1 - 6.0) ** 2
        + _BRANIN_S * (1.0 - _BRANIN_T) * np.cos(x1)
        + _BRANIN_S
    )


def _rosenbrock_objective(x: np.ndarray) -> float:
    x1, x2 = float(x[0]), float(x[1])
    return (1.0 - x1) ** 2 + 100.0 * (x2 - x1 * x1) ** 2


def deb1() -> BoundedProblem:
    """f(x) = sin^6(5 pi x) on [0, 1], maximized; five evenly spaced peaks."""
    return BoundedProblem(
        name="deb1",
        bounds=np.array([[0.0, 1.0]]),
        direction="max",
        objective=_deb1_objective,
        known_peaks=([0.1], [0.3], [0.5], [0.7], [0.9]),
    )


def himmelblau() -> BoundedProblem:
    """(x^2+y-11)^2 + (x+y^2-7)^2 on [-6, 6]^2; four global minima at zero."""
    return BoundedProblem(
        name="himmelblau",
        bounds=np.array([[-6.0, 6.0], [-6.0, 6.0]]),
        direction="min",
        objective=_himmelblau_objective,
        known_peaks=(
            [3.0, 2.0],
            [-2.8051180869527449, 3.1313125182505730],
            [-3.7793102533777469, -3.2831859912861694],
            [3.5844283403304917, -1.8481265269644036],
        ),
    )


def six_hump_camel() -> BoundedProblem:
    """Six-hump camel back on [-1.9, 1.9] x [-1.1, 1.1], minimized.

    The box contains six local minima, two of them global
    (f = -1.031628... at (+-0.08984, -+0.71266)).
    """
    return BoundedProblem(
        name="six_hump_camel",
        bounds=np.array([[-1.9, 1.9], [-1.1, 1.1]]),
        direction="min",
        objective=_six_hump_objective,
        known_peaks=(
            [0.089842013100318062, -0.71265640302073963],
            [-0.089842013100318062, 0.71265640302073963],
            [1.7036067149699809, -0.79608356867262512],
            [-1.7036067149699809, 0.79608356867262512],
            [1.6071047529201974, 0.56865145488413135],
            [-1.6071047529201974, -0.56865145488413135],
        ),
    )


def branin() -> BoundedProblem:
    """Branin function on [-5, 10] x [0, 15]; three global minima.

    Stationary points satisfy sin(x) = 0 together with the parabola
    y = b x^2 - c x + 6, which puts the minima exactly at x = -pi, pi, 3 pi.
    """
    return BoundedProblem(
        name="branin",
        bounds=np.array([[-5.0, 10.0], [0.0, 15.0]]),
        direction="min",
        objective=_branin_objective,
        known_peaks=(
            [-np.pi, 12.275],
            [np.pi, 2.275],
            [3.0 * np.pi, 2.475],
        ),
    )


def rosenbrock() -> BoundedProblem:
    """(1-x)^2 + 100 (y-x^2)^2 on [-2, 2]^2; single optimum at (1, 1)."""
    return BoundedProblem(
        name="rosenbrock",
        bounds=np.array([[-2.0, 2.0], [-2.0, 2.0]]),
        direction="min",
        objective=_rosenbrock_objective,
        known_peaks=([1.0, 1.0],),
    )


PROBLEM_FACTORIES: dict[str, Callable[[], BoundedProblem]] = {
    "deb1": deb1,
    "himmelblau": himmelblau,
    "six_hump_camel": six_hump_camel,
    "branin": branin,
    "rosenbrock": rosenbrock,
}

