"""Performance metrics computed over final populations.

``peak_ratio`` and ``avg_min_distance`` score populations against a list
of known optima. ``best_fitness`` and ``distinct_peaks`` need no optima
list and are the metrics used for objectives whose landscape is unknown;
``distinct_peaks`` can measure distances in min-max normalized coordinates
so that heterogeneous units (radians next to millimetres) do not dominate.
"""

from __future__ import annotations

import numpy as np

from .core import Population, is_better

__all__ = ["peak_ratio", "avg_min_distance", "best_fitness", "distinct_peaks"]


def _member_matrix(pop: Population) -> np.ndarray:
    """The population's own genome matrix; the metrics only read it."""
    if len(pop) == 0:
        raise ValueError("empty population")
    return pop.genome_matrix()


def peak_ratio(pop: Population, peaks, radius: float = 0.1) -> float:
    """Fraction of peaks with a population member within ``radius``."""
    peaks = [np.asarray(p, dtype=float) for p in peaks]
    if not peaks:
        raise ValueError("peak_ratio is undefined for an empty peak list")
    members = _member_matrix(pop)
    found = 0
    for peak in peaks:
        dists = np.sqrt(np.sum((members - peak) ** 2, axis=1))
        if np.min(dists) <= radius:
            found += 1
    return found / len(peaks)


def avg_min_distance(pop: Population, peaks) -> float:
    """Mean over peaks of the distance to the nearest population member."""
    peaks = [np.asarray(p, dtype=float) for p in peaks]
    if not peaks:
        raise ValueError("avg_min_distance is undefined for an empty peak list")
    members = _member_matrix(pop)
    total = 0.0
    for peak in peaks:
        dists = np.sqrt(np.sum((members - peak) ** 2, axis=1))
        total += float(np.min(dists))
    return total / len(peaks)


def best_fitness(pop: Population, direction: str) -> float:
    """Extremal fitness in the population under the given direction."""
    return float(pop.best(direction).fitness)


def distinct_peaks(
    pop: Population,
    fitness_threshold: float = 1e-4,
    radius: float = 0.1,
    direction: str = "min",
    bounds: np.ndarray | None = None,
) -> int:
    """Count members that qualify as distinct peaks.

    A member counts iff its fitness is on the good side of
    ``fitness_threshold`` (below it when minimizing, above it when
    maximizing) and it lies at distance >= ``radius`` from every member
    counted earlier in population order. When ``bounds`` is given,
    coordinates are min-max normalized to [0, 1] before measuring
    distances.
    """
    members = _member_matrix(pop)
    if bounds is not None:
        bounds = np.asarray(bounds, dtype=float)
        members = (members - bounds[:, 0]) / (bounds[:, 1] - bounds[:, 0])
    # free[i]: member i qualifies and lies at distance >= radius from every
    # member counted so far
    free = np.array([is_better(ind.fitness, fitness_threshold, direction) for ind in pop])
    counted = 0
    for idx in np.flatnonzero(free).tolist():
        if free[idx]:
            counted += 1
            free &= np.sqrt(np.sum((members - members[idx]) ** 2, axis=1)) >= radius
    return counted
