"""Performance metrics computed over final populations, as the two arrays
of a ``RunResult``: the ``(n, dim)`` genomes and the ``(n,)`` fitness.

``peak_ratio`` and ``avg_min_distance`` score the genomes against a list
of known optima. ``best_fitness`` and ``distinct_peaks`` need no optima
list and are the metrics used for objectives whose landscape is unknown;
``distinct_peaks`` can measure distances in min-max normalized coordinates
so that heterogeneous units (radians next to millimetres) do not dominate.
Genomes are an ``(n, d)`` matrix (a 1-D or 3-D array is rejected), peaks a
``(k, d)`` matrix and fitness one value per row, all nonempty and finite;
``bounds`` is a ``(d, 2)`` box, ``radius`` a positive real and ``fitness_threshold``
a real; else ``core``'s checks raise ValueError before any distance.
"""

from __future__ import annotations

import numpy as np

from .core import (check_bounds, check_direction, check_finite, check_positive, check_real,
                   check_rows, leader_scan, row_distances)

__all__ = ["peak_ratio", "avg_min_distance", "best_fitness", "distinct_peaks"]


def _nearest_distances(genomes, peaks) -> list[float]:
    """Per peak, in peak order, the distance to the nearest genome row."""
    genomes = check_finite("genomes", genomes)
    check_rows(genomes)
    peaks = check_finite("peaks", peaks)
    check_rows(peaks, width=genomes.shape[1], prefix="peak_")
    return [float(row_distances(genomes, peak).min()) for peak in peaks]


def peak_ratio(genomes, peaks, radius: float = 0.1) -> float:
    """Fraction of peaks with a genome row within ``radius``."""
    radius = check_positive("radius", radius)
    nearest = _nearest_distances(genomes, peaks)
    return sum(d <= radius for d in nearest) / len(nearest)


def avg_min_distance(genomes, peaks) -> float:
    """Mean over peaks of the distance to the nearest genome row."""
    nearest = _nearest_distances(genomes, peaks)
    total = 0.0
    for d in nearest:  # summed in peak order
        total += d
    return total / len(nearest)


def best_fitness(fitness, direction: str) -> float:
    """Extremal value of ``fitness`` under the given direction; the first of
    equal values, so ``[0.0, -0.0]`` gives ``0.0``."""
    fitness = check_finite("fitness", fitness)
    check_direction(direction)
    return float(fitness[fitness.argmin() if direction == "min" else fitness.argmax()])


def distinct_peaks(
    genomes,
    fitness,
    fitness_threshold: float = 1e-4,
    radius: float = 0.1,
    direction: str = "min",
    bounds: np.ndarray | None = None,
) -> int:
    """Count members that qualify as distinct peaks.

    Member ``i`` is row ``i`` of ``genomes`` with value ``fitness[i]``. It
    counts iff its fitness is on the good side of ``fitness_threshold``
    (below it when minimizing, above it when maximizing) and it lies at
    distance >= ``radius`` from every member counted earlier in row order.
    When ``bounds`` is given, coordinates are min-max normalized to [0, 1]
    before measuring distances.
    """
    members = check_finite("genomes", genomes)
    fitness = np.asarray(fitness, dtype=float)
    check_rows(members, fitness)
    fitness = check_finite("fitness", fitness)
    check_direction(direction)
    fitness_threshold = check_real("fitness_threshold", fitness_threshold)
    radius = check_positive("radius", radius)
    qualifies = fitness < fitness_threshold if direction == "min" else fitness > fitness_threshold
    if bounds is not None:
        bounds = check_bounds(bounds, members.shape[1])
        members = (members - bounds[:, 0]) / (bounds[:, 1] - bounds[:, 0])
    return len(leader_scan(members, np.flatnonzero(qualifies).tolist(), radius))
