"""Performance metrics computed over final populations, as the two arrays
of a ``RunResult``: the ``(n, dim)`` genomes and the ``(n,)`` fitness.

``peak_ratio`` and ``avg_min_distance`` score the genomes against a list
of known optima. ``best_fitness`` and ``distinct_peaks`` need no optima
list and are the metrics used for objectives whose landscape is unknown;
``distinct_peaks`` can measure distances in min-max normalized coordinates
so that heterogeneous units (radians next to millimetres) do not dominate.
A peak or ``bounds`` of another width than the genomes', a ``bounds`` row
that is not finite with lo < hi, a ``fitness`` that is not one value per
genome row, a genome, peak or fitness value that is not finite, a ``radius``
that is not a positive real or a ``fitness_threshold`` that is not a real
(checked by ``core.check_real``: finite, and not a bool) raises ValueError.
"""

from __future__ import annotations

import numpy as np

from .core import check_direction, check_real, check_rows, leader_scan, row_distances

__all__ = ["peak_ratio", "avg_min_distance", "best_fitness", "distinct_peaks"]


def _population(values, name: str) -> np.ndarray:
    """``values`` as a float array: nonempty, and finite as ``stats`` samples are."""
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        raise ValueError("empty population")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")
    return values


def _radius(radius) -> float:
    radius = check_real("radius", radius)
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    return radius


def _nearest_distances(genomes, peaks, metric: str) -> list[float]:
    """Per peak, in peak order, the distance to the nearest genome row."""
    peaks = [np.asarray(p, dtype=float) for p in peaks]
    if not peaks:
        raise ValueError(f"{metric} is undefined for an empty peak list")
    genomes = _population(genomes, "genomes")
    if any(peak.shape != genomes.shape[1:] for peak in peaks):
        raise ValueError(f"{metric}: a peak is not as wide as the genomes {genomes.shape}")
    _population(peaks, "peaks")  # one row per peak, all as wide as the genomes
    return [float(row_distances(genomes, peak).min()) for peak in peaks]


def peak_ratio(genomes, peaks, radius: float = 0.1) -> float:
    """Fraction of peaks with a genome row within ``radius``."""
    radius = _radius(radius)
    nearest = _nearest_distances(genomes, peaks, "peak_ratio")
    return sum(d <= radius for d in nearest) / len(nearest)


def avg_min_distance(genomes, peaks) -> float:
    """Mean over peaks of the distance to the nearest genome row."""
    nearest = _nearest_distances(genomes, peaks, "avg_min_distance")
    total = 0.0
    for d in nearest:  # summed in peak order
        total += d
    return total / len(nearest)


def best_fitness(fitness, direction: str) -> float:
    """Extremal value of ``fitness`` under the given direction; the first of
    equal values, so ``[0.0, -0.0]`` gives ``0.0``."""
    fitness = _population(fitness, "fitness")
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
    members = _population(genomes, "genomes")
    fitness = np.asarray(fitness, dtype=float)
    check_rows(members, fitness)
    fitness = _population(fitness, "fitness")
    check_direction(direction)
    fitness_threshold = check_real("fitness_threshold", fitness_threshold)
    radius = _radius(radius)
    qualifies = fitness < fitness_threshold if direction == "min" else fitness > fitness_threshold
    if bounds is not None:
        bounds = np.asarray(bounds, dtype=float)
        if bounds.shape != (*members.shape[1:], 2):
            raise ValueError(f"bounds of shape {bounds.shape} for genomes {members.shape}")
        if not (np.isfinite(bounds).all() and (bounds[:, 0] < bounds[:, 1]).all()):
            raise ValueError(f"bounds rows must be finite with lo < hi, got {bounds.tolist()}")
        members = (members - bounds[:, 0]) / (bounds[:, 1] - bounds[:, 0])
    return len(leader_scan(members, np.flatnonzero(qualifies).tolist(), radius))
