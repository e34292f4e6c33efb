"""Shared EA machinery: the evaluator that is the run clock, crowding's
member index over the run's population arrays, the real-coded variation
operators of every algorithm in this package, the row distances and
leader scan the metrics share, and the one owner of each input rule.
Nothing here draws: the operators do the arithmetic on values
``nichebench.draws`` drew, whose docstring states the draw order.

A population is an ``(n, d)`` float genome matrix with its ``(n,)``
fitness vector. Box bounds are given as a (dim, 2) array of [lo, hi]
rows and every operator clamps its output to them. An operator builds
one child, or a stacked batch of a generation's children. Termination is
driven solely by :class:`Evaluator`: each row evaluated, alone or in a
batch, consumes exactly one evaluation, and a run stops the moment the
budget is exhausted; no child is built once it is spent.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Evaluator",
    "Individual",
    "Population",
    "is_better",
    "check_direction",
    "check_integer",
    "check_real",
    "check_positive",
    "check_finite",
    "check_rows",
    "check_bounds",
    "clip_to_bounds",
    "row_distances",
    "leader_scan",
    "binary_tournament",
    "blend_crossover",
    "gaussian_mutation",
    "de_trial_vector",
]


@dataclass(slots=True)
class Individual:
    """A crowding member or challenger: a genome with its objective value.
    Neither field is changed afterwards."""

    genome: np.ndarray
    fitness: float


class Population:
    """The crowding walk's member index over the run's ``(n, d)`` genomes
    and ``(n,)`` fitness, held as given: neither copied nor converted.
    ``members[i]`` is row i as an :class:`Individual`, built from a copy so
    that no member's genome aliases a row. ``pop[i] = ind`` is the one
    write path: it replaces member i and writes row i of both arrays. A
    member is replaced, never edited in place (an edited genome would leave
    its row stale).
    """

    def __init__(self, genomes: np.ndarray, fitness: np.ndarray):
        self.genomes, self.fitness = genomes, fitness
        self.members: list[Individual] = [
            Individual(g, f) for g, f in zip(genomes.copy(), fitness.tolist())]

    def __setitem__(self, i: int, ind: Individual) -> None:
        self.members[i] = ind
        self.genomes[i] = ind.genome
        self.fitness[i] = ind.fitness


def is_better(a: float, b: float, direction: str) -> bool:
    """True iff fitness ``a`` is strictly better than ``b``; elementwise for arrays."""
    if direction == "max":
        return a > b
    if direction == "min":
        return a < b
    check_direction(direction)


def check_direction(direction: str) -> None:
    """Raise ValueError unless ``direction`` is 'min' or 'max'."""
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")


def check_integer(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer (a bool is not)."""
    _check_kind(name, value, numbers.Integral, "an integer")


def check_real(name: str, value, finite: bool = True) -> float:
    """``value`` as a float; ValueError unless a real (not a bool), finite if ``finite``."""
    _check_kind(name, value, numbers.Real, "a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if finite and not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def check_positive(name: str, value) -> float:
    """``value`` as a float; ValueError unless a finite real (:func:`check_real`) above 0."""
    value = check_real(name, value)
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_finite(name: str, values) -> np.ndarray:
    """``values`` as a float array; ValueError unless nonempty and finite."""
    values = np.asarray(values, dtype=float)
    if not values.size:
        raise ValueError(f"{name} must be nonempty")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")
    return values


def check_rows(genomes: np.ndarray, fitness: np.ndarray | None = None, width: int | None = None,
               prefix: str = "", nonempty: bool = True) -> None:
    """Raise ValueError unless ``genomes`` is an ``(n, d)`` matrix, n >= 1
    if ``nonempty``, d == ``width`` if given, and ``fitness``, if given,
    holds one value per row. ``prefix`` names the pair, as in ``seed_``."""
    if genomes.ndim != 2 or width not in (None, genomes.shape[1]):
        raise ValueError(f"{prefix}genomes must be an (n, {width or 'd'}) matrix, "
                         f"got shape {genomes.shape}")
    if nonempty and not len(genomes):
        raise ValueError(f"{prefix}genomes must be nonempty")
    if fitness is not None and fitness.shape != (len(genomes),):
        raise ValueError(f"{prefix}fitness of shape {fitness.shape} for {prefix}genomes "
                         f"{genomes.shape}")


def check_bounds(bounds, dim: int | None = None) -> np.ndarray:
    """``bounds`` as floats; ValueError unless ``(dim, 2)`` finite rows with lo < hi."""
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2 or dim not in (None, len(bounds)) or not len(bounds):
        raise ValueError(f"bounds must have shape ({dim or 'dimension'}, 2), got {bounds.shape}")
    if not (np.isfinite(bounds).all() and (bounds[:, 0] < bounds[:, 1]).all()):
        raise ValueError(f"bounds rows must be finite with lo < hi, got {bounds.tolist()}")
    return bounds


def _check_kind(name: str, value, kind, noun: str) -> None:
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {noun}, got {value!r}")


def clip_to_bounds(genome: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    # same values as np.clip (signed zeros and NaN included), at half the cost
    return np.minimum(np.maximum(genome, bounds[:, 0]), bounds[:, 1])


def row_distances(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Euclidean distances between ``points`` and ``rows`` (``(..., d)``
    arrays, broadcast against each other), summed over the last axis.

    The bits are those of ``np.sqrt(((points - rows) ** 2).sum(axis=-1))``.
    A block (a broadcast of 3 or more dimensions, e.g. ``(m, 1, d)``
    points against ``(n, d)`` rows) with 1 <= d < 16 gets them without the
    ``(..., d)`` temporary: from one plane of squares per coordinate,
    added in the order NumPy's pairwise sum adds a short contiguous axis
    (:func:`_square_sum`), once a first-use probe has found that order in
    this NumPy (:func:`_sum_order_probe`, run once per process). Vectors,
    d >= 16 and a failed probe take ``.sum``.
    """
    d = points.shape[-1]
    if ((points.ndim >= 3 or rows.ndim >= 3) and 1 <= d < 16 and rows.shape[-1] == d
            and _sum_order_probe()):
        return np.sqrt(_square_sum(points, rows, d))
    return np.sqrt(((points - rows) ** 2).sum(axis=-1))


def _square_sum(points: np.ndarray, rows: np.ndarray, d: int) -> np.ndarray:
    """``((points - rows) ** 2).sum(axis=-1)`` for d < 16, plane by plane:
    in order below 8 terms; from 8 terms, the first eight as
    ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)), then the rest in order."""
    planes = []
    for j in range(d):
        x = points[..., j] - rows[..., j]
        planes.append(np.multiply(x, x, out=x))
    if d >= 8:
        s0, s1, s2, s3, s4, s5, s6, s7 = planes[:8]
        planes[:8] = [((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))]
    total = planes[0]
    for plane in planes[1:]:
        total += plane
    return total


@functools.cache
def _sum_order_probe() -> bool:
    """Whether :func:`_square_sum` gives the bits of ``.sum(axis=-1)`` on
    small blocks for every d from 1 to 15: magnitudes from 1e-3 to 1e3,
    exact zeros, signed zeros and a row equal to a point. Cached: the first
    block of a process runs it, never the import."""
    for d in range(1, 16):
        k = np.arange(9 * d, dtype=float)
        values = np.sin(k * 12.9898) * 10.0 ** (k % 7 - 3)
        values[::5] = 0.0
        values[1::11] = -0.0
        points, rows = values[:4 * d].reshape(4, 1, d), values[4 * d:].reshape(5, d)
        rows[0] = points[1, 0]
        want = ((points - rows) ** 2).sum(axis=-1)
        if _square_sum(points, rows, d).tobytes() != want.tobytes():
            return False
    return True


def leader_scan(rows: np.ndarray, order, radius: float) -> list[int]:
    """Greedy leader scan: visit the row indices of ``order`` in turn and
    take a row iff it lies at distance >= ``radius`` from every row taken
    so far. Returns the taken indices in the order they were taken."""
    free = np.ones(len(rows), dtype=bool)
    taken = []
    for i in order:
        if free[i]:
            taken.append(i)
            free &= row_distances(rows, rows[i]) >= radius
    return taken


class Evaluator:
    """The run clock: returns the objective values of genomes until
    ``max_evals`` evaluations, one per genome, are spent, keeping the best
    fitness so far and the trace of (evaluations used, best fitness)
    checkpoints. The problem's direction must be 'min' or 'max'
    (ValueError otherwise).

    An objective with a ``many(rows) -> (m,) values`` method, whose
    values are the same bits as one call per row, is called once per
    batch by :meth:`many`; any other objective is called row by row."""

    def __init__(self, problem, max_evals: int):
        check_integer("max_evals", max_evals)
        if max_evals < 0:
            raise ValueError("max_evals must be >= 0")
        self.max_evals = int(max_evals)
        self.objective = problem.objective
        self._batch = getattr(self.objective, "many", None)
        check_direction(problem.direction)
        self._maximize = problem.direction == "max"
        self.used = 0
        self.best: float | None = None
        self.trace: list[tuple[int, float]] = []

    @property
    def exhausted(self) -> bool:
        return self.used >= self.max_evals

    def __call__(self, genome: np.ndarray) -> float:
        """The objective value of ``genome``.

        Raises RuntimeError, without calling the objective, once the budget
        is used up (callers check :attr:`exhausted` first), and ValueError
        if the objective returns a non-finite value.
        """
        if self.used >= self.max_evals:
            raise RuntimeError(f"evaluation budget of {self.max_evals} is used up")
        return self._record(genome, float(self.objective(genome)))

    def many(self, genomes) -> np.ndarray:
        """The ``(m,)`` objective values of the ``m`` rows of ``genomes``, in
        order: the same values, count, best fitness and errors as one call
        per row. An empty batch calls nothing.

        Raises RuntimeError, before any objective call, if the rows exceed
        the evaluations left, and ValueError, before any is counted, if the
        objective's ``many`` returns other than shape ``(m,)``. On the first
        row with a non-finite value it raises that call's ValueError, with
        ``used`` and ``best`` as the calls up to that row leave them.
        """
        m = len(genomes)
        if m > self.max_evals - self.used:
            raise RuntimeError(f"{m} evaluations exceed the {self.max_evals - self.used} "
                               f"left of the budget of {self.max_evals}")
        if self._batch is None or not m:
            return np.array([self(genome) for genome in genomes], dtype=float)
        values = np.asarray(self._batch(genomes), dtype=float)
        if values.shape != (m,):
            raise ValueError(f"objective returned {values.size} values for {m} rows "
                             f"in shape {values.shape}, not ({m},)")
        return np.array([self._record(genome, value)
                         for genome, value in zip(genomes, values.tolist())])

    def _record(self, genome: np.ndarray, value: float) -> float:
        """The step every evaluated row takes, alone or in a batch: count
        the evaluation, reject a non-finite value and keep the best so far."""
        self.used += 1
        if not math.isfinite(value):
            raise ValueError(f"objective returned non-finite value {value!r} at {genome!r}")
        best = self.best
        if best is None or (value > best if self._maximize else value < best):
            self.best = value
        return value

    def checkpoint(self) -> None:
        """Record (evaluations used, best fitness) once anything is evaluated."""
        if self.best is not None:
            self.trace.append((self.used, self.best))


def binary_tournament(fitness: np.ndarray, first, second, direction: str):
    """The winner of a binary tournament between the pre-drawn candidates
    ``first`` and ``second``, indices of ``fitness``: ``second`` if its
    value is better under ``direction``, else ``first``, so a tie keeps
    the first drawn. The candidates are ints, giving an int, or equally
    shaped index arrays, giving the winners of as many tournaments.

    A GA pair's two tournaments are ``draws.ga_generation_draws``'
    candidates: ``(first, second)`` of the first parent, then of the second.
    """
    if len(fitness) == 0:
        raise ValueError("cannot run a tournament on an empty population")
    better = is_better(fitness[second], fitness[first], direction)
    if isinstance(better, np.ndarray):
        return np.where(better, second, first)
    return second if better else first


def blend_crossover(p1: np.ndarray, p2: np.ndarray, u: np.ndarray, bounds: np.ndarray,
                    alpha: float = 0.5) -> np.ndarray:
    """Blend (BLX-alpha) crossover of one parent pair, or of m pairs given
    as ``(m, d)`` parent rows.

    ``u`` holds each pair's ``rng.random((2, d))``: shape ``(2, d)``, or
    ``(m, 2, d)``, which is also the shape of the children returned. A
    child coordinate is uniform on [min - alpha*d, max + alpha*d] where
    d = |p1_i - p2_i|, then clamped to bounds. Equal parents yield
    identical children.
    """
    if p1.shape != p2.shape:
        raise ValueError("parent genomes must have equal length")
    d = np.abs(p1 - p2)
    lo = (np.minimum(p1, p2) - alpha * d)[..., None, :]
    hi = (np.maximum(p1, p2) + alpha * d)[..., None, :]
    # two rng.uniform(lo, hi) calls per pair, each lo + (hi - lo) * next_double
    return clip_to_bounds(lo + (hi - lo) * u, bounds)


def gaussian_mutation(genomes: np.ndarray, mask: np.ndarray, normals: np.ndarray,
                      bounds: np.ndarray, sigma: float) -> np.ndarray:
    """Perturb the coordinates where ``mask`` is True by a Gaussian whose
    standard deviation is ``sigma`` times that coordinate's range.

    ``genomes`` is one genome or an ``(m, d)`` batch with ``mask`` of its
    shape; ``normals`` holds the masked coordinates' standard normals in
    row order, i.e. the rows' ``draws.mutation_draws`` concatenated.
    """
    if not sigma > 0.0:  # written so that NaN fails too
        raise ValueError("mutation sigma must be positive")
    out = genomes.copy()
    hit = mask.nonzero()
    # rng.normal(0.0, scale) is 0.0 + scale * standard_normal; the 0.0
    # turns a -0.0 step into +0.0
    out[hit] += 0.0 + sigma * (bounds[hit[-1], 1] - bounds[hit[-1], 0]) * normals
    return clip_to_bounds(out, bounds)


def de_trial_vector(genomes: np.ndarray, targets, donors, cross: np.ndarray, F: float,
                    bounds: np.ndarray) -> np.ndarray:
    """DE/rand/1/bin trial vectors from the rows of ``genomes``: the
    mutant ``a + F * (b - c)`` where ``cross`` is True, the target row
    elsewhere, clamped to bounds.

    ``targets`` is one row index, with ``donors`` ``(a, b, c)`` and a
    ``(d,)`` ``cross``, or m indices, with ``donors`` a ``(3, m)`` array
    and an ``(m, d)`` ``cross``: the ``draws.de_draws`` of each target.
    """
    a, b, c = donors
    mutant = genomes[a] + F * (genomes[b] - genomes[c])
    return clip_to_bounds(np.where(cross, mutant, genomes[targets]), bounds)
