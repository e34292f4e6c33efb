"""Shared EA machinery: individuals, populations, the evaluator that is
the run clock, and the real-coded variation operators used by
every algorithm in this package.

All genomes are 1-d float ndarrays. Box bounds are given as a (dim, 2)
array of [lo, hi] rows and every operator clamps its output to them. The
operators do not draw: the requests are made child by child
(``rng.random((2, d))`` per BLX pair, :func:`mutation_draws`,
:func:`de_draws`) and an operator builds one child, or a stacked batch of
a generation's children, from the values drawn. Termination is driven
solely by :class:`Evaluator`: each objective call consumes exactly one
evaluation and a run stops the moment the budget is exhausted. The
evaluator is also where individuals come from: it returns each genome it
evaluates as an :class:`Individual`, so there is no unevaluated
individual, and none is changed after it is made. No child is built once
the budget is spent, and nothing is drawn for it.

Draw exactness: every published result is a pure function of the run
seed, so the random requests made here are frozen. A change to an RNG
request (a cheaper call, a merged or split draw) is allowed only if it
consumes the same doubles from the stream, in the same order, and yields
bit-identical values; e.g. ``lo + (hi - lo) * rng.random(d)`` is what
``rng.uniform(lo, hi)`` computes. ``tests/test_fingerprint.py`` pins the
final populations and traces of all 42 (algorithm, problem) cells and
``tests/test_draw_equivalence.py`` checks each such rewrite against the
call it replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Evaluator",
    "Individual",
    "Population",
    "is_better",
    "clip_to_bounds",
    "binary_tournament",
    "blend_crossover",
    "mutation_draws",
    "gaussian_mutation",
    "de_draws",
    "de_trial_vector",
]

_NO_NORMALS = np.empty(0)  # mutation_draws' normals when no coordinate mutates


@dataclass
class Individual:
    """A real-valued genome with its objective value.

    :class:`Evaluator` makes every individual of a run, so ``fitness`` is
    always set. Neither field is changed afterwards: the same object may
    sit in a population and in a list of species seeds at once.
    """

    genome: np.ndarray
    fitness: float


class Population:
    """Ordered list of evaluated individuals whose size never changes:
    algorithms replace members by index, they never add or remove one.

    The ``(n, dim)`` genome matrix and ``(n,)`` fitness vector of the
    members are built here and kept in sync by ``pop[i] = ind``; callers
    read them and never write them. Members are never edited in place (an
    edited genome would leave the matrix stale): a member is replaced.
    """

    def __init__(self, members):
        self.members: list[Individual] = list(members)
        self._matrix = np.array([m.genome for m in self.members])
        self._fitness = np.array([m.fitness for m in self.members], dtype=float)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> Individual:
        return self.members[i]

    def __setitem__(self, i: int, ind: Individual) -> None:
        self.members[i] = ind
        self._matrix[i] = ind.genome
        self._fitness[i] = ind.fitness

    def genome_matrix(self) -> np.ndarray:
        """The population's own (n, dim) genome matrix; read it, never write it."""
        return self._matrix

    def fitnesses(self) -> np.ndarray:
        """The population's own (n,) fitness vector; read it, never write it."""
        return self._fitness


def is_better(a: float, b: float, direction: str) -> bool:
    """True iff fitness ``a`` is strictly better than ``b``."""
    if direction == "max":
        return a > b
    if direction == "min":
        return a < b
    raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")


def clip_to_bounds(genome: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    # same values as np.clip (signed zeros and NaN included), at half the cost
    return np.minimum(np.maximum(genome, bounds[:, 0]), bounds[:, 1])


class Evaluator:
    """The run clock and the maker of individuals: turns genomes into
    evaluated :class:`Individual` objects until ``max_evals`` objective
    calls are spent, keeping the best fitness so far and the trace of
    (evaluations used, best fitness) checkpoints."""

    def __init__(self, problem, max_evals: int):
        self.max_evals = int(max_evals)
        if self.max_evals < 0:
            raise ValueError("max_evals must be >= 0")
        self.objective = problem.objective
        self.direction = problem.direction
        self.used = 0
        self.best: float | None = None
        self.trace: list[tuple[int, float]] = []

    @property
    def exhausted(self) -> bool:
        return self.used >= self.max_evals

    def __call__(self, genome: np.ndarray) -> Individual:
        """A new individual holding ``genome`` and its objective value.

        Raises RuntimeError, without calling the objective, once the budget
        is used up (callers check :attr:`exhausted` first), and ValueError
        if the objective returns a non-finite value.
        """
        if self.used >= self.max_evals:
            raise RuntimeError(f"evaluation budget of {self.max_evals} is used up")
        self.used += 1
        value = float(self.objective(genome))
        if not math.isfinite(value):
            raise ValueError(f"objective returned non-finite value {value!r} at {genome!r}")
        if self.best is None or is_better(value, self.best, self.direction):
            self.best = value
        return Individual(genome, value)

    def checkpoint(self) -> None:
        """Record (evaluations used, best fitness) once anything is evaluated."""
        if self.best is not None:
            self.trace.append((self.used, self.best))


def binary_tournament(fitness: np.ndarray, rng: np.random.Generator, direction: str) -> int:
    """Draw two indices of ``fitness`` uniformly (with replacement) and
    return the one whose value is better under ``direction``.

    Ties keep the first drawn index, which makes the outcome a pure
    function of the RNG state.
    """
    if len(fitness) == 0:
        raise ValueError("cannot run a tournament on an empty population")
    i = int(rng.integers(len(fitness)))
    j = int(rng.integers(len(fitness)))
    return j if is_better(fitness[j], fitness[i], direction) else i


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


def mutation_draws(rng: np.random.Generator, dim: int, rate: float):
    """One child's Gaussian mutation draws, in their frozen order: the
    mask ``rng.random(dim) < rate`` of the coordinates to perturb, then a
    standard normal for each of them (no request when there is none)."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("mutation rate must be in [0, 1]")
    mask = rng.random(dim) < rate
    k = np.count_nonzero(mask)
    return mask, (rng.standard_normal(k) if k else _NO_NORMALS)


def gaussian_mutation(genomes: np.ndarray, mask: np.ndarray, normals: np.ndarray,
                      bounds: np.ndarray, sigma: float) -> np.ndarray:
    """Perturb the coordinates where ``mask`` is True by a Gaussian whose
    standard deviation is ``sigma`` times that coordinate's range.

    ``genomes`` is one genome or an ``(m, d)`` batch with ``mask`` of its
    shape; ``normals`` holds the masked coordinates' standard normals in
    row order, i.e. the rows' :func:`mutation_draws` concatenated.
    """
    if sigma <= 0.0:
        raise ValueError("mutation sigma must be positive")
    if not normals.size:
        return clip_to_bounds(genomes, bounds)
    out = genomes.copy()
    hit = mask.nonzero()
    # rng.normal(0.0, scale) is 0.0 + scale * standard_normal; the 0.0
    # turns a -0.0 step into +0.0
    out[hit] += 0.0 + sigma * (bounds[hit[-1], 1] - bounds[hit[-1], 0]) * normals
    return clip_to_bounds(out, bounds)


def de_draws(rng: np.random.Generator, n: int, target: int, dim: int, CR: float,
             donor_pool: list[int] | None = None):
    """One DE/rand/1/bin trial's draws, in their frozen order: donors
    ``(a, b, c)``, distinct and drawn without replacement from
    ``donor_pool`` (default: all ``n`` members) less the target, then the
    binomial crossover mask ``rng.random(dim) < CR`` with one coordinate
    forced, so the trial keeps at least one mutant coordinate."""
    # choice() draws positions from the pool's size alone; a position is
    # mapped to a member index here instead of by indexing a pool array
    pool = None if donor_pool is None else [i for i in donor_pool if i != target]
    size = n - 1 if pool is None else len(pool)
    if size < 3:
        raise ValueError("DE needs at least 4 individuals in the donor pool (incl. target)")
    positions = rng.choice(size, size=3, replace=False).tolist()
    cross = rng.random(dim) < CR
    cross[int(rng.integers(dim))] = True
    # range(n) less the target: position p is member p, or p + 1 from the target on
    donors = [p + (p >= target) if pool is None else pool[p] for p in positions]
    return donors, cross


def de_trial_vector(genomes: np.ndarray, targets, donors, cross: np.ndarray, F: float,
                    bounds: np.ndarray) -> np.ndarray:
    """DE/rand/1/bin trial vectors from the rows of ``genomes``: the
    mutant ``a + F * (b - c)`` where ``cross`` is True, the target row
    elsewhere, clamped to bounds.

    ``targets`` is one row index, with ``donors`` ``(a, b, c)`` and a
    ``(d,)`` ``cross``, or m indices, with ``donors`` a ``(3, m)`` array
    and an ``(m, d)`` ``cross``: the :func:`de_draws` of each target.
    """
    a, b, c = donors
    mutant = genomes[a] + F * (genomes[b] - genomes[c])
    return clip_to_bounds(np.where(cross, mutant, genomes[targets]), bounds)
