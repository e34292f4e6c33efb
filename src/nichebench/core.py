"""Shared EA machinery: individuals, populations, the evaluator that is
the run clock, and the real-coded variation operators used by
every algorithm in this package.

All genomes are 1-d float ndarrays. Box bounds are given as a (dim, 2)
array of [lo, hi] rows and every operator clamps its output to them.
Operators draw from a ``np.random.Generator``. Termination is driven
solely by :class:`Evaluator`: each objective call consumes exactly one
evaluation and a run stops the moment the budget is exhausted. The
evaluator is also where individuals come from: it returns each genome it
evaluates as an :class:`Individual`, so there is no unevaluated
individual, and none is changed after it is made. No child is built once
the budget is spent, so no operator draws for a child that could never
be evaluated.

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
    "gaussian_mutation",
    "de_trial_vector",
]


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


def blend_crossover(
    p1: np.ndarray,
    p2: np.ndarray,
    rng: np.random.Generator,
    bounds: np.ndarray,
    alpha: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Blend (BLX-alpha) crossover.

    Each child coordinate is uniform on [min - alpha*d, max + alpha*d]
    where d = |p1_i - p2_i|, then clamped to bounds. Equal parents yield
    identical children.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        raise ValueError("parent genomes must have equal length")
    d = np.abs(p1 - p2)
    lo = np.minimum(p1, p2) - alpha * d
    hi = np.maximum(p1, p2) + alpha * d
    # two rng.uniform(lo, hi) calls: c1's doubles, then c2's, each child
    # lo + (hi - lo) * next_double
    children = clip_to_bounds(lo + (hi - lo) * rng.random((2, p1.shape[0])), bounds)
    return children[0], children[1]


def gaussian_mutation(
    genome: np.ndarray,
    rng: np.random.Generator,
    bounds: np.ndarray,
    rate: float,
    sigma: float,
) -> np.ndarray:
    """Perturb each coordinate with probability ``rate`` by a Gaussian whose
    standard deviation is ``sigma`` times that coordinate's range."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("mutation rate must be in [0, 1]")
    if sigma <= 0.0:
        raise ValueError("mutation sigma must be positive")
    out = np.array(genome, dtype=float)
    mask = rng.random(out.shape[0]) < rate
    if mask.any():
        scale = sigma * (bounds[mask, 1] - bounds[mask, 0])
        # rng.normal(0.0, scale) is 0.0 + scale * standard_normal; the 0.0
        # turns a -0.0 step into +0.0
        out[mask] += 0.0 + scale * rng.standard_normal(scale.shape[0])
    return clip_to_bounds(out, bounds)


def de_trial_vector(
    target_idx: int,
    pop: Population,
    F: float,
    CR: float,
    rng: np.random.Generator,
    bounds: np.ndarray,
    donor_pool: list[int] | None = None,
) -> np.ndarray:
    """DE/rand/1/bin trial vector for the given target.

    Donors a, b, c are drawn without replacement from ``donor_pool``
    (defaults to the whole population), excluding the target. Binomial
    crossover keeps at least one mutant coordinate.
    """
    # choice() draws positions from the pool's size alone; a position is
    # mapped to a member index here instead of by indexing a pool array
    if donor_pool is None:
        if len(pop) < 4:
            raise ValueError("DE needs at least 4 individuals in the donor pool (incl. target)")
        positions = rng.choice(len(pop) - 1, size=3, replace=False).tolist()
        # range(n) without the target: position p is p, or p + 1 from the target on
        a, b, c = [p + (p >= target_idx) for p in positions]
    else:
        candidates = [i for i in donor_pool if i != target_idx]
        if len(candidates) < 3:
            raise ValueError("DE needs at least 4 individuals in the donor pool (incl. target)")
        positions = rng.choice(len(candidates), size=3, replace=False).tolist()
        a, b, c = [candidates[p] for p in positions]
    genomes = pop.genome_matrix()
    mutant = genomes[a] + F * (genomes[b] - genomes[c])
    target = genomes[target_idx]
    dim = target.shape[0]
    cross = rng.random(dim) < CR
    cross[int(rng.integers(dim))] = True
    trial = np.where(cross, mutant, target)
    return clip_to_bounds(trial, bounds)
