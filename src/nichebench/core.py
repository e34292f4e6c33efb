"""Shared EA machinery: individuals, populations, evaluation budget, RNG
streams, distances, and the real-coded variation operators used by every
algorithm in this package.

All genomes are 1-d float ndarrays. Box bounds are given as a (dim, 2)
array of [lo, hi] rows and every operator clamps its output to them.
Termination is driven solely by :class:`EvalBudget`: each objective call
consumes exactly one evaluation and a run stops the moment the budget is
exhausted.

Draw exactness: every published result is a pure function of the run
seed, so the random requests made here are frozen. A change to an RNG
request (a cheaper call, a merged or split draw) is allowed only if it
consumes the same doubles from the stream, in the same order, and yields
bit-identical values; e.g. ``lo + (hi - lo) * gen.random(d)`` is what
``gen.uniform(lo, hi)`` computes. ``tests/test_fingerprint.py`` pins the
final populations and traces of all 42 (algorithm, problem) cells and
``tests/test_draw_equivalence.py`` checks each such rewrite against the
call it replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BudgetExhausted",
    "EvalBudget",
    "Individual",
    "Population",
    "RngStream",
    "as_stream",
    "is_better",
    "euclidean_distance",
    "clip_to_bounds",
    "random_genome",
    "evaluate",
    "binary_tournament",
    "blend_crossover",
    "gaussian_mutation",
    "de_trial_vector",
]


class BudgetExhausted(RuntimeError):
    """Raised when an evaluation is requested after the budget ran out."""


@dataclass
class EvalBudget:
    """Counts objective evaluations; the run clock of every algorithm."""

    max_evals: int
    used: int = 0

    def __post_init__(self):
        if self.max_evals < 0:
            raise ValueError("max_evals must be >= 0")

    @property
    def remaining(self) -> int:
        return self.max_evals - self.used

    @property
    def exhausted(self) -> bool:
        return self.used >= self.max_evals

    def spend(self) -> int:
        """Consume one evaluation and return its 1-based tick.

        Raises :class:`BudgetExhausted` before anything is consumed, so no
        objective call can ever happen past ``max_evals``.
        """
        if self.used >= self.max_evals:
            raise BudgetExhausted(f"evaluation budget of {self.max_evals} exhausted")
        self.used += 1
        return self.used


@dataclass
class Individual:
    """A real-valued genome with its cached objective value.

    ``fitness`` is None until the individual has been evaluated; unevaluated
    individuals must never be compared by fitness.
    """

    genome: np.ndarray
    fitness: float | None = None
    eval_index: int | None = None

    @property
    def evaluated(self) -> bool:
        return self.fitness is not None

    def copy(self) -> "Individual":
        return Individual(self.genome.copy(), self.fitness, self.eval_index)


class Population:
    """Ordered, fixed-capacity list of individuals.

    The ``(n, dim)`` matrix of member genomes is built on first use and
    kept in sync by ``pop[i] = ind``, so the survivor-selection steps do
    not re-stack the genomes on every call. Members' genomes are therefore
    treated as immutable while they sit in a population: replace a member
    instead of editing its genome in place.
    """

    def __init__(self, members, capacity: int | None = None):
        self.members: list[Individual] = list(members)
        self.capacity = len(self.members) if capacity is None else int(capacity)
        if self.capacity <= 0:
            raise ValueError("population capacity must be positive")
        self._matrix: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> Individual:
        return self.members[i]

    def __setitem__(self, i: int, ind: Individual) -> None:
        self.members[i] = ind
        if self._matrix is not None:
            self._matrix[i] = ind.genome

    def genome_matrix(self) -> np.ndarray:
        """The population's own (n, dim) genome matrix; read it, never write it."""
        if self._matrix is None:
            self._matrix = np.array([m.genome for m in self.members])
        return self._matrix

    def genomes(self) -> np.ndarray:
        """Member genomes as an (n, dim) array owned by the caller."""
        return self.genome_matrix().copy()

    def fitnesses(self) -> np.ndarray:
        """Fitness vector; raises if any member is unevaluated."""
        values = [m.fitness for m in self.members]
        if any(v is None for v in values):
            raise ValueError("population contains unevaluated individuals")
        return np.asarray(values, dtype=float)

    def best(self, direction: str) -> Individual:
        """Best evaluated member under the given direction."""
        evaluated = [m for m in self.members if m.evaluated]
        if not evaluated:
            raise ValueError("no evaluated individuals in population")
        best = evaluated[0]
        for m in evaluated[1:]:
            if is_better(m.fitness, best.fitness, direction):
                best = m
        return best


class RngStream:
    """Deterministic random stream: identical seeds give identical draws."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.gen = np.random.default_rng(self.seed)


def as_stream(rng) -> RngStream:
    """Coerce an int seed or RngStream into an RngStream."""
    if isinstance(rng, RngStream):
        return rng
    return RngStream(int(rng))


def is_better(a: float, b: float, direction: str) -> bool:
    """True iff fitness ``a`` is strictly better than ``b``."""
    if direction == "max":
        return a > b
    if direction == "min":
        return a < b
    raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


def clip_to_bounds(genome: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    # same values as np.clip (signed zeros and NaN included), at half the cost
    return np.minimum(np.maximum(genome, bounds[:, 0]), bounds[:, 1])


def random_genome(rng: RngStream, bounds: np.ndarray) -> np.ndarray:
    lo = bounds[:, 0]
    # gen.uniform(lo, hi) computes exactly lo + (hi - lo) * next_double
    return lo + (bounds[:, 1] - lo) * rng.gen.random(lo.shape[0])


def evaluate(ind: Individual, problem, budget: EvalBudget) -> Individual:
    """Evaluate ``ind`` in place, spending one budget tick.

    Raises :class:`BudgetExhausted` (without touching the individual) when
    the budget is used up, and ValueError if the objective returns a
    non-finite value.
    """
    tick = budget.spend()
    value = float(problem.objective(ind.genome))
    if not math.isfinite(value):
        raise ValueError(f"objective returned non-finite value {value!r} at {ind.genome!r}")
    ind.fitness = value
    ind.eval_index = tick
    return ind


def binary_tournament(pop: Population, rng: RngStream, direction: str) -> Individual:
    """Draw two members uniformly (with replacement), return the better.

    Ties keep the first drawn member, which makes the outcome a pure
    function of the RNG state.
    """
    if len(pop) == 0:
        raise ValueError("cannot run a tournament on an empty population")
    i = int(rng.gen.integers(len(pop)))
    j = int(rng.gen.integers(len(pop)))
    first, second = pop[i], pop[j]
    if is_better(second.fitness, first.fitness, direction):
        return second
    return first


def blend_crossover(
    p1: np.ndarray,
    p2: np.ndarray,
    rng: RngStream,
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
    # two gen.uniform(lo, hi) calls: c1's doubles, then c2's, each child
    # lo + (hi - lo) * next_double
    children = clip_to_bounds(lo + (hi - lo) * rng.gen.random((2, p1.shape[0])), bounds)
    return children[0], children[1]


def gaussian_mutation(
    genome: np.ndarray,
    rng: RngStream,
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
    mask = rng.gen.random(out.shape[0]) < rate
    if mask.any():
        scale = sigma * (bounds[mask, 1] - bounds[mask, 0])
        # gen.normal(0.0, scale) is 0.0 + scale * standard_normal; the 0.0
        # turns a -0.0 step into +0.0
        out[mask] += 0.0 + scale * rng.gen.standard_normal(scale.shape[0])
    return clip_to_bounds(out, bounds)


def de_trial_vector(
    target_idx: int,
    pop: Population,
    F: float,
    CR: float,
    rng: RngStream,
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
        positions = rng.gen.choice(len(pop) - 1, size=3, replace=False).tolist()
        # range(n) without the target: position p is p, or p + 1 from the target on
        a, b, c = [p + (p >= target_idx) for p in positions]
    else:
        candidates = [i for i in donor_pool if i != target_idx]
        if len(candidates) < 3:
            raise ValueError("DE needs at least 4 individuals in the donor pool (incl. target)")
        positions = rng.gen.choice(len(candidates), size=3, replace=False).tolist()
        a, b, c = [candidates[p] for p in positions]
    genomes = pop.genome_matrix()
    mutant = genomes[a] + F * (genomes[b] - genomes[c])
    target = genomes[target_idx]
    dim = target.shape[0]
    cross = rng.gen.random(dim) < CR
    cross[int(rng.gen.integers(dim))] = True
    trial = np.where(cross, mutant, target)
    return clip_to_bounds(trial, bounds)
