"""Niching algorithms: preselection, crowding (GA and DE), fitness
sharing (GA and DE), species conservation, and species-partitioned DE.

Every algorithm has the signature ``(problem, config, budget, rng) ->
RunResult`` and terminates exactly when the evaluation budget runs out,
returning the partially updated population if that happens mid-generation.
:func:`check_run` rejects, before anything is drawn, a run that could not
start: an invalid config, a population below the algorithm's minimum, or
a budget below the population size. So every member of every population
is evaluated.
Children come from two streams, ``_RunState.ga_children`` (BLX crossover,
Gaussian mutation) and ``_RunState.de_children`` (DE/rand/1/bin trials),
the only code that builds, evaluates and budget-checks a child: no child
is built once the budget is spent.
``budget`` is the number of objective evaluations (an int) and ``rng`` an
int seed or a ``np.random.Generator``, which is used as is.

Replacement rules are uniformly strict: an incumbent is only displaced by
a strictly better challenger, so equal-fitness duplicates never drift.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .core import (
    Evaluator,
    Individual,
    Population,
    binary_tournament,
    blend_crossover,
    de_trial_vector,
    gaussian_mutation,
    is_better,
)

__all__ = [
    "AlgorithmConfig",
    "RunResult",
    "preselection_ga",
    "crowding_ga",
    "crowding_de",
    "sharing_ga",
    "sharing_de",
    "scga",
    "sde",
    "crowding_replacement",
    "determine_species_seeds",
    "conserve_species_seeds",
    "ALGORITHMS",
    "MIN_POPULATION",
    "check_run",
    "get_algorithm",
]

logger = logging.getLogger(__name__)

# added to transformed fitness scores so the sharing quotient stays positive
_SHARING_EPS = 1e-12

# smallest population_size per algorithm where AlgorithmConfig's 2 is too few:
# DE/rand/1/bin draws three donors besides the target. check_run reads it.
MIN_POPULATION = {"crowding_de": 4, "sharing_de": 4, "sde": 4}


@dataclass
class AlgorithmConfig:
    """Parameters shared by all algorithms; unused fields are ignored.

    ``crowding_factor`` and ``mutation_rate`` default to the population
    size and 1/dimension when left as None. :meth:`validate` checks each
    field's type against its annotation (bools are not numbers), then its range.
    """

    population_size: int = 50
    crowding_factor: int | None = None
    species_distance: float = 1000.0
    sharing_radius: float = 1000.0
    sharing_alpha: float = 1.0
    de_F: float = 0.5
    de_CR: float = 0.9
    blend_alpha: float = 0.5
    mutation_rate: float | None = None
    mutation_sigma: float = 0.1

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and "None" in f.type:
                continue
            kind, noun = ((numbers.Integral, "an integer") if f.type.startswith("int")
                          else (numbers.Real, "a number"))
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{f.name} must be {noun}, got {value!r}")
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.crowding_factor is not None and not 1 <= self.crowding_factor <= self.population_size:
            raise ValueError("crowding_factor must be in [1, population_size]")
        for name in ("species_distance", "sharing_radius", "sharing_alpha", "mutation_sigma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("de_CR", "mutation_rate"):
            if getattr(self, name) is not None and not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be a probability")

    def effective_crowding_factor(self) -> int:
        return self.population_size if self.crowding_factor is None else self.crowding_factor

    def effective_mutation_rate(self, dimension: int) -> float:
        return 1.0 / dimension if self.mutation_rate is None else self.mutation_rate


def check_run(name: str, config: AlgorithmConfig, budget) -> None:
    """Raise ValueError unless algorithm ``name`` can run ``config`` on
    ``budget`` evaluations: the config is valid, the population meets the
    algorithm's minimum, and the budget covers the initial population.
    Each run and ``ExperimentSpec.validate`` call it before anything else."""
    config.validate()
    if config.population_size < MIN_POPULATION.get(name, 0):
        raise ValueError(f"population_size must be at least {MIN_POPULATION[name]}")
    if budget < config.population_size:
        raise ValueError(f"a budget of {budget} evaluations does not cover the initial "
                         f"population of {config.population_size}")


@dataclass
class RunResult:
    """Final population plus the budget spent and the convergence trace.

    ``trace`` holds (evaluation count, best fitness so far) checkpoints,
    one after initialization and one per generation.
    """

    final_population: Population
    evals_used: int
    trace: list[tuple[int, float]] = field(default_factory=list)


class _RunState:
    """Per-run bookkeeping: the evaluator, the RNG, and the two child
    streams, the only code that builds, evaluates and budget-checks a
    child. ``config`` None means the default :class:`AlgorithmConfig`."""

    def __init__(self, name: str, problem, config: AlgorithmConfig | None, budget, rng):
        config = config or AlgorithmConfig()
        check_run(name, config, budget)
        self.config = config
        self.evaluate = Evaluator(problem, budget)
        self.rng = np.random.default_rng(rng)
        self.direction = problem.direction
        self.bounds = problem.bounds
        self.mutation_rate = config.effective_mutation_rate(problem.dimension)

    def init_population(self) -> Population:
        """``population_size`` uniform random members, evaluated in order;
        check_run has made sure the budget covers them all."""
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        # one request for the doubles of population_size rng.uniform(lo, hi)
        # calls, in the same order: row i is what the i-th call would return
        genomes = lo + (hi - lo) * self.rng.random((self.config.population_size, lo.shape[0]))
        pop = Population([self.evaluate(genome) for genome in genomes])
        self.evaluate.checkpoint()
        return pop

    def ga_children(self, p1: Individual, p2: Individual):
        """Evaluated BLX/mutation children of ``p1`` and ``p2``; stops once the
        budget is spent, before mutating a child it could not evaluate."""
        cfg = self.config
        for genome in blend_crossover(p1.genome, p2.genome, self.rng, self.bounds, cfg.blend_alpha):
            if self.evaluate.exhausted:
                return
            yield self.evaluate(gaussian_mutation(genome, self.rng, self.bounds,
                                                  self.mutation_rate, cfg.mutation_sigma))

    def de_children(self, pop: Population, donor_pools=None):
        """``(target, evaluated trial)`` for each target in order; stops once
        the budget is spent. A trial is built only after the caller has
        handled the previous one, so it sees the replacements made so far.
        ``donor_pools[target]`` lists the target's donors (None: everyone)."""
        cfg = self.config
        for target in range(len(pop)):
            if self.evaluate.exhausted:
                return
            pool = None if donor_pools is None else donor_pools[target]
            yield target, self.evaluate(de_trial_vector(target, pop, cfg.de_F, cfg.de_CR,
                                                        self.rng, self.bounds, donor_pool=pool))

    def breed(self, pop: Population, select) -> None:
        """Generational GA step: evaluated children of ``select()``-chosen
        parent pairs fill the population's slots in order; if the budget
        runs out first, the remaining slots keep their parents."""
        children: list[Individual] = []
        while len(children) < len(pop) and not self.evaluate.exhausted:
            p1, p2 = select(), select()
            for child in self.ga_children(p1, p2):
                children.append(child)
                if len(children) == len(pop):
                    break
        for slot, child in enumerate(children):
            pop[slot] = child

    def result(self, pop: Population) -> RunResult:
        return RunResult(final_population=pop, evals_used=self.evaluate.used,
                         trace=self.evaluate.trace)


def preselection_ga(problem, config: AlgorithmConfig | None = None,
                    budget=10000, rng=0) -> RunResult:
    """GA where each child competes only against its own parent.

    Parents are paired by a random permutation each generation; a child
    takes its parent's slot iff strictly better.
    """
    st = _RunState("preselection_ga", problem, config, budget, rng)
    pop = st.init_population()
    while not st.evaluate.exhausted:
        order = st.rng.permutation(len(pop))
        for k in range(0, len(pop) - 1, 2):
            if st.evaluate.exhausted:
                break
            i, j = int(order[k]), int(order[k + 1])
            for parent_idx, child in zip((i, j), st.ga_children(pop[i], pop[j])):
                if is_better(child.fitness, pop[parent_idx].fitness, st.direction):
                    pop[parent_idx] = child
        st.evaluate.checkpoint()
    return st.result(pop)


def crowding_replacement(child: Individual, pop: Population, cf: int,
                         rng: np.random.Generator, direction: str) -> bool:
    """Let the child challenge the most similar of ``cf`` sampled members.

    Samples ``cf`` members without replacement, finds the sampled member
    nearest to the child (distance ties go to the lowest population
    index), and replaces it iff the child is strictly better. Returns
    True iff the child took that member's slot.
    """
    if not 1 <= cf <= len(pop):
        raise ValueError("crowding factor must be in [1, len(pop)]")
    genomes = pop.genome_matrix()
    if cf == len(pop):
        dists = np.sqrt(np.sum((genomes - child.genome) ** 2, axis=1))
        nearest = int(dists.argmin())  # first minimum: the lowest index
    else:
        idxs = rng.choice(len(pop), size=cf, replace=False)
        dists = np.sqrt(np.sum((genomes[idxs] - child.genome) ** 2, axis=1))
        nearest = int(np.min(idxs[dists == dists.min()]))
    if is_better(child.fitness, pop[nearest].fitness, direction):
        pop[nearest] = child
        return True
    return False


def crowding_ga(problem, config: AlgorithmConfig | None = None,
                budget=10000, rng=0) -> RunResult:
    """GA with crowding survivor selection.

    Binary-tournament parents produce blend/mutate children and every
    child immediately challenges its nearest member among a ``cf``-sized
    sample of the current population.
    """
    st = _RunState("crowding_ga", problem, config, budget, rng)
    cf = st.config.effective_crowding_factor()
    pop = st.init_population()
    while not st.evaluate.exhausted:
        for _ in range(len(pop) // 2):
            if st.evaluate.exhausted:
                break
            p1 = binary_tournament(pop, st.rng, st.direction)
            p2 = binary_tournament(pop, st.rng, st.direction)
            for child in st.ga_children(p1, p2):
                crowding_replacement(child, pop, cf, st.rng, st.direction)
        st.evaluate.checkpoint()
    return st.result(pop)


def crowding_de(problem, config: AlgorithmConfig | None = None,
                budget=10000, rng=0) -> RunResult:
    """Differential evolution with crowding survivor selection.

    For each target index a DE/rand/1/bin trial is evaluated and then
    challenges the nearest member of the current population (the sample
    size defaults to the whole population).
    """
    st = _RunState("crowding_de", problem, config, budget, rng)
    cf = st.config.effective_crowding_factor()
    pop = st.init_population()
    while not st.evaluate.exhausted:
        for _, child in st.de_children(pop):
            crowding_replacement(child, pop, cf, st.rng, st.direction)
        st.evaluate.checkpoint()
    return st.result(pop)


def _shared_scores(genomes: np.ndarray, raw: np.ndarray, direction: str,
                   radius: float, alpha: float) -> np.ndarray:
    """Shared score for every row; minimization is flipped to a
    larger-is-better score via (max - f + eps) before dividing."""
    if direction == "min":
        scores = raw.max() - raw + _SHARING_EPS
    else:
        scores = raw.astype(float)
    diff = genomes[:, None, :] - genomes[None, :, :]
    dists = np.sqrt(np.sum(diff * diff, axis=2))
    kernel = np.where(dists < radius, 1.0 - (dists / radius) ** alpha, 0.0)
    return scores / kernel.sum(axis=-1)


def _score_tournament(scores: np.ndarray, rng: np.random.Generator) -> int:
    """Binary tournament on a larger-is-better score vector; ties keep the
    first drawn index."""
    i = int(rng.integers(scores.shape[0]))
    j = int(rng.integers(scores.shape[0]))
    return j if scores[j] > scores[i] else i


def sharing_ga(problem, config: AlgorithmConfig | None = None,
               budget=10000, rng=0) -> RunResult:
    """Generational GA whose parent selection runs on shared fitness."""
    st = _RunState("sharing_ga", problem, config, budget, rng)
    config = st.config
    pop = st.init_population()
    while not st.evaluate.exhausted:
        scores = _shared_scores(pop.genome_matrix(), pop.fitnesses(), st.direction,
                                config.sharing_radius, config.sharing_alpha)
        st.breed(pop, lambda: pop[_score_tournament(scores, st.rng)])
        st.evaluate.checkpoint()
    return st.result(pop)


def sharing_de(problem, config: AlgorithmConfig | None = None,
               budget=10000, rng=0) -> RunResult:
    """DE whose one-to-one survivor comparison runs on shared fitness.

    All trials of a generation are built from the frozen parent
    population; parents and trials are then pooled, shared scores are
    computed once over the pool, and each trial takes its target's slot
    iff its shared score is strictly higher.
    """
    st = _RunState("sharing_de", problem, config, budget, rng)
    config = st.config
    pop = st.init_population()
    while not st.evaluate.exhausted:
        # nothing is replaced until every trial is built, so all see the
        # parents; the loop runs only with budget left, so trials is not empty
        trials = [child for _, child in st.de_children(pop)]
        genomes = np.vstack([pop.genome_matrix()] + [t.genome for t in trials])
        raw = np.concatenate([pop.fitnesses(), [t.fitness for t in trials]])
        scores = _shared_scores(genomes, raw, st.direction,
                                config.sharing_radius, config.sharing_alpha)
        for slot, child in enumerate(trials):
            if scores[len(pop) + slot] > scores[slot]:
                pop[slot] = child
        st.evaluate.checkpoint()
    return st.result(pop)


def determine_species_seeds(pop: Population, species_distance: float,
                            direction: str) -> list[Individual]:
    """Pick species seeds by scanning the population best-first.

    The best individual always seeds the first species; every later
    individual seeds a new species iff it lies at distance >=
    species_distance/2 from all earlier seeds (i.e. outside every existing
    species region). Returns the seed members, in discovery order.
    """
    if len(pop) == 0:
        raise ValueError("cannot determine seeds of an empty population")
    radius = species_distance / 2.0
    keys = pop.fitnesses()
    if direction == "max":
        keys = -keys
    order = np.argsort(keys, kind="stable").tolist()
    genomes = pop.genome_matrix()
    # free[i]: member i lies at distance >= radius from every seed so far
    free = np.ones(len(pop), dtype=bool)
    seeds: list[Individual] = []
    for idx in order:
        if free[idx]:
            seeds.append(pop[idx])
            free &= np.sqrt(np.sum((genomes - genomes[idx]) ** 2, axis=1)) >= radius
    return seeds


def _nearest_seed_assignment(genomes: np.ndarray, seed_matrix: np.ndarray):
    """Nearest-seed index per member (ties to the earlier seed) and the
    full member-to-seed distance matrix."""
    diff = genomes[:, None, :] - seed_matrix[None, :, :]
    dists = np.sqrt(np.sum(diff * diff, axis=2))
    return np.argmin(dists, axis=1), dists


def conserve_species_seeds(pop: Population, seeds: list[Individual],
                           species_distance: float, direction: str) -> Population:
    """Put saved seeds back into a population after variation.

    Members belong to the species of their nearest seed when within
    species_distance/2 of it. A seed whose genome already survived in its
    species leaves the population alone; otherwise it overwrites the
    worst member of its species, or the globally worst not-yet-replaced
    member when the species came out empty. No slot is replaced twice; if
    the seeds outnumber the slots the overflow is logged and dropped.
    """
    if not seeds:
        return pop
    radius = species_distance / 2.0
    # only slots still free are read or written below, so the genomes and
    # fitnesses taken here stay current for every slot the loop looks at
    genomes = pop.genome_matrix()
    seed_matrix = np.array([s.genome for s in seeds])
    assigned, dists = _nearest_seed_assignment(genomes, seed_matrix)
    in_region = dists[np.arange(len(pop)), assigned] < radius
    # as lists, == is np.array_equal on one member row and one seed row
    rows, seed_rows = genomes.tolist(), seed_matrix.tolist()
    fitness = pop.fitnesses()
    if direction == "max":
        fitness = -fitness
    elif direction != "min":
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
    # max() keeps the first of equal maxima: the lowest-index worst member
    badness = fitness.tolist().__getitem__
    species: list[list[int]] = [[] for _ in seeds]
    for i in np.flatnonzero(in_region).tolist():
        species[assigned[i]].append(i)
    free = [True] * len(pop)
    overflow = 0

    for k, seed in enumerate(seeds):
        members = [i for i in species[k] if free[i]]
        if members:
            surviving = [i for i in members if rows[i] == seed_rows[k]]
            if surviving:
                free[surviving[0]] = False
                continue
            slot = max(members, key=badness)
        else:
            candidates = [i for i in range(len(pop)) if free[i]]
            if not candidates:
                overflow += 1
                continue
            slot = max(candidates, key=badness)
        pop[slot] = seed
        free[slot] = False
    if overflow:
        logger.warning("%d species seeds could not be conserved: population full", overflow)
    return pop


def scga(problem, config: AlgorithmConfig | None = None,
         budget=10000, rng=0, observer=None) -> RunResult:
    """Species conserving GA.

    Seeds are saved before variation, the population undergoes tournament
    selection, crossover and mutation, and the seeds are put back into
    the freshly built generation. Conservation is evaluation-free, so it
    also runs when the budget dies mid-generation. ``observer``, when
    given, is called as ``observer(generation, population)`` after
    initialization and after every conservation pass (instrumentation
    hook, e.g. for auditing seed survival).
    """
    st = _RunState("scga", problem, config, budget, rng)
    config = st.config
    pop = st.init_population()
    generation = 0
    if observer is not None:
        observer(generation, pop)
    while not st.evaluate.exhausted:
        generation += 1
        seeds = determine_species_seeds(pop, config.species_distance, st.direction)
        st.breed(pop, lambda: binary_tournament(pop, st.rng, st.direction))
        conserve_species_seeds(pop, seeds, config.species_distance, st.direction)
        st.evaluate.checkpoint()
        if observer is not None:
            observer(generation, pop)
    return st.result(pop)


def sde(problem, config: AlgorithmConfig | None = None,
        budget=10000, rng=0) -> RunResult:
    """Species-partitioned differential evolution.

    Each generation the population is split into species around the seed
    scan's seeds (every member joins its nearest seed). DE runs inside
    each species; species smaller than 4 borrow donors from the whole
    population. One-to-one replacement keeps each seed unless one of its
    own trials strictly beats it.
    """
    st = _RunState("sde", problem, config, budget, rng)
    pop = st.init_population()
    while not st.evaluate.exhausted:
        seeds = determine_species_seeds(pop, st.config.species_distance, st.direction)
        assigned, _ = _nearest_seed_assignment(pop.genome_matrix(),
                                               np.array([s.genome for s in seeds]))
        species: dict[int, list[int]] = {}
        for i, k in enumerate(assigned.tolist()):
            species.setdefault(k, []).append(i)
        pools = [species[k] if len(species[k]) >= 4 else None for k in assigned.tolist()]
        for target, child in st.de_children(pop, pools):
            if is_better(child.fitness, pop[target].fitness, st.direction):
                pop[target] = child
        st.evaluate.checkpoint()
    return st.result(pop)


ALGORITHMS = {
    "preselection_ga": preselection_ga,
    "crowding_ga": crowding_ga,
    "crowding_de": crowding_de,
    "sharing_ga": sharing_ga,
    "sharing_de": sharing_de,
    "scga": scga,
    "sde": sde,
}


def get_algorithm(name: str):
    try:
        return ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise KeyError(f"unknown algorithm {name!r}; known algorithms: {known}") from None
