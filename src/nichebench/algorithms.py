"""Niching algorithms: preselection, crowding (GA and DE), fitness
sharing (GA and DE), species conservation, and species-partitioned DE.

Every algorithm has the signature ``(problem, config, budget, rng) ->
RunResult`` and terminates exactly when the evaluation budget runs out,
returning the partially updated population if that happens mid-generation.
:func:`check_run` rejects, before anything is drawn, a run that could not
start: an invalid config, a population below the algorithm's minimum, or
a budget below the population size. So every member of every population
is evaluated.
Children come from two streams in ``_RunState``, GA (BLX crossover,
Gaussian mutation) and DE (DE/rand/1/bin trials), the only code that
builds, evaluates and budget-checks a child: no child is built once the
budget is spent. A stream's draws follow one frozen order, child by
child. The GA stream makes them child by child; the DE stream makes a
whole generation's at its start (``core.de_generation_draws``), except
for ``crowding_de`` with a crowding factor below the population size,
whose replacement step draws between trials. ``ga_children`` and
``de_children`` then build one child at a time, so each sees the
replacements made before it; ``ga_generation`` and ``de_generation``
build a generation whose children share their parents in one array pass.
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
    de_draws,
    de_generation_draws,
    de_trial_vector,
    gaussian_mutation,
    is_better,
    mutation_draws,
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
    algorithm's minimum, and the budget is an integer covering the initial
    population. Each run and ``ExperimentSpec.validate`` call it first."""
    if isinstance(budget, bool) or not isinstance(budget, numbers.Integral):
        raise ValueError(f"budget must be an integer, got {budget!r}")
    config.validate()
    if config.population_size < MIN_POPULATION.get(name, 0):
        raise ValueError(f"population_size must be at least {MIN_POPULATION[name]}")
    if budget < config.population_size:
        raise ValueError(f"a budget of {budget} evaluations does not cover the initial "
                         f"population of {config.population_size}")


@dataclass
class RunResult:
    """The final population as the caller's own ``(n, dim)`` genome matrix
    and ``(n,)`` fitness vector, row for row, plus the budget spent and the
    ``trace`` of (evaluation count, best fitness so far) checkpoints, one
    after initialization and one per generation."""

    genomes: np.ndarray
    fitness: np.ndarray
    evals_used: int
    trace: list[tuple[int, float]] = field(default_factory=list)


class _RunState:
    """Per-run bookkeeping: the evaluator, the RNG, and the GA and DE
    child streams, each either one child at a time or one generation per
    call. ``config`` None means the default :class:`AlgorithmConfig`."""

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

    def ga_children(self, g1: np.ndarray, g2: np.ndarray):
        """Evaluated BLX/mutation children of parent genomes ``g1`` and
        ``g2``, one at a time: a child's mutation is drawn and built only
        after the caller has handled the child before. Stops once the
        budget is spent."""
        cfg, rng, bounds = self.config, self.rng, self.bounds
        for genome in blend_crossover(g1, g2, rng.random((2, len(bounds))), bounds, cfg.blend_alpha):
            if self.evaluate.exhausted:
                return
            mask, normals = mutation_draws(rng, len(bounds), self.mutation_rate)
            yield self.evaluate(gaussian_mutation(genome, mask, normals, bounds, cfg.mutation_sigma))

    def ga_generation(self, pop: Population, count: int, select) -> list[Individual]:
        """The first ``count`` children of parent pairs ``(select(), select())``
        (indices into ``pop``), or as many as the budget left allows,
        evaluated in order. Draws as ga_children would (the pair, its BLX
        doubles, each child's mutation), then builds them in one pass."""
        cfg, rng, dim = self.config, self.rng, self.bounds.shape[0]
        m = min(count, self.evaluate.max_evals - self.evaluate.used)
        pairs, u, draws = [], [], []
        for k in range(0, m, 2):
            pairs.append((select(), select()))
            u.append(rng.random((2, dim)))
            draws += [mutation_draws(rng, dim, self.mutation_rate) for _ in range(min(2, m - k))]
        masks, normals = zip(*draws)
        genomes = pop.genome_matrix()
        p1, p2 = np.array(pairs).T
        crossed = blend_crossover(genomes[p1], genomes[p2], np.array(u), self.bounds,
                                  cfg.blend_alpha)
        children = gaussian_mutation(crossed.reshape(-1, dim)[:m], np.array(masks),
                                     np.concatenate(normals), self.bounds, cfg.mutation_sigma)
        return [self.evaluate(genome) for genome in children]

    def de_children(self, pop: Population, pools=None, caller_draws: bool = False):
        """``(target, evaluated trial)`` for targets 0, 1, ... up to the
        population size or the budget left. Each trial is built only after
        the caller has handled the previous one, so it sees the
        replacements made so far. The draws of the whole generation are
        made at its start (:func:`de_generation_draws`, donors from
        ``pools``), which is draw-exact only if the caller draws nothing
        between trials; with ``caller_draws`` each trial's draws are made
        just before it is built instead (``pools`` must then be None)."""
        cfg, dim = self.config, self.bounds.shape[0]
        m = min(len(pop), self.evaluate.max_evals - self.evaluate.used)
        if caller_draws:  # lazily: trial t's draws when the loop reaches it
            draws = (de_draws(self.rng, len(pop), t, dim, cfg.de_CR) for t in range(m))
        else:
            donors, cross = de_generation_draws(self.rng, len(pop), m, dim, cfg.de_CR, pools)
            draws = zip(donors.T.tolist(), cross)
        for target, (donors, cross) in enumerate(draws):
            yield target, self.evaluate(de_trial_vector(pop.genome_matrix(), target, donors, cross,
                                                        cfg.de_F, self.bounds))

    def de_generation(self, pop: Population) -> list[Individual]:
        """Evaluated trials for targets 0, 1, ... up to the population size
        or the budget left, all built from ``pop`` as it is, in one pass."""
        cfg, dim = self.config, self.bounds.shape[0]
        m = min(len(pop), self.evaluate.max_evals - self.evaluate.used)
        donors, cross = de_generation_draws(self.rng, len(pop), m, dim, cfg.de_CR)
        trials = de_trial_vector(pop.genome_matrix(), np.arange(m), donors, cross, cfg.de_F,
                                 self.bounds)
        return [self.evaluate(genome) for genome in trials]

    def generations(self):
        """Yield 1, 2, ... while budget is left; the checkpoint of a
        generation is recorded when the loop body that got it returns."""
        generation = 0
        while not self.evaluate.exhausted:
            generation += 1
            yield generation
            self.evaluate.checkpoint()

    def result(self, pop: Population) -> RunResult:
        return RunResult(pop.genome_matrix().copy(), pop.fitnesses().copy(),
                         self.evaluate.used, self.evaluate.trace)


def preselection_ga(problem, config: AlgorithmConfig | None = None,
                    budget=10000, rng=0) -> RunResult:
    """GA where each child competes only against its own parent.

    Parents are paired by a random permutation each generation; a child
    takes its parent's slot iff strictly better.
    """
    st = _RunState("preselection_ga", problem, config, budget, rng)
    pop = st.init_population()
    for _ in st.generations():
        # an odd population's last member in ``order`` sits this generation out
        order = st.rng.permutation(len(pop)).tolist()
        children = st.ga_generation(pop, len(pop) - len(pop) % 2, iter(order).__next__)
        for slot, child in zip(order, children):
            if is_better(child.fitness, pop[slot].fitness, st.direction):
                pop[slot] = child
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
        dists = np.sqrt(((genomes - child.genome) ** 2).sum(axis=1))
        nearest = int(dists.argmin())  # first minimum: the lowest index
    else:
        idxs = rng.choice(len(pop), size=cf, replace=False)
        dists = np.sqrt(((genomes[idxs] - child.genome) ** 2).sum(axis=1))
        nearest = int(idxs[dists == dists.min()].min())
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
    for _ in st.generations():
        for _ in range(len(pop) // 2):
            if st.evaluate.exhausted:
                break
            p1 = binary_tournament(pop.fitnesses(), st.rng, st.direction)
            p2 = binary_tournament(pop.fitnesses(), st.rng, st.direction)
            for child in st.ga_children(*pop.genome_matrix()[[p1, p2]]):
                crowding_replacement(child, pop, cf, st.rng, st.direction)
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
    for _ in st.generations():
        # crowding's sample of cf < n members is drawn between trials
        for _, child in st.de_children(pop, caller_draws=cf < len(pop)):
            crowding_replacement(child, pop, cf, st.rng, st.direction)
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
    dists = np.sqrt((diff * diff).sum(axis=2))
    kernel = np.where(dists < radius, 1.0 - (dists / radius) ** alpha, 0.0)
    return scores / kernel.sum(axis=-1)


def sharing_ga(problem, config: AlgorithmConfig | None = None,
               budget=10000, rng=0) -> RunResult:
    """Generational GA whose parent selection runs on shared fitness."""
    st = _RunState("sharing_ga", problem, config, budget, rng)
    config = st.config
    pop = st.init_population()
    for _ in st.generations():
        scores = _shared_scores(pop.genome_matrix(), pop.fitnesses(), st.direction,
                                config.sharing_radius, config.sharing_alpha)
        children = st.ga_generation(pop, len(pop), lambda: binary_tournament(scores, st.rng, "max"))
        for slot, child in enumerate(children):
            pop[slot] = child
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
    for _ in st.generations():
        # the loop runs only with budget left, so trials is not empty
        trials = st.de_generation(pop)
        genomes = np.vstack([pop.genome_matrix()] + [t.genome for t in trials])
        raw = np.concatenate([pop.fitnesses(), [t.fitness for t in trials]])
        scores = _shared_scores(genomes, raw, st.direction,
                                config.sharing_radius, config.sharing_alpha)
        for slot, child in enumerate(trials):
            if scores[len(pop) + slot] > scores[slot]:
                pop[slot] = child
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
            free &= np.sqrt(((genomes - genomes[idx]) ** 2).sum(axis=1)) >= radius
    return seeds


def _nearest_seed_assignment(genomes: np.ndarray, seed_matrix: np.ndarray):
    """Nearest-seed index per member (ties to the earlier seed) and the
    full member-to-seed distance matrix."""
    diff = genomes[:, None, :] - seed_matrix[None, :, :]
    dists = np.sqrt((diff * diff).sum(axis=2))
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
    if observer is not None:
        observer(0, pop)
    for generation in st.generations():
        seeds = determine_species_seeds(pop, config.species_distance, st.direction)
        children = st.ga_generation(
            pop, len(pop), lambda: binary_tournament(pop.fitnesses(), st.rng, st.direction))
        for slot, child in enumerate(children):
            pop[slot] = child
        conserve_species_seeds(pop, seeds, config.species_distance, st.direction)
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
    for _ in st.generations():
        seeds = determine_species_seeds(pop, st.config.species_distance, st.direction)
        assigned, _ = _nearest_seed_assignment(pop.genome_matrix(),
                                               np.array([s.genome for s in seeds]))
        # a species below 4 members borrows donors from everyone: label -1
        pools = np.where(np.bincount(assigned)[assigned] >= 4, assigned, -1)
        for target, child in st.de_children(pop, pools):
            if is_better(child.fitness, pop[target].fitness, st.direction):
                pop[target] = child
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
