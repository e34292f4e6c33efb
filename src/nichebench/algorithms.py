"""Niching algorithms: preselection, crowding (GA and DE), fitness
sharing (GA and DE), species conservation, and species-partitioned DE.

Every algorithm has the signature ``(problem, config, budget, rng) ->
RunResult``, where ``budget`` is the number of objective evaluations (an
int) and ``rng`` an int seed or a ``np.random.Generator``, used as is. It
terminates exactly when the budget runs out, returning the partially
updated population if that happens mid-generation. A population is an
``(n, d)`` genome matrix and its ``(n,)`` fitness vector, changed in
place row by row; the crowding walk indexes it with a ``Population`` of
``Individual`` members, which writes through to the two arrays.
:func:`check_run` rejects, before anything is drawn, a run that could not
start: an invalid config, a population below the algorithm's minimum, or
a budget below the population size. So every member of every population
is evaluated.

Children come from two streams in ``_RunState``, the only code that draws
for a generation or caps it: ``ga_children`` (BLX crossover, Gaussian
mutation) for ``preselection_ga``, ``crowding_ga``, ``sharing_ga`` and
``scga``, and ``de_trials`` (DE/rand/1/bin trials) for ``crowding_de``,
``sharing_de`` and ``sde``. Each takes a generation's draws from
``nichebench.draws``, capped at the evaluations left, then builds the
children from the population as it is in one array pass, unevaluated.
``preselection_ga``, ``sharing_ga``, ``scga`` and ``sharing_de`` evaluate
them as one batch and replace members only after the whole generation, so
that pass is final. ``crowding_ga``, ``crowding_de`` and ``sde`` walk the
children in order, each evaluated once in its final form, and build a
child again if it read a slot replaced earlier in the generation (a DE
donor or target, a tournament whose winner changed, or a winner's genome);
crowding picks each child's nearest member once, from a child-to-member
distance block whose column is refreshed on each replacement. Replacement is
strict: an incumbent is only displaced by a strictly better challenger, so
equal-fitness duplicates never drift.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Evaluator,
    Individual,
    Population,
    binary_tournament,
    blend_crossover,
    check_direction,
    check_integer,
    check_positive,
    check_real,
    check_rows,
    de_trial_vector,
    gaussian_mutation,
    is_better,
    leader_scan,
    row_distances,
)
from .draws import de_generation_draws, ga_generation_draws, initial_genomes

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
    field by ``core.check_integer``, ``check_real`` or ``check_positive``
    (a bool is not a number, a real must be finite), then its range.
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
        check_integer("population_size", self.population_size)
        for name in ("species_distance", "sharing_radius", "sharing_alpha", "mutation_sigma"):
            check_positive(name, getattr(self, name))
        for name in ("de_F", "de_CR", "blend_alpha"):
            check_real(name, getattr(self, name))
        if self.crowding_factor is not None:
            check_integer("crowding_factor", self.crowding_factor)
        if self.mutation_rate is not None:
            check_real("mutation_rate", self.mutation_rate)
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.crowding_factor is not None and not 1 <= self.crowding_factor <= self.population_size:
            raise ValueError("crowding_factor must be in [1, population_size]")
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
    check_integer("budget", budget)
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
    """Per-run bookkeeping: the evaluator, the RNG and the two child
    streams, :meth:`ga_children` and :meth:`de_trials`; nothing outside
    this class reads the RNG or caps a generation. Final batches are
    evaluated in one ``Evaluator.many`` call, the speculative walks child
    by child. ``config`` None means the default :class:`AlgorithmConfig`."""

    def __init__(self, name: str, problem, config: AlgorithmConfig | None, budget, rng):
        config = config or AlgorithmConfig()
        check_run(name, config, budget)
        self.config = config
        self.evaluate = Evaluator(problem, budget)
        self.rng = np.random.default_rng(rng)
        self.direction = problem.direction
        self.bounds = problem.bounds
        self.dim = problem.dimension
        self.mutation_rate = config.effective_mutation_rate(self.dim)

    def init_population(self) -> tuple[np.ndarray, np.ndarray]:
        """The genomes and fitness of ``population_size`` uniform random
        members, evaluated as one batch; check_run has made sure the budget
        covers them all."""
        genomes = initial_genomes(self.rng, self.bounds, self.config.population_size)
        fitness = self.evaluate.many(genomes)
        self.evaluate.checkpoint()
        return genomes, fitness

    def budgeted(self, count: int) -> int:
        """``count``, or the evaluations left if fewer."""
        return min(count, self.evaluate.max_evals - self.evaluate.used)

    def ga_build(self, genomes: np.ndarray, p1, p2, u, masks, normals) -> np.ndarray:
        """The ``len(masks)`` children, in one array pass, of parent rows
        ``p1`` and ``p2`` of ``genomes`` (one pair or a batch) from their
        ``draws.ga_generation_draws``."""
        cfg, bounds = self.config, self.bounds
        crossed = blend_crossover(genomes[p1], genomes[p2], u, bounds, cfg.blend_alpha)
        return gaussian_mutation(crossed.reshape(-1, self.dim)[:len(masks)], masks,
                                 np.concatenate(normals), bounds, cfg.mutation_sigma)

    def ga_children(self, genomes: np.ndarray, count: int, fitness=None, direction="max", cf=None):
        """The first ``count`` children, or as many as the budget allows,
        built unevaluated from ``genomes`` in one pass after their
        ``draws.ga_generation_draws``: the picks, the ``(p, 2)`` parent pairs
        (tournaments on ``fitness`` under ``direction``, else permutation
        pairs), the draws ``(u, masks, normals, samples)``, the children."""
        picks, u, masks, normals, samples = ga_generation_draws(
            self.rng, len(genomes), self.budgeted(count), self.dim, self.mutation_rate,
            fitness is not None, cf)
        pairs = (picks[:2 * len(u)].reshape(-1, 2) if fitness is None
                 else binary_tournament(fitness, picks[:, 0::2], picks[:, 1::2], direction))
        children = self.ga_build(genomes, *pairs.T, u, masks, normals)
        return picks, pairs, (u, masks, normals, samples), children

    def de_trials(self, genomes: np.ndarray, pools=None, cf: int | None = None):
        """The donors, masks and samples of ``draws.de_generation_draws``
        for targets 0, 1, ... up to ``n`` or the budget left, then their
        ``(m, d)`` trials, built from ``genomes`` in one array pass."""
        cfg, n = self.config, len(genomes)
        m = self.budgeted(n)
        donors, cross, samples = de_generation_draws(self.rng, n, m, self.dim, cfg.de_CR,
                                                     pools, cf)
        trials = de_trial_vector(genomes, np.arange(m), donors, cross, cfg.de_F, self.bounds)
        return donors, cross, samples, trials

    def generations(self):
        """Yield 1, 2, ... while budget is left; the checkpoint of a
        generation is recorded when the loop body that got it returns."""
        generation = 0
        while not self.evaluate.exhausted:
            generation += 1
            yield generation
            self.evaluate.checkpoint()

    def result(self, genomes: np.ndarray, fitness: np.ndarray) -> RunResult:
        return RunResult(genomes.copy(), fitness.copy(), self.evaluate.used, self.evaluate.trace)


def preselection_ga(problem, config: AlgorithmConfig | None = None,
                    budget=10000, rng=0) -> RunResult:
    """GA where each child competes only against its own parent.

    Parents are paired by a random permutation each generation; a child
    takes its parent's slot iff strictly better.
    """
    st = _RunState("preselection_ga", problem, config, budget, rng)
    genomes, fitness = st.init_population()
    for _ in st.generations():
        # an odd population's last member in ``order`` sits this generation out
        order, *_, children = st.ga_children(genomes, len(genomes) - len(genomes) % 2)
        values = st.evaluate.many(children)
        slots = order[:len(values)]
        won = is_better(values, fitness[slots], st.direction)
        genomes[slots[won]], fitness[slots[won]] = children[won], values[won]
    return st.result(genomes, fitness)


def _nearest(dists: np.ndarray, sample) -> int:
    """The member with the least of ``dists`` among ``sample``, sorted
    ascending (all members when None): the first minimum, so distance
    ties go to the lowest population index."""
    return int(dists.argmin() if sample is None else sample[dists[sample].argmin()])


def crowding_replacement(child: Individual, pop: Population, slot: int,
                         direction: str) -> bool:
    """Let the child challenge the member in ``slot``, the most similar of
    its sampled members (``_Crowding`` picks it): the child takes the slot
    iff it is strictly better. Returns True iff it did; a slot outside
    ``pop`` raises ValueError."""
    if not 0 <= slot < len(pop.members):
        raise ValueError(f"slot {slot} is outside a population of {len(pop.members)}")
    if is_better(child.fitness, pop.fitness[slot], direction):
        pop[slot] = child
        return True
    return False


class _Crowding:
    """A generation's crowding walk over children built speculatively from
    the population at its start. Each child, in order, is evaluated and
    challenges its nearest sampled member, picked once from the ``(m, n)``
    block of child-to-member distances and the ``(m, cf)`` samples (or
    None), sorted here; a replacement marks its slot in ``replaced`` and
    refreshes the slot's column for the later children. Before a child's
    turn the caller rebuilds it, with its distances, if it read a replaced
    slot."""

    def __init__(self, st: _RunState, pop: Population, children: np.ndarray, samples):
        self.st, self.pop, self.children = st, pop, children
        self.samples = None if samples is None else np.sort(samples, axis=1)
        self.dists = row_distances(children[:, None, :], pop.genomes)
        self.replaced = [False] * len(pop.members)

    def rebuild(self, rows, genomes: np.ndarray) -> None:
        """The children of ``rows``, a row index or a slice, are now ``genomes``."""
        self.children[rows] = genomes
        self.dists[rows] = row_distances(genomes[..., None, :], self.pop.genomes)

    def challenge(self, row: int) -> None:
        genome = self.children[row]
        child = Individual(genome, self.st.evaluate(genome))
        slot = _nearest(self.dists[row], None if self.samples is None else self.samples[row])
        if crowding_replacement(child, self.pop, slot, self.st.direction):
            self.replaced[slot] = True
            self.dists[row + 1:, slot] = row_distances(self.children[row + 1:], child.genome)


def crowding_ga(problem, config: AlgorithmConfig | None = None,
                budget=10000, rng=0) -> RunResult:
    """GA with crowding survivor selection.

    Binary-tournament parents produce blend/mutate children and every
    child immediately challenges its nearest member among a ``cf``-sized
    sample of the current population. A pair's tournaments see the
    replacements made before it.
    """
    st = _RunState("crowding_ga", problem, config, budget, rng)
    cf = st.config.effective_crowding_factor()
    genomes, fitness = st.init_population()
    pop, n = Population(genomes, fitness), len(genomes)
    for _ in st.generations():
        candidates, winners, (u, masks, normals, samples), children = st.ga_children(
            genomes, n - n % 2, fitness, st.direction, cf)
        crowd = _Crowding(st, pop, children, samples)
        replaced, m = crowd.replaced, len(children)
        for k, ((i1, j1, i2, j2), won) in enumerate(zip(candidates.tolist(), winners.tolist())):
            rows = slice(2 * k, min(2 * k + 2, m))
            # a pair is built again if a replacement changed a winner or its genome
            if replaced[i1] or replaced[j1] or replaced[i2] or replaced[j2]:
                w1 = binary_tournament(fitness, i1, j1, st.direction)
                w2 = binary_tournament(fitness, i2, j2, st.direction)
                if [w1, w2] != won or replaced[w1] or replaced[w2]:
                    crowd.rebuild(rows, st.ga_build(genomes, w1, w2, u[k], masks[rows],
                                                    normals[rows]))
            for row in range(rows.start, rows.stop):
                crowd.challenge(row)
    return st.result(genomes, fitness)


def crowding_de(problem, config: AlgorithmConfig | None = None,
                budget=10000, rng=0) -> RunResult:
    """Differential evolution with crowding survivor selection.

    For each target index a DE/rand/1/bin trial is evaluated and then
    challenges the nearest member of the current population (the sample
    size defaults to the whole population). A trial reads the donors and
    target as the replacements before it left them.
    """
    st = _RunState("crowding_de", problem, config, budget, rng)
    cf, F = st.config.effective_crowding_factor(), st.config.de_F
    genomes, fitness = st.init_population()
    pop = Population(genomes, fitness)
    for _ in st.generations():
        donors, cross, samples, trials = st.de_trials(genomes, cf=cf)
        crowd = _Crowding(st, pop, trials, samples)
        replaced = crowd.replaced
        # a trial is built again if it reads a replaced slot; a trial whose
        # mask is all True reads no coordinate of its target
        reads_target = (~cross.all(axis=1)).tolist()
        for target, (a, b, c) in enumerate(donors.T.tolist()):
            if (replaced[a] or replaced[b] or replaced[c]
                    or replaced[target] and reads_target[target]):
                crowd.rebuild(target, de_trial_vector(genomes, target, (a, b, c), cross[target],
                                                      F, st.bounds))
            crowd.challenge(target)
    return st.result(genomes, fitness)


def _shared_scores(genomes: np.ndarray, raw: np.ndarray, direction: str,
                   radius: float, alpha: float) -> np.ndarray:
    """Shared score for every row; minimization is flipped to a
    larger-is-better score via (max - f + eps) before dividing."""
    if direction == "min":
        scores = raw.max() - raw + _SHARING_EPS
    else:
        scores = raw.astype(float)
    dists = row_distances(genomes[:, None, :], genomes)
    kernel = np.where(dists < radius, 1.0 - (dists / radius) ** alpha, 0.0)
    return scores / kernel.sum(axis=-1)


def sharing_ga(problem, config: AlgorithmConfig | None = None,
               budget=10000, rng=0) -> RunResult:
    """Generational GA whose parent selection runs on shared fitness."""
    st = _RunState("sharing_ga", problem, config, budget, rng)
    genomes, fitness = st.init_population()
    for _ in st.generations():
        scores = _shared_scores(genomes, fitness, st.direction,
                                st.config.sharing_radius, st.config.sharing_alpha)
        *_, children = st.ga_children(genomes, len(genomes), scores, "max")
        m = len(children)
        genomes[:m], fitness[:m] = children, st.evaluate.many(children)
    return st.result(genomes, fitness)


def sharing_de(problem, config: AlgorithmConfig | None = None,
               budget=10000, rng=0) -> RunResult:
    """DE whose one-to-one survivor comparison runs on shared fitness.

    All trials of a generation are built from the frozen parent
    population; parents and trials are then pooled, shared scores are
    computed once over the pool, and each trial takes its target's slot
    iff its shared score is strictly higher.
    """
    st = _RunState("sharing_de", problem, config, budget, rng)
    genomes, fitness = st.init_population()
    for _ in st.generations():
        *_, trials = st.de_trials(genomes)
        values = st.evaluate.many(trials)
        scores = _shared_scores(np.vstack([genomes, trials]), np.concatenate([fitness, values]),
                                st.direction, st.config.sharing_radius, st.config.sharing_alpha)
        won = np.flatnonzero(scores[len(genomes):] > scores[:len(values)])
        genomes[won], fitness[won] = trials[won], values[won]
    return st.result(genomes, fitness)


def _badness(genomes: np.ndarray, fitness: np.ndarray, direction: str,
             species_distance) -> np.ndarray:
    """Fitness as a best-first key: lower is better in either direction.
    Both species functions call it first, so it checks the arguments they
    share before any distance: the direction, a positive real
    ``species_distance`` and a nonempty ``(n, d)`` matrix, one fitness per row."""
    check_direction(direction)
    check_positive("species_distance", species_distance)
    check_rows(genomes, fitness)
    return -fitness if direction == "max" else fitness


def determine_species_seeds(genomes: np.ndarray, fitness: np.ndarray, species_distance: float,
                            direction: str) -> list[int]:
    """Pick species seeds by scanning the population best-first.

    The best member always seeds the first species; every later member
    seeds a new species iff it lies at distance >= species_distance/2 from
    all earlier seeds (i.e. outside every existing species region).
    Returns the seeds' row indices, in discovery order. Arguments that
    break ``_badness``'s checks raise ValueError.
    """
    order = np.argsort(_badness(genomes, fitness, direction, species_distance),
                       kind="stable").tolist()
    return leader_scan(genomes, order, species_distance / 2.0)


def _nearest_seed_assignment(genomes: np.ndarray, seed_matrix: np.ndarray):
    """Nearest-seed index per member (ties to the earlier seed) and the
    full member-to-seed distance matrix."""
    dists = row_distances(genomes[:, None, :], seed_matrix)
    return np.argmin(dists, axis=1), dists


def conserve_species_seeds(genomes: np.ndarray, fitness: np.ndarray, seed_genomes: np.ndarray,
                           seed_fitness: np.ndarray, species_distance: float,
                           direction: str) -> None:
    """Put saved seeds, rows of ``seed_genomes`` with ``seed_fitness``, back
    into a population after variation, writing ``genomes`` and ``fitness``
    in place.

    Members belong to the species of their nearest seed when within
    species_distance/2 of it. In seed order, each seed takes one slot no
    earlier seed took: its first surviving copy, left as it is; else the
    worst member of its species, else the worst of the population (lowest
    index on ties), which it overwrites. So a seed whose species came out
    empty may take a later species' slot. Seeds left without one are
    logged and dropped. The seeds are an ``(m, d)`` matrix as wide as the
    genomes; bad arguments raise ValueError before anything is written.
    """
    badness = _badness(genomes, fitness, direction, species_distance).tolist().__getitem__
    check_rows(seed_genomes, seed_fitness, genomes.shape[1], "seed_", nonempty=False)
    if not len(seed_genomes):
        return
    # the walk reads and writes free slots only, so genomes and badness stay current
    assigned, dists = _nearest_seed_assignment(genomes, seed_genomes)
    in_region = dists[np.arange(len(genomes)), assigned] < species_distance / 2.0
    # == counts -0.0 and 0.0 as equal, as np.array_equal does
    survives = (in_region & (genomes == seed_genomes[assigned]).all(axis=1)).tolist()
    species: list[list[int]] = [[] for _ in seed_genomes]
    for i in np.flatnonzero(in_region).tolist():
        species[assigned[i]].append(i)
    free, overflow = [True] * len(genomes), 0
    for k in range(len(seed_genomes)):
        members = [i for i in species[k] if free[i]]
        pool = members or [i for i, f in enumerate(free) if f]
        if not pool:
            overflow += 1
            continue
        kept = [i for i in members if survives[i]]
        slot = kept[0] if kept else max(pool, key=badness)
        if not kept:
            genomes[slot], fitness[slot] = seed_genomes[k], seed_fitness[k]
        free[slot] = False
    if overflow:
        logger.warning("%d species seeds could not be conserved: population full", overflow)


def scga(problem, config: AlgorithmConfig | None = None,
         budget=10000, rng=0, observer=None) -> RunResult:
    """Species conserving GA.

    Seeds are saved before variation, the population undergoes tournament
    selection, crossover and mutation, and the seeds are put back into
    the freshly built generation. Conservation is evaluation-free, so it
    also runs when the budget dies mid-generation. ``observer``, when
    given, is called as ``observer(generation, genomes, fitness)`` after
    initialization and after every conservation pass (instrumentation
    hook, e.g. for auditing seed survival). ``genomes`` and ``fitness``
    are read-only views of the run's population arrays, which the run
    goes on to change: copy what is to be kept.
    """
    st = _RunState("scga", problem, config, budget, rng)
    genomes, fitness = st.init_population()
    views = [np.broadcast_to(a, a.shape) for a in (genomes, fitness)]  # read-only
    if observer is not None:
        observer(0, *views)
    sigma = st.config.species_distance
    for generation in st.generations():
        seeds = determine_species_seeds(genomes, fitness, sigma, st.direction)
        seed_genomes, seed_fitness = genomes[seeds], fitness[seeds]
        *_, children = st.ga_children(genomes, len(genomes), fitness, st.direction)
        m = len(children)
        genomes[:m], fitness[:m] = children, st.evaluate.many(children)
        conserve_species_seeds(genomes, fitness, seed_genomes, seed_fitness, sigma, st.direction)
        if observer is not None:
            observer(generation, *views)
    return st.result(genomes, fitness)


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
    F = st.config.de_F
    genomes, fitness = st.init_population()
    for _ in st.generations():
        seeds = determine_species_seeds(genomes, fitness, st.config.species_distance, st.direction)
        assigned, _ = _nearest_seed_assignment(genomes, genomes[seeds])
        # a species below 4 members borrows donors from everyone: label -1
        pools = np.where(np.bincount(assigned)[assigned] >= 4, assigned, -1)
        donors, cross, _, trials = st.de_trials(genomes, pools)
        replaced = [False] * len(genomes)
        for target, (a, b, c) in enumerate(donors.T.tolist()):
            # a trial whose donors were replaced is built again; its target
            # is replaced by no trial before its own
            if replaced[a] or replaced[b] or replaced[c]:
                trials[target] = de_trial_vector(genomes, target, (a, b, c), cross[target], F,
                                                 st.bounds)
            value = st.evaluate(trials[target])
            if is_better(value, fitness[target], st.direction):
                genomes[target], fitness[target] = trials[target], value
                replaced[target] = True
    return st.result(genomes, fitness)


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
