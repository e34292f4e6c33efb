"""Niching algorithms: preselection, crowding (GA and DE), fitness
sharing (GA and DE), species conservation, and species-partitioned DE.

Every algorithm has the signature ``(problem, config, budget, rng) ->
RunResult``, where ``budget`` is the number of objective evaluations (an
int) and ``rng`` an int seed or a ``np.random.Generator``, used as is. It
terminates exactly when the budget runs out, returning the partially
updated population if that happens mid-generation. :func:`check_run`
rejects, before anything is drawn, a run that could not start: an invalid
config, a population below the algorithm's minimum, or a budget below the
population size. So every member of every population is evaluated.

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
crowding reads each child's nearest member from a child-to-member distance
block whose column is refreshed on each replacement. Replacement is
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
    check_real,
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
    field's type, by ``core.check_integer`` or ``core.check_real`` (a bool
    is not a number, a real must be finite), then its range.
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
        for name in ("species_distance", "sharing_radius", "sharing_alpha", "de_F", "de_CR",
                     "blend_alpha", "mutation_sigma"):
            check_real(name, getattr(self, name))
        if self.crowding_factor is not None:
            check_integer("crowding_factor", self.crowding_factor)
        if self.mutation_rate is not None:
            check_real("mutation_rate", self.mutation_rate)
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

    def init_population(self) -> Population:
        """``population_size`` uniform random members, evaluated as one
        batch; check_run has made sure the budget covers them all."""
        genomes = initial_genomes(self.rng, self.bounds, self.config.population_size)
        pop = Population(self.evaluate.many(genomes))
        self.evaluate.checkpoint()
        return pop

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
        order, *_, children = st.ga_children(pop.genome_matrix(), len(pop) - len(pop) % 2)
        for slot, child in zip(order.tolist(), st.evaluate.many(children)):
            if is_better(child.fitness, pop[slot].fitness, st.direction):
                pop[slot] = child
    return st.result(pop)


def _nearest(dists: np.ndarray, sample) -> int:
    """The member with the least of ``dists`` among ``sample`` (all members
    when None); distance ties go to the lowest population index."""
    if sample is None:
        return int(dists.argmin())  # first minimum: the lowest index
    near = dists[sample]
    return int(sample[near == near.min()].min())


def crowding_replacement(child: Individual, pop: Population, dists: np.ndarray, sample,
                         direction: str) -> bool:
    """Let the child challenge the most similar of its sampled members.

    ``dists`` holds the child's distance to each member of ``pop``, row for
    row, and ``sample`` the member indices a crowding factor cf below the
    population size drew (see ``nichebench.draws``), or None for the
    whole population. The sampled member nearest to the
    child (distance ties go to the lowest population index) is replaced
    iff the child is strictly better. Returns True iff the child took
    that member's slot.
    """
    if len(dists) != len(pop):
        raise ValueError("dists holds one distance per member")
    if sample is not None and not 1 <= len(sample) <= len(pop):
        raise ValueError("a crowding sample holds 1 to len(pop) members")
    nearest = _nearest(dists, sample)
    if is_better(child.fitness, pop[nearest].fitness, direction):
        pop[nearest] = child
        return True
    return False


class _Crowding:
    """A generation's crowding walk over children built speculatively from
    the population at its start. Each child, in order, is evaluated and
    challenges its nearest sampled member, read from the ``(m, n)`` block
    of child-to-member distances; a replacement marks its slot in
    ``replaced`` and refreshes the slot's column for the later children.
    Before a child's turn the caller rebuilds it, with its distances, if
    it read a replaced slot."""

    def __init__(self, st: _RunState, pop: Population, children: np.ndarray, samples):
        self.st, self.pop, self.children, self.samples = st, pop, children, samples
        self.dists = row_distances(children[:, None, :], pop.genome_matrix())
        self.replaced = [False] * len(pop)

    def rebuild(self, rows, genomes: np.ndarray) -> None:
        """The children of ``rows``, a row index or a slice, are now ``genomes``."""
        self.children[rows] = genomes
        self.dists[rows] = row_distances(genomes[..., None, :], self.pop.genome_matrix())

    def challenge(self, row: int) -> None:
        child = self.st.evaluate(self.children[row])
        dists, sample = self.dists[row], None if self.samples is None else self.samples[row]
        if crowding_replacement(child, self.pop, dists, sample, self.st.direction):
            slot = _nearest(dists, sample)
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
    pop = st.init_population()
    n, fitness, genomes = len(pop), pop.fitnesses(), pop.genome_matrix()
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
    return st.result(pop)


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
    pop = st.init_population()
    genomes = pop.genome_matrix()
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
    return st.result(pop)


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
    config = st.config
    pop = st.init_population()
    for _ in st.generations():
        scores = _shared_scores(pop.genome_matrix(), pop.fitnesses(), st.direction,
                                config.sharing_radius, config.sharing_alpha)
        *_, children = st.ga_children(pop.genome_matrix(), len(pop), scores, "max")
        for slot, child in enumerate(st.evaluate.many(children)):
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
        *_, rows = st.de_trials(pop.genome_matrix())
        trials = st.evaluate.many(rows)
        genomes = np.vstack([pop.genome_matrix(), rows])
        raw = np.concatenate([pop.fitnesses(), [t.fitness for t in trials]])
        scores = _shared_scores(genomes, raw, st.direction,
                                config.sharing_radius, config.sharing_alpha)
        for slot, child in enumerate(trials):
            if scores[len(pop) + slot] > scores[slot]:
                pop[slot] = child
    return st.result(pop)


def _badness(fitness: np.ndarray, direction: str) -> np.ndarray:
    """Fitness as a best-first key: lower is better in either direction."""
    check_direction(direction)
    return -fitness if direction == "max" else fitness


def determine_species_seeds(pop: Population, species_distance: float,
                            direction: str) -> list[Individual]:
    """Pick species seeds by scanning the population best-first.

    The best individual always seeds the first species; every later
    individual seeds a new species iff it lies at distance >=
    species_distance/2 from all earlier seeds (i.e. outside every existing
    species region). Returns the seed members, in discovery order.
    """
    order = np.argsort(_badness(pop.fitnesses(), direction), kind="stable").tolist()
    if not order:
        raise ValueError("cannot determine seeds of an empty population")
    return [pop[i] for i in leader_scan(pop.genome_matrix(), order, species_distance / 2.0)]


def _nearest_seed_assignment(genomes: np.ndarray, seed_matrix: np.ndarray):
    """Nearest-seed index per member (ties to the earlier seed) and the
    full member-to-seed distance matrix."""
    dists = row_distances(genomes[:, None, :], seed_matrix)
    return np.argmin(dists, axis=1), dists


def conserve_species_seeds(pop: Population, seeds: list[Individual],
                           species_distance: float, direction: str) -> Population:
    """Put saved seeds back into a population after variation.

    Members belong to the species of their nearest seed when within
    species_distance/2 of it. In seed order, each seed takes one slot no
    earlier seed took: its first surviving copy, left as it is; else the
    worst member of its species, else the worst of the population (lowest
    index on ties), which it overwrites. So a seed whose species came out
    empty may take a later species' slot. Seeds left without one are
    logged and dropped.
    """
    badness = _badness(pop.fitnesses(), direction).tolist().__getitem__
    if not seeds:
        return pop
    # the walk reads and writes free slots only, so genomes and badness stay current
    genomes, seed_matrix = pop.genome_matrix(), np.array([s.genome for s in seeds])
    assigned, dists = _nearest_seed_assignment(genomes, seed_matrix)
    in_region = dists[np.arange(len(pop)), assigned] < species_distance / 2.0
    # == counts -0.0 and 0.0 as equal, as np.array_equal does
    survives = (in_region & (genomes == seed_matrix[assigned]).all(axis=1)).tolist()
    species: list[list[int]] = [[] for _ in seeds]
    for i in np.flatnonzero(in_region).tolist():
        species[assigned[i]].append(i)
    free, overflow = [True] * len(pop), 0
    for k, seed in enumerate(seeds):
        members = [i for i in species[k] if free[i]]
        pool = members or [i for i, f in enumerate(free) if f]
        if not pool:
            overflow += 1
            continue
        kept = [i for i in members if survives[i]]
        slot = kept[0] if kept else max(pool, key=badness)
        if not kept:
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
        *_, children = st.ga_children(pop.genome_matrix(), len(pop), pop.fitnesses(), st.direction)
        for slot, child in enumerate(st.evaluate.many(children)):
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
    F = st.config.de_F
    pop = st.init_population()
    genomes = pop.genome_matrix()
    for _ in st.generations():
        seeds = determine_species_seeds(pop, st.config.species_distance, st.direction)
        assigned, _ = _nearest_seed_assignment(genomes, np.array([s.genome for s in seeds]))
        # a species below 4 members borrows donors from everyone: label -1
        pools = np.where(np.bincount(assigned)[assigned] >= 4, assigned, -1)
        donors, cross, _, trials = st.de_trials(genomes, pools)
        replaced = [False] * len(pop)
        for target, (a, b, c) in enumerate(donors.T.tolist()):
            # a trial whose donors were replaced is built again; its target
            # is replaced by no trial before its own
            if replaced[a] or replaced[b] or replaced[c]:
                trials[target] = de_trial_vector(genomes, target, (a, b, c), cross[target], F,
                                                 st.bounds)
            child = st.evaluate(trials[target])
            if is_better(child.fitness, pop[target].fitness, st.direction):
                pop[target] = child
                replaced[target] = True
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
