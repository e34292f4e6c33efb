"""The seven niching algorithms as the chapter states them, one individual
at a time: the executable specification that whole library runs are
checked against.

A run keeps its population as a list of ``(genome, fitness)`` pairs and
counts its evaluations on a :class:`Clock` of its own. It makes real
``np.random.Generator`` calls in the order the ``nichebench.draws``
docstring states:

- one ``uniform(lo, hi)`` row per initial member;
- per GA pair ``integers(n, size=4)`` for its two binary tournaments
  (preselection pairs by one ``permutation(n)`` per generation instead),
  then ``random((2, d))`` for its BLX children, then per child
  ``mutation_draws`` and, for a crowding factor cf below n, the crowding
  sample ``choice(n, cf, replace=False)``;
- per DE target ``de_draws``, then the crowding sample.

Nothing is drawn for a child the budget does not cover. Distances are
taken member by member, ``np.sqrt(((a - b) ** 2).sum())`` against each
row, and replacement is strict: only a strictly better challenger takes a
slot. From ``nichebench`` only the two per-call draws are imported;
problems and configs come in as arguments, read by their public fields.
Each algorithm returns a :class:`Result` with ``RunResult``'s fields.
"""

import math
from collections import namedtuple

import numpy as np

from nichebench.draws import de_draws, mutation_draws

SHARING_EPS = 1e-12  # added to a minimisation's shared score to keep it positive

Result = namedtuple("Result", "genomes fitness evals_used trace")


def better(a, b, direction):
    """Whether fitness ``a`` is strictly better than ``b``."""
    return a > b if direction == "max" else a < b


def distances(genome, genomes):
    """The Euclidean distance from ``genome`` to each row of ``genomes``,
    or to ``genomes`` itself if it is one genome; ValueError unless the
    lengths match."""
    genome, genomes = np.asarray(genome, dtype=float), np.asarray(genomes, dtype=float)
    if genomes.shape[-1:] != genome.shape:
        raise ValueError(f"dimension mismatch: {genome.shape} vs {genomes.shape}")
    return np.sqrt(((genomes - genome) ** 2).sum(axis=-1))


def tournaments(values, rng, direction):
    """A GA pair's parents: two binary tournaments on ``values``, each won
    by its second candidate iff strictly better."""
    first1, second1, first2, second2 = rng.integers(len(values), size=4).tolist()
    return tuple(second if better(values[second], values[first], direction) else first
                 for first, second in ((first1, second1), (first2, second2)))


class Clock:
    """A run's budget: one evaluation per call, up to ``budget``, a
    non-finite value rejected, the best fitness so far kept, and a
    ``(used, best)`` checkpoint in ``trace`` per :meth:`checkpoint`."""

    def __init__(self, objective, budget, direction):
        self.objective, self.budget, self.direction = objective, budget, direction
        self.used, self.best, self.trace = 0, None, []

    def left(self):
        return self.budget - self.used

    def __call__(self, genome):
        if not self.left():
            raise RuntimeError(f"the budget of {self.budget} evaluations is spent")
        self.used += 1
        value = float(self.objective(genome))
        if not math.isfinite(value):
            raise ValueError(f"objective returned non-finite value {value!r}")
        if self.best is None or better(value, self.best, self.direction):
            self.best = value
        return value

    def checkpoint(self):
        self.trace.append((self.used, self.best))


class Run:
    """A run's settings, Generator, clock and population, its initial
    members drawn and evaluated one at a time. A ``mutation_rate`` of None
    is 1/d."""

    def __init__(self, problem, config, budget, rng):
        self.config, self.direction = config, problem.direction
        self.bounds = np.asarray(problem.bounds, dtype=float)
        self.rate = 1.0 / len(self.bounds) if config.mutation_rate is None else config.mutation_rate
        self.rng = np.random.default_rng(rng)
        self.clock = Clock(problem.objective, budget, problem.direction)
        self.pop = []
        for _ in range(config.population_size):
            genome = self.rng.uniform(self.bounds[:, 0], self.bounds[:, 1])
            self.pop.append((genome, self.clock(genome)))
        self.clock.checkpoint()

    def generations(self):
        """Loop while budget is left, each generation's checkpoint after it."""
        while self.clock.left():
            yield
            self.clock.checkpoint()

    def clip(self, genome):
        return np.clip(genome, self.bounds[:, 0], self.bounds[:, 1])

    def fitness(self):
        return [f for _, f in self.pop]

    def children(self, i, j):
        """Members i and j's two BLX children, each mutated (Gaussian, sigma
        times the coordinate's range, on the coordinates its mask picks)
        and yielded in turn while budget is left."""
        (p1, _), (p2, _) = self.pop[i], self.pop[j]
        alpha, sigma = self.config.blend_alpha, self.config.mutation_sigma
        spread = np.abs(p1 - p2)
        low, high = np.minimum(p1, p2) - alpha * spread, np.maximum(p1, p2) + alpha * spread
        width = self.bounds[:, 1] - self.bounds[:, 0]
        for u in self.rng.random((2, len(p1))):
            if not self.clock.left():
                return
            child = self.clip(low + (high - low) * u)
            mask, normals = mutation_draws(self.rng, len(child), self.rate)
            child[mask] += 0.0 + sigma * width[mask] * normals  # rng.normal(0.0, scale)'s form
            yield self.clip(child)

    def breed(self, values, direction):
        """A generation of n children, or as many as the budget allows, of
        tournament parents on ``values``; child k then takes slot k."""
        children, n = [], len(self.pop)
        while len(children) < n and self.clock.left():
            for child in self.children(*tournaments(values, self.rng, direction)):
                children.append((child, self.clock(child)))
                if len(children) == n:
                    break
        self.pop[:len(children)] = children

    def trial(self, target, pool=None):
        """The DE/rand/1/bin trial of ``target``, its donors from ``pool``
        (None: everyone), built from the population as it is now."""
        genomes = [g for g, _ in self.pop]
        (a, b, c), cross = de_draws(self.rng, len(genomes), target, len(self.bounds),
                                    self.config.de_CR, pool)
        mutant = genomes[a] + self.config.de_F * (genomes[b] - genomes[c])
        return self.clip(np.where(cross, mutant, genomes[target]))

    def result(self):
        return Result(np.array([g for g, _ in self.pop]), np.array(self.fitness()),
                      self.clock.used, self.clock.trace)


def crowding(pop, child, value, cf, rng, direction):
    """The child challenges the nearest of cf members drawn from ``pop``
    (all of them for cf None or n; on distance ties the lowest index)
    and takes its slot iff strictly better. Returns that slot, or None."""
    n = len(pop)
    sample = (range(n) if cf is None or cf >= n
              else sorted(rng.choice(n, cf, replace=False).tolist()))
    dist = distances(child, [g for g, _ in pop])
    slot = min(sample, key=lambda i: dist[i])
    if better(value, pop[slot][1], direction):
        pop[slot] = (child, value)
        return slot
    return None


def shared_scores(pop, radius, alpha, direction):
    """Each member's score, larger is better (max - f + eps when
    minimising), divided by its niche count: the sum over all members at
    distance d < radius of 1 - (d / radius) ** alpha."""
    genomes, top = [g for g, _ in pop], max(f for _, f in pop)
    scores = []
    for genome, f in pop:
        dist = distances(genome, genomes)
        niche = np.where(dist < radius, 1.0 - (dist / radius) ** alpha, 0.0).sum()
        scores.append((top - f + SHARING_EPS if direction == "min" else f) / niche)
    return scores


def species_seeds(pop, species_distance, direction):
    """The seed scan, best member first (stable on ties): a member seeds a
    species iff it lies at distance >= species_distance / 2 from every
    earlier seed. Returns the seeds' indices in the order found."""
    seeds = []
    for i in sorted(range(len(pop)), key=lambda i: pop[i][1], reverse=direction == "max"):
        others = [pop[s][0] for s in seeds]
        if not seeds or (distances(pop[i][0], others) >= species_distance / 2.0).all():
            seeds.append(i)
    return seeds


def conserve(pop, seeds, species_distance, direction):
    """Put the saved ``seeds``, ``(genome, fitness)`` pairs, back into
    ``pop``. A member belongs to the species of its nearest seed (the
    earlier on ties) when within species_distance / 2 of it. In seed
    order, each seed takes one slot no earlier seed took: its first
    surviving copy, kept; else the worst member of its species, else of
    the population (the lowest index on ties), which it overwrites. A
    seed left with no slot is dropped."""
    home = []
    for genome, _ in pop:
        dist = distances(genome, [g for g, _ in seeds])
        k = int(dist.argmin())
        home.append(k if dist[k] < species_distance / 2.0 else None)
    taken = set()
    for k, seed in enumerate(seeds):
        members = [i for i in range(len(pop)) if i not in taken and home[i] == k]
        kept = [i for i in members if np.array_equal(pop[i][0], seed[0])]
        pool = members or [i for i in range(len(pop)) if i not in taken]
        if kept:
            taken.add(kept[0])
        elif pool:
            worst = (min if direction == "max" else max)(pool, key=lambda i: pop[i][1])
            pop[worst] = seed
            taken.add(worst)


def preselection_ga(problem, config, budget, rng):
    """Permutation pairs; a child takes its own parent's slot iff strictly better."""
    run, n = Run(problem, config, budget, rng), config.population_size
    for _ in run.generations():
        order = run.rng.permutation(n).tolist()
        for k in range(0, n - 1, 2):
            if not run.clock.left():
                break
            for slot, child in zip(order[k:k + 2], run.children(order[k], order[k + 1])):
                value = run.clock(child)
                if better(value, run.pop[slot][1], run.direction):
                    run.pop[slot] = (child, value)
    return run.result()


def crowding_ga(problem, config, budget, rng):
    """n // 2 tournament pairs per generation; each child crowds as it comes."""
    run = Run(problem, config, budget, rng)
    for _ in run.generations():
        for _ in range(config.population_size // 2):
            if not run.clock.left():
                break
            for child in run.children(*tournaments(run.fitness(), run.rng, run.direction)):
                crowding(run.pop, child, run.clock(child), config.crowding_factor, run.rng,
                         run.direction)
    return run.result()


def crowding_de(problem, config, budget, rng):
    """Each target's trial crowds as it comes."""
    run = Run(problem, config, budget, rng)
    for _ in run.generations():
        for target in range(config.population_size):
            if not run.clock.left():
                break
            child = run.trial(target)
            crowding(run.pop, child, run.clock(child), config.crowding_factor, run.rng,
                     run.direction)
    return run.result()


def sharing_ga(problem, config, budget, rng):
    """Generational GA, its tournaments on the shared scores."""
    run = Run(problem, config, budget, rng)
    for _ in run.generations():
        run.breed(shared_scores(run.pop, config.sharing_radius, config.sharing_alpha,
                                run.direction), "max")
    return run.result()


def sharing_de(problem, config, budget, rng):
    """Every trial from the generation's parents; then a trial takes its
    target's slot iff its shared score, over parents and trials, is
    strictly higher."""
    run, n = Run(problem, config, budget, rng), config.population_size
    for _ in run.generations():
        trials = []
        for target in range(n):
            if not run.clock.left():
                break
            child = run.trial(target)
            trials.append((child, run.clock(child)))
        scores = shared_scores(run.pop + trials, config.sharing_radius, config.sharing_alpha,
                               run.direction)
        for t, trial in enumerate(trials):
            if scores[n + t] > scores[t]:
                run.pop[t] = trial
    return run.result()


def scga(problem, config, budget, rng):
    """Seeds saved, a generational GA's children, the seeds put back."""
    run = Run(problem, config, budget, rng)
    for _ in run.generations():
        seeds = [run.pop[i] for i in species_seeds(run.pop, config.species_distance,
                                                   run.direction)]
        run.breed(run.fitness(), run.direction)
        conserve(run.pop, seeds, config.species_distance, run.direction)
    return run.result()


def sde(problem, config, budget, rng, species_sizes=None):
    """Each member joins its nearest seed's species (the earlier on ties);
    a target draws its donors from its species, or from everyone if the
    species has fewer than 4 members, and its trial takes its slot iff
    strictly better. ``species_sizes``, a set, collects every size seen."""
    run = Run(problem, config, budget, rng)
    for _ in run.generations():
        seeds = [run.pop[i][0] for i in species_seeds(run.pop, config.species_distance,
                                                      run.direction)]
        home = [int(np.argmin(distances(genome, seeds))) for genome, _ in run.pop]
        species = [[i for i, k in enumerate(home) if k == s] for s in range(len(seeds))]
        if species_sizes is not None:
            species_sizes.update(len(members) for members in species)
        for target, k in enumerate(home):
            if not run.clock.left():
                break
            child = run.trial(target, species[k] if len(species[k]) >= 4 else None)
            value = run.clock(child)
            if better(value, run.pop[target][1], run.direction):
                run.pop[target] = (child, value)
    return run.result()


ALGORITHMS = {
    "preselection_ga": preselection_ga,
    "crowding_ga": crowding_ga,
    "crowding_de": crowding_de,
    "sharing_ga": sharing_ga,
    "sharing_de": sharing_de,
    "scga": scga,
    "sde": sde,
}
