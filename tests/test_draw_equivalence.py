"""The fast operators against the implementations they replaced.

Each ``reference_*`` function below is the earlier, straightforward form
of an operator or metric. The current one must return bit-identical values
and leave the random stream in the identical state, on random inputs and on
the edge cases named in each test. Together with the fingerprint table
this is what lets the hot path change without moving a published number.
"""

import numpy as np
import pytest

from nichebench.algorithms import (
    AlgorithmConfig,
    _RunState,
    conserve_species_seeds,
    crowding_replacement,
    determine_species_seeds,
)
from nichebench.core import (
    Individual,
    Population,
    blend_crossover,
    clip_to_bounds,
    de_trial_vector,
    gaussian_mutation,
    is_better,
)
from nichebench.harness import resolve_problem
from nichebench.metrics import avg_min_distance, distinct_peaks, peak_ratio


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

def euclidean_distance(a, b):
    """The scalar distance the seed scan used before it took arrays; an
    oracle only (``tests/test_core.py`` checks its metric properties)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


def random_genome(rng, bounds):
    """One member's draw as the initial population made it before it took
    one request for all members; an oracle only (``tests/test_core.py``
    and ``tests/test_algorithms.py`` draw genomes with it)."""
    lo = bounds[:, 0]
    # rng.uniform(lo, hi) computes exactly lo + (hi - lo) * next_double
    return lo + (bounds[:, 1] - lo) * rng.random(lo.shape[0])


def reference_clip(genome, bounds):
    return np.clip(genome, bounds[:, 0], bounds[:, 1])


def reference_random_genome(rng, bounds):
    return rng.uniform(bounds[:, 0], bounds[:, 1])


def reference_init_genomes(rng, bounds, n):
    """The initial population drawn one genome per call, row by row."""
    return [reference_random_genome(rng, bounds) for _ in range(n)]


def reference_blend_crossover(p1, p2, rng, bounds, alpha=0.5):
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    d = np.abs(p1 - p2)
    lo = np.minimum(p1, p2) - alpha * d
    hi = np.maximum(p1, p2) + alpha * d
    c1 = rng.uniform(lo, hi)
    c2 = rng.uniform(lo, hi)
    return reference_clip(c1, bounds), reference_clip(c2, bounds)


def reference_gaussian_mutation(genome, rng, bounds, rate, sigma):
    out = np.asarray(genome, dtype=float).copy()
    mask = rng.random(out.shape[0]) < rate
    if mask.any():
        scale = sigma * (bounds[mask, 1] - bounds[mask, 0])
        out[mask] += rng.normal(0.0, scale)
    return reference_clip(out, bounds)


def reference_de_trial_vector(target_idx, pop, F, CR, rng, bounds, donor_pool=None):
    pool = list(range(len(pop))) if donor_pool is None else list(donor_pool)
    candidates = np.array([i for i in pool if i != target_idx], dtype=int)
    a, b, c = rng.choice(candidates, size=3, replace=False)
    mutant = pop[int(a)].genome + F * (pop[int(b)].genome - pop[int(c)].genome)
    target = pop[target_idx].genome
    dim = target.shape[0]
    cross = rng.random(dim) < CR
    cross[int(rng.integers(dim))] = True
    return reference_clip(np.where(cross, mutant, target), bounds)


def reference_crowding_replacement(child, pop, cf, rng, direction):
    if cf == len(pop):
        idxs = np.arange(len(pop))
    else:
        idxs = rng.choice(len(pop), size=cf, replace=False)
    genomes = np.array([pop[int(i)].genome for i in idxs])
    dists = np.sqrt(np.sum((genomes - child.genome) ** 2, axis=1))
    nearest = int(np.min(idxs[dists == dists.min()]))
    if is_better(child.fitness, pop[nearest].fitness, direction):
        pop[nearest] = child
    return pop


def reference_species_seeds(pop, species_distance, direction):
    radius = species_distance / 2.0
    keys = pop.fitnesses()
    if direction == "max":
        keys = -keys
    seeds = []
    for idx in np.argsort(keys, kind="stable"):
        genome = pop[int(idx)].genome
        if all(euclidean_distance(genome, s.genome) >= radius for s in seeds):
            seeds.append(pop[int(idx)])
    return seeds


def reference_conserve(pop, seeds, species_distance, direction):
    if not seeds:
        return pop
    radius = species_distance / 2.0
    genomes = np.array([m.genome for m in pop])
    seed_matrix = np.array([s.genome for s in seeds])
    diff = genomes[:, None, :] - seed_matrix[None, :, :]
    dists = np.sqrt(np.sum(diff * diff, axis=2))
    assigned = np.argmin(dists, axis=1)
    replaced = set()

    def worst_of(indices):
        worst = indices[0]
        for i in indices[1:]:
            if is_better(pop[worst].fitness, pop[i].fitness, direction):
                worst = i
        return worst

    for k, seed in enumerate(seeds):
        members = [
            i for i in range(len(pop))
            if i not in replaced and assigned[i] == k and dists[i, k] < radius
        ]
        if members:
            surviving = [i for i in members if np.array_equal(pop[i].genome, seed.genome)]
            if surviving:
                replaced.add(surviving[0])
                continue
            slot = worst_of(members)
        else:
            candidates = [i for i in range(len(pop)) if i not in replaced]
            if not candidates:
                continue  # overflow: dropped
            slot = worst_of(candidates)
        pop[slot] = seed
        replaced.add(slot)
    return pop


def reference_distinct_peaks(pop, fitness_threshold=1e-4, radius=0.1, direction="min",
                             bounds=None):
    members = pop.genomes()
    if bounds is not None:
        bounds = np.asarray(bounds, dtype=float)
        members = (members - bounds[:, 0]) / (bounds[:, 1] - bounds[:, 0])
    counted = []
    for ind, point in zip(pop, members):
        if not is_better(ind.fitness, fitness_threshold, direction):
            continue
        if all(float(np.sqrt(np.sum((point - q) ** 2))) >= radius for q in counted):
            counted.append(point)
    return len(counted)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def twin_streams(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_same_stream(a, b):
    assert a.bit_generator.state == b.bit_generator.state


def assert_bits_equal(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


def random_bounds(rng, dim):
    lo = rng.uniform(-10, 10, size=dim)
    return np.column_stack([lo, lo + rng.uniform(0.1, 20, size=dim)])


def population(genomes, fitnesses):
    return Population([Individual(np.array(g, dtype=float), float(f))
                       for g, f in zip(genomes, fitnesses)])


def snapshot(pop):
    return [(m.genome.tobytes(), m.fitness) for m in pop]


DIMS = (1, 2, 3, 8)


# ---------------------------------------------------------------------------
# variation operators
# ---------------------------------------------------------------------------

def test_clip_matches_np_clip_including_signed_zero_and_nan():
    bounds = np.array([[0.0, 1.0], [-0.0, 0.0], [-1.0, -0.0], [0.0, 1.0]])
    cases = [
        [-0.0, 0.0, -0.0, np.nan],
        [0.0, -0.0, 0.0, 0.5],
        [-3.0, 2.0, -2.0, 7.0],
    ]
    for genome in cases:
        genome = np.array(genome)
        assert_bits_equal(clip_to_bounds(genome, bounds), reference_clip(genome, bounds))
    rng = np.random.default_rng(5)
    for _ in range(200):
        dim = int(rng.choice(DIMS))
        bounds = random_bounds(rng, dim)
        genome = rng.uniform(-30, 30, size=dim)
        assert_bits_equal(clip_to_bounds(genome, bounds), reference_clip(genome, bounds))


def test_random_genome_draws_match_uniform():
    rng = np.random.default_rng(6)
    for seed in range(200):
        bounds = random_bounds(rng, int(rng.choice(DIMS)))
        new, old = twin_streams(seed)
        for _ in range(5):
            assert_bits_equal(random_genome(new, bounds), reference_random_genome(old, bounds))
        assert_same_stream(new, old)


@pytest.mark.parametrize("name", ["himmelblau", "deb1", "grating"])
def test_init_population_draws_match_one_genome_per_call(name):
    problem = resolve_problem(name)
    for seed in range(200):
        n = 2 + seed % 59
        st = _RunState("crowding_ga", problem, AlgorithmConfig(population_size=n), n, seed)
        pop = st.init_population()
        old = np.random.default_rng(seed)
        want = reference_init_genomes(old, problem.bounds, n)
        assert len(pop) == n
        for member, genome in zip(pop, want):
            assert_bits_equal(member.genome, genome)
        assert_same_stream(st.rng, old)


def test_blend_crossover_matches_uniform_draws():
    rng = np.random.default_rng(7)
    for seed in range(300):
        dim = int(rng.choice(DIMS))
        bounds = random_bounds(rng, dim)
        p1 = rng.uniform(bounds[:, 0], bounds[:, 1])
        p2 = rng.uniform(bounds[:, 0], bounds[:, 1])
        if seed % 10 == 0:
            p2 = p1.copy()  # equal parents: zero width
        if seed % 10 == 1:
            p2[0] = p1[0]  # one zero-width coordinate
        alpha = float(rng.choice([0.0, 0.5, 1.0]))
        new, old = twin_streams(seed)
        got = blend_crossover(p1, p2, new, bounds, alpha=alpha)
        want = reference_blend_crossover(p1, p2, old, bounds, alpha=alpha)
        for g, w in zip(got, want):
            assert_bits_equal(g, w)
        assert_same_stream(new, old)


def test_blend_crossover_equal_parents_give_parent():
    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    p = np.array([0.25, 0.75])
    c1, c2 = blend_crossover(p, p.copy(), np.random.default_rng(1), bounds)
    assert_bits_equal(c1, p)
    assert_bits_equal(c2, p)


@pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
def test_gaussian_mutation_matches_normal_draws(rate):
    rng = np.random.default_rng(8)
    for seed in range(300):
        dim = int(rng.choice(DIMS))
        bounds = random_bounds(rng, dim)
        genome = rng.uniform(bounds[:, 0], bounds[:, 1])
        if seed % 7 == 0:
            genome[0] = -0.0
        sigma = float(rng.choice([0.01, 0.1, 2.0]))
        new, old = twin_streams(seed)
        got = gaussian_mutation(genome, new, bounds, rate=rate, sigma=sigma)
        want = reference_gaussian_mutation(genome, old, bounds, rate=rate, sigma=sigma)
        assert_bits_equal(got, want)
        assert_same_stream(new, old)


def test_gaussian_mutation_leaves_input_alone():
    genome = np.array([0.5, 0.5])
    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    gaussian_mutation(genome, np.random.default_rng(3), bounds, rate=1.0, sigma=0.5)
    assert genome.tolist() == [0.5, 0.5]


def _de_case(rng, n, dim):
    bounds = random_bounds(rng, dim)
    genomes = rng.uniform(bounds[:, 0], bounds[:, 1], size=(n, dim))
    return population(genomes, rng.uniform(size=n)), bounds


def test_de_trial_vector_matches_candidate_choice():
    rng = np.random.default_rng(9)
    for seed in range(400):
        n = int(rng.integers(4, 60))
        dim = int(rng.choice(DIMS))
        pop, bounds = _de_case(rng, n, dim)
        target = [0, n - 1, int(rng.integers(n))][seed % 3]
        F = float(rng.uniform(0.1, 1.0))
        CR = float(rng.choice([0.0, 0.5, 0.9, 1.0]))
        new, old = twin_streams(seed)
        got = de_trial_vector(target, pop, F, CR, new, bounds)
        want = reference_de_trial_vector(target, pop, F, CR, old, bounds)
        assert_bits_equal(got, want)
        assert_same_stream(new, old)


def test_de_trial_vector_with_explicit_donor_pool():
    rng = np.random.default_rng(10)
    for seed in range(200):
        n = int(rng.integers(6, 30))
        pop, bounds = _de_case(rng, n, int(rng.choice(DIMS)))
        pool = sorted(rng.choice(n, size=int(rng.integers(4, n + 1)), replace=False).tolist())
        outside = [i for i in range(n) if i not in pool]
        # mostly a target inside its pool (as in sde), sometimes one outside it
        target = outside[0] if outside and seed % 4 == 0 else pool[seed % len(pool)]
        new, old = twin_streams(seed)
        got = de_trial_vector(target, pop, 0.5, 0.9, new, bounds, donor_pool=pool)
        want = reference_de_trial_vector(target, pop, 0.5, 0.9, old, bounds, donor_pool=pool)
        assert_bits_equal(got, want)
        assert_same_stream(new, old)


def test_de_trial_vector_still_rejects_small_pools():
    rng = np.random.default_rng(11)
    pop, bounds = _de_case(rng, 3, 2)
    with pytest.raises(ValueError, match="at least 4"):
        de_trial_vector(0, pop, 0.5, 0.9, np.random.default_rng(0), bounds)
    pop, bounds = _de_case(rng, 10, 2)
    with pytest.raises(ValueError, match="at least 4"):
        de_trial_vector(0, pop, 0.5, 0.9, np.random.default_rng(0), bounds, donor_pool=[0, 1, 2])


# ---------------------------------------------------------------------------
# survivor selection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("direction", ["max", "min"])
def test_crowding_replacement_matches_restacking(direction):
    rng = np.random.default_rng(12)
    for seed in range(300):
        n = int(rng.integers(2, 20))
        dim = int(rng.choice(DIMS))
        genomes = rng.integers(-2, 3, size=(n, dim)).astype(float)  # ties and duplicates
        fits = rng.integers(0, 4, size=n).astype(float)
        cf = n if seed % 2 else int(rng.integers(1, n + 1))
        new_pop, old_pop = population(genomes, fits), population(genomes, fits)
        new, old = twin_streams(seed)
        for _ in range(5):  # a sequence of challenges on the same population
            child = Individual(rng.integers(-2, 3, size=dim).astype(float),
                               float(rng.integers(0, 5)))
            accepted = crowding_replacement(child, new_pop, cf, new, direction)
            reference_crowding_replacement(child, old_pop, cf, old, direction)
            assert accepted is any(m is child for m in new_pop.members)
            assert [m is child for m in new_pop] == [m is child for m in old_pop]
            assert snapshot(new_pop) == snapshot(old_pop)
            assert_bits_equal(new_pop.genomes(), old_pop.genomes())
        assert_same_stream(new, old)


@pytest.mark.parametrize("direction", ["max", "min"])
def test_species_seed_scan_matches_scalar_distances(direction):
    rng = np.random.default_rng(13)
    for _ in range(400):
        n = int(rng.integers(1, 40))
        dim = int(rng.choice(DIMS))
        genomes = rng.uniform(-1, 1, size=(n, dim))
        if n > 3:
            genomes[1] = genomes[0]  # duplicate genomes
        fits = rng.integers(0, 5, size=n).astype(float)
        sigma = float(rng.uniform(0.05, 3.0))
        pop = population(genomes, fits)
        got = determine_species_seeds(pop, sigma, direction)
        want = reference_species_seeds(pop, sigma, direction)
        assert [(s.genome.tobytes(), s.fitness) for s in got] == \
            [(s.genome.tobytes(), s.fitness) for s in want]


def test_species_seed_scan_pair_at_exactly_half_the_distance():
    # 0.5 apart with species_distance 1.0: distance == radius, so both seed
    pop = population([[0.0, 0.0], [0.5, 0.0], [0.25, 0.0]], [3.0, 2.0, 1.0])
    got = determine_species_seeds(pop, 1.0, "max")
    want = reference_species_seeds(pop, 1.0, "max")
    assert [s.genome.tolist() for s in got] == [[0.0, 0.0], [0.5, 0.0]]
    assert [s.genome.tolist() for s in got] == [s.genome.tolist() for s in want]


@pytest.mark.parametrize("direction", ["max", "min"])
def test_conservation_matches_list_comprehensions(direction):
    rng = np.random.default_rng(14)
    for trial in range(400):
        n = int(rng.integers(1, 30))
        dim = int(rng.choice((1, 2, 3)))
        sigma = float(rng.uniform(0.1, 2.0))
        parents = population(rng.uniform(-1, 1, size=(n, dim)),
                             rng.integers(0, 4, size=n).astype(float))
        seeds = determine_species_seeds(parents, sigma, direction)
        if trial % 5 == 0:  # more seeds than slots: overflow
            seeds = seeds + [Individual(rng.uniform(5, 9, size=dim), 9.0) for _ in range(n)]
        genomes = rng.uniform(-1, 1, size=(n, dim))
        fits = rng.integers(0, 4, size=n).astype(float)
        if n > 2:
            genomes[0] = genomes[1]  # duplicate genomes
            genomes[2] = seeds[0].genome  # one seed survived variation
        if trial % 4 == 0 and n > 3:
            genomes[3] = seeds[0].genome  # and a clone of it
        new_pop, old_pop = population(genomes, fits), population(genomes, fits)
        conserve_species_seeds(new_pop, seeds, sigma, direction)
        reference_conserve(old_pop, seeds, sigma, direction)
        assert snapshot(new_pop) == snapshot(old_pop)
        assert_bits_equal(new_pop.genomes(), np.array([m.genome for m in new_pop]))


def test_conservation_seed_at_exactly_half_the_distance_is_outside():
    # the member sits exactly on the region's edge, so the species is empty
    # and the globally worst member gives way
    seed = Individual(np.array([0.0]), 5.0)
    for conserve in (conserve_species_seeds, reference_conserve):
        pop = population([[0.5], [3.0], [4.0]], [1.0, 0.0, 2.0])
        conserve(pop, [seed], 1.0, "max")
        assert [m.genome[0] for m in pop] == [0.5, 0.0, 4.0]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("direction", ["max", "min"])
def test_distinct_peaks_matches_scalar_rescan(direction):
    rng = np.random.default_rng(16)
    for trial in range(400):
        n = int(rng.integers(1, 60))
        dim = int(rng.choice(DIMS))
        bounds = random_bounds(rng, dim) if trial % 2 else None
        lo, hi = (0.0, 1.0) if bounds is None else (bounds[:, 0], bounds[:, 1])
        genomes = rng.uniform(lo, hi, size=(n, dim))
        if n > 3:
            genomes[1] = genomes[0]  # duplicate genomes
        pop = population(genomes, rng.uniform(0.0, 2.0, size=n))
        threshold = float(rng.uniform(0.0, 2.0))
        radius = float(rng.uniform(0.01, 0.8))
        got = distinct_peaks(pop, threshold, radius, direction, bounds)
        assert got == reference_distinct_peaks(pop, threshold, radius, direction, bounds)


def test_distinct_peaks_pair_at_exactly_the_radius_counts_twice():
    pop = population([[0.0, 0.0], [0.5, 0.0], [0.25, 0.0]], [0.0, 0.0, 0.0])
    assert distinct_peaks(pop, 1.0, 0.5) == reference_distinct_peaks(pop, 1.0, 0.5) == 2


def test_metrics_leave_the_genome_matrix_alone():
    rng = np.random.default_rng(17)
    pop = population(rng.uniform(size=(20, 3)), np.zeros(20))
    before = pop.genomes()
    bounds = np.array([[0.0, 2.0]] * 3)
    distinct_peaks(pop, 1.0, 0.2, "min", bounds)
    peak_ratio(pop, [np.full(3, 0.5)])
    avg_min_distance(pop, [np.full(3, 0.5)])
    assert_bits_equal(pop.genome_matrix(), before)


# ---------------------------------------------------------------------------
# the population's genome matrix
# ---------------------------------------------------------------------------

def test_genomes_track_every_setitem_and_belong_to_the_caller():
    rng = np.random.default_rng(15)
    pop = population(rng.uniform(size=(10, 3)), rng.uniform(size=10))
    first = pop.genomes()
    first[:] = 99.0  # the caller's copy
    assert_bits_equal(pop.genomes(), np.array([m.genome for m in pop]))
    for _ in range(50):
        slot = int(rng.integers(10))
        pop[slot] = Individual(rng.uniform(size=3), float(rng.uniform()))
        genomes = pop.genomes()
        assert_bits_equal(genomes, np.array([m.genome for m in pop]))
        genomes[slot] = -1.0
        assert not np.array_equal(pop.genomes(), genomes)
    assert not (pop.genomes() == 99.0).any()
