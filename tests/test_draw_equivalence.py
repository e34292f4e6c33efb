"""The fast operators and whole runs against the forms they replaced.

Each ``reference_*`` function below is the earlier, straightforward form
of an operator or a draw; ``spec`` states the seven algorithms one
individual at a time, and is the oracle for whole runs, crowding's
challenge, the tournaments, the species seed scan and conservation;
``distinct_peaks`` is checked against ``test_metrics``' re-scan. The
current code must return bit-identical values and leave the random
stream in the identical state, on random inputs and on the edge cases
named in each test. Together with the fingerprint table this is what
lets the hot path change without moving a published number.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from nichebench import core, draws
from nichebench.algorithms import (
    ALGORITHMS,
    AlgorithmConfig,
    _Crowding,
    _RunState,
    _nearest,
    conserve_species_seeds,
    crowding_replacement,
    determine_species_seeds,
    scga,
)
from nichebench.core import (
    Individual,
    Population,
    binary_tournament,
    blend_crossover,
    clip_to_bounds,
    de_trial_vector,
    gaussian_mutation,
)
from nichebench.draws import de_draws, de_generation_draws, ga_generation_draws, mutation_draws
from nichebench.harness import resolve_problem
from nichebench.metrics import avg_min_distance, distinct_peaks, peak_ratio
from nichebench.problems import BoundedProblem
import spec
from test_import_guard import run_fresh
from test_metrics import oracle_distinct_peaks


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

def random_genome(rng, bounds):
    """One member's draw as the initial population made it before it took
    one request for all members; an oracle only (``tests/test_core.py``
    and ``tests/test_algorithms.py`` draw genomes with it)."""
    lo = bounds[:, 0]
    # rng.uniform(lo, hi) computes exactly lo + (hi - lo) * next_double
    return lo + (bounds[:, 1] - lo) * rng.random(lo.shape[0])


def reference_clip(genome, bounds):
    return np.clip(genome, bounds[:, 0], bounds[:, 1])


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


def reference_de_trial_vector(target_idx, genomes, F, CR, rng, bounds, donor_pool=None):
    pool = list(range(len(genomes))) if donor_pool is None else list(donor_pool)
    candidates = np.array([i for i in pool if i != target_idx], dtype=int)
    a, b, c = rng.choice(candidates, size=3, replace=False)
    mutant = genomes[a] + F * (genomes[b] - genomes[c])
    target = genomes[target_idx]
    dim = target.shape[0]
    cross = rng.random(dim) < CR
    cross[int(rng.integers(dim))] = True
    return reference_clip(np.where(cross, mutant, target), bounds)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def twin_streams(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def same_state(a, b):
    """Equal bit generator states; MT19937's holds an array."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def assert_same_stream(a, b):
    assert same_state(a.bit_generator.state, b.bit_generator.state)


def assert_bits_equal(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


def assert_same_run(got, want, new, old):
    """Equal run results, byte for byte, and equal stream states after them."""
    assert_bits_equal(got.genomes, want.genomes)
    assert_bits_equal(got.fitness, want.fitness)
    assert got.trace == want.trace and got.evals_used == want.evals_used
    assert_same_stream(new, old)


def box_diagonal(bounds):
    return float(np.sqrt(((bounds[:, 1] - bounds[:, 0]) ** 2).sum()))


def random_bounds(rng, dim):
    lo = rng.uniform(-10, 10, size=dim)
    return np.column_stack([lo, lo + rng.uniform(0.1, 20, size=dim)])


def population(genomes, fitnesses):
    return Population(np.array(genomes, dtype=float), np.array(fitnesses, dtype=float))


def snapshot(pop):
    return [(m.genome.tobytes(), m.fitness) for m in pop.members]


def spec_pop(genomes, fitnesses):
    """Copies of the rows as the spec's list of ``(genome, fitness)`` pairs."""
    return list(zip(np.array(genomes, dtype=float), np.array(fitnesses, dtype=float).tolist()))


def pair_bytes(pop):
    return [(g.tobytes(), f) for g, f in pop]


def per_child_blend(p1, p2, rng, bounds, alpha=0.5):
    """One pair's BLX children, drawn for and built on their own."""
    return blend_crossover(p1, p2, rng.random((2, p1.shape[0])), bounds, alpha)


def per_child_mutation(genome, rng, bounds, rate, sigma):
    """One child's mutation, drawn for and built on its own."""
    mask, normals = mutation_draws(rng, genome.shape[0], rate)
    return gaussian_mutation(genome, mask, normals, bounds, sigma)


def per_child_tournament(fitness, rng, direction):
    """One binary tournament, its two candidates drawn as two integers(n) calls."""
    first, second = int(rng.integers(len(fitness))), int(rng.integers(len(fitness)))
    return binary_tournament(fitness, first, second, direction)


def per_child_crowding(child, pop, cf, rng, direction):
    """One crowding step as the per-child loop made it: the sample of cf
    < n members drawn, the child's distances to the whole population
    restacked, its nearest sampled member picked as ``_Crowding`` picks
    it, then the challenge."""
    n = len(pop.members)
    sample = None if cf == n else np.sort(rng.choice(n, size=cf, replace=False))
    dists = np.sqrt(((pop.genomes - child.genome) ** 2).sum(axis=1))
    return crowding_replacement(child, pop, _nearest(dists, sample), direction)


def per_child_trial(target, genomes, F, CR, rng, bounds, donor_pool=None):
    """One DE trial from the rows of ``genomes``, drawn for and built on its own."""
    donors, cross = de_draws(rng, len(genomes), target, genomes.shape[1], CR, donor_pool)
    return de_trial_vector(genomes, target, donors, cross, F, bounds)


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
            assert_bits_equal(random_genome(new, bounds), old.uniform(bounds[:, 0], bounds[:, 1]))
        assert_same_stream(new, old)


@pytest.mark.parametrize("name", ["himmelblau", "deb1", "grating"])
def test_init_population_draws_match_one_genome_per_call(name):
    problem = resolve_problem(name)
    for seed in range(200):
        n = 2 + seed % 59
        config, (new, old) = AlgorithmConfig(population_size=n), twin_streams(seed)
        # a budget of n runs the initial population alone, one uniform row per member
        got = ALGORITHMS["crowding_ga"](problem, config, n, new)
        assert got.genomes.shape == (n, problem.dimension) and got.fitness.shape == (n,)
        assert_same_run(got, spec.crowding_ga(problem, config, n, old), new, old)


@pytest.mark.parametrize("direction", ["max", "min"])
def test_binary_tournament_matches_member_and_score_tournaments(direction):
    # the spec runs one tournament on fitness and on sharing's scores
    # (larger is better: direction "max")
    rng = np.random.default_rng(9)
    for seed in range(300):
        n = int(rng.integers(1, 12))
        fits = rng.integers(0, 3, size=n).astype(float)  # many ties
        if seed % 5 == 0:
            fits[0], fits[-1] = 0.0, -0.0
        rng.uniform(size=(n, 2))  # the genomes this case once drew
        new, old = twin_streams(seed)
        for _ in range(5):  # four integers(n) calls read what integers(n, size=4) reads
            assert [per_child_tournament(fits, new, direction) for _ in range(2)] == \
                list(spec.tournaments(fits, old, direction))
        assert_same_stream(new, old)
        new, old = twin_streams(seed)
        for _ in range(5):  # a pair's two tournaments, drawn and run as the GAs do
            candidates = new.integers(n, size=4)
            pair = binary_tournament(fits, candidates[0::2], candidates[1::2], direction)
            assert pair.tolist() == list(spec.tournaments(fits, old, direction))
        assert_same_stream(new, old)


@pytest.mark.parametrize("n", [2, 3, 5, 50, 3 * 2**30])
def test_four_tournament_candidates_in_one_request(n):
    # a pair's two tournaments draw integers(n, size=4): the same 32-bit
    # Lemire draws, from the held half first, as four integers(n) calls;
    # at 3 * 2**30 about a quarter of the draws are rejected and redrawn
    flips = 0  # an odd number of redraws flips whether a half is held
    for seed in range(300):
        new, old = generation_case(seed, held=seed % 2 == 1)
        for _ in range(3):
            held = new.bit_generator.state["has_uint32"]
            got = new.integers(n, size=4)
            want = [old.integers(n) for _ in range(4)]
            assert got.dtype == np.int64 and got.tolist() == want
            assert_same_stream(new, old)
            flips += new.bit_generator.state["has_uint32"] != held
    assert (flips > 0) == (n == 3 * 2**30)


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
        got = per_child_blend(p1, p2, new, bounds, alpha=alpha)
        want = reference_blend_crossover(p1, p2, old, bounds, alpha=alpha)
        for g, w in zip(got, want):
            assert_bits_equal(g, w)
        assert_same_stream(new, old)


def test_blend_crossover_equal_parents_give_parent():
    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    p = np.array([0.25, 0.75])
    c1, c2 = per_child_blend(p, p.copy(), np.random.default_rng(1), bounds)
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
        got = per_child_mutation(genome, new, bounds, rate=rate, sigma=sigma)
        want = reference_gaussian_mutation(genome, old, bounds, rate=rate, sigma=sigma)
        assert_bits_equal(got, want)
        assert_same_stream(new, old)


def test_gaussian_mutation_leaves_input_alone():
    genome = np.array([0.5, 0.5])
    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    per_child_mutation(genome, np.random.default_rng(3), bounds, rate=1.0, sigma=0.5)
    assert genome.tolist() == [0.5, 0.5]


def _de_case(rng, n, dim):
    bounds = random_bounds(rng, dim)
    genomes = rng.uniform(bounds[:, 0], bounds[:, 1], size=(n, dim))
    rng.uniform(size=n)  # the fitness this case once drew
    return genomes, bounds


def test_de_trial_vector_matches_candidate_choice():
    rng = np.random.default_rng(9)
    for seed in range(400):
        n = int(rng.integers(4, 60))
        dim = int(rng.choice(DIMS))
        genomes, bounds = _de_case(rng, n, dim)
        target = [0, n - 1, int(rng.integers(n))][seed % 3]
        F = float(rng.uniform(0.1, 1.0))
        CR = float(rng.choice([0.0, 0.5, 0.9, 1.0]))
        new, old = twin_streams(seed)
        got = per_child_trial(target, genomes, F, CR, new, bounds)
        want = reference_de_trial_vector(target, genomes, F, CR, old, bounds)
        assert_bits_equal(got, want)
        assert_same_stream(new, old)


def test_de_trial_vector_with_explicit_donor_pool():
    rng = np.random.default_rng(10)
    for seed in range(200):
        n = int(rng.integers(6, 30))
        genomes, bounds = _de_case(rng, n, int(rng.choice(DIMS)))
        pool = sorted(rng.choice(n, size=int(rng.integers(4, n + 1)), replace=False).tolist())
        outside = [i for i in range(n) if i not in pool]
        # mostly a target inside its pool (as in sde), sometimes one outside it
        target = outside[0] if outside and seed % 4 == 0 else pool[seed % len(pool)]
        new, old = twin_streams(seed)
        got = per_child_trial(target, genomes, 0.5, 0.9, new, bounds, donor_pool=pool)
        want = reference_de_trial_vector(target, genomes, 0.5, 0.9, old, bounds, donor_pool=pool)
        assert_bits_equal(got, want)
        assert_same_stream(new, old)


def test_de_trial_vector_still_rejects_small_pools():
    rng = np.random.default_rng(11)
    genomes, bounds = _de_case(rng, 3, 2)
    with pytest.raises(ValueError, match="at least 4"):
        per_child_trial(0, genomes, 0.5, 0.9, np.random.default_rng(0), bounds)
    genomes, bounds = _de_case(rng, 10, 2)
    with pytest.raises(ValueError, match="at least 4"):
        per_child_trial(0, genomes, 0.5, 0.9, np.random.default_rng(0), bounds,
                        donor_pool=[0, 1, 2])
    # a generation fails before its first draw, even when earlier targets could draw
    for n, pools in ((3, None), (10, np.array([0, 0, 0, 0, 1, 1, 1, -1, -1, -1])),
                     (5, np.array([-1, 2, 2, 2, -1]))):
        for stream in (np.random.default_rng(0), np.random.Generator(np.random.MT19937(0))):
            before = stream.bit_generator.state
            with pytest.raises(ValueError, match="at least 4"):
                de_generation_draws(stream, n, n, 2, 0.9, pools)
            assert same_state(stream.bit_generator.state, before)


# ---------------------------------------------------------------------------
# a DE generation's draws, decoded from raw words
# ---------------------------------------------------------------------------

def sequential_de_draws(rng, n, m, dim, CR, pools=None, cf=None):
    """m de_draws calls for targets 0..m-1, with de_generation_draws' pool
    labels, each followed, for ``cf``, by its crowding sample."""
    donors, cross, samples = [], [], []
    for target in range(m):
        pool = (None if pools is None or pools[target] < 0
                else [i for i in range(n) if pools[i] == pools[target]])
        trial_donors, trial_cross = de_draws(rng, n, target, dim, CR, pool)
        donors.append(trial_donors)
        cross.append(trial_cross)
        if cf is not None:
            samples.append(rng.choice(n, size=cf, replace=False))
    return (np.array(donors, np.intp).reshape(m, 3).T, np.array(cross, bool).reshape(m, dim),
            None if cf is None else samples)


def species_labels(rng, n):
    """sde's pools: random species, those below 4 members labelled -1 (everyone)."""
    labels = rng.integers(max(1, n // 4), size=n)
    return np.where(np.bincount(labels)[labels] >= 4, labels, -1)


def generation_case(seed, held):
    """Twin streams, both holding back a 32-bit half when ``held``."""
    new, old = twin_streams(seed)
    if held:
        new.integers(7), old.integers(7)
        assert new.bit_generator.state["has_uint32"] == 1
    return new, old


def assert_same_draws(got, want, new, old):
    assert_bits_equal(got[0], want[0])
    assert_bits_equal(got[1], want[1])
    if want[2] is None:
        assert got[2] is None
    else:
        assert_bits_equal(got[2], want[2])
    assert_same_stream(new, old)
    assert new.random() == old.random()


def _no_real_calls(*args):
    raise AssertionError("took the real-call path")


@pytest.fixture
def decoding(monkeypatch):
    """Every DE generation on a PCG64 stream must be decoded, crowding
    samples included: the probe passed, and the per-trial path fails the
    test."""
    assert draws._decoder_probe()
    monkeypatch.setattr(draws, "_real_de_draws", _no_real_calls)


@pytest.mark.parametrize("n", [4, 5, 7, 10, 50])
def test_generation_draws_match_sequential_de_draws(n, decoding):
    rng = np.random.default_rng(30 + n)
    for seed in range(300):
        dim = int(rng.choice(DIMS))
        m = n if seed % 3 else int(rng.integers(1, n))  # full and partial generations
        pools = species_labels(rng, n) if seed % 2 else None
        CR = float(rng.choice([0.0, 0.5, 0.9, 1.0]))
        new, old = generation_case(seed, held=rng.random() < 0.5)
        assert_same_draws(de_generation_draws(new, n, m, dim, CR, pools),
                          sequential_de_draws(old, n, m, dim, CR, pools), new, old)


@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("dim", DIMS)
def test_generation_draws_with_a_species_of_four(dim, held, decoding):
    # targets 0-3 draw from 3 members: choice() skips Floyd's j = 0 draw,
    # which flips the half-word parity for the trials after them
    pools = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, -1, 2, 2, 2, 2])
    for seed in range(40):
        m = (14, 3, 9)[seed % 3]
        new, old = generation_case(seed, held)
        assert_same_draws(de_generation_draws(new, 14, m, dim, 0.9, pools),
                          sequential_de_draws(old, 14, m, dim, 0.9, pools), new, old)


def test_a_possible_redraw_restores_the_stream_for_the_per_trial_path(monkeypatch):
    assert draws._decoder_probe()  # probed with the real predicate
    consulted, entry_states = [], []
    monkeypatch.setattr(draws, "_may_redraw", lambda low, span: consulted.append(1) or True)
    real_draws = draws._real_de_draws

    def per_trial(rng, *args):
        entry_states.append(rng.bit_generator.state)
        return real_draws(rng, *args)

    monkeypatch.setattr(draws, "_real_de_draws", per_trial)
    rng = np.random.default_rng(40)
    for seed in range(60):
        n, dim = int(rng.choice([4, 7, 50])), int(rng.choice(DIMS))
        pools = species_labels(rng, n) if seed % 2 else None
        cf = (None, 1, 3)[seed % 3]  # with and without crowding samples
        new, old = generation_case(seed, held=seed % 4 >= 2)
        start = new.bit_generator.state
        got = de_generation_draws(new, n, n, dim, 0.9, pools, cf)
        assert entry_states.pop() == start
        assert_same_draws(got, sequential_de_draws(old, n, n, dim, 0.9, pools, cf), new, old)
    assert len(consulted) == 60


def _no_decoding(*args):
    raise AssertionError("decoded where the per-trial path was due")


def test_other_bit_generators_take_the_per_trial_path(monkeypatch):
    monkeypatch.setattr(draws, "_decode_de", _no_decoding)
    for seed in range(20):
        n, dim = (5, 10, 50)[seed % 3], DIMS[seed % 4]
        pools = species_labels(np.random.default_rng(seed), n) if seed % 2 else None
        new, old = (np.random.Generator(np.random.MT19937(seed)) for _ in range(2))
        assert_same_draws(de_generation_draws(new, n, n, dim, 0.9, pools),
                          sequential_de_draws(old, n, n, dim, 0.9, pools), new, old)


def test_a_failed_probe_takes_the_per_trial_path(monkeypatch):
    assert draws._decoder_probe.__wrapped__()
    # a decoder that misreads choice()'s shuffle fails the probe, run uncached
    floyd = draws._floyd
    monkeypatch.setattr(draws, "_floyd", lambda *args: floyd(*args)[::-1])
    assert not draws._decoder_probe.__wrapped__()
    monkeypatch.setattr(draws, "_decoder_probe", lambda: False)
    monkeypatch.setattr(draws, "_decode_de", _no_decoding)
    for seed in range(10):
        new, old = generation_case(seed, held=seed % 2 == 1)
        assert_same_draws(de_generation_draws(new, 10, 10, 2, 0.9),
                          sequential_de_draws(old, 10, 10, 2, 0.9), new, old)


# ---------------------------------------------------------------------------
# a GA generation's draws, decoded from raw words
# ---------------------------------------------------------------------------

def sequential_ga_draws(rng, n, m, dim, rate, tournaments=True, cf=None):
    """A GA generation's requests made one at a time in the frozen order:
    per pair its four tournament draws, its BLX doubles, then per child
    the mask doubles, the normals and, for ``cf``, the crowding sample."""
    order = None if tournaments else rng.permutation(n)
    candidates, u, masks, normals, samples = [], [], [], [], []
    for k in range(0, m, 2):
        if tournaments:
            candidates.append([rng.integers(n) for _ in range(4)])
        u.append(rng.random((2, dim)))
        for _ in range(min(2, m - k)):
            masks.append(rng.random(dim) < rate)
            mutated = int(masks[-1].sum())
            normals.append(rng.standard_normal(mutated) if mutated else np.empty(0))
            if cf is not None:
                samples.append(rng.choice(n, size=cf, replace=False))
    picks = np.array(candidates, np.int64).reshape(-1, 4) if tournaments else order
    return (picks, np.array(u).reshape(-1, 2, dim), np.array(masks).reshape(-1, dim), normals,
            None if cf is None else samples)


def assert_same_ga_draws(got, want, new, old):
    """Bit-equal draws, and the same state: the held half and NumPy's stale
    ``uinteger`` included."""
    for g, w in zip(got[:3], want[:3]):
        assert_bits_equal(g, w)
    assert len(got[3]) == len(want[3])
    for g, w in zip(got[3], want[3]):
        assert_bits_equal(g, w)
    if want[4] is None:
        assert got[4] is None
    else:
        assert_bits_equal(got[4], want[4])
    assert_same_stream(new, old)
    assert new.random() == old.random()


@pytest.fixture
def ga_decoding(monkeypatch):
    """Every GA generation on a PCG64 stream must be decoded, crowding
    samples included: the probe passed, and the real-call path fails the
    test."""
    assert draws._ga_decoder_probe()
    monkeypatch.setattr(draws, "_real_ga_draws", _no_real_calls)


def ga_case(rng, dim, seed):
    """A population size, a child count (full, odd or cut short by the
    budget) and a rate of 0, 1, 1/d or 0.5."""
    n = int(rng.choice([2, 3, 7, 10, 11, 50]))
    m = n if seed % 3 else int(rng.integers(1, n + 1))
    return n, m, (0.0, 1.0, 1.0 / dim, 0.5)[seed % 4]


@pytest.mark.parametrize("tournaments", [True, False])
@pytest.mark.parametrize("dim", DIMS)
def test_ga_generation_draws_match_sequential_calls(dim, tournaments, ga_decoding):
    rng = np.random.default_rng(50 + dim)
    for seed in range(160):
        n, m, rate = ga_case(rng, dim, seed)
        new, old = generation_case(seed, held=seed % 8 >= 4)
        assert_same_ga_draws(ga_generation_draws(new, n, m, dim, rate, tournaments),
                             sequential_ga_draws(old, n, m, dim, rate, tournaments), new, old)


def slow_path_words(seed, held, n, m, dim, rate):
    """How many more words a tournament generation's real calls read than
    one per normal: above 0 iff a normal took NumPy's slow path."""
    rng, twin = generation_case(seed, held)
    ahead = twin.bit_generator.random_raw(m * (3 * dim + 2) + 64)
    normals = sequential_ga_draws(rng, n, m, dim, rate)[3]
    fast = (m + 1) // 2 * (2 + 2 * dim) + m * dim + sum(len(x) for x in normals)
    return int(np.flatnonzero(ahead == rng.bit_generator.random_raw())[0]) - fast


def test_a_slow_path_normal_mid_generation_comes_from_a_real_call(ga_decoding):
    # seeds whose first 48 children already hold a slow-path normal; the
    # decoder gets it from one real call and must find where the walk goes on
    n, dim, rate = 50, 2, 1.0
    seeds = [seed for seed in range(40) if slow_path_words(seed, seed % 2 == 1, n, 48, dim, rate)]
    assert len(seeds) >= 10
    for seed in seeds:
        new, old = generation_case(seed, held=seed % 2 == 1)
        assert_same_ga_draws(ga_generation_draws(new, n, n, dim, rate),
                             sequential_ga_draws(old, n, n, dim, rate), new, old)


SAMPLE_DIMS = (1, 2, 8)


def sample_sizes(n):
    """The crowding factors below ``n`` that the sample tests cover."""
    return sorted({cf for cf in (1, 2, 3, n - 1) if cf < n})


@pytest.mark.parametrize("tournaments", [True, False])
@pytest.mark.parametrize("dim", SAMPLE_DIMS)
def test_ga_crowding_samples_are_decoded(dim, tournaments, ga_decoding):
    rng = np.random.default_rng(70 + dim)
    for seed in range(40):
        n = (3, 5, 10, 11, 50)[seed % 5]
        m = n if seed % 2 else n - 1 + n % 2  # full and odd child counts
        for cf in sample_sizes(n):
            rate = float(rng.choice([0.0, 0.5, 1.0]))
            new, old = generation_case(seed, held=seed % 4 >= 2)
            assert_same_ga_draws(ga_generation_draws(new, n, m, dim, rate, tournaments, cf),
                                 sequential_ga_draws(old, n, m, dim, rate, tournaments, cf),
                                 new, old)


@pytest.mark.parametrize("dim", SAMPLE_DIMS)
def test_de_crowding_samples_are_decoded(dim, decoding):
    rng = np.random.default_rng(80 + dim)
    for seed in range(40):
        n = (5, 7, 10, 11, 50)[seed % 5]
        m = n - (seed % 3 == 0)  # full and partial generations, odd m among them
        pools = species_labels(rng, n) if seed % 2 else None
        for cf in sample_sizes(n):
            new, old = generation_case(seed, held=seed % 4 >= 2)
            assert_same_draws(de_generation_draws(new, n, m, dim, 0.9, pools, cf),
                              sequential_de_draws(old, n, m, dim, 0.9, pools, cf), new, old)


def test_samples_that_numpy_draws_by_its_tail_shuffle_take_the_real_call_path(monkeypatch):
    # choice() shuffles the tail of arange(n) for n above 10000 with cf
    # above n // 50, and uses Floyd's algorithm up to n // 50
    assert draws._decoder_probe() and draws._ga_decoder_probe()
    real = []
    for name in ("_real_ga_draws", "_real_de_draws"):
        monkeypatch.setattr(draws, name, lambda *args, calls=getattr(draws, name):
                            real.append(args[-1]) or calls(*args))
    for seed, cf in ((1, 200), (2, 201), (3, 200), (4, 201)):
        new, old = generation_case(seed, held=seed > 2)
        assert_same_ga_draws(ga_generation_draws(new, 10001, 3, 2, 0.5, cf=cf),
                             sequential_ga_draws(old, 10001, 3, 2, 0.5, cf=cf), new, old)
        new, old = generation_case(seed, held=seed > 2)
        assert_same_draws(de_generation_draws(new, 10001, 3, 2, 0.9, cf=cf),
                          sequential_de_draws(old, 10001, 3, 2, 0.9, cf=cf), new, old)
    assert real == [201] * 4


def _no_ga_decoding(*args):
    raise AssertionError("decoded where the real-call path was due")


def test_other_bit_generators_take_the_real_call_path(monkeypatch):
    monkeypatch.setattr(draws, "_decode_ga", _no_ga_decoding)
    for seed in range(20):
        n, dim = (5, 10, 50)[seed % 3], DIMS[seed % 4]
        new, old = (np.random.Generator(np.random.MT19937(seed)) for _ in range(2))
        assert_same_ga_draws(ga_generation_draws(new, n, n, dim, 0.5, seed % 2 == 0),
                             sequential_ga_draws(old, n, n, dim, 0.5, seed % 2 == 0), new, old)


def test_a_rate_outside_the_unit_interval_raises_where_the_real_calls_do(monkeypatch):
    monkeypatch.setattr(draws, "_decode_ga", _no_ga_decoding)
    for rate in (-0.1, 1.5, float("nan")):
        new, old = twin_streams(3)
        with pytest.raises(ValueError, match="mutation rate"):
            ga_generation_draws(new, 10, 10, 2, rate)
        with pytest.raises(ValueError, match="mutation rate"):
            draws._real_ga_draws(old, 10, 10, 2, rate)
        assert_same_stream(new, old)


@pytest.mark.parametrize("cause", ["redraw", "short request"])
def test_a_generation_that_cannot_be_decoded_restores_the_stream(monkeypatch, cause):
    assert draws._ga_decoder_probe()  # probed with the real predicate and request size
    if cause == "redraw":
        monkeypatch.setattr(draws, "_may_redraw", lambda low, span: True)
    else:
        monkeypatch.setattr(draws, "_SPARE", -100)  # short whatever the samples add
    entry_states = []
    real_draws = draws._real_ga_draws

    def real_calls(rng, *args):
        entry_states.append(rng.bit_generator.state)
        return real_draws(rng, *args)

    monkeypatch.setattr(draws, "_real_ga_draws", real_calls)
    for seed in range(40):
        # tournaments and crowding samples make Lemire draws; a short
        # request can come with either or neither
        dim, tournaments, cf = DIMS[seed % 4], seed % 2 == 1, (None, 3, 49)[seed % 3]
        if cause == "redraw" and not tournaments and cf is None:
            cf = 2
        new, old = generation_case(seed, held=seed % 4 >= 2)
        start = new.bit_generator.state
        got = ga_generation_draws(new, 50, 49, dim, 1.0, tournaments, cf)
        assert entry_states.pop() == start
        assert_same_ga_draws(got, sequential_ga_draws(old, 50, 49, dim, 1.0, tournaments, cf),
                             new, old)
    assert entry_states == []


def test_a_failed_ga_probe_takes_the_real_call_path(monkeypatch):
    assert draws._ga_decoder_probe.__wrapped__()
    # a decoder that forgets the held half fails the probe, run uncached
    leave = draws._leave
    monkeypatch.setattr(draws, "_leave", lambda bitgen, held, *rest: leave(bitgen, False, *rest))
    assert not draws._ga_decoder_probe.__wrapped__()
    monkeypatch.setattr(draws, "_ga_decoder_probe", lambda: False)
    monkeypatch.setattr(draws, "_decode_ga", _no_ga_decoding)
    for seed in range(10):
        new, old = generation_case(seed, held=seed % 2 == 1)
        assert_same_ga_draws(ga_generation_draws(new, 10, 10, 2, 0.5),
                             sequential_ga_draws(old, 10, 10, 2, 0.5), new, old)


def test_ga_decoding_in_a_fresh_process_with_the_probe_limits():
    # earlier tests have raised this process's limits; a fresh process
    # decodes with what the probe proved, so more normals are real calls
    out = run_fresh(
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "import numpy as np\n"
        "from nichebench import draws\n"
        "from test_draw_equivalence import generation_case, same_state, sequential_ga_draws\n"
        "assert draws._ga_decoder_probe()\n"
        "left, mismatches = draws._normal_limit.copy(), 0\n"
        "rng = np.random.default_rng(60)\n"
        "for seed in range(200):\n"
        "    draws._normal_limit[:] = left\n"
        "    dim, tournaments = (1, 2, 3, 8)[seed % 4], seed % 3 > 0\n"
        "    n = int(rng.choice([3, 10, 50])); m = n - seed % 2\n"
        "    rate = (1.0, 0.5, 1.0 / dim)[seed % 3]\n"
        "    new, old = generation_case(seed, held=seed % 2 == 0)\n"
        "    got = draws.ga_generation_draws(new, n, m, dim, rate, tournaments)\n"
        "    want = sequential_ga_draws(old, n, m, dim, rate, tournaments)\n"
        "    same = all(g.tobytes() == w.tobytes() for g, w in\n"
        "               zip(got[:3] + tuple(got[3]), want[:3] + tuple(want[3])))\n"
        "    same = same and same_state(new.bit_generator.state, old.bit_generator.state)\n"
        "    mismatches += not (same and new.random() == old.random())\n"
        "print(json.dumps({'decodes': draws._ga_decoder_probe(), 'mismatches': mismatches}))\n"
    )
    assert out == {"decodes": True, "mismatches": 0}


@pytest.mark.skipif(np.__version__ != "2.4.6", reason="the decoders are certified at NumPy 2.4.6")
def test_decoders_are_on_at_the_pinned_numpy():
    # a probe that fails keeps every bit but loses the speed: catch it here
    assert draws._decoder_probe()
    assert draws._ga_decoder_probe()
    assert core._sum_order_probe()


def test_a_batch_is_its_rows_built_one_at_a_time():
    # the generation-batched streams pass each operator the draws of m
    # children at once; row i must be what child i alone would get
    rng = np.random.default_rng(18)
    for seed in range(200):
        m = int(rng.integers(1, 12))
        dim = int(rng.choice(DIMS))
        genomes, bounds = _de_case(rng, int(rng.integers(4, 20)), dim)
        p1, p2 = (rng.integers(len(genomes), size=m) for _ in range(2))
        if seed % 5 == 0:
            p2 = p1  # equal parents
        u = rng.random((m, 2, dim))
        crossed = blend_crossover(genomes[p1], genomes[p2], u, bounds)
        for i in range(m):
            assert_bits_equal(crossed[i], blend_crossover(genomes[p1[i]], genomes[p2[i]], u[i], bounds))
        draws = np.random.default_rng(seed)
        rate = float(rng.choice([0.0, 0.5, 1.0]))
        masks, normals = zip(*[mutation_draws(draws, dim, rate) for _ in range(m)])
        mutated = gaussian_mutation(crossed[:, 0], np.array(masks), np.concatenate(normals),
                                    bounds, 0.1)
        for i in range(m):
            assert_bits_equal(mutated[i], gaussian_mutation(crossed[i, 0], masks[i], normals[i],
                                                            bounds, 0.1))
        targets = rng.integers(len(genomes), size=m)
        donors, cross = zip(*[de_draws(draws, len(genomes), int(t), dim, 0.5) for t in targets])
        trials = de_trial_vector(genomes, targets, np.array(donors).T, np.array(cross), 0.7, bounds)
        for i in range(m):
            assert_bits_equal(trials[i], de_trial_vector(genomes, targets[i], donors[i], cross[i],
                                                         0.7, bounds))


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
        new_pop, old_pop = population(genomes, fits), spec_pop(genomes, fits)
        new, old = twin_streams(seed)
        for _ in range(5):  # a sequence of challenges on the same population
            child = Individual(rng.integers(-2, 3, size=dim).astype(float),
                               float(rng.integers(0, 5)))
            accepted = per_child_crowding(child, new_pop, cf, new, direction)
            taken = spec.crowding(old_pop, child.genome, child.fitness, cf, old, direction)
            assert accepted is any(m is child for m in new_pop.members)
            assert [m is child for m in new_pop.members] == [i == taken for i in range(n)]
            assert snapshot(new_pop) == pair_bytes(old_pop)
            assert_bits_equal(new_pop.genomes, np.array([g for g, _ in old_pop]))
            assert_bits_equal(new_pop.fitness, np.array([f for _, f in old_pop]))
        assert_same_stream(new, old)


@pytest.mark.parametrize("direction", ["max", "min"])
def test_crowding_walk_picks_the_reference_slot(direction):
    """A generation's walk, its samples sorted once and each slot picked
    once, against the reference's restacked pick, child by child."""
    rng = np.random.default_rng(14)
    for seed in range(300):
        n = int(rng.integers(2, 20))
        dim = int(rng.choice(DIMS))
        cf = n if seed % 2 else int(rng.integers(1, n))
        # integer grids: duplicate members, exact distance and fitness ties
        genomes = rng.integers(-2, 3, size=(n, dim)).astype(float)
        fits = rng.integers(0, 4, size=n).astype(float)
        children = rng.integers(-2, 3, size=(5, dim)).astype(float)
        problem = BoundedProblem("grid", np.tile([-2.0, 2.0], (dim, 1)), direction,
                                 lambda x: float(x.sum() % 5))
        st = _RunState("crowding_ga", problem, AlgorithmConfig(population_size=n), n + 5, 0)
        new_pop, old_pop = population(genomes, fits), spec_pop(genomes, fits)
        originals = list(new_pop.members)
        new, old = twin_streams(seed)
        samples = (None if cf == n
                   else np.array([new.choice(n, size=cf, replace=False) for _ in children]))
        drawn = None if samples is None else samples.copy()
        crowd = _Crowding(st, new_pop, children.copy(), samples)
        for row, genome in enumerate(children):
            before = list(new_pop.members)
            crowd.challenge(row)
            taken = spec.crowding(old_pop, genome, problem.objective(genome), cf, old, direction)
            assert snapshot(new_pop) == pair_bytes(old_pop)
            assert [m is not b for m, b in zip(new_pop.members, before)] == [
                i == taken for i in range(n)]
        assert crowd.replaced == [m is not o for m, o in zip(new_pop.members, originals)]
        assert_same_stream(new, old)
        if samples is not None:
            assert_bits_equal(samples, drawn)  # the walk sorts a copy


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
        got = determine_species_seeds(genomes, fits, sigma, direction)
        assert got == spec.species_seeds(spec_pop(genomes, fits), sigma, direction)


def test_species_seed_scan_pair_at_exactly_half_the_distance():
    # 0.5 apart with species_distance 1.0: distance == radius, so both seed
    genomes, fits = np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.0]]), np.array([3.0, 2.0, 1.0])
    got = determine_species_seeds(genomes, fits, 1.0, "max")
    assert got == spec.species_seeds(spec_pop(genomes, fits), 1.0, "max") == [0, 1]


@pytest.mark.parametrize("direction", ["max", "min"])
def test_conservation_matches_list_comprehensions(direction):
    rng = np.random.default_rng(14)
    for trial in range(400):
        n = int(rng.integers(1, 30))
        dim = int(rng.choice((1, 2, 3)))
        sigma = float(rng.uniform(0.1, 2.0))
        parent_genomes = rng.uniform(-1, 1, size=(n, dim))
        if trial % 3 == 1:
            parent_genomes[:, 0] = 0.0  # seeds with a zero coordinate
        parent_fits = rng.integers(0, 4, size=n).astype(float)
        seeds = determine_species_seeds(parent_genomes, parent_fits, sigma, direction)
        seed_genomes, seed_fits = parent_genomes[seeds], parent_fits[seeds]
        if trial % 5 == 0:  # more seeds than slots: overflow
            seed_genomes = np.vstack([seed_genomes, rng.uniform(5, 9, size=(n, dim))])
            seed_fits = np.concatenate([seed_fits, np.full(n, 9.0)])
        genomes = rng.uniform(-1, 1, size=(n, dim))
        fits = rng.integers(0, 4, size=n).astype(float)
        if n > 2:
            genomes[0] = genomes[1]  # duplicate genomes
            genomes[2] = seed_genomes[0]  # one seed survived variation
            if trial % 3 == 1:
                genomes[2, 0] = -0.0  # with its zero's sign flipped: still the seed
        if trial % 4 == 0 and n > 3:
            genomes[3] = seed_genomes[0]  # and a clone of it
        old_pop = spec_pop(genomes, fits)
        spec.conserve(old_pop, spec_pop(seed_genomes, seed_fits), sigma, direction)
        conserve_species_seeds(genomes, fits, seed_genomes, seed_fits, sigma, direction)
        assert_bits_equal(genomes, np.array([g for g, _ in old_pop]))
        assert_bits_equal(fits, np.array([f for _, f in old_pop]))


def test_conservation_seed_at_exactly_half_the_distance_is_outside():
    # the member sits exactly on the region's edge, so the species is empty
    # and the globally worst member gives way
    genomes, fits = np.array([[0.5], [3.0], [4.0]]), np.array([1.0, 0.0, 2.0])
    pop = spec_pop(genomes, fits)
    spec.conserve(pop, [(np.array([0.0]), 5.0)], 1.0, "max")
    conserve_species_seeds(genomes, fits, np.array([[0.0]]), np.array([5.0]), 1.0, "max")
    assert [g[0] for g, _ in pop] == genomes[:, 0].tolist() == [0.5, 0.0, 4.0]
    assert [f for _, f in pop] == fits.tolist() == [1.0, 5.0, 2.0]


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
        fits = rng.uniform(0.0, 2.0, size=n)
        threshold = float(rng.uniform(0.0, 2.0))
        radius = float(rng.uniform(0.01, 0.8))
        got = distinct_peaks(genomes, fits, threshold, radius, direction, bounds)
        assert got == oracle_distinct_peaks(genomes, fits, threshold, radius, direction, bounds)


def test_distinct_peaks_pair_at_exactly_the_radius_counts_twice():
    genomes, fits = np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.0]]), np.zeros(3)
    assert distinct_peaks(genomes, fits, 1.0, 0.5) == \
        oracle_distinct_peaks(genomes, fits, 1.0, 0.5) == 2


def test_metrics_leave_the_genome_matrix_alone():
    rng = np.random.default_rng(17)
    genomes, fits = rng.uniform(size=(20, 3)), np.zeros(20)
    before = genomes.copy()
    bounds = np.array([[0.0, 2.0]] * 3)
    distinct_peaks(genomes, fits, 1.0, 0.2, "min", bounds)
    peak_ratio(genomes, [np.full(3, 0.5)])
    avg_min_distance(genomes, [np.full(3, 0.5)])
    assert_bits_equal(genomes, before)
    assert_bits_equal(fits, np.zeros(20))


# ---------------------------------------------------------------------------
# the population's arrays and the run result's
# ---------------------------------------------------------------------------

def test_genome_matrix_and_fitness_vector_track_every_setitem():
    rng = np.random.default_rng(15)
    pop = population(rng.uniform(size=(10, 3)), rng.uniform(size=10))
    assert_bits_equal(pop.genomes, np.array([m.genome for m in pop.members]))
    assert_bits_equal(pop.fitness, np.array([m.fitness for m in pop.members]))
    for _ in range(50):
        slot = int(rng.integers(10))
        pop[slot] = Individual(rng.uniform(size=3), float(rng.uniform()))
        assert_bits_equal(pop.genomes, np.array([m.genome for m in pop.members]))
        assert_bits_equal(pop.fitness, np.array([m.fitness for m in pop.members]))


def test_population_members_alias_neither_its_arrays_nor_the_callers():
    rng = np.random.default_rng(19)
    genomes, fits = rng.uniform(size=(6, 2)), rng.uniform(size=6)
    pop = Population(genomes, fits)
    assert pop.genomes is genomes and pop.fitness is fits  # held as given, not copied
    assert snapshot(pop) == [(g.tobytes(), f) for g, f in zip(genomes, fits.tolist())]
    assert not any(np.shares_memory(m.genome, genomes) for m in pop.members)
    first, kept = pop.members[0], genomes[0].copy()
    pop[0] = Individual(np.full(2, 7.0), 7.0)  # writes row 0 of the caller's arrays
    assert genomes[0].tolist() == [7.0, 7.0] and fits[0] == 7.0
    assert_bits_equal(first.genome, kept)  # the replaced member is left as it was
    assert not np.shares_memory(pop.members[0].genome, genomes)
    genomes[1], fits[1] = 8.0, 8.0  # a row written past pop[i] = ind moves no member
    assert 8.0 not in pop.members[1].genome and pop.members[1].fitness != 8.0


def test_run_result_arrays_share_no_memory_with_the_population():
    seen = []
    result = scga(resolve_problem("himmelblau"), AlgorithmConfig(population_size=10), 55, 3,
                  observer=lambda generation, genomes, fitness: seen.append((genomes, fitness)))
    genomes, fitness = seen[-1]  # views of the run's one population, as it ended
    assert_bits_equal(result.genomes, genomes)
    assert_bits_equal(result.fitness, fitness)
    assert not np.shares_memory(result.genomes, genomes)
    assert not np.shares_memory(result.fitness, fitness)
    result.genomes[:] = 99.0
    result.fitness[:] = 99.0
    assert not (genomes == 99.0).any()
    assert not (fitness == 99.0).any()


# ---------------------------------------------------------------------------
# generation-batched algorithms
# ---------------------------------------------------------------------------

BATCHED = ("preselection_ga", "scga", "sharing_de", "sharing_ga")


@pytest.mark.parametrize("problem_name", ["deb1", "himmelblau", "grating"])
@pytest.mark.parametrize("name", BATCHED)
def test_batched_generations_match_per_child_streams(name, problem_name):
    problem = resolve_problem(problem_name)
    diagonal = box_diagonal(problem.bounds)
    for seed in range(50):
        n = (5, 7, 10)[seed % 3]  # odd sizes leave one member unpaired in preselection
        # budgets ending after a pair's first child, between pairs mid-generation,
        # at a generation's end and a few generations in
        budget = n + (1, 2, 3, n - 1, n, n + 1, 2 * n + 3)[seed % 7]
        rate = (0.0, 1.0, None)[seed // 3 % 3]  # no normals, all normals, the 1/d default
        distance = (0.2 * diagonal, 1000.0)[seed // 9 % 2]
        config = AlgorithmConfig(population_size=n, mutation_rate=rate,
                                 species_distance=distance, sharing_radius=distance)
        new, old = twin_streams(seed)
        got = ALGORITHMS[name](problem, config, budget, new)
        assert_same_run(got, spec.ALGORITHMS[name](problem, config, budget, old), new, old)
        assert got.evals_used == budget


SEQUENTIAL = ("crowding_de", "crowding_ga", "sde")


@pytest.mark.parametrize("problem_name", ["deb1", "himmelblau", "grating"])
@pytest.mark.parametrize("name", SEQUENTIAL)
def test_sequential_algorithms_match_per_child_streams(name, problem_name, decoding):
    problem = resolve_problem(problem_name)
    diagonal = box_diagonal(problem.bounds)
    species_sizes = set()
    for seed in range(60):
        n = (4, 5, 7, 10, 20)[seed % 5]
        # budgets ending mid-generation, at a generation's end and a few
        # generations in; a crowding_ga generation is n // 2 pairs, so these
        # also end mid-pair, between pairs (n + 2, even n) and at its end
        budget = n + (1, n - 1, n, n + 2, 3 * n + 1)[seed // 5 % 5]
        # the whole population (crowding_de draws at generation start) or a
        # sample drawn between children; sde: species of 4, of fewer and of more
        crowding_factor = (None, 1, n - 1)[seed % 3]
        distance = (0.15, 0.3, 0.6)[seed % 3] * diagonal
        rate = (0.0, 1.0, None)[seed // 15 % 3]  # no normals, all normals, the 1/d default
        config = AlgorithmConfig(population_size=n, crowding_factor=crowding_factor,
                                 species_distance=distance, mutation_rate=rate)
        new, old = twin_streams(seed)
        got = ALGORITHMS[name](problem, config, budget, new)
        sizes = (species_sizes,) if name == "sde" else ()  # sde collects its species' sizes
        want = spec.ALGORITHMS[name](problem, config, budget, old, *sizes)
        assert_same_run(got, want, new, old)
        assert got.evals_used == budget
    if name == "sde":
        assert 4 in species_sizes and min(species_sizes) < 4, species_sizes


def recorded(problem, calls, fail_at=None):
    """``problem`` whose objective records each genome's bytes in ``calls``
    and returns NaN at call ``fail_at`` (counted from 1)."""
    def objective(genome):
        calls.append(genome.tobytes())
        return np.nan if len(calls) == fail_at else problem.objective(genome)
    return dataclasses.replace(problem, objective=objective)


@pytest.mark.parametrize("problem_name", ["deb1", "himmelblau"])
@pytest.mark.parametrize("name", SEQUENTIAL)
def test_no_speculative_evaluation(name, problem_name):
    # the speculative algorithms build children ahead, but evaluate each
    # only in its final form: the objective sees the per-child loop's calls
    algorithm, reference = ALGORITHMS[name], spec.ALGORITHMS[name]
    problem = resolve_problem(problem_name)
    for seed in range(12):
        n = (5, 10)[seed % 2]
        budget = 4 * n + 3
        config = AlgorithmConfig(population_size=n, crowding_factor=(None, n - 1)[seed // 2 % 2],
                                 species_distance=0.3 * box_diagonal(problem.bounds))
        got, want = [], []
        algorithm(recorded(problem, got), config, budget, seed)
        reference(recorded(problem, want), config, budget, seed)
        assert len(got) == budget and got == want
        fail_at = n + 1 + 7 * seed % (budget - n)  # a call after the initial population
        got, want = [], []
        for run, calls in ((algorithm, got), (reference, want)):
            with pytest.raises(ValueError, match="non-finite"):
                run(recorded(problem, calls, fail_at), config, budget, seed)
        assert len(got) == fail_at and got == want
