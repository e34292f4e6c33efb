"""Algorithm behavior: replacement rules, species handling, budgets,
determinism, and brute-force oracle equivalence for the niching operators."""

import dataclasses
import math

import numpy as np
import pytest

from nichebench import algorithms, core
from nichebench.algorithms import (
    ALGORITHMS,
    AlgorithmConfig,
    conserve_species_seeds,
    crowding_replacement,
    _shared_scores,
    determine_species_seeds,
)
from nichebench.core import Individual
from nichebench.grating import make_default_problem
from nichebench.problems import deb1, himmelblau, six_hump_camel
import spec
from test_draw_equivalence import population as make_pop
from test_draw_equivalence import spec_pop
from test_draw_equivalence import random_genome  # the oracle, not library code
# one crowding step drawn and made as the per-child loop made it
from test_draw_equivalence import per_child_crowding as challenge
from test_fingerprint import result_digest

ALL_NAMES = sorted(ALGORITHMS)
SEQUENTIAL = ("crowding_ga", "crowding_de", "sde")


def arrays(genomes, fitness):
    """A population as the array algorithms hold it: genome rows, fitness."""
    return np.array(genomes, dtype=float), np.array(fitness, dtype=float)


def small_config(**overrides):
    defaults = dict(population_size=8, species_distance=0.5, sharing_radius=0.5)
    defaults.update(overrides)
    return AlgorithmConfig(**defaults)


class TestCrowdingReplacement:
    def test_replaces_nearest_when_better(self):
        pop = make_pop([[0.0, 0.0], [1.0, 1.0]], [1.0, 2.0])
        child = Individual(np.array([0.1, 0.1]), 3.0)
        assert challenge(child, pop, cf=2, rng=np.random.default_rng(0), direction="max") is True
        assert pop.members[0] is child
        assert pop.members[1].fitness == 2.0

    def test_worse_child_changes_nothing(self):
        pop = make_pop([[0.0, 0.0], [1.0, 1.0]], [5.0, 2.0])
        child = Individual(np.array([0.1, 0.1]), 1.0)
        before = list(pop.members)
        assert challenge(child, pop, cf=2, rng=np.random.default_rng(0), direction="max") is False
        assert pop.members == before

    def test_equal_child_changes_nothing(self):
        pop = make_pop([[0.0]], [5.0])
        child = Individual(np.array([0.2]), 5.0)
        challenge(child, pop, cf=1, rng=np.random.default_rng(0), direction="max")
        assert pop.members[0] is not child

    def test_cf_one_compares_single_sampled_member(self):
        pop = make_pop([[0.0], [10.0], [20.0]], [1.0, 1.0, 1.0])
        for seed in range(40):
            replay = np.random.default_rng(seed)
            sampled = int(replay.choice(3, size=1, replace=False)[0])
            pop2 = make_pop([[0.0], [10.0], [20.0]], [1.0, 1.0, 1.0])
            child = Individual(np.array([0.1]), 2.0)
            challenge(child, pop2, cf=1, rng=np.random.default_rng(seed), direction="max")
            assert pop2.members[sampled] is child

    def test_full_cf_against_brute_force(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            dim = int(rng.integers(1, 4))
            genomes = rng.uniform(-1, 1, size=(n, dim))
            fits = rng.integers(0, 4, size=n).astype(float)  # ties likely
            child = Individual(rng.uniform(-1, 1, size=dim), float(rng.integers(0, 4)))
            pop = make_pop(list(genomes), fits)
            challenge(child, pop, cf=n, rng=np.random.default_rng(0), direction="max")
            # the whole population sampled: the spec draws nothing
            slot = spec.crowding(spec_pop(genomes, fits), child.genome, child.fitness, n, None,
                                 "max")
            taken = [i for i in range(n) if pop.members[i] is child]
            assert taken == ([] if slot is None else [slot])
            assert all(pop.members[i].fitness == fits[i] for i in range(n) if i != slot)

    def test_distance_tie_prefers_lowest_index(self):
        pop = make_pop([[1.0], [-1.0], [3.0]], [0.0, 0.0, 0.0])
        child = Individual(np.array([0.0]), 1.0)  # equidistant from 0 and 1
        challenge(child, pop, cf=3, rng=np.random.default_rng(0), direction="max")
        assert pop.members[0] is child

    @pytest.mark.parametrize("slot", [-1, 2])
    def test_slot_outside_the_population_raises(self, slot):
        pop = make_pop([[0.0], [1.0]], [0.0, 0.0])
        members = list(pop.members)
        with pytest.raises(ValueError, match="outside a population of 2"):
            crowding_replacement(Individual(np.array([0.0]), 1.0), pop, slot, direction="max")
        assert all(m is o for m, o in zip(pop.members, members))
        assert pop.fitness.tolist() == [0.0, 0.0]


def shared_scores(pop, sharing_radius):
    """Shared scores of a larger-is-better population, sharing exponent 1."""
    genomes, fitness = pop
    return _shared_scores(genomes, fitness, "max", sharing_radius, 1.0)


class TestSharedFitness:
    def test_singleton_is_raw(self):
        pop = arrays([[0.0]], [4.0])
        assert shared_scores(pop, sharing_radius=1.0)[0] == 4.0

    def test_two_identical_split_in_half(self):
        pop = arrays([[0.0], [0.0]], [4.0, 4.0])
        assert shared_scores(pop, sharing_radius=1.0)[0] == 2.0
        assert shared_scores(pop, sharing_radius=1.0)[1] == 2.0

    def test_pair_at_exactly_the_radius_shares_nothing(self):
        pop = arrays([[0.0], [1.0]], [4.0, 6.0])
        assert shared_scores(pop, sharing_radius=1.0).tolist() == [4.0, 6.0]

    def test_distant_members_share_nothing(self):
        pop = arrays([[0.0], [10.0], [20.0]], [4.0, 6.0, 8.0])
        for i, raw in enumerate((4.0, 6.0, 8.0)):
            assert shared_scores(pop, sharing_radius=1.0)[i] == raw

    def test_denominator_at_least_one(self):
        rng = np.random.default_rng(73)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            pop = rng.uniform(-1, 1, size=(n, 2)), rng.uniform(1, 2, size=n)
            for i in range(n):
                assert shared_scores(pop, sharing_radius=0.7)[i] <= pop[1][i] + 1e-12

    def test_smallest_cluster_wins_at_equal_raw_fitness(self):
        # duplicate clusters separated beyond the radius: the member with
        # the fewest neighbors gets the highest shared fitness
        genomes = [[0.0]] * 4 + [[10.0]] * 2 + [[20.0]]
        pop = arrays(genomes, [5.0] * 7)
        values = shared_scores(pop, sharing_radius=1.0).tolist()
        assert int(np.argmax(values)) == 6
        assert values[6] == 5.0
        assert values[4] == pytest.approx(2.5)
        assert values[0] == pytest.approx(1.25)


class TestDetermineSpeciesSeeds:
    def test_scan_example(self):
        genomes, fits = arrays([[0.0], [0.2], [1.0]], [5.0, 4.0, 3.0])
        seeds = determine_species_seeds(genomes, fits, species_distance=0.6, direction="max")
        assert seeds == [0, 2]
        assert [genomes[i, 0] for i in seeds] == [0.0, 1.0]

    def test_single_region_single_seed(self):
        genomes, fits = arrays([[0.0], [0.01], [0.02]], [1.0, 2.0, 3.0])
        seeds = determine_species_seeds(genomes, fits, species_distance=10.0, direction="max")
        assert len(seeds) == 1
        assert fits[seeds[0]] == 3.0

    @pytest.mark.parametrize("direction", ["up", "MAX", None])
    def test_unknown_direction_raises(self, direction):
        pop = arrays([[0.0], [1.0]], [1.0, 2.0])
        with pytest.raises(ValueError, match="direction must be 'min' or 'max'"):
            determine_species_seeds(*pop, species_distance=1.0, direction=direction)

    @pytest.mark.parametrize("distance", [-1.0, 0.0, -0.0, math.nan, math.inf, True, "1"])
    def test_species_distance_must_be_a_positive_real(self, distance):
        pop = arrays([[0.0], [0.5], [1.0]], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="species_distance must be"):
            determine_species_seeds(*pop, species_distance=distance, direction="max")

    @pytest.mark.parametrize("fits", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]]])
    def test_fitness_must_be_one_value_per_row(self, fits):
        # two values for three rows once gave seeds [1, 0] and never read row 2
        genomes = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match=r"^fitness of shape \(.*\) for genomes \(3, 1\)$"):
            determine_species_seeds(genomes, np.array(fits), species_distance=1.0, direction="max")

    def test_vanishing_distance_makes_everyone_a_seed(self):
        pop = arrays([[0.0], [0.5], [1.0]], [1.0, 2.0, 3.0])
        seeds = determine_species_seeds(*pop, species_distance=1e-12, direction="max")
        assert len(seeds) == 3

    def test_against_quadratic_oracle(self):
        rng = np.random.default_rng(79)
        for _ in range(1000):
            n = int(rng.integers(1, 10))
            dim = int(rng.integers(1, 3))
            genomes = rng.uniform(-1, 1, size=(n, dim))
            fits = rng.integers(0, 5, size=n).astype(float)
            direction = "max" if rng.random() < 0.5 else "min"
            sigma = float(rng.uniform(0.05, 2.0))
            seeds = determine_species_seeds(genomes, fits, sigma, direction)
            assert seeds == spec.species_seeds(spec_pop(genomes, fits), sigma, direction)
            # invariants: best-first and pairwise separation
            best = max(fits) if direction == "max" else min(fits)
            assert fits[seeds[0]] == best
            for x in range(len(seeds)):
                for y in range(x + 1, len(seeds)):
                    assert math.dist(genomes[seeds[x]], genomes[seeds[y]]) >= sigma / 2


class TestConserveSpeciesSeeds:
    def test_population_already_contains_seeds(self):
        genomes, fits = arrays([[0.0], [0.05], [1.0], [1.05]], [5.0, 1.0, 4.0, 2.0])
        before = genomes.copy(), fits.copy()
        seeds = determine_species_seeds(genomes, fits, species_distance=0.5, direction="max")
        conserve_species_seeds(genomes, fits, genomes[seeds], fits[seeds], species_distance=0.5,
                               direction="max")
        assert sorted(genomes[:, 0]) == sorted(before[0][:, 0])
        assert sorted(fits) == sorted(before[1])

    def test_emptied_species_replaces_global_worst(self):
        genomes, fits = arrays([[0.0], [0.1], [0.2]], [3.0, 1.0, 2.0])
        conserve_species_seeds(genomes, fits, *arrays([[5.0]], [10.0]), species_distance=0.5,
                               direction="max")
        # no member within 0.25 of the seed: the worst (fitness 1.0) dies
        assert genomes[1, 0] == 5.0 and fits[1] == 10.0
        assert fits[0] == 3.0 and fits[2] == 2.0

    def test_member_equidistant_from_two_seeds_joins_the_earlier(self):
        # 0.5 lies 0.5 from both seeds: the species of seed 0.0 holds it,
        # seed 1.0's holds 1.5, and each seed replaces its own species' member
        genomes, fits = arrays([[0.5], [1.5]], [1.0, 0.0])
        pop = spec_pop(genomes, fits)
        spec.conserve(pop, spec_pop([[0.0], [1.0]], [5.0, 5.0]), 4.0, "max")
        conserve_species_seeds(genomes, fits, *arrays([[0.0], [1.0]], [5.0, 5.0]), 4.0, "max")
        assert genomes[:, 0].tolist() == [g[0] for g, _ in pop] == [0.0, 1.0]
        assert fits.tolist() == [f for _, f in pop] == [5.0, 5.0]

    def test_worst_clone_replaced(self):
        genomes, fits = arrays([[0.01], [0.02], [0.03]], [2.0, 2.0, 2.0])
        conserve_species_seeds(genomes, fits, *arrays([[0.0]], [10.0]), species_distance=1.0,
                               direction="max")
        # brute-force choice: equal fitness ties resolve to the lowest index
        assert genomes[0, 0] == 0.0 and fits[0] == 10.0
        assert fits[1] == 2.0 and fits[2] == 2.0

    def test_every_seed_present_and_no_slot_replaced_twice(self):
        rng = np.random.default_rng(83)
        for _ in range(300):
            n = int(rng.integers(2, 10))
            genomes = rng.uniform(-1, 1, size=(n, 2))
            fits = rng.uniform(0, 1, size=n)
            sigma = float(rng.uniform(0.1, 2.0))
            seeds = determine_species_seeds(genomes, fits, sigma, "max")
            # vary the population afterwards, keeping size
            varied = rng.uniform(-1, 1, size=(n, 2)), rng.uniform(0, 1, size=n)
            conserve_species_seeds(*varied, genomes[seeds], fits[seeds], sigma, "max")
            genome_list = varied[0].tolist()
            for i in seeds:
                assert genomes[i].tolist() in genome_list
            assert varied[0].shape == (n, 2) and varied[1].shape == (n,)

    def test_no_seeds_leave_the_population_alone(self):
        genomes, fits = arrays([[0.0], [1.0]], [1.0, 2.0])
        assert conserve_species_seeds(genomes, fits, np.empty((0, 1)), np.empty(0),
                                      species_distance=0.5, direction="max") is None
        assert genomes.tolist() == [[0.0], [1.0]] and fits.tolist() == [1.0, 2.0]

    def test_bad_direction_raises(self):
        pop = arrays([[0.0], [1.0]], [1.0, 2.0])
        for seeds in (arrays([[5.0]], [10.0]), arrays(np.empty((0, 1)), [])):
            with pytest.raises(ValueError, match="direction must be 'min' or 'max'"):
                conserve_species_seeds(*pop, *seeds, species_distance=0.5, direction="up")

    @pytest.mark.parametrize("distance", [-1.0, 0.0, math.nan, math.inf])
    def test_species_distance_must_be_a_positive_real(self, distance):
        # checked before any distance and before the return with no seeds
        genomes, fits = arrays([[0.0], [1.0]], [1.0, 2.0])
        for seeds in (arrays([[5.0]], [10.0]), arrays(np.empty((0, 1)), [])):
            with pytest.raises(ValueError, match="species_distance must be"):
                conserve_species_seeds(genomes, fits, *seeds, species_distance=distance,
                                       direction="max")
        assert genomes.tolist() == [[0.0], [1.0]] and fits.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("fits, seed_fits, message", [
        ([1.0, 2.0], [10.0, 11.0], r"fitness of shape \(2,\) for genomes \(3, 1\)"),
        # one value for two seed rows once wrote the first seed, then raised IndexError
        ([1.0, 2.0, 3.0], [10.0], r"seed_fitness of shape \(1,\) for seed_genomes \(2, 1\)"),
        # three values for two seed rows once passed
        ([1.0, 2.0, 3.0], [10.0, 11.0, 12.0],
         r"seed_fitness of shape \(3,\) for seed_genomes \(2, 1\)"),
    ], ids=["fitness", "fewer_seed_fitness", "more_seed_fitness"])
    def test_fitness_must_be_one_value_per_row(self, fits, seed_fits, message):
        # checked before any distance or write, so the population is left whole
        genomes, fits = arrays([[0.0], [1.0], [2.0]], fits)
        before = genomes.copy(), fits.copy()
        with pytest.raises(ValueError, match=f"^{message}$"):
            conserve_species_seeds(genomes, fits, *arrays([[5.0], [6.0]], seed_fits),
                                   species_distance=0.5, direction="max")
        assert genomes.tolist() == before[0].tolist() and fits.tolist() == before[1].tolist()

    def test_seed_overflow_logged_and_bounded(self, caplog):
        genomes, fits = arrays([[0.0], [1.0]], [1.0, 2.0])
        seeds = arrays([[float(10 + i)] for i in range(4)], [5.0 + i for i in range(4)])
        with caplog.at_level("WARNING"):
            conserve_species_seeds(genomes, fits, *seeds, species_distance=0.5, direction="max")
        assert genomes.shape == (2, 1) and fits.shape == (2,)
        assert any("conserved" in r.message for r in caplog.records)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestEveryAlgorithm:
    def test_budget_exactness_and_size(self, name):
        problem = himmelblau()
        result = ALGORITHMS[name](problem, small_config(), 237, 11)
        assert result.evals_used == 237
        assert result.genomes.shape == (8, problem.dimension)
        assert result.fitness.shape == (8,)
        genomes = result.genomes
        assert np.all(genomes >= problem.bounds[:, 0])
        assert np.all(genomes <= problem.bounds[:, 1])

    def test_determinism(self, name):
        problem = deb1()
        r1 = ALGORITHMS[name](problem, small_config(), 150, 99)
        r2 = ALGORITHMS[name](problem, small_config(), 150, 99)
        assert result_digest(r1) == result_digest(r2)

    @pytest.mark.parametrize("config, budget, message", [
        (AlgorithmConfig(population_size=10), 5, "does not cover the initial population of 10"),
        (small_config(), 7, "does not cover the initial population of 8"),
        (small_config(), 0, "does not cover the initial population of 8"),
        (AlgorithmConfig(population_size="x"), 100, "population_size must be an integer"),
        (AlgorithmConfig(population_size=True), 100, "population_size must be an integer"),
        (AlgorithmConfig(population_size=10), "100", "budget must be an integer, got '100'"),
        (AlgorithmConfig(population_size=10), 100.7, "budget must be an integer, got 100.7"),
        (AlgorithmConfig(population_size=10), True, "budget must be an integer, got True"),
    ], ids=["deb1_pop10_budget5", "budget_one_short", "zero_budget", "population_text",
            "population_bool", "budget_text", "budget_float", "budget_bool"])
    def test_run_that_cannot_start_raises_before_any_call(self, name, config, budget, message):
        calls = []
        base = deb1()
        counted = dataclasses.replace(base, objective=lambda x: calls.append(x) or base.objective(x))
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            ALGORITHMS[name](counted, config, budget, rng)
        assert calls == []
        assert rng.bit_generator.state == state

    def test_numpy_integer_budget_is_accepted(self, name):
        result = ALGORITHMS[name](deb1(), small_config(), np.int64(40), 3)
        assert result.evals_used == 40

    def test_trace_is_monotone(self, name):
        problem = six_hump_camel()
        result = ALGORITHMS[name](problem, small_config(), 300, 21)
        counts = [c for c, _ in result.trace]
        assert counts == sorted(counts)
        assert counts[-1] <= 300
        bests = [b for _, b in result.trace]
        for earlier, later in zip(bests, bests[1:]):
            assert later <= earlier  # minimization: best-so-far never worsens

    def test_different_seeds_differ(self, name):
        problem = himmelblau()
        r1 = ALGORITHMS[name](problem, small_config(), 200, 1)
        r2 = ALGORITHMS[name](problem, small_config(), 200, 2)
        assert not np.array_equal(r1.genomes, r2.genomes)

    @pytest.mark.parametrize("budget", [57, 81, 100])
    def test_no_child_built_past_the_budget(self, name, budget, monkeypatch):
        # gaussian_mutation builds every GA child and de_trial_vector every DE
        # trial, one child or a batch of rows per call; 57 and 81 run out
        # mid-generation, 100 at a generation's end. crowding_ga, crowding_de
        # and sde build a generation's children from its start and build a
        # child again when a replacement changed its parents, so rows may be
        # built twice, but no call builds more rows than evaluations are left
        base = himmelblau()
        calls, built = [], []
        problem = dataclasses.replace(base, objective=lambda x: calls.append(1) or base.objective(x))

        def counted(op):
            def wrapper(*args, **kwargs):
                out = op(*args, **kwargs)
                built.append(len(np.atleast_2d(out)))
                assert built[-1] <= budget - len(calls)
                return out
            return wrapper

        for op in (algorithms.gaussian_mutation, algorithms.de_trial_vector):
            monkeypatch.setattr(algorithms, op.__name__, counted(op))
        result = ALGORITHMS[name](problem, small_config(population_size=10), budget, 4)
        assert result.evals_used == len(calls) == budget
        assert sum(built) >= result.evals_used - 10
        if name not in SEQUENTIAL:
            assert sum(built) == result.evals_used - 10

    def test_grating_batches_match_per_row_calls(self, name):
        # the grating objective evaluates a batch of rows in one call; a
        # plain function around it (as the bench tracer wraps objectives) is
        # called row by row, and must give the same run bit for bit, also
        # when the budget ends mid-generation. crowding_ga, crowding_de and
        # sde evaluate child by child, so only their initial population is
        # a batch
        problem = make_default_problem()
        for n, seed in ((10, 12345), (7, 777)):
            config, budget = AlgorithmConfig(population_size=n), 4 * n + 3
            counted = _CountedBatches(problem.objective)
            results = [ALGORITHMS[name](p, config, budget, seed) for p in (
                problem,
                dataclasses.replace(problem, objective=lambda g: problem.objective(g)),
                dataclasses.replace(problem, objective=counted))]
            first = results[0]
            assert first.evals_used == budget
            for result in results[1:]:
                assert result_digest(result) == result_digest(first)
            if name in SEQUENTIAL:
                assert counted.batches == [n]
            else:
                assert sum(counted.batches) == budget


class _CountedBatches:
    """An objective that records the size of each batch it is given."""

    def __init__(self, objective):
        self.objective, self.batches = objective, []

    def __call__(self, genome):
        return self.objective(genome)

    def many(self, rows):
        self.batches.append(len(rows))
        return self.objective.many(rows)


def test_only_crowding_keeps_individuals_and_a_population(monkeypatch):
    # the five other algorithms hold a genome matrix and a fitness vector;
    # crowding's walk builds one Population, one member per row and one
    # Individual per child it evaluates
    built = {}
    for cls in (core.Population, core.Individual):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] = built.get(_name, 0) + 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    for name in ALL_NAMES:
        built.clear()
        ALGORITHMS[name](himmelblau(), small_config(), 100, 5)
        if name in ("crowding_ga", "crowding_de"):
            assert built == {"Population": 1, "Individual": 100}, name
        else:
            assert built == {}, name


def _slotwise_initial_population(problem, config, seed):
    """Replicate the random initial population of a run for slot tracking."""
    rng = np.random.default_rng(seed)
    return np.array([random_genome(rng, problem.bounds) for _ in range(config.population_size)])


class TestPreselection:
    def test_slots_never_worsen(self):
        # each slot is only ever overwritten by a strictly better child
        problem = deb1()
        config = small_config()
        result = ALGORITHMS["preselection_ga"](problem, config, 400, 31)
        initial = _slotwise_initial_population(problem, config, 31)
        for slot in range(config.population_size):
            f0 = problem.objective(initial[slot])
            assert result.fitness[slot] >= f0 - 1e-15


class TestCrowdingDe:
    def test_requires_four_members(self):
        with pytest.raises(ValueError):
            ALGORITHMS["crowding_de"](deb1(), AlgorithmConfig(population_size=3), 50, 0)


class TestSharingDe:
    def test_requires_four_members(self):
        with pytest.raises(ValueError):
            ALGORITHMS["sharing_de"](deb1(), AlgorithmConfig(population_size=3), 50, 0)


class TestSde:
    def test_requires_four_members(self):
        with pytest.raises(ValueError):
            ALGORITHMS["sde"](deb1(), AlgorithmConfig(population_size=3), 50, 0)

    def test_slotwise_elitism(self):
        # one-to-one replacement: every slot's fitness is monotone, so the
        # best member of every species survives unless beaten
        problem = six_hump_camel()
        config = small_config(species_distance=1.0)
        result = ALGORITHMS["sde"](problem, config, 320, 17)
        initial = _slotwise_initial_population(problem, config, 17)
        for slot in range(config.population_size):
            f0 = problem.objective(initial[slot])
            assert result.fitness[slot] <= f0 + 1e-15


class TestScga:
    def test_seeds_survive_each_generation(self):
        problem = six_hump_camel()
        config = small_config(species_distance=1.0)
        snapshots = []

        def observer(generation, genomes, fitness):
            snapshots.append((genomes.copy(), fitness.copy()))

        ALGORITHMS["scga"](problem, config, 8 + 8 * 12, 13, observer=observer)
        assert len(snapshots) >= 12
        for before, after in zip(snapshots, snapshots[1:]):
            seeds = determine_species_seeds(*before, config.species_distance, problem.direction)
            after_genomes = after[0].tolist()
            for i in seeds:
                assert before[0][i].tolist() in after_genomes

    def test_observer_gets_read_only_views_of_the_run(self):
        problem, config = himmelblau(), small_config()
        seen = []

        def observer(generation, genomes, fitness):
            seen.append(generation)
            for array in (genomes, fitness):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0
            assert genomes.shape == (8, problem.dimension) and fitness.shape == (8,)

        result = ALGORITHMS["scga"](problem, config, 8 + 8 * 3, 13, observer=observer)
        again = ALGORITHMS["scga"](problem, config, 8 + 8 * 3, 13)
        assert seen == [0, 1, 2, 3]
        assert result_digest(result) == result_digest(again)

    def test_huge_species_distance_preserves_best_only(self):
        problem = himmelblau()
        config = small_config(species_distance=1e6)
        result = ALGORITHMS["scga"](problem, config, 200, 7)
        seeds = determine_species_seeds(result.genomes, result.fitness, config.species_distance,
                                        problem.direction)
        assert len(seeds) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        AlgorithmConfig(population_size=1).validate()
    with pytest.raises(ValueError):
        AlgorithmConfig(crowding_factor=100, population_size=10).validate()
    with pytest.raises(ValueError):
        AlgorithmConfig(species_distance=0.0).validate()
    with pytest.raises(ValueError):
        AlgorithmConfig(sharing_radius=-1.0).validate()
    with pytest.raises(ValueError, match="de_CR must be a probability"):
        AlgorithmConfig(de_CR=1.5).validate()
    cfg = AlgorithmConfig()
    cfg.validate()
    # None means the whole population as the crowding sample, and 1/d as the rate
    whole = dataclasses.replace(cfg, crowding_factor=cfg.population_size)
    for name in ("crowding_ga", "crowding_de"):
        got, want = (ALGORITHMS[name](himmelblau(), c, 120, 3) for c in (cfg, whole))
        assert result_digest(got) == result_digest(want)
    st = algorithms._RunState("sde", make_default_problem(), cfg, cfg.population_size, 0)
    assert st.mutation_rate == pytest.approx(0.125)


@pytest.mark.parametrize("field, value", [
    ("population_size", 10.5), ("population_size", True), ("population_size", "10"),
    ("crowding_factor", True), ("crowding_factor", 2.0), ("de_F", "x"), ("de_CR", None),
    ("mutation_sigma", False), ("species_distance", None), ("de_F", True),
])
def test_config_rejects_values_of_the_wrong_type(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an? "):
        AlgorithmConfig(**{field: value}).validate()


def test_get_algorithm_names_the_known_algorithms():
    assert algorithms.get_algorithm("sde") is algorithms.sde
    with pytest.raises(KeyError, match="unknown algorithm 'foo'; known algorithms: crowding_de"):
        algorithms.get_algorithm("foo")


def test_config_accepts_ints_for_floats_and_numpy_scalars():
    AlgorithmConfig(de_F=1, sharing_radius=np.float64(2.5), population_size=np.int64(10),
                    crowding_factor=None, mutation_rate=None).validate()
    AlgorithmConfig(de_F=np.float64(0.7), crowding_factor=np.int64(5)).validate()
