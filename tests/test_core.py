"""Core machinery: the evaluator and variation operators, the row
distances, and the distance oracle."""

import dataclasses
import math
import types

import numpy as np
import pytest

from nichebench import core
from nichebench.core import (
    Evaluator,
    binary_tournament,
    row_distances,
)
from nichebench.problems import deb1, himmelblau
from spec import distances as euclidean_distance  # oracles, not library code
from test_draw_equivalence import random_genome
# the operators with their draws, one child at a time
from test_draw_equivalence import per_child_blend, per_child_mutation, per_child_trial
from test_draw_equivalence import per_child_tournament as tournament
from test_fingerprint import result_digest


class TestEuclideanDistance:
    def test_identity(self):
        assert euclidean_distance([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_3_4_5(self):
        assert euclidean_distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_unit_diagonal(self):
        assert euclidean_distance([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]) == pytest.approx(math.sqrt(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_distance([1.0], [1.0, 2.0])

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            a, b, c = rng.normal(size=(3, 4)) * 10
            dab = euclidean_distance(a, b)
            dba = euclidean_distance(b, a)
            assert dab == dba
            assert dab <= euclidean_distance(a, c) + euclidean_distance(c, b) + 1e-12
            assert dab >= 0.0


class TestEvalBudget:
    """The evaluation budget, as :class:`Evaluator` enforces it."""

    def test_counts_to_budget_then_raises(self):
        evaluate = Evaluator(himmelblau(), 2)
        assert evaluate(np.array([0.0, 0.0])) == 170.0
        assert evaluate.used == 1
        assert evaluate(np.array([1.0, 1.0])) == 106.0
        assert evaluate.used == 2
        assert evaluate.exhausted
        with pytest.raises(RuntimeError, match="budget"):
            evaluate(np.array([2.0, 2.0]))
        assert evaluate.used == 2

    def test_evaluate_himmelblau_zero(self):
        evaluate = Evaluator(himmelblau(), 10)
        genome = np.array([3.0, 2.0])
        value = evaluate(genome)
        assert type(value) is float
        assert value == 0.0
        assert genome.tolist() == [3.0, 2.0]
        assert evaluate.used == 1 and evaluate.best == 0.0

    def test_evaluate_deb1_peak(self):
        # independent high-precision value: sin(pi/2)^6 = 1
        import mpmath as mp

        expected = float(mp.sin(5 * mp.pi * mp.mpf("0.1")) ** 6)
        evaluate = Evaluator(deb1(), 1)
        value = evaluate(np.array([0.1]))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert evaluate.used == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_raises_once_counted(self, bad):
        base = himmelblau()
        evaluate = Evaluator(dataclasses.replace(base, objective=bad_at(9, base.objective, bad)), 5)
        evaluate(np.array([3.0, 2.0]))
        with pytest.raises(ValueError, match=f"non-finite value {bad!r} at "):
            evaluate(np.array([9.0, 9.0]))
        assert evaluate.used == 2 and evaluate.best == 0.0

    def test_evaluate_after_exhaustion_raises_without_calling_the_objective(self):
        calls = []
        base = himmelblau()
        counted = dataclasses.replace(base, objective=lambda x: calls.append(x) or base.objective(x))
        evaluate = Evaluator(counted, 0)
        with pytest.raises(RuntimeError, match="budget"):
            evaluate(np.array([3.0, 2.0]))
        assert evaluate.used == 0
        assert calls == []

    @pytest.mark.parametrize("max_evals, message", [
        (-1, "max_evals must be >= 0"),
        (2.7, "max_evals must be an integer"),
        (True, "max_evals must be an integer"),
        ("5", "max_evals must be an integer"),
    ])
    def test_budget_that_is_not_a_count_raises(self, max_evals, message):
        with pytest.raises(ValueError, match=message):
            Evaluator(himmelblau(), max_evals)

    def test_unknown_direction_raises_before_any_evaluation(self):
        calls = []
        problem = types.SimpleNamespace(objective=lambda x: calls.append(x) or 1.0,
                                        direction="sideways")
        with pytest.raises(ValueError, match="direction"):
            Evaluator(problem, 5)
        assert calls == []


class _Batched:
    """An objective with a batch method; both paths are recorded."""

    def __init__(self, objective):
        self.objective, self.calls, self.batches = objective, [], []

    def __call__(self, genome):
        self.calls.append(genome)
        return self.objective(genome)

    def many(self, rows):
        self.batches.append(rows)
        return np.array([self.objective(row) for row in rows])


def bad_at(k, objective, bad=math.nan):
    """``objective`` that returns ``bad`` for the row whose first coordinate is ``k``."""
    return lambda genome: bad if genome[0] == k else objective(genome)


class TestEvaluatorMany:
    """:meth:`Evaluator.many` against one :class:`Evaluator` call per row."""

    def rows(self, m):
        return np.column_stack((np.arange(m, dtype=float), np.linspace(-2.0, 3.0, m)))

    def test_empty_batch_calls_nothing(self):
        batched = _Batched(lambda g: 1 / 0)
        for objective in (batched, lambda g: 1 / 0):
            evaluate = Evaluator(dataclasses.replace(himmelblau(), objective=objective), 3)
            for rows in (np.empty((0, 2)), []):
                values = evaluate.many(rows)
                assert values.shape == (0,) and values.dtype == np.float64
            assert evaluate.used == 0 and evaluate.best is None
        assert batched.calls == batched.batches == []

    def test_rows_beyond_the_budget_left_raise_before_any_call(self):
        calls, base = [], himmelblau().objective

        def recorded(genome):
            calls.append(genome)
            return base(genome)

        for objective in (_Batched(recorded), recorded):
            evaluate = Evaluator(dataclasses.replace(himmelblau(), objective=objective), 5)
            evaluate.many(self.rows(2))
            calls.clear()
            with pytest.raises(RuntimeError, match="budget"):
                evaluate.many(self.rows(4))
            assert evaluate.used == 2 and calls == []
            assert len(evaluate.many(self.rows(3))) == 3 and evaluate.exhausted

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_leaves_used_and_best_as_the_row_loop(self, bad):
        base = himmelblau().objective
        for m in (1, 2, 5):
            for k in range(m):
                objective = bad_at(k, base, bad)
                batched = Evaluator(dataclasses.replace(himmelblau(), objective=_Batched(objective)),
                                    10)
                per_row = Evaluator(dataclasses.replace(himmelblau(), objective=objective), 10)
                rows = self.rows(m)
                for evaluate in (batched, per_row):
                    evaluate(np.array([9.0, 9.0]))
                    with pytest.raises(ValueError, match=f"non-finite value {bad!r}") as error:
                        evaluate.many(rows)
                    assert str(error.value).endswith(f" at {rows[k]!r}")
                assert batched.used == per_row.used == k + 2
                assert batched.best == per_row.best

    def test_values_are_a_new_array_of_the_rows_values(self):
        rows = self.rows(4)
        want = [himmelblau().objective(row) for row in rows]
        batched = _Batched(himmelblau().objective)
        kept = np.array(want)
        batched.many = lambda rows: kept  # the objective's own array
        for objective in (batched, himmelblau().objective):
            evaluate = Evaluator(dataclasses.replace(himmelblau(), objective=objective), 8)
            for given in (rows, list(rows)):
                values = evaluate.many(given)
                assert values.dtype == np.float64 and values.tolist() == want
                assert not np.shares_memory(values, kept) and not np.shares_memory(values, rows)
                values[:] = 0.0
            assert kept.tolist() == want

    def test_batch_of_the_wrong_length_raises(self):
        objective = _Batched(himmelblau().objective)
        objective.many = lambda rows: np.zeros(len(rows) + 1)
        evaluate = Evaluator(dataclasses.replace(himmelblau(), objective=objective), 5)
        with pytest.raises(ValueError, match="returned 4 values for 3 rows"):
            evaluate.many(self.rows(3))

    @pytest.mark.parametrize("batch", [lambda rows: rows.sum(axis=1, keepdims=True),
                                       lambda rows: rows.sum(axis=1)[None, :],
                                       lambda rows: np.float64(1.0)])
    def test_batch_of_the_wrong_shape_raises_before_counting(self, batch):
        # (m, 1) values pass a length check, then failed in the row step with used already 1
        objective = _Batched(himmelblau().objective)
        objective.many = batch
        evaluate = Evaluator(dataclasses.replace(himmelblau(), objective=objective), 5)
        with pytest.raises(ValueError, match=r"for 3 rows in shape .*, not \(3,\)"):
            evaluate.many(self.rows(3))
        assert evaluate.used == 0 and evaluate.best is None

    def test_batch_and_row_loop_agree(self):
        rng = np.random.default_rng(3)
        for problem in (himmelblau(), deb1()):
            lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
            evaluators = [Evaluator(dataclasses.replace(problem, objective=o), 40)
                          for o in (_Batched(problem.objective), problem.objective)]
            for m in (1, 3, 7, 20):
                rows = lo + (hi - lo) * rng.random((m, problem.dimension))
                got, want = (evaluate.many(rows) for evaluate in evaluators)
                assert got.shape == want.shape == (m,) and got.tobytes() == want.tobytes()
                for evaluate in evaluators:
                    evaluate.checkpoint()
            batched, per_row = evaluators
            assert batched.used == per_row.used == 31
            assert batched.best == per_row.best and batched.trace == per_row.trace
            assert len(batched.objective.batches) == 4 and batched.objective.calls == []


class TestBinaryTournament:
    def test_better_of_two_max(self):
        fitness = np.array([1.0, 2.0])
        winners = {tournament(fitness, np.random.default_rng(s), "max") for s in range(30)}
        assert 1 in winners
        # the better index must win whenever both are drawn
        for s in range(30):
            replay = np.random.default_rng(s)
            i = int(replay.integers(2))
            j = int(replay.integers(2))
            got = tournament(fitness, np.random.default_rng(s), "max")
            expected = j if fitness[j] > fitness[i] else i
            assert got == expected

    def test_better_of_two_min(self):
        fitness = np.array([1.0, 2.0])
        for s in range(30):
            replay = np.random.default_rng(s)
            i = int(replay.integers(2))
            j = int(replay.integers(2))
            got = tournament(fitness, np.random.default_rng(s), "min")
            expected = j if fitness[j] < fitness[i] else i
            assert got == expected

    def test_tie_keeps_first_drawn(self):
        fitness = np.array([5.0, 5.0, 5.0])
        for s in range(30):
            replay = np.random.default_rng(s)
            i = int(replay.integers(3))
            replay.integers(3)
            assert tournament(fitness, np.random.default_rng(s), "max") == i

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            binary_tournament(np.empty(0), 0, 0, "max")

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            binary_tournament(np.array([1.0, 2.0]), 0, 1, "up")


def summed_distances(points, rows):
    """The distances as ``row_distances`` summed them before blocks were
    built plane by plane."""
    return np.sqrt(((points - rows) ** 2).sum(axis=-1))


def block_case(rng, m, n, d):
    """``(m, d)`` points and ``(n, d)`` rows at magnitudes from 1e-3 to 1e3,
    with exact zeros, signed zeros and rows equal to points."""
    scale = 10.0 ** rng.uniform(-3, 3, size=d)
    points, rows = rng.normal(size=(m, d)) * scale, rng.normal(size=(n, d)) * scale
    points[rng.random((m, d)) < 0.15] = 0.0
    rows[rng.random((n, d)) < 0.15] = -0.0
    rows[rng.random(n) < 0.2] = points[0]
    points[rng.random(m) < 0.2] = -rows[-1]
    return points, rows


class TestRowDistanceBlocks:
    """Blocks summed plane by plane against ``.sum(axis=-1)``, bit for bit."""

    @pytest.mark.parametrize("d", range(1, 21))
    def test_blocks_match_the_sum_over_the_last_axis(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(40):
            m, n = (int(k) for k in rng.integers(1, 14, size=2))
            points, rows = block_case(rng, m, n, d)
            for p, r in ((points[:, None, :], rows), (rows[:, None, :], points),
                         (points[:, None, :], np.stack((rows, -rows))[:, None])):
                assert row_distances(p, r).tobytes() == summed_distances(p, r).tobytes()
            for p, r in ((points, rows[0]), (points[0], rows)):  # vectors
                assert row_distances(p, r).tobytes() == summed_distances(p, r).tobytes()

    def test_only_blocks_below_16_terms_are_built_plane_by_plane(self, monkeypatch):
        assert core._sum_order_probe()  # probed before the count: its blocks are not counted
        built = []
        square_sum = core._square_sum
        monkeypatch.setattr(core, "_square_sum", lambda p, r, d: built.append(d) or square_sum(p, r, d))
        rng = np.random.default_rng(7)
        for d in (1, 2, 8, 15, 16, 20):
            points, rows = block_case(rng, 5, 6, d)
            row_distances(points[:, None, :], rows)
            row_distances(points, rows[0])
        assert built == [1, 2, 8, 15]

    def test_a_failed_probe_takes_the_sum(self, monkeypatch):
        # a plane-by-plane sum in the wrong order fails the probe, run
        # uncached; with the probe's answer False every block takes .sum
        # and keeps its bits, which the wrong order would not
        monkeypatch.setattr(core, "_square_sum", lambda p, r, d: ((p - r) ** 2)[..., ::-1].sum(-1))
        assert not core._sum_order_probe.__wrapped__()
        monkeypatch.setattr(core, "_sum_order_probe", lambda: False)
        rng = np.random.default_rng(8)
        for d in range(1, 16):
            points, rows = block_case(rng, 9, 7, d)
            got = row_distances(points[:, None, :], rows)
            assert got.tobytes() == summed_distances(points[:, None, :], rows).tobytes()


BOUNDS_1D = np.array([[0.0, 1.0]])


class TestBlendCrossover:
    def test_equal_parents_yield_equal_children(self):
        p = np.array([0.3])
        c1, c2 = per_child_blend(p, p, np.random.default_rng(3), BOUNDS_1D)
        assert c1[0] == 0.3 and c2[0] == 0.3

    def test_interval_contract(self):
        wide = np.array([[-10.0, 10.0]])
        for s in range(200):
            c1, c2 = per_child_blend(np.array([0.0]), np.array([1.0]), np.random.default_rng(s), wide)
            for c in (c1, c2):
                assert -0.5 <= c[0] <= 1.5

    def test_clamping(self):
        for s in range(200):
            c1, c2 = per_child_blend(np.array([0.0]), np.array([1.0]), np.random.default_rng(s), BOUNDS_1D)
            for c in (c1, c2):
                assert 0.0 <= c[0] <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            per_child_blend(np.array([0.0]), np.array([0.0, 1.0]), np.random.default_rng(0), BOUNDS_1D)


class TestGaussianMutation:
    def test_rate_zero_is_identity(self):
        g = np.array([0.2, 0.8])
        bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
        out = per_child_mutation(g, np.random.default_rng(1), bounds, rate=0.0, sigma=0.1)
        assert np.array_equal(out, g)

    def test_tiny_sigma_limit(self):
        g = np.array([0.5, 0.5])
        bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
        out = per_child_mutation(g, np.random.default_rng(1), bounds, rate=1.0, sigma=1e-13)
        assert np.allclose(out, g, atol=1e-9)

    def test_output_within_bounds(self):
        bounds = np.array([[0.0, 1.0], [-2.0, -1.0]])
        for s in range(300):
            g = random_genome(np.random.default_rng(s), bounds)
            out = per_child_mutation(g, np.random.default_rng(s + 1), bounds, rate=1.0, sigma=0.5)
            assert np.all(out >= bounds[:, 0]) and np.all(out <= bounds[:, 1])

    def test_invalid_params(self):
        bounds = np.array([[0.0, 1.0]])
        with pytest.raises(ValueError):
            per_child_mutation(np.array([0.5]), np.random.default_rng(0), bounds, rate=1.5, sigma=0.1)
        for sigma in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="sigma must be positive"):
                per_child_mutation(np.array([0.5]), np.random.default_rng(0), bounds, rate=0.5,
                                   sigma=sigma)


class TestDeTrialVector:
    WIDE = np.array([[-100.0, 100.0]])

    def test_identical_donors_reproduce_donor(self):
        # all non-target members share one genome, so a + F(b - c) = a
        genomes = np.array([[9.0], [4.0], [4.0], [4.0]])
        trial = per_child_trial(0, genomes, F=0.5, CR=1.0, rng=np.random.default_rng(5), bounds=self.WIDE)
        assert trial[0] == 4.0

    def test_full_crossover_equals_mutant(self):
        # replay the draws to reconstruct the expected mutant
        genomes = np.array([[9.0], [0.0], [2.0], [4.0]])
        for s in range(100):
            replay = np.random.default_rng(s)
            candidates = np.array([1, 2, 3])
            a, b, c = replay.choice(candidates, size=3, replace=False)
            expected = genomes[a] + 0.5 * (genomes[b] - genomes[c])
            trial = per_child_trial(0, genomes, F=0.5, CR=1.0, rng=np.random.default_rng(s), bounds=self.WIDE)
            assert trial[0] == expected[0]

    def test_arithmetic_case(self):
        # donors (0), (2), (4) with F=0.5 must be able to produce -1
        genomes = np.array([[9.0], [0.0], [2.0], [4.0]])
        seen = set()
        for s in range(200):
            trial = per_child_trial(0, genomes, F=0.5, CR=1.0, rng=np.random.default_rng(s), bounds=self.WIDE)
            seen.add(round(float(trial[0]), 6))
        assert -1.0 in seen  # 0 + 0.5 * (2 - 4)

    def test_small_pool_rejected(self):
        genomes = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError):
            per_child_trial(0, genomes, 0.5, 0.9, np.random.default_rng(0), self.WIDE)

    def test_clamped(self):
        bounds = np.array([[0.0, 1.0]])
        genomes = np.array([[0.1], [0.0], [0.9], [1.0]])
        for s in range(100):
            trial = per_child_trial(0, genomes, F=2.0, CR=1.0, rng=np.random.default_rng(s), bounds=bounds)
            assert 0.0 <= trial[0] <= 1.0


def test_operator_chains_never_escape_bounds():
    bounds = np.array([[0.0, 1.0], [-5.0, 5.0], [100.0, 200.0]])
    rng = np.random.default_rng(99)
    genomes = np.array([random_genome(rng, bounds) for _ in range(6)])
    for step in range(500):
        c1, c2 = per_child_blend(genomes[step % 6], genomes[(step + 1) % 6], rng, bounds)
        m = per_child_mutation(c1, rng, bounds, rate=0.5, sigma=0.3)
        t = per_child_trial(step % 6, genomes, F=0.9, CR=0.9, rng=rng, bounds=bounds)
        for g in (c1, c2, m, t):
            assert np.all(g >= bounds[:, 0]) and np.all(g <= bounds[:, 1])
        genomes[step % 6] = t


def test_int_seed_and_generator_give_identical_runs():
    from nichebench.algorithms import ALGORITHMS, AlgorithmConfig

    problem = himmelblau()
    config = AlgorithmConfig(population_size=8)
    for name, algorithm in ALGORITHMS.items():
        by_seed = algorithm(problem, config, 100, 7)
        by_generator = algorithm(problem, config, 100, np.random.default_rng(7))
        assert result_digest(by_seed) == result_digest(by_generator), name
