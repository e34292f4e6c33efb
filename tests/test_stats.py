"""Significance tests against enumeration, scan, and quadrature oracles."""

import itertools
import math

import numpy as np
import pytest

from nichebench import stats
from nichebench.stats import (
    EXACT_MWU_LIMIT,
    _exact_mwu_pvalue,
    _rank_sum_doubled,
    ks_two_sample,
    mann_whitney_u,
    pairwise_matrix,
    welch_t,
)


def oracle_u(a, b):
    """U of the first sample by direct pairwise counting."""
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def oracle_mwu_pvalue(a, b):
    """Exhaustive permutation enumeration of the two-sided p-value."""
    pooled = list(a) + list(b)
    n = len(a)
    nm = len(a) * len(b)
    obs = abs(oracle_u(a, b) - nm / 2.0)
    favorable = total = 0
    for idx in itertools.combinations(range(len(pooled)), n):
        chosen = set(idx)
        aa = [pooled[i] for i in idx]
        bb = [pooled[i] for i in range(len(pooled)) if i not in chosen]
        total += 1
        if abs(oracle_u(aa, bb) - nm / 2.0) >= obs - 1e-12:
            favorable += 1
    return favorable / total


class TestMannWhitneyU:
    def test_identical_samples(self):
        u, p = mann_whitney_u([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert p == pytest.approx(1.0, abs=1e-9)

    def test_complete_separation(self):
        u, p = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert u == 0.0

    def test_u_statistic_matches_pairwise_count(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            a = rng.integers(0, 10, size=rng.integers(2, 8)).astype(float)
            b = rng.integers(0, 10, size=rng.integers(2, 8)).astype(float)
            u, _ = mann_whitney_u(a, b)
            assert u == pytest.approx(oracle_u(a, b), abs=1e-12)

    def test_exact_p_matches_permutation_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            # integer values produce heavy ties; floats none
            if rng.random() < 0.5:
                values = rng.integers(0, 5, size=n + m).astype(float)
            else:
                values = rng.normal(size=n + m)
            a, b = values[:n], values[n:]
            _, p = mann_whitney_u(a, b)
            assert p == pytest.approx(oracle_mwu_pvalue(a, b), abs=1e-10)

    def test_u_sum_identity_without_ties(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            a = rng.normal(size=6)
            b = rng.normal(size=9)
            ua, _ = mann_whitney_u(a, b)
            ub, _ = mann_whitney_u(b, a)
            assert ua + ub == pytest.approx(len(a) * len(b), abs=1e-12)

    def test_invariance_under_joint_monotone_transform(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            _, p1 = mann_whitney_u(a, b)
            _, p2 = mann_whitney_u(np.exp(a), np.exp(b))
            assert p1 == pytest.approx(p2, abs=1e-12)

    def test_asymptotic_branch_sane(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=50)
        b = rng.normal(size=50) + 3.0
        assert len(a) * len(b) > EXACT_MWU_LIMIT
        _, p = mann_whitney_u(a, b)
        assert p < 1e-10
        _, p_null = mann_whitney_u(a, np.concatenate([a[:25], a[25:]]))
        assert p_null == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_all_identical(self):
        a = np.full(30, 2.0)
        b = np.full(30, 2.0)
        _, p = mann_whitney_u(a, b)
        assert p == 1.0


def reference_exact_mwu_pvalue(doubled_ranks, k, dev2_obs, nm):
    """The full rank-sum DP, recomputed on every call, without a cache."""
    weights = np.sort(doubled_ranks)
    smax = int(weights[-k:].sum())
    counts = np.zeros((k + 1, smax + 1))
    counts[0, 0] = 1.0
    for processed, w in enumerate(weights, start=1):
        for kk in range(min(k, processed) - 1, -1, -1):
            counts[kk + 1, w:] += counts[kk, : smax + 1 - w]
    total = counts[k].sum()
    sums = np.arange(smax + 1)
    dev2 = np.abs(sums - k * (k + 1) - nm)
    favorable = counts[k, dev2 >= dev2_obs].sum()
    return float(favorable / total)


def exact_case(a, b):
    """The arguments mann_whitney_u passes to the exact path for (a, b)."""
    n, m = len(a), len(b)
    rank2_a, doubled = _rank_sum_doubled(np.asarray(a, float), np.asarray(b, float))
    return doubled, min(n, m), abs(rank2_a - n * (n + 1) - n * m), n * m


class TestExactMwuCache:
    """The cached, band-trimmed null distribution gives the same doubles."""

    @staticmethod
    def random_cases(seed, count):
        rng = np.random.default_rng(seed)
        cases = []
        while len(cases) < count:
            n = int(rng.integers(1, 21))
            m = int(rng.integers(1, 21))
            if n == m or n * m > EXACT_MWU_LIMIT:
                continue
            if rng.random() < 0.5:  # heavy ties
                values = rng.integers(0, int(rng.integers(2, 7)), size=n + m).astype(float)
            else:
                values = rng.normal(size=n + m)
            cases.append(exact_case(values[:n], values[n:]))
        return cases

    def assert_all_equal(self, cases):
        for case in cases:
            assert _exact_mwu_pvalue(*case) == reference_exact_mwu_pvalue(*case)

    def test_cold_warm_and_reverse_order(self):
        cases = self.random_cases(71, 300)
        stats._null_rank_sum_counts.cache_clear()
        self.assert_all_equal(cases)  # cold cache, then misses and evictions
        self.assert_all_equal(cases[-40:])  # warm: the last entries are cached
        assert stats._null_rank_sum_counts.cache_info().hits >= 40
        self.assert_all_equal(cases[::-1])

    def test_single_element_side_and_all_tied_pools(self):
        stats._null_rank_sum_counts.cache_clear()
        cases = [
            exact_case([1.0], [2.0]),
            exact_case([3.0], [1.0, 2.0, 4.0, 5.0]),
            exact_case(np.arange(20.0), [7.5]),
            exact_case([2.0] * 3, [2.0] * 9),
            exact_case([2.0] * 20, [2.0] * 20),
            exact_case([1.0], [1.0] * 19),
        ]
        for _ in range(2):  # cold, then warm
            self.assert_all_equal(cases)

    def test_largest_exact_products(self):
        rng = np.random.default_rng(73)
        stats._null_rank_sum_counts.cache_clear()
        for n, m in ((20, 20), (10, 40), (40, 10), (16, 25)):
            assert n * m == EXACT_MWU_LIMIT
            for tied in (False, True):
                values = rng.integers(0, 4, size=n + m).astype(float) if tied \
                    else rng.normal(size=n + m)
                case = exact_case(values[:n], values[n:])
                assert _exact_mwu_pvalue(*case) == reference_exact_mwu_pvalue(*case)

    def test_cached_row_is_read_only(self):
        case = exact_case([1.0, 2.0, 3.0], [4.0, 5.0])
        _exact_mwu_pvalue(*case)
        counts, total = stats._null_rank_sum_counts(np.sort(case[0]).tobytes(), case[1])
        assert not counts.flags.writeable
        assert total == math.comb(5, 2)


def oracle_ks_d(a, b):
    best = 0.0
    for t in list(a) + list(b):
        fa = sum(1 for v in a if v <= t) / len(a)
        fb = sum(1 for v in b if v <= t) / len(b)
        best = max(best, abs(fa - fb))
    return best


class TestKsTwoSample:
    def test_identical(self):
        d, p = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert d == 0.0
        assert p == 1.0

    def test_disjoint_supports(self):
        d, _ = ks_two_sample([1.0, 2.0], [3.0, 4.0])
        assert d == 1.0

    def test_d_matches_breakpoint_scan(self):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            n = int(rng.integers(2, 20))
            m = int(rng.integers(2, 20))
            if rng.random() < 0.5:
                a = rng.integers(0, 6, size=n).astype(float)
                b = rng.integers(0, 6, size=m).astype(float)
            else:
                a = rng.normal(size=n)
                b = rng.normal(size=m)
            d, p = ks_two_sample(a, b)
            assert d == pytest.approx(oracle_ks_d(a, b), abs=1e-12)
            assert 0.0 <= d <= 1.0
            assert 0.0 <= p <= 1.0

    def test_invariance_under_increasing_transform(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            a = rng.normal(size=8)
            b = rng.normal(size=6)
            d1, p1 = ks_two_sample(a, b)
            d2, p2 = ks_two_sample(np.exp(a), np.exp(b))
            assert d1 == d2
            assert p1 == p2

    def test_separated_large_samples_significant(self):
        rng = np.random.default_rng(43)
        a = rng.normal(size=50)
        b = rng.normal(size=50) + 5.0
        _, p = ks_two_sample(a, b)
        assert p < 1e-9


class TestWelchT:
    def test_identical_samples(self):
        t, p = welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0
        assert p == pytest.approx(1.0)

    def test_zero_variance_contracts(self):
        t, p = welch_t([5.0, 5.0], [5.0, 5.0])
        assert (t, p) == (0.0, 1.0)
        t, p = welch_t([5.0, 5.0], [6.0, 6.0])
        assert p == 0.0 and t == -math.inf

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            welch_t([1.0], [1.0, 2.0])

    def test_against_quadrature_oracle(self):
        import mpmath as mp

        def oracle_p(a, b):
            a = np.asarray(a)
            b = np.asarray(b)
            n, m = a.size, b.size
            va, vb = a.var(ddof=1), b.var(ddof=1)
            se2 = va / n + vb / m
            t = (a.mean() - b.mean()) / math.sqrt(se2)
            df = mp.mpf(se2 ** 2 / ((va / n) ** 2 / (n - 1) + (vb / m) ** 2 / (m - 1)))

            def pdf(x):
                return (
                    mp.gamma((df + 1) / 2)
                    / (mp.sqrt(df * mp.pi) * mp.gamma(df / 2))
                    * (1 + x * x / df) ** (-(df + 1) / 2)
                )

            return float(2 * mp.quad(pdf, [-mp.inf, -abs(t)]))

        rng = np.random.default_rng(47)
        for _ in range(25):
            a = rng.normal(size=int(rng.integers(3, 12)))
            b = rng.normal(loc=rng.uniform(-1, 1), size=int(rng.integers(3, 12)))
            _, p = welch_t(a, b)
            assert p == pytest.approx(oracle_p(a, b), abs=1e-6)

    def test_reference_triple(self):
        a = np.array([1.1, 2.3, 0.7, 1.9, 2.5])
        b = np.array([2.0, 3.1, 2.9, 3.5])
        t, p = welch_t(a, b)
        # frozen from the quadrature oracle
        assert p == pytest.approx(0.04100018677454645, abs=1e-9)


class TestPairwiseMatrix:
    def test_identical_sets_all_false(self):
        values = np.arange(10.0)
        samples = [values, values.copy()]
        for test in ("mwu", "ks", "t"):
            pvalues = pairwise_matrix(samples, test=test)
            assert not (pvalues < 0.05).any()

    def test_separated_sets_significant(self):
        rng = np.random.default_rng(53)
        a = rng.normal(size=50)
        b = rng.normal(size=50) + 10.0
        pvalues = pairwise_matrix([a, b], test="mwu")
        assert pvalues[0, 1] < 0.05 and pvalues[1, 0] < 0.05

    def test_diagonal_false_and_symmetric(self):
        rng = np.random.default_rng(59)
        samples = [rng.normal(size=12) for _ in range(4)]
        for test in ("mwu", "ks", "t"):
            pvalues = pairwise_matrix(samples, test=test)
            assert pvalues.shape == (4, 4)
            assert (pvalues.diagonal() == 1.0).all()
            assert not (pvalues < 0.05).diagonal().any()
            assert np.array_equal(pvalues, pvalues.T)

    def test_lists_give_the_same_bits_as_arrays(self):
        rng = np.random.default_rng(61)
        samples = [rng.integers(0, 6, size=20).astype(float) for _ in range(3)]
        for test in ("mwu", "ks", "t"):
            want = pairwise_matrix(samples, test=test)
            got = pairwise_matrix([s.tolist() for s in samples], test=test)
            assert got.tobytes() == want.tobytes()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            pairwise_matrix([np.ones(3)])
        with pytest.raises(ValueError):
            pairwise_matrix([np.ones(3), np.ones(3)], test="chi2")
        with pytest.raises(ValueError, match="nonempty"):
            pairwise_matrix([np.ones(3), np.empty(0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_sample_before_any_test(self, bad, monkeypatch):
        calls = []
        monkeypatch.setitem(stats.TESTS, "mwu", lambda a, b: calls.append(1) or (0.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            pairwise_matrix([np.ones(3), np.ones(3), np.array([1.0, bad])])
        assert calls == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("test", [mann_whitney_u, ks_two_sample, welch_t])
def test_each_test_rejects_a_non_finite_sample(test, bad):
    for a, b in (([1.0, bad, 3.0], [2.0, 4.0, 5.0]), ([2.0, 4.0, 5.0], [1.0, bad, 3.0])):
        with pytest.raises(ValueError, match="sample must be finite"):
            test(a, b)


def test_null_calibration_smoke():
    # loose, fast version of the calibration gate (the acceptance suite
    # runs the full 10^4-trial check)
    rng = np.random.default_rng(61)
    trials = 1500
    hits = {"mwu": 0, "ks": 0, "t": 0}
    for _ in range(trials):
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        if mann_whitney_u(a, b)[1] < 0.05:
            hits["mwu"] += 1
        if ks_two_sample(a, b)[1] < 0.05:
            hits["ks"] += 1
        if welch_t(a, b)[1] < 0.05:
            hits["t"] += 1
    for name, count in hits.items():
        assert 0.02 <= count / trials <= 0.09, (name, count / trials)
