"""Significance tests against enumeration, scan, and quadrature oracles."""

import itertools
import math

import numpy as np
import pytest

from nichebench import stats
from nichebench.stats import (
    EXACT_MWU_LIMIT,
    _exact_mwu_pvalue,
    _tie_groups,
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

    def test_normal_approximation_against_mpmath(self):
        # a protocol cell: 50 runs a side, so n*m = 2500 takes the normal
        # approximation; values on a 0.1 grid tie within and across the sides
        import mpmath as mp

        rng = np.random.default_rng(31)
        for shift in (0.0, 0.3, 0.6, 1.0):
            a, b = np.round(rng.normal(size=50), 1), np.round(rng.normal(size=50) + shift, 1)
            assert a.size * b.size > EXACT_MWU_LIMIT
            pooled = sorted(a.tolist() + b.tolist())
            with mp.workdps(50):
                # the midrank of x: its first and last 1-based positions, averaged
                rank = {x: mp.mpf(2 * pooled.index(x) + pooled.count(x) + 1) / 2 for x in pooled}
                u = sum(rank[x] for x in a.tolist()) - mp.mpf(50 * 51) / 2
                ties = sum(mp.mpf(pooled.count(x)) ** 3 - pooled.count(x) for x in set(pooled))
                var = mp.mpf(50 * 50) / 12 * (101 - ties / (100 * 99))
                z = max(0, abs(u - 50 * 50 / mp.mpf(2)) - mp.mpf("0.5")) / mp.sqrt(var)
                want = mp.erfc(z / mp.sqrt(2))
            got_u, got_p = mann_whitney_u(a, b)
            assert got_u == u
            assert abs(got_p - want) <= 1e-12 * want, shift

    def test_degenerate_all_identical(self):
        a = np.full(30, 2.0)
        b = np.full(30, 2.0)
        _, p = mann_whitney_u(a, b)
        assert p == 1.0


def brute_tie_groups(a, b):
    """_tie_groups by definition: a value's doubled midrank is
    2 * #less + #equal + 1, counted over the whole pool."""
    pooled = list(a) + list(b)
    doubled = [2 * sum(y < x for y in pooled) + sum(y == x for y in pooled) + 1 for x in pooled]
    sizes = [sum(y == x for y in pooled) for x in sorted(set(pooled))]
    return sum(doubled[: len(a)]), sorted(doubled), sizes


class TestTieGroups:
    @staticmethod
    def check(a, b):
        rank2_a, sorted_doubled, sizes = _tie_groups(np.asarray(a, float), np.asarray(b, float))
        want_rank2, want_sorted, want_sizes = brute_tie_groups(a, b)
        assert type(rank2_a) is int and rank2_a == want_rank2
        assert sorted_doubled.dtype == np.int64 and sorted_doubled.tolist() == want_sorted
        assert sizes.tolist() == want_sizes

    def test_against_the_definition(self):
        rng = np.random.default_rng(67)
        for _ in range(2000):
            n = int(rng.integers(1, 12))
            m = int(rng.integers(1, 12))
            kind = rng.random()
            if kind < 0.4:  # heavy ties
                values = rng.integers(0, int(rng.integers(1, 5)), size=n + m).astype(float)
            elif kind < 0.6:  # signed zeros tie with each other
                values = rng.choice([0.0, -0.0, 1.0, -1.0], size=n + m)
            else:
                values = rng.normal(size=n + m)
            self.check(values[:n].tolist(), values[n:].tolist())

    def test_all_tied_signed_zero_and_single_element_sides(self):
        for a, b in (([2.0] * 20, [2.0] * 20), ([1.0], [1.0] * 19), ([1.0], [2.0]),
                     ([0.0, -0.0], [-0.0]), ([-0.0], [0.0, 1.0, -1.0]), ([3.0], [1.0]),
                     (list(np.arange(20.0)), [7.5])):
            self.check(a, b)
            self.check(b, a)


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
    rank2_a, sorted_doubled, _ = _tie_groups(np.asarray(a, float), np.asarray(b, float))
    return sorted_doubled, min(n, m), abs(rank2_a - n * (n + 1) - n * m), n * m


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

    def test_kolmogorov_sf_against_theta_series(self):
        import mpmath as mp

        def oracle(lam):
            # Q = 1 - sqrt(2 pi)/lam * sum_k exp(-(2k-1)^2 pi^2 / (8 lam^2)),
            # whose terms vanish fast for lam <= 0.5
            with mp.workdps(40):
                lam = mp.mpf(lam)
                tail = sum(mp.exp(-(2 * k - 1) ** 2 * mp.pi ** 2 / (8 * lam ** 2))
                           for k in range(1, 9))
                return float(1 - mp.sqrt(2 * mp.pi) / lam * tail)

        cutoff = stats._KS_SERIES_MIN
        lams = np.concatenate([np.linspace(0.0, 0.5, 1001)[1:], [1e-300, 1e-9, 0.005, 0.01, 0.02],
                               cutoff * np.array([1 - 1e-12, 1.0, 1 + 1e-12])])
        for lam in lams.tolist():
            assert abs(stats._kolmogorov_sf(lam) - oracle(lam)) <= 1e-12, lam
            if lam < cutoff:
                assert stats._kolmogorov_sf(lam) == 1.0, lam

    def test_kolmogorov_sf_keeps_its_bits_from_the_cutoff_up(self):
        # the 100-term series, unchanged at and above the cutoff, pinned to the bit
        cases = {stats._KS_SERIES_MIN: "0x1.ffffffffffffcp-1", 0.05: "0x1.ffffffffffffcp-1",
                 0.1: "0x1.0000000000000p+0", 0.25: "0x1.ffffff1995d18p-1",
                 0.5: "0x1.ed8a3b2159ccbp-1", 1.0: "0x1.147acb3f23d09p-2",
                 1.5: "0x1.6c04e3b49728bp-6", 3.0: "0x1.05a628c699fa1p-25"}
        assert {lam: stats._kolmogorov_sf(lam).hex() for lam in cases} == cases

    def test_large_nearly_equal_samples_give_p_one(self):
        # D = 0.0005 and sqrt(ne) D = 0.0158: a truncated series gave p = 0.9936
        d, p = ks_two_sample(np.arange(2000.0), np.arange(2000.0) + 0.5)
        assert d == pytest.approx(0.0005, abs=1e-15)
        assert p == 1.0


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

    def test_variances_whose_squares_underflow(self):
        # (var / n) ** 2 underflows to 0.0, which once divided by zero; a
        # power-of-two scaling is exact, so the result is the scaled test's
        for a, b in (([0.0, 1e-85], [0.0, 2e-85]), ([1e-100, 2e-100, 4e-100], [3e-100, 0.0]),
                     ([1e-160, 0.0], [0.0, -3e-160, 2e-160])):
            a, b = np.array(a), np.array(b)
            t, p = welch_t(a, b)
            assert math.isfinite(t) and 0.0 <= p <= 1.0
            exponent = math.frexp(max(np.abs(a).max(), np.abs(b).max()))[1]
            for shift in (-exponent, 40 - exponent):
                assert (t, p) == welch_t(np.ldexp(a, shift), np.ldexp(b, shift))
        matrix = stats.pairwise_matrix([[0.0, 1e-85], [0.0, 2e-85]], "t")
        assert matrix[0, 1] == welch_t([0.0, 1e-85], [0.0, 2e-85])[1]

    def test_variances_that_underflow_or_whose_squares_overflow(self):
        # variances that underflow to 0.0 once took the zero-variance branch
        # (-inf, 0.0); (var / n) ** 2 beyond the float range once raised
        # OverflowError, and a variance beyond it gave (0.0, 1.0). Each is
        # now the test on the samples scaled by a power of two, which is exact
        for a, b, shift, want in (
                ([0.0, 1e-170], [0.0, 2e-170], 560, (-0.44721359549995787, 0.7117227912336697)),
                ([0.0, 1e80], [0.0, 2e80], -300, (-0.4472135954999579, 0.7117227912336697)),
                ([0.0, 1e200, 3e199], [-1e200, 2e200], -700, None),
                ([4e153, 0.0, 1e153], [-2e153, 1e153, 3e153], -500, None)):
            a, b = np.array(a), np.array(b)
            got = welch_t(a, b)
            assert got == welch_t(np.ldexp(a, shift), np.ldexp(b, shift))
            assert math.isfinite(got[0]) and 0.0 < got[1] < 1.0
            if want is not None:
                assert got == want
        matrix = stats.pairwise_matrix([[0.0, 1e80], [0.0, 2e80]], "t")
        assert matrix[0, 1] == 0.7117227912336697

    def test_variances_that_vanish_beside_the_largest_value_are_zero(self):
        # scaled once, and no more: a variance that still underflows beside
        # a constant sample degenerates as a zero variance does
        assert welch_t([0.0, 1e-170], [5.0, 5.0]) == (-math.inf, 0.0)
        assert welch_t([1.0, 1.0], [0.0, 1e-90]) == (math.inf, 0.0)

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
