"""Two-sample significance tests and the pairwise comparison matrix.

Implements the Mann-Whitney U test (exact null distribution for small
sample products, normal approximation with tie correction otherwise), the
two-sample Kolmogorov-Smirnov test with the asymptotic Kolmogorov
distribution, and Welch's unequal-variance t test. All tests are
two-sided and take two nonempty samples of finite floats (lists or
arrays); an empty sample, NaN or +-inf raises ValueError.
``pairwise_matrix`` turns ``k`` per-algorithm samples into the ``(k, k)``
array of p-values that the experiment reports compare with their alpha.

The Mann-Whitney test finds the pool's tie groups in one ``np.unique``
pass, which gives the doubled midranks (integers), the group sizes of the
normal path's tie term, and the ascending doubled midranks that alone,
with the smaller sample size k, fix the exact null distribution. That is
computed once per ``(ascending_doubled.tobytes(), k)`` key and kept in a
64-entry LRU cache, and each step of its knapsack touches only the rows
that can still reach k and the columns up to the running maximum sum.
Samples of equal size without ties share one key, so a pairwise grid
mostly costs lookups. The p-value stays exact: every count is an integer
below C(40, 20) < 2^53, so the float64 sums are exact and give the same
double as a full recount.

SciPy is imported by the first ``welch_t`` call, not with this module:
``welch_t`` takes its p-value from ``scipy.special.stdtr``, and nothing
else here needs SciPy, so code that never runs the t test never loads it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "mann_whitney_u",
    "ks_two_sample",
    "welch_t",
    "pairwise_matrix",
    "TESTS",
]

# exact MWU enumeration is used when n*m is at or below this product
EXACT_MWU_LIMIT = 400


def _as_values(sample) -> np.ndarray:
    values = np.asarray(sample, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("sample must be nonempty")
    if not np.isfinite(values).all():
        raise ValueError("sample must be finite")
    return values


def _tie_groups(a: np.ndarray, b: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Tie groups of the pool ``a`` + ``b``, found by one ``np.unique``.

    Returns the doubled midrank sum of ``a``, the pool's doubled midranks
    in ascending order as int64, and the tie-group sizes in value order. A
    group of ``c`` values ending at 1-based position ``e`` has midrank
    (2e - c + 1)/2, so every doubled midrank is an integer; each value of
    ``a`` finds its group by a binary search of the distinct values.
    """
    values, sizes = np.unique(np.concatenate([a, b]), return_counts=True)
    doubled = 2 * np.cumsum(sizes) - sizes + 1
    rank2_a = int(doubled[np.searchsorted(values, a)].sum())
    return rank2_a, np.repeat(doubled, sizes).astype(np.int64), sizes


# distinct null distributions kept by _null_rank_sum_counts; within
# EXACT_MWU_LIMIT one entry is at most a 10 KB counts row and a 3 KB key
_NULL_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_NULL_CACHE_SIZE)
def _null_rank_sum_counts(weights_key: bytes, k: int) -> tuple[np.ndarray, float]:
    """Null distribution of the doubled rank sum of a k-subset of a pool.

    ``weights_key`` is the ``tobytes()`` of the pool's sorted int64 doubled
    midranks. Returns the read-only row ``counts`` where ``counts[s]`` is
    the number of k-subsets whose doubled ranks sum to ``s``, and its
    total C(n + m, k).

    The 0/1 knapsack runs over the weights in ascending order and, per
    weight, updates only the band that can matter, in one block: the rows
    ``kk`` from which k is still reachable with the weights left, and the
    columns up to the sum of the weights processed so far (every entry
    beyond it is zero).
    """
    weights = np.frombuffer(weights_key, dtype=np.int64).tolist()
    n_weights = len(weights)
    smax = sum(weights[n_weights - k:])
    counts = np.zeros((k + 1, smax + 1))
    counts[0, 0] = 1.0
    reached = 0  # sum of the weights processed so far
    for processed, w in enumerate(weights, start=1):
        reached = min(smax, reached + w)
        lowest = max(0, k - 1 - (n_weights - processed))
        top = min(k, processed)
        # rows lowest+1..top each gain the row below as it was before this
        # weight: NumPy evaluates an overlapping in-place add as if the
        # right-hand side were copied first
        counts[lowest + 1 : top + 1, w : reached + 1] += counts[lowest:top, : reached + 1 - w]
    row = counts[k].copy()  # a view would keep the whole table alive
    row.flags.writeable = False
    return row, float(row.sum())


def _exact_mwu_pvalue(sorted_doubled: np.ndarray, k: int, dev2_obs: int, nm: int) -> float:
    """Two-sided exact p: the share of the k-subsets of the pool whose
    doubled ``|U - nm/2|`` is at least ``dev2_obs``, counted from the cached
    null distribution of ``_null_rank_sum_counts`` for the pool's ascending
    int64 doubled midranks ``sorted_doubled`` (the module docstring says
    why the cache and its trimming leave the double unchanged)."""
    counts, total = _null_rank_sum_counts(sorted_doubled.tobytes(), k)
    dev2 = np.abs(np.arange(counts.size) - k * (k + 1) - nm)  # doubled |U - nm/2|
    favorable = counts[dev2 >= dev2_obs].sum()
    return float(favorable / total)


def mann_whitney_u(a, b) -> tuple[float, float]:
    """Mann-Whitney U statistic of the first sample and two-sided p-value.

    Ties get midranks. The exact permutation null is enumerated (via the
    rank-sum counting recurrence) when n*m <= EXACT_MWU_LIMIT; otherwise
    the normal approximation with tie-corrected variance and continuity
    correction is used. Two fully identical samples give p = 1.
    """
    a = _as_values(a)
    b = _as_values(b)
    n, m = a.size, b.size
    rank2_a, sorted_doubled, group_sizes = _tie_groups(a, b)
    u_a = (rank2_a - n * (n + 1)) / 2.0

    dev2_obs = abs(rank2_a - n * (n + 1) - n * m)  # doubled |U_a - nm/2|
    if n * m <= EXACT_MWU_LIMIT:
        # enumerate over the smaller side; |U - nm/2| is the same for both
        k = min(n, m)
        p = _exact_mwu_pvalue(sorted_doubled, k, dev2_obs, n * m)
        return u_a, min(1.0, p)

    N = n + m
    tie_term = float(np.sum(group_sizes.astype(float) ** 3 - group_sizes))
    var = (n * m / 12.0) * ((N + 1) - tie_term / (N * (N - 1.0)))
    if var <= 0.0:
        return u_a, 1.0
    z = max(0.0, (dev2_obs / 2.0 - 0.5)) / math.sqrt(var)
    p = math.erfc(z / math.sqrt(2.0))
    return u_a, min(1.0, p)


# below this lambda the series' 100th term, 2 exp(-2 * 100^2 lambda^2), is
# still above its 1e-16 stop, while 1 - Q(lambda) < exp(-650): Q is 1.0
_KS_SERIES_MIN = math.sqrt(math.log(2e16) / 2e4)  # about 0.04332


def _kolmogorov_sf(lam: float) -> float:
    """Survival function of the Kolmogorov distribution, Q(lambda): 1.0
    below ``_KS_SERIES_MIN``, else the alternating series
    2 sum (-1)^(k-1) exp(-2 k^2 lambda^2) up to 100 terms."""
    if lam < _KS_SERIES_MIN:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
    return min(1.0, max(0.0, total))


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample KS statistic D and its asymptotic two-sided p-value.

    D is the supremum ECDF gap over all pooled breakpoints; the p-value
    evaluates the Kolmogorov distribution at sqrt(ne) * D with the
    effective size ne = n*m/(n+m).
    """
    a = np.sort(_as_values(a))
    b = np.sort(_as_values(b))
    n, m = a.size, b.size
    breakpoints = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, breakpoints, side="right") / n
    cdf_b = np.searchsorted(b, breakpoints, side="right") / m
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    ne = n * m / (n + m)
    p = _kolmogorov_sf(math.sqrt(ne) * d)
    return d, p


def welch_t(a, b) -> tuple[float, float]:
    """Welch's unequal-variance t statistic and two-sided p-value.

    Degrees of freedom follow Welch-Satterthwaite. Samples whose terms
    under- or overflow are first scaled once by a power of two, which
    changes neither t nor p. When both samples have zero variance (or,
    scaled, variances whose squares underflow) the test degenerates: p = 1
    for equal means, p = 0 otherwise.
    """
    a = _as_values(a)
    b = _as_values(b)
    n, m = a.size, b.size
    if n < 2 or m < 2:
        raise ValueError("welch_t needs at least 2 values per sample")
    for scaled in (False, True):  # at most one scaling
        with np.errstate(over="ignore"):  # a variance beyond the float range is inf
            var_a, var_b = float(a.var(ddof=1)), float(b.var(ddof=1))
        se2 = var_a / n + var_b / m
        try:
            spread = (var_a / n) ** 2 / (n - 1) + (var_b / m) ** 2 / (m - 1)
            top = se2 ** 2
        except OverflowError:  # float ** raises where * gives inf
            spread = top = math.inf
        if scaled or (0.0 < spread and top < math.inf):
            break
        # the terms are not finite and positive: the same test on samples scaled to about 1
        exponent = math.frexp(max(float(np.abs(a).max()), float(np.abs(b).max())))[1]
        a, b = np.ldexp(a, -exponent), np.ldexp(b, -exponent)
    mean_a, mean_b = float(a.mean()), float(b.mean())
    if spread == 0.0:
        if mean_a == mean_b:
            return 0.0, 1.0
        return math.copysign(math.inf, mean_a - mean_b), 0.0
    t = (mean_a - mean_b) / math.sqrt(se2)
    df = top / spread
    from scipy.special import stdtr  # about 0.2 s to load; only this test needs it

    p = 2.0 * float(stdtr(df, -abs(t)))
    return t, min(1.0, p)


TESTS = {
    "mwu": mann_whitney_u,
    "ks": ks_two_sample,
    "t": welch_t,
}


def pairwise_matrix(samples, test: str = "mwu") -> np.ndarray:
    """Symmetric ``(k, k)`` array of the p-values of ``test`` between the
    ``k`` samples, in their order on both axes; the diagonal is 1.0. Every
    sample is checked, nonempty and finite, before any test runs."""
    if len(samples) < 2:
        raise ValueError("pairwise_matrix needs at least two samples")
    if test not in TESTS:
        raise ValueError(f"unknown test {test!r}; choose from {sorted(TESTS)}")
    values = [_as_values(sample) for sample in samples]
    test_fn = TESTS[test]
    k = len(values)
    pvalues = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            _, p = test_fn(values[i], values[j])
            pvalues[i, j] = pvalues[j, i] = p
    return pvalues
