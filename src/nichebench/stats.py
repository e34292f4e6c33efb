"""Two-sample significance tests and the pairwise comparison matrix.

Implements the Mann-Whitney U test (exact null distribution for small
sample products, normal approximation with tie correction otherwise), the
two-sample Kolmogorov-Smirnov test with the asymptotic Kolmogorov
distribution, and Welch's unequal-variance t test. All tests are
two-sided. ``pairwise_matrix`` turns a list of per-algorithm samples into
the boolean significance grid used by the experiment reports.

The exact Mann-Whitney null distribution depends only on the pool's sorted
doubled midranks and the smaller sample size k. It is computed once per
``(np.sort(doubled).tobytes(), k)`` key and kept in a 64-entry LRU cache,
and each step of its knapsack touches only the rows that can still reach
k and the columns up to the running maximum sum. Samples of equal size
without ties share one key, so a pairwise grid mostly costs lookups. The
p-value stays exact: every count is an integer below C(40, 20) < 2^53, so
the float64 sums are exact and give the same double as a full recount.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

__all__ = [
    "SampleSet",
    "SignificanceMatrix",
    "mann_whitney_u",
    "ks_two_sample",
    "welch_t",
    "pairwise_matrix",
    "TESTS",
]

# exact MWU enumeration is used when n*m is at or below this product
EXACT_MWU_LIMIT = 400


@dataclass
class SampleSet:
    """One metric value per run for a single algorithm."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.size == 0:
            raise ValueError("SampleSet must be nonempty")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("SampleSet values must be finite")


@dataclass
class SignificanceMatrix:
    """Pairwise grid of p < alpha outcomes for one metric and one test."""

    labels: list[str]
    cells: np.ndarray  # bool, True iff p < alpha
    pvalues: np.ndarray
    alpha: float
    test: str
    metric: str = ""


def _as_values(sample) -> np.ndarray:
    if isinstance(sample, SampleSet):
        return sample.values
    values = np.asarray(sample, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("sample must be nonempty")
    return values


def _doubled_midranks(pooled_sorted: np.ndarray) -> np.ndarray:
    """Midranks of an already-sorted pool, doubled so ties stay integral.

    A tie group occupying 0-based positions i..j gets midrank (i+j+2)/2,
    so its doubled midrank is the integer i + j + 2.
    """
    n = pooled_sorted.size
    doubled = np.empty(n, dtype=np.int64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled_sorted[j + 1] == pooled_sorted[i]:
            j += 1
        doubled[i : j + 1] = i + j + 2
        i = j + 1
    return doubled


def _rank_sum_doubled(a: np.ndarray, b: np.ndarray) -> tuple[int, np.ndarray]:
    """Doubled midrank sum of sample ``a`` within the pooled sample."""
    pooled = np.concatenate([a, b])
    order = np.argsort(pooled, kind="stable")
    doubled = _doubled_midranks(pooled[order])
    ranks = np.empty(pooled.size, dtype=np.int64)
    ranks[order] = doubled
    return int(ranks[: a.size].sum()), doubled


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


def _exact_mwu_pvalue(doubled_ranks: np.ndarray, k: int, dev2_obs: int, nm: int) -> float:
    """Two-sided exact p from the null distribution of the rank sum.

    Counts, for every achievable doubled rank sum s of a k-subset of the
    pool, the number of subsets attaining it, and returns the share whose
    doubled ``|U - nm/2|`` is at least ``dev2_obs``. The distribution
    depends only on the sorted doubled ranks and ``k``, so it is computed
    once per ``(np.sort(doubled_ranks).tobytes(), k)`` key and kept in a
    bounded LRU cache (``_null_rank_sum_counts``), which also trims each
    knapsack step to the rows and columns that can reach a k-subset sum.

    The p-value is still exact: all counts are integers bounded by
    C(n+m, k) <= C(40, 20) < 2^53 whenever n*m <= EXACT_MWU_LIMIT, so
    every float64 sum of them is exact in any order, and the skipped
    entries are zeros or rows that never reach k. ``favorable / total`` is
    therefore the same double with or without the cache and the trimming.
    """
    weights = np.sort(np.asarray(doubled_ranks, dtype=np.int64))
    counts, total = _null_rank_sum_counts(weights.tobytes(), k)
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
    rank2_a, doubled = _rank_sum_doubled(a, b)
    u_a = (rank2_a - n * (n + 1)) / 2.0

    dev2_obs = abs(rank2_a - n * (n + 1) - n * m)  # doubled |U_a - nm/2|
    if n * m <= EXACT_MWU_LIMIT:
        # enumerate over the smaller side; |U - nm/2| is the same for both
        k = min(n, m)
        p = _exact_mwu_pvalue(doubled, k, dev2_obs, n * m)
        return u_a, min(1.0, p)

    N = n + m
    _, group_sizes = np.unique(np.concatenate([a, b]), return_counts=True)
    tie_term = float(np.sum(group_sizes.astype(float) ** 3 - group_sizes))
    var = (n * m / 12.0) * ((N + 1) - tie_term / (N * (N - 1.0)))
    if var <= 0.0:
        return u_a, 1.0
    z = max(0.0, (dev2_obs / 2.0 - 0.5)) / math.sqrt(var)
    p = math.erfc(z / math.sqrt(2.0))
    return u_a, min(1.0, p)


def _kolmogorov_sf(lam: float) -> float:
    """Survival function of the Kolmogorov distribution, Q(lambda)."""
    if lam <= 1e-8:
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

    Degrees of freedom follow Welch-Satterthwaite. When both samples have
    zero variance the test degenerates: p = 1 for equal means, p = 0
    otherwise.
    """
    a = _as_values(a)
    b = _as_values(b)
    n, m = a.size, b.size
    if n < 2 or m < 2:
        raise ValueError("welch_t needs at least 2 values per sample")
    mean_a, mean_b = float(a.mean()), float(b.mean())
    var_a = float(a.var(ddof=1))
    var_b = float(b.var(ddof=1))
    if var_a == 0.0 and var_b == 0.0:
        if mean_a == mean_b:
            return 0.0, 1.0
        return math.copysign(math.inf, mean_a - mean_b), 0.0
    se2 = var_a / n + var_b / m
    t = (mean_a - mean_b) / math.sqrt(se2)
    df = se2 ** 2 / ((var_a / n) ** 2 / (n - 1) + (var_b / m) ** 2 / (m - 1))
    p = 2.0 * float(stdtr(df, -abs(t)))
    return t, min(1.0, p)


TESTS = {
    "mwu": mann_whitney_u,
    "ks": ks_two_sample,
    "t": welch_t,
}


def pairwise_matrix(samples: list[SampleSet], test: str = "mwu", alpha: float = 0.05,
                    metric: str = "") -> SignificanceMatrix:
    """Boolean grid of pairwise p < alpha outcomes between sample sets.

    Symmetric by construction with a False diagonal; the same label order
    is used on both axes.
    """
    if len(samples) < 2:
        raise ValueError("pairwise_matrix needs at least two sample sets")
    if test not in TESTS:
        raise ValueError(f"unknown test {test!r}; choose from {sorted(TESTS)}")
    test_fn = TESTS[test]
    k = len(samples)
    pvalues = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            _, p = test_fn(samples[i], samples[j])
            pvalues[i, j] = pvalues[j, i] = p
    cells = pvalues < alpha
    np.fill_diagonal(cells, False)
    return SignificanceMatrix(
        labels=[s.label for s in samples],
        cells=cells,
        pvalues=pvalues,
        alpha=alpha,
        test=test,
        metric=metric,
    )
