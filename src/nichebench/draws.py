"""Every random request of a run, and the one statement of their order.

A run draws from one ``np.random.Generator``, and only this module calls
it. The requests come in this frozen order:

1. The initial population, :func:`initial_genomes`: one ``random((n, d))``
   request, whose row i holds the i-th ``uniform(lo, hi)`` call's doubles.
2. Each generation's children, drawn for before any is built and capped
   at the evaluations left, so nothing is drawn for a child that would
   not be evaluated. GA (:func:`ga_generation_draws`): without
   tournaments the pairing ``permutation(n)`` first; then pair by pair,
   with tournaments, ``integers(n, size=4)`` for the pair's two binary
   tournaments, ``(first, second)`` of the first parent then of the
   second; the BLX doubles ``random((2, d))``; then per child
   :func:`mutation_draws` and, for a crowding factor cf below the
   population size n, the crowding sample ``choice(n, cf, replace=False)``.
   DE (:func:`de_generation_draws`): target by target, :func:`de_draws`
   and, for cf below n, the crowding sample.

Nothing else draws; the operators in ``core`` use the values drawn here.

Draw exactness: every published result is a pure function of the run
seed, so these requests are frozen. The rule is word-level: a change to
an RNG request (a cheaper call, a merged or split draw, a decoding of raw
words) is allowed only if it consumes the same 64-bit words and 32-bit
halves of the bit generator's stream, in the same order, yields
bit-identical values and leaves the same ``bit_generator.state``, held-back
half included; e.g. ``lo + (hi - lo) * rng.random(d)`` is what
``rng.uniform(lo, hi)`` computes, and :func:`de_generation_draws` decodes
what a generation of :func:`de_draws` calls would read. The fingerprint
tables pin whole runs, and ``tests/test_draw_equivalence.py`` checks each
such rewrite against the call it replaced.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "initial_genomes",
    "ga_generation_draws",
    "mutation_draws",
    "de_draws",
    "de_generation_draws",
]

_NO_NORMALS = np.empty(0)  # mutation_draws' normals when no coordinate mutates
_SMALL_POOL = "DE needs at least 4 individuals in the donor pool (incl. target)"


def initial_genomes(rng: np.random.Generator, bounds: np.ndarray, n: int) -> np.ndarray:
    """``n`` uniform genomes within ``bounds``, as ``(n, d)`` rows."""
    lo, hi = bounds[:, 0], bounds[:, 1]
    return lo + (hi - lo) * rng.random((n, lo.shape[0]))


def ga_generation_draws(rng: np.random.Generator, n: int, m: int, dim: int, rate: float,
                        tournaments: bool = True, cf: int | None = None):
    """The draws of a generation's first ``m`` GA children in a population
    of ``n``: the parents' picks (the p pairs' ``(p, 4)`` tournament
    candidates or, without ``tournaments``, the ``(n,)`` permutation), the
    ``(p, 2, d)`` BLX doubles, the ``(m, d)`` mutation masks, and lists of
    each child's normals and, for ``cf`` below ``n``, samples (else None)."""
    order = None if tournaments else rng.permutation(n)
    sampled = cf is not None and cf < n
    candidates, u, masks, normals, samples = [], [], [], [], []
    for k in range(0, m, 2):
        if tournaments:
            candidates.append(rng.integers(n, size=4))
        u.append(rng.random((2, dim)))
        for _ in range(min(2, m - k)):
            mask, normal = mutation_draws(rng, dim, rate)
            masks.append(mask)
            normals.append(normal)
            if sampled:
                samples.append(rng.choice(n, size=cf, replace=False))
    return (np.array(candidates) if tournaments else order, np.array(u), np.array(masks),
            normals, samples if sampled else None)


def mutation_draws(rng: np.random.Generator, dim: int, rate: float):
    """One child's Gaussian mutation draws: the mask ``rng.random(dim) <
    rate`` of the coordinates to perturb, then a standard normal for each
    of them (no request when there is none)."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("mutation rate must be in [0, 1]")
    mask = rng.random(dim) < rate
    k = np.count_nonzero(mask)
    return mask, (rng.standard_normal(k) if k else _NO_NORMALS)


def de_draws(rng: np.random.Generator, n: int, target: int, dim: int, CR: float,
             donor_pool: list[int] | None = None):
    """One DE/rand/1/bin trial's draws: donors ``(a, b, c)``, distinct and
    drawn without replacement from ``donor_pool`` (default: all ``n``
    members) less the target, then the binomial crossover mask
    ``rng.random(dim) < CR`` with one coordinate forced, so the trial keeps
    at least one mutant coordinate."""
    # choice() draws positions from the pool's size alone; a position is
    # mapped to a member index here instead of by indexing a pool array
    pool = None if donor_pool is None else [i for i in donor_pool if i != target]
    size = n - 1 if pool is None else len(pool)
    if size < 3:
        raise ValueError(_SMALL_POOL)
    positions = rng.choice(size, size=3, replace=False).tolist()
    cross = rng.random(dim) < CR
    cross[int(rng.integers(dim))] = True
    # range(n) less the target: position p is member p, or p + 1 from the target on
    donors = [p + (p >= target) if pool is None else pool[p] for p in positions]
    return donors, cross


def de_generation_draws(rng: np.random.Generator, n: int, m: int, dim: int, CR: float,
                        pools: np.ndarray | None = None, cf: int | None = None):
    """The draws of DE targets 0 to ``m`` - 1: the ``(3, m)`` donors and
    ``(m, dim)`` masks of their :func:`de_draws` calls and, for a crowding
    factor ``cf`` below ``n``, the list of their crowding samples (else None).

    ``pools`` is None (every target draws from all ``n`` members) or an
    ``(n,)`` array of pool labels: a target draws from the members that
    share its label, in index order, less itself, or from all ``n`` for a
    negative label. A pool below 3 besides the target raises de_draws'
    ValueError before anything is drawn.

    Without samples, a PCG64 stream is decoded from one ``random_raw``
    request (see :func:`_de_layout`). The real calls are made instead
    (:func:`_real_de_draws`) for crowding samples, any other bit generator,
    a failed first-use probe, and a generation where Lemire's method might
    have redrawn (the stream is then restored first).
    """
    if pools is None:
        pools = np.full(n, -1)
    pool_map = _pool_map(n, m, pools)
    sampled = cf is not None and cf < n
    if not sampled and type(rng.bit_generator) is np.random.PCG64 and _decoder_works():
        decoded = _decode_de(rng.bit_generator, pool_map, dim, CR)
        if decoded is not None:
            return (*decoded, None)
    return _real_de_draws(rng, n, m, dim, CR, pools, cf if sampled else None)


def _pool_map(n: int, m: int, pools: np.ndarray):
    """Pool size less the target ``sizes`` of each of targets 0..m-1, and
    the arrays that map its pool position p to a member:
    ``lookup[base + p + (p >= rank)]``. Raises for a pool below 3."""
    # each pool's members in index order, then all n members for a negative label
    order = np.argsort(pools, kind="stable")
    lookup = np.concatenate((order, np.arange(n)))
    labels, own = pools[order], pools[:m]
    start = np.searchsorted(labels, own)
    whole = own < 0
    sizes = np.where(whole, n, np.searchsorted(labels, own, "right") - start) - 1
    if (sizes < 3).any():
        raise ValueError(_SMALL_POOL)
    where = np.empty(n, np.intp)
    where[order] = np.arange(n)
    base = np.where(whole, n, start)
    rank = np.where(whole, np.arange(m), where[:m] - start)
    return sizes, lookup, base[:, None], rank[:, None]


def _real_de_draws(rng, n, m, dim, CR, pools, cf=None):
    """:func:`de_generation_draws` made by real calls: per target, its
    :func:`de_draws` then, for ``cf``, its crowding sample."""
    donors, cross = np.empty((3, m), np.intp), np.empty((m, dim), bool)
    samples = None if cf is None else []
    for t in range(m):
        pool = None if pools[t] < 0 else np.flatnonzero(pools == pools[t]).tolist()
        donors[:, t], cross[t] = de_draws(rng, n, t, dim, CR, pool)
        if cf is not None:
            samples.append(rng.choice(n, size=cf, replace=False))
    return donors, cross, samples


# A draw that NumPy skips (Floyd's j = 0 for a pool of 3, integers(1)) reads
# half-table entry 0, which Lemire's method with a range of 1 maps to 0 and
# never redraws.
_NO_DRAW = 0
# choice()'s two-step shuffle of its three picks: row 2 * r + s, for its
# bounded draws r < 3 and s < 2, lists the pick that lands in each slot
_SHUFFLED = np.array([[1, 2, 0], [2, 1, 0], [2, 0, 1], [0, 2, 1], [1, 0, 2], [0, 1, 2]])
# whether this NumPy's Generator reads PCG64 words as _decode_de does; None
# until the first DE generation of the process runs the probe
_decodes: bool | None = None


@functools.lru_cache(maxsize=64)
def _de_layout(small: bytes, dim: int, held: bool):
    """Where ``len(small)`` consecutive :func:`de_draws` calls read a PCG64
    stream. ``small[t]`` is 1 when trial t's pool less its target has 3
    members, and ``held`` tells whether the stream starts with a 32-bit
    half held back.

    A trial makes, in order: choice()'s bounded draws for Floyd's j =
    size-3, size-2, size-1 (none for j = 0) and its shuffle's two, then
    ``dim`` doubles, then ``integers(dim)``'s bounded draw (none for dim
    1). A double reads a new 64-bit word. A bounded draw is Lemire's
    method on 32 bits: the held half if there is one, else the low half
    of a new word, whose high half is then held. Positions index the half
    table of :func:`_decode_de`: 0 is the no-draw entry, 1 the half held
    at the start, ``2 + 2w`` and ``3 + 2w`` the low and high half of word
    w. Returns each trial's six bounded-draw positions ``(m, 6)``, its
    double words ``(m, dim)``, the number of words read, the position of
    the half in NumPy's ``uinteger`` at the end, and whether it is held.
    """
    words, last = 0, 1

    def half():
        nonlocal words, held, last
        if held:
            held = False
            return last
        words += 1
        held, last = True, 2 * words + 1
        return 2 * words

    halves, doubles = [], []
    for pool_of_3 in small:
        halves.append([_NO_DRAW if pool_of_3 else half(), half(), half(), half(), half()])
        doubles.append(range(words, words + dim))
        words += dim
        halves[-1].append(half() if dim > 1 else _NO_DRAW)
    halves = np.array(halves, np.intp).reshape(-1, 6)
    doubles = np.array(doubles, np.intp).reshape(-1, dim)
    halves.flags.writeable = doubles.flags.writeable = False  # shared by every caller
    return halves, doubles, words, last, held


def _may_redraw(low: np.ndarray, span: np.ndarray) -> bool:
    """Whether a Lemire draw could have been rejected and redrawn: NumPy
    redraws only when the product's low 32 bits fall below (2**32 - span)
    % span, which is less than span."""
    return bool((low < span).any())


def _decode_de(bitgen, pool_map, dim: int, CR: float):
    """The donors and masks of :func:`de_generation_draws` for the targets
    of ``pool_map`` (see :func:`_pool_map`), decoded from one
    ``random_raw`` request and the held half; the state is then set as the
    real calls leave it. None, with the state restored, if a draw might
    have been redrawn."""
    sizes, lookup, base, rank = pool_map
    m = len(sizes)
    state = bitgen.state
    halves, doubles, words, last, held = _de_layout((sizes == 3).tobytes(), dim,
                                                     bool(state["has_uint32"]))
    raw = bitgen.random_raw(words)
    table = np.empty(2 * words + 2, np.uint64)
    table[_NO_DRAW] = 0xFFFFFFFF
    table[1] = state["uinteger"]
    table[2::2] = raw & 0xFFFFFFFF
    table[3::2] = raw >> 32
    span = np.empty((m, 6), np.uint64)  # each bounded draw's range: its bound + 1
    span[:, :3] = sizes[:, None] + np.arange(-2, 1)
    span[:, 3:] = 3, 2, dim
    product = table[halves] * span
    if _may_redraw(product & 0xFFFFFFFF, span):
        bitgen.state = state
        return None
    value = (product >> 32).astype(np.intp)
    # Floyd: a value already picked is replaced by that step's j
    first, second, third = value[:, 0], value[:, 1], value[:, 2]
    second = np.where(second == first, sizes - 2, second)
    third = np.where((third == first) | (third == second), sizes - 1, third)
    picks = np.column_stack((first, second, third))
    rows = np.arange(m)
    positions = picks[rows[:, None], _SHUFFLED[2 * value[:, 3] + value[:, 4]]]
    donors = lookup[base + positions + (positions >= rank)]
    cross = (raw[doubles] >> 11) * 2.0 ** -53 < CR
    cross[rows, value[:, 5]] = True
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = int(held), int(table[last])
    bitgen.state = state
    return donors.T, cross


def _decoder_works() -> bool:
    """Run :func:`_decoder_probe` once per process and keep its answer."""
    global _decodes
    if _decodes is None:
        _decodes = _decoder_probe()
    return _decodes


def _decoder_probe() -> bool:
    """Whether decoding matches real :func:`de_draws` calls on a few seeds:
    pools of 3 and more, dim 1 and more, with and without a held half.
    NumPy does not promise that a Generator reads its words the same way
    in every version."""
    cases = [(1, 10, 3, [-1] * 10), (2, 4, 1, [-1] * 4), (3, 12, 8, [-1] * 50),
             (4, 9, 2, [0, 1, 0, 1, 0, 1, 0, 1, -1])]
    for seed, m, dim, labels in cases:
        pools, n = np.array(labels), len(labels)
        for hold in (False, True):
            decoded, real = np.random.default_rng(seed), np.random.default_rng(seed)
            if hold:  # a bounded draw leaves a half held
                decoded.integers(5), real.integers(5)
            got = _decode_de(decoded.bit_generator, _pool_map(n, m, pools), dim, 0.5)
            want = _real_de_draws(real, n, m, dim, 0.5, pools)[:2]
            if (got is None or not all(np.array_equal(g, w) for g, w in zip(got, want))
                    or decoded.bit_generator.state != real.bit_generator.state
                    or decoded.random() != real.random()):
                return False
    return True
