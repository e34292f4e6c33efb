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
``rng.uniform(lo, hi)`` computes, and :func:`de_generation_draws` and
:func:`ga_generation_draws` decode what a generation of real calls would
read from one ``random_raw`` request of a PCG64 stream. Each decoder is
checked against the real calls by a probe on its first use in a process
(never at import); the real calls stay, as the reference and for what is
not decoded. The fingerprint tables pin whole runs, and
``tests/test_draw_equivalence.py`` checks each such rewrite against the
call it replaced.
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
_PROBE_SEED = 20150101  # the stream the GA probe proves standard_normal's layers on
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
    each child's normals and, for ``cf`` below ``n``, samples (else None).

    Without samples, a PCG64 stream is decoded from one ``random_raw``
    request (see :func:`_decode_ga`). The real calls are made instead
    (:func:`_real_ga_draws`) for crowding samples, any other bit
    generator, a failed first-use probe, a rate outside [0, 1] (which
    raises where the real calls do) and a generation where Lemire's
    method might have redrawn or the request ran short (the stream is
    then restored first).
    """
    sampled = cf is not None and cf < n
    if (m and 2 <= n <= _HALF_RANGE and 0.0 <= rate <= 1.0 and _decodable(rng, sampled)
            and _ga_decoder_works()):
        decoded = _decode_ga(rng, n, m, dim, rate, tournaments)
        if decoded is not None:
            return (*decoded, None)
    return _real_ga_draws(rng, n, m, dim, rate, tournaments, cf if sampled else None)


def _real_ga_draws(rng, n, m, dim, rate, tournaments=True, cf=None):
    """:func:`ga_generation_draws` made by real calls, pair by pair."""
    order = None if tournaments else rng.permutation(n)
    candidates, u, masks, normals, samples = [], [], [], [], []
    for k in range(0, m, 2):
        if tournaments:
            candidates.append(rng.integers(n, size=4))
        u.append(rng.random((2, dim)))
        for _ in range(min(2, m - k)):
            mask, normal = mutation_draws(rng, dim, rate)
            masks.append(mask)
            normals.append(normal)
            if cf is not None:
                samples.append(rng.choice(n, size=cf, replace=False))
    return (np.array(candidates) if tournaments else order, np.array(u), np.array(masks),
            normals, None if cf is None else samples)


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
    if _decodable(rng, sampled) and _decoder_works():
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
# whether this NumPy's Generator reads PCG64 words as _decode_de and
# _decode_ga do; None until the first DE or GA generation of the process
# runs that decoder's probe
_decodes: bool | None = None
_ga_decodes: bool | None = None
# the largest n for which integers(n) is a Lemire draw on a 32-bit half
_HALF_RANGE = 2 ** 32 - 1


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


def _lemire(halves: np.ndarray, span):
    """The values of Lemire draws on the 32-bit ``halves`` with ranges
    ``span`` (a bound + 1), or None if any might have been redrawn."""
    product = halves * span
    if _may_redraw(product & 0xFFFFFFFF, span):
        return None
    return product >> 32


def _decodable(rng: np.random.Generator, sampled: bool) -> bool:
    """Whether a generation's draws may be decoded from raw words: a PCG64
    stream and no crowding samples, which only real calls make."""
    return not sampled and type(rng.bit_generator) is np.random.PCG64


def _leave(bitgen, held: bool, half, rewind: int = 0) -> None:
    """Leave a decoded stream as the real calls do: ``rewind`` words back
    from where the raw requests left it, with ``half`` held back if
    ``held``, else as NumPy's stale ``uinteger``."""
    if rewind:
        bitgen.advance(-rewind)
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = int(held), int(half)
    bitgen.state = state


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
    value = _lemire(table[halves], span)
    if value is None:
        bitgen.state = state
        return None
    value = value.astype(np.intp)
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
    _leave(bitgen, held, table[last])
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


# standard_normal's ziggurat as this process has proven it (_learn_normals).
# A value on the fast path reads one word w: magnitude (w >> 9) & _MAGNITUDE
# times its layer's scale, where the layer is w & 0xFF and bit 8 the sign;
# it is taken iff the magnitude is below a layer bound that NumPy does not
# expose. Both tables are indexed by w & 0x1FF, layer and sign: the scale
# (negated for bit 8; NaN until proven) and the limit, the largest
# magnitude a real call proved to be a fast-path value (-1 while the scale
# is unproven). A word is decoded only at or below its limit.
_MAGNITUDE = 2 ** 52 - 1
_normal_scale = np.full(512, np.nan)
_normal_limit = np.full(512, -1.0)
# words a GA request reads beyond its fast-path need, for slow-path normals
_SPARE = 16
_PAIR = np.arange(2)  # a pair's two tournament words


def _normal_words(words: np.ndarray):
    """Each word's table index (layer and sign) and its magnitude."""
    return (words & 0x1FF).astype(np.intp), ((words >> 9) & _MAGNITUDE).astype(float)


def _prove_fast(words: np.ndarray) -> None:
    """Raise the limits of the layers of ``words``, which a real call read
    as one word per normal, to their magnitudes (proven layers only)."""
    index, magnitude = _normal_words(words)
    proven = ~np.isnan(_normal_scale[index])
    np.maximum.at(_normal_limit, index[proven] & 0xFF, magnitude[proven])
    _normal_limit[256:] = _normal_limit[:256]


def _learn_normals(values: int = 4096, chunk: int = 32) -> None:
    """Prove the scale and limit of standard_normal's layers from real
    calls on a fixed PCG64 stream. A call of ``chunk`` values that reads
    exactly ``chunk`` words (the next raw word is found right after them)
    took the fast path for each value. A layer's scale is the one double
    that reproduces every such value of the layer, found by intersecting
    the candidates of each (|x| / magnitude and its 3 neighbours either
    side); its limit is the largest of their magnitudes."""
    bitgen = np.random.PCG64(_PROBE_SEED)
    rng = np.random.Generator(bitgen)
    start = bitgen.state
    raw = bitgen.random_raw(2 * values)
    bitgen.state = start
    at, words, normals = 0, [], []
    while len(words) * chunk < values and at + chunk < len(raw):
        drawn, word = rng.standard_normal(chunk), bitgen.random_raw()
        if raw[at + chunk] == word:
            words.append(raw[at:at + chunk])
            normals.append(drawn)
            at += chunk + 1
            continue
        # a slow-path value read a few more words: look near first
        hit = np.flatnonzero(raw[at + chunk:at + 2 * chunk] == word)
        if not hit.size:
            hit = np.flatnonzero(raw[at + chunk:] == word)
            if not hit.size:
                break
        at += chunk + int(hit[0]) + 1
    if not words:
        return
    words, x = np.concatenate(words), np.concatenate(normals)
    index, magnitude = _normal_words(words)
    layer, size = index & 0xFF, np.abs(x)
    # each layer's candidates: the 7 doubles nearest |x| / magnitude of one
    # of its samples (not one of magnitude 0, which pins no scale)
    usable = np.flatnonzero(magnitude)
    pick = np.full(256, -1, np.intp)
    pick[layer[usable]] = usable
    seen = pick >= 0
    ratio = size[pick[seen]] / magnitude[pick[seen]]
    candidates = np.full((256, 7), np.nan)
    candidates[seen] = (ratio.view(np.int64)[:, None] + np.arange(-3, 4)).view(float)
    missed = np.zeros((256, 7), bool)
    sample, candidate = np.nonzero(magnitude[:, None] * candidates[layer] != size[:, None])
    missed[layer[sample], candidate] = True
    unique = (~missed).sum(axis=1) == 1
    scale = candidates[unique, (~missed[unique]).argmax(axis=1)]
    _normal_scale[:256][unique], _normal_scale[256:][unique] = scale, -scale
    # and the signs: a layer with a sample not reproduced stays unproven
    wrong = layer[magnitude * _normal_scale[index] != x]
    _normal_scale[wrong] = _normal_scale[wrong + 256] = np.nan
    _prove_fast(words)


def _decode_ga(rng: np.random.Generator, n: int, m: int, dim: int, rate: float,
               tournaments: bool):
    """The draws of :func:`ga_generation_draws` without samples, decoded
    from one ``random_raw`` request (the permutation is a real call); the
    state is then set as the real calls leave it. None, with the stream
    restored, if a tournament draw might have been redrawn or the request
    ran short.

    A pair reads, in order: with tournaments, 2 words for its four Lemire
    draws on 32-bit halves (a half held at entry is the first, and the
    last is held again, so whether one is held carries through); its 2d
    BLX doubles; then per child d mask doubles and one word per fast-path
    normal. The mask count at every word offset comes from one array pass,
    and the chain of child offsets is walked in Python. A child with a
    normal that is not a certain fast-path value gets its normals from one
    real ``standard_normal(k)`` call made at its offset; the next raw word,
    found in the request, tells where the walk goes on.
    """
    bitgen = rng.bit_generator
    entry = bitgen.state
    order = None if tournaments else rng.permutation(n)
    state = entry if tournaments else bitgen.state
    head = 2 * dim + 2 * tournaments  # a pair's words before its first mask
    size = (m + 1) // 2 * head + 2 * m * dim + _SPARE + m * dim // 8
    raw = bitgen.random_raw(size)
    doubles = (raw >> 11) * 2.0 ** -53
    index, magnitude = _normal_words(raw)
    value = magnitude * _normal_scale[index]
    flags = np.empty((2, size), bool)  # per word: a mask hit, a normal not certain
    hits = np.less(doubles, rate, out=flags[0])
    np.greater(magnitude, _normal_limit[index], out=flags[1])
    below, unsure = sums = np.zeros((2, size + 1), np.intp)
    np.cumsum(flags, axis=1, out=sums[:, 1:])
    # the children whose mask starts at word s < starts have their normals
    # from s + d to end[s], inside the request; where all are certain, the
    # next draw starts at end[s]
    starts = size - 2 * dim + 1
    count = below[dim:dim + starts] - below[:starts]
    end = count + np.arange(dim, dim + starts)
    after = np.where(unsure[end] == unsure[dim:dim + starts], end, -1).tolist()
    at, normals, pos, cursor = [], [], 0, size  # cursor: the stream's offset
    try:
        for child in range(m):
            if not child & 1:
                pos += head
            at.append(pos)
            first, next_pos = pos + dim, after[pos]
            if next_pos >= 0:
                normals.append(value[first:next_pos] if next_pos > first else _NO_NORMALS)
            else:
                k = int(count[pos])
                bitgen.advance(first - cursor)
                normals.append(rng.standard_normal(k))
                hit = np.flatnonzero(raw[first + k:] == bitgen.random_raw())
                next_pos = first + k + int(hit[0])
                cursor = next_pos + 1
                if next_pos == first + k:
                    _prove_fast(raw[first:next_pos])
            pos = next_pos
    except IndexError:  # the request ran short
        bitgen.state = entry
        return None
    at = np.array(at)
    heads = at[::2] - head
    picks, held, half = order, state["has_uint32"], state["uinteger"]
    if tournaments:
        # the halves in the order they are read: a held one, then each
        # pair's two words low half first; with one held, every pair reads
        # the half before its own four and holds its last
        words = raw[heads[:, None] + _PAIR]
        halves = np.empty(4 * len(heads) + 1, np.uint64)
        halves[0] = half
        halves[1::2], halves[2::2] = (words & 0xFFFFFFFF).ravel(), (words >> 32).ravel()
        picks, half = _lemire((halves[:-1] if held else halves[1:]).reshape(-1, 4), n), halves[-1]
        if picks is None:
            bitgen.state = entry
            return None
        picks = picks.astype(np.int64)
    _leave(bitgen, held, half, cursor - pos)
    u = doubles[(heads + (head - 2 * dim))[:, None] + np.arange(2 * dim)].reshape(-1, 2, dim)
    masks = hits[at[:, None] + np.arange(dim)]
    return picks, u, masks, normals


def _ga_decoder_works() -> bool:
    """Run :func:`_ga_decoder_probe` once per process and keep its answer."""
    global _ga_decodes
    if _ga_decodes is None:
        _ga_decodes = _ga_decoder_probe()
    return _ga_decodes


def _ga_decoder_probe() -> bool:
    """Prove the normal layers (:func:`_learn_normals`), then whether
    decoding matches real :func:`ga_generation_draws` calls on a few seeds:
    with and without tournaments and a held half, odd and even m, dim 1
    to 3, rates 0.5 and 1 (the second case makes a slow-path child)."""
    _learn_normals()
    cases = [(1, 10, 5, 2, 0.5, True, False), (2, 9, 7, 3, 1.0, True, True),
             (3, 10, 4, 1, 1.0, False, True)]
    for seed, n, m, dim, rate, tournaments, hold in cases:
        decoded, real = np.random.default_rng(seed), np.random.default_rng(seed)
        if hold:  # a bounded draw leaves a half held
            decoded.integers(5), real.integers(5)
        got = _decode_ga(decoded, n, m, dim, rate, tournaments)
        want = _real_ga_draws(real, n, m, dim, rate, tournaments)
        if (got is None or not _same_bits(got[:3] + tuple(got[3]), want[:3] + tuple(want[3]))
                or decoded.bit_generator.state != real.bit_generator.state
                or decoded.random() != real.random()):
            return False
    return True


def _same_bits(got, want) -> bool:
    """Whether two sequences of arrays hold the same dtypes, shapes and bytes."""
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want))
