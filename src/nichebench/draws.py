"""Every random request of a run, and the one statement of their order.

A run draws from one ``np.random.Generator``, and only this module calls
it. The requests come in this frozen order:

1. The initial population, :func:`initial_genomes`: one ``random((n, d))``
   request, whose row i holds the i-th ``uniform(lo, hi)`` call's doubles.
2. Each generation's children, drawn for before any is built and capped
   at the evaluations left. GA (:func:`ga_generation_draws`): without
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
seed, so these requests are frozen. A change to an RNG request (a cheaper
call, a merged or split draw, a decoding of raw words) is allowed only if
it consumes the same 64-bit words and 32-bit halves of the stream, in the
same order, yields bit-identical values and leaves the same
``bit_generator.state``, held-back half included; e.g. ``lo + (hi - lo) *
rng.random(d)`` is what ``rng.uniform(lo, hi)`` computes.
:func:`de_generation_draws` and :func:`ga_generation_draws` decode what a
generation of real calls reads from one ``random_raw`` request of a PCG64
stream. Every ``choice(size, k, replace=False)`` there, DE donors (k = 3)
and crowding samples alike, is NumPy's Floyd algorithm, decoded by one
rule (:func:`_floyd`): for j = size - k ... size - 1 one bounded draw of
range j + 1 (none for j = 0), a value already picked replaced by j, then
for i = k - 1 ... 1 a swap of position i with one bounded draw of range
i + 1. For size above 10000 with k above size // 50 NumPy shuffles a tail
of ``arange(size)`` instead; such samples are real calls. A probe checks
each decoder against the real calls on its first use in a process (never
at import); the real calls stay, as the reference and for what is not
decoded. The fingerprint tables pin whole runs, and the draw-equivalence
tests check each rewrite against the call it replaced.
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
    ``(p, 2, d)`` BLX doubles, the ``(m, d)`` masks, a list of each child's
    normals and, for ``cf`` below ``n``, the ``(m, cf)`` samples (or None).

    A PCG64 stream is decoded (:func:`_decode_ga`). The real calls
    (:func:`_real_ga_draws`) serve any other bit generator, a failed
    probe, a rate outside [0, 1] (which raises where they do), tail-shuffle
    samples, and a generation where Lemire's method might have redrawn or
    the request ran short (the stream is then restored first).
    """
    cf = None if cf is None or cf >= n else cf
    decoded = (m and n >= 2 and 0.0 <= rate <= 1.0 and _decodable(rng, n, cf)
               and _works("_ga_decodes", _ga_decoder_probe)
               and _decode_ga(rng, n, m, dim, rate, tournaments, cf))
    return decoded or _real_ga_draws(rng, n, m, dim, rate, tournaments, cf)


def _real_ga_draws(rng, n, m, dim, rate, tournaments=True, cf=None):
    """:func:`ga_generation_draws` made by real calls, pair by pair."""
    order = None if tournaments else rng.permutation(n)
    candidates, u, masks, normals = [], [], [], []
    samples = None if cf is None else np.empty((m, cf), np.int64)
    for k in range(0, m, 2):
        if tournaments:
            candidates.append(rng.integers(n, size=4))
        u.append(rng.random((2, dim)))
        for child in range(k, min(k + 2, m)):
            mask, normal = mutation_draws(rng, dim, rate)
            masks.append(mask)
            normals.append(normal)
            if cf is not None:
                samples[child] = rng.choice(n, size=cf, replace=False)
    return (np.array(candidates) if tournaments else order, np.array(u), np.array(masks),
            normals, samples)


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
    ``(m, dim)`` masks of their :func:`de_draws` calls and, for ``cf`` below
    ``n``, their ``(m, cf)`` crowding samples (or None).

    ``pools`` is None (all draw from all ``n`` members) or ``(n,)`` pool
    labels: a target draws from the members that share its label, in index
    order, less itself, or from all ``n`` for a negative label. A pool
    below 3 besides the target raises de_draws' error before any draw.

    A PCG64 stream is decoded (:func:`_decode_de`). The real calls
    (:func:`_real_de_draws`) serve any other bit generator, a failed
    probe, tail-shuffle samples, and a generation where Lemire's method
    might have redrawn (the stream is then restored first).
    """
    pools = np.full(n, -1, np.intp) if pools is None else np.asarray(pools, np.intp)
    cf = None if cf is None or cf >= n else cf
    decoded = (_decodable(rng, n, cf) and _works("_decodes", _decoder_probe)
               and _decode_de(rng, n, m, dim, CR, pools, cf))
    return decoded or _real_de_draws(rng, n, m, dim, CR, pools, cf)


@functools.lru_cache(maxsize=64)
def _pool_map(n: int, m: int, labels: bytes):
    """Each of targets 0..m-1's pool size less itself under the pool
    ``labels`` (an ``(n,)`` intp array's bytes), the arrays that map a pool
    position p to a member, ``lookup[base + p + (p >= rank)]``, and its
    donors' bounded draws' ranges. Raises for a pool below 3."""
    pools = np.frombuffer(labels, np.intp)
    # each pool's members in index order, then all n members for a negative label
    order = np.argsort(pools, kind="stable")
    lookup = np.concatenate((order, np.arange(n)))
    labels, own = pools[order], pools[:m]
    start = np.searchsorted(labels, own)
    whole = own < 0
    sizes = np.where(whole, n, np.searchsorted(labels, own, "right") - start) - 1
    if (sizes < 3).any():
        raise ValueError(_SMALL_POOL)
    base = np.where(whole, n, start)
    rank = np.where(whole, np.arange(m), np.argsort(order)[:m] - start)
    span = _floyd_span(sizes[:, None], 3)
    sizes.flags.writeable = lookup.flags.writeable = span.flags.writeable = False
    return sizes, lookup, base, rank, span


def _real_de_draws(rng, n, m, dim, CR, pools, cf=None):
    """:func:`de_generation_draws` by real calls: per target :func:`de_draws`, then a sample."""
    _pool_map(n, m, pools.tobytes())  # a pool below 3 raises before anything is drawn
    donors, cross = np.empty((3, m), np.intp), np.empty((m, dim), bool)
    samples = None if cf is None else np.empty((m, cf), np.int64)
    for t in range(m):
        pool = None if pools[t] < 0 else np.flatnonzero(pools == pools[t]).tolist()
        donors[:, t], cross[t] = de_draws(rng, n, t, dim, CR, pool)
        if cf is not None:
            samples[t] = rng.choice(n, size=cf, replace=False)
    return donors, cross, samples


# whether this NumPy reads PCG64 words as _decode_de and _decode_ga do (_works)
_decodes: bool | None = None
_ga_decodes: bool | None = None


def _decodable(rng: np.random.Generator, n: int, cf: int | None) -> bool:
    """Whether a generation's draws may be decoded: a PCG64 stream, bounded
    draws on 32-bit halves, and no sample that NumPy draws by tail shuffle."""
    return (type(rng.bit_generator) is np.random.PCG64 and n < 2 ** 32
            and (cf is None or n <= 10000 or cf <= n // 50))


def _works(flag: str, probe) -> bool:
    """Whether the decoder that ``probe`` checks may run: the probe runs on
    first use in a process, and the module global ``flag`` keeps its answer."""
    if globals()[flag] is None:
        globals()[flag] = probe()
    return globals()[flag]


def _halves(count: int, held: bool):
    """How many new words ``count`` bounded draws read, and whether a half
    is held after them: a bounded draw reads the held 32-bit half if there
    is one, else the low half of a new 64-bit word and holds its high half."""
    return (count - held + 1) // 2, (count - held) % 2 == 1


def _bounded(raw: np.ndarray, words, state: dict, index: np.ndarray, span, count: int):
    """Lemire's method on 32-bit halves for ``count`` bounded draws, which
    read, in order, the half held in ``state`` if any, then both halves of
    each of ``raw[words]``, low first; ``index`` places each by number (-1
    for one NumPy skips), ``span`` gives ranges. Returns their values and
    the held flag and ``uinteger`` after them; None if one might redraw."""
    held = int(state["has_uint32"])
    if not count:  # no draw: the held half, or the stale one, stays
        return index, bool(held), state["uinteger"]
    halves = np.empty(2 * len(words) + 2, np.uint32)
    halves[0], halves[-1] = state["uinteger"], 0xFFFFFFFF  # the held half, a skipped draw's
    halves[1:-1] = raw[words].view(np.uint32)  # low half first on a little-endian host
    product = halves[1 - held:][index] * span
    if _may_redraw(product & 0xFFFFFFFF, span):
        return None
    fresh = count - held  # the halves of new words read; a last word's high half is kept
    return (product >> 32).astype(np.intp), fresh % 2 == 1, halves[fresh + fresh % 2]


def _may_redraw(low: np.ndarray, span: np.ndarray) -> bool:
    """Whether a Lemire draw could have been rejected and redrawn: NumPy
    redraws only when the product's low 32 bits fall below (2**32 - span)
    % span, which is less than span."""
    return bool((low < span).any())


def _floyd_span(size, k: int) -> np.ndarray:
    """The ranges of ``choice(size, k, replace=False)``'s 2k - 1 bounded draws."""
    col = np.arange(2 * k - 1)
    return np.where(col < k, size - k + 1 + col, 2 * k - col).astype(np.uint64)


def _floyd(value: np.ndarray, size, k: int) -> np.ndarray:
    """``choice(size, k, replace=False)`` for each row of ``value``, by
    the module's Floyd rule, from the values of its bounded draws
    ``value[:, :2k - 1]``, as the columns of a ``(k, m)`` array."""
    picks = value[:, :k].T.copy()
    for j in range(1, k):
        np.copyto(picks[j], size - k + j, where=(picks[:j] == picks[j]).any(axis=0))
    flat, rows = picks.ravel(), np.arange(len(value))
    for i in range(k - 1, 0, -1):  # position i is final once swapped
        swap = value[:, 2 * k - 1 - i] * len(value) + rows
        flat[swap], picks[i] = picks[i], flat[swap]
    return picks


@functools.lru_cache(maxsize=64)
def _de_layout(small: bytes, dim: int, n: int, cf: int, held: bool):
    """Where ``len(small)`` :func:`de_draws` calls (``small[t]`` 1 for a
    pool of 3 besides trial t), each then with a sample of ``cf`` if
    ``cf``, read a PCG64 stream with a half ``held`` or not: the donors'
    bounded draws, ``dim`` doubles, ``integers(dim)``'s and the sample's
    bounded draws. Returns each trial's bounded draws numbered in order
    (-1 where NumPy skips one), the ranges of all but the donors', its
    double words, the words bounded draws read, and how many bounded draws
    and words there are."""
    word, made, index, doubles, bounded = 0, 0, [], [], []

    def run(count: int, skipped: bool):  # a skipped draw, then count bounded draws
        nonlocal word, made, held
        read, held = _halves(count, held)
        bounded.extend(range(word, word + read))
        word, made = word + read, made + count
        return [-1] * skipped + list(range(made - count, made))

    for pool_of_3 in small:
        donors = run(5 - pool_of_3, pool_of_3)
        doubles.append(range(word, word + dim))
        word += dim
        index.append(donors + run((dim > 1) + max(2 * cf - 1, 0), dim == 1))
    index, doubles = np.array(index, np.intp), np.array(doubles, np.intp).reshape(-1, dim)
    span = np.tile(np.append(np.uint64(dim), _floyd_span(n, cf)), (len(small), 1))
    bounded = np.array(bounded, np.intp)
    for shared in (index, span, doubles, bounded):
        shared.flags.writeable = False
    return index, span, doubles, bounded, made, word


def _leave(bitgen, held: bool, half, rewind: int = 0) -> None:
    """Leave a decoded stream as the real calls do: ``rewind`` words back
    from where the raw requests left it, with ``half`` held back if
    ``held``, else as NumPy's stale ``uinteger``."""
    if rewind:
        bitgen.advance(-rewind)
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = int(held), int(half)
    bitgen.state = state


def _decode_de(rng, n: int, m: int, dim: int, CR: float, pools: np.ndarray, cf: int | None):
    """The draws of :func:`de_generation_draws` (``pools`` an intp array),
    decoded from one ``random_raw`` request, the state then set as the real
    calls leave it; None, with it restored, if a draw might have redrawn."""
    sizes, lookup, base, rank, donor_span = _pool_map(n, m, pools.tobytes())
    bitgen, k = rng.bit_generator, cf or 0
    state = bitgen.state
    index, span, doubles, bounded, count, words = _de_layout(
        (sizes == 3).tobytes(), dim, n, k, bool(state["has_uint32"]))
    raw = bitgen.random_raw(words)
    drawn = _bounded(raw, bounded, state, index, np.hstack((donor_span, span)), count)
    if drawn is None:
        bitgen.state = state
        return None
    value, held, half = drawn
    positions = _floyd(value, sizes, 3)
    cross = (raw[doubles] >> 11) * 2.0 ** -53 < CR
    cross[np.arange(m), value[:, 5]] = True
    _leave(bitgen, held, half)
    return (lookup[base + positions + (positions >= rank)], cross,
            _floyd(value[:, 6:], n, k).T if k else None)


def _decoder_probe() -> bool:
    """Whether decoding matches the real calls (:func:`_probe`) for pools
    of 3 and more, dim 1 and more and a sample of 5 from 12."""
    cases = [(seed, hold, n, m, dim, 0.5, np.array(labels, np.intp), cf)
             for seed, n, m, dim, labels, cf in [
                 (1, 10, 10, 3, [-1] * 10, None), (2, 4, 4, 1, [-1] * 4, None),
                 (3, 50, 12, 8, [-1] * 50, None), (4, 9, 9, 2, [0, 1] * 4 + [-1], None),
                 (5, 12, 11, 2, [-1] * 12, 5)]
             for hold in (False, True)]
    return _probe(_decode_de, _real_de_draws, cases)


def _probe(decode, real, cases) -> bool:
    """Whether ``decode(rng, *case)`` gives the arrays, bit for bit, state
    and next ``random()`` of ``real(rng, *case)`` on the PCG64 stream of
    each ``(seed, hold, *case)``, a half held back first for ``hold``:
    NumPy does not promise to read its words alike in every version."""
    for seed, hold, *case in cases:
        decoded, called = np.random.default_rng(seed), np.random.default_rng(seed)
        if hold:  # a bounded draw leaves a half held
            decoded.integers(5), called.integers(5)
        got, want = decode(decoded, *case), real(called, *case)
        if got is None or decoded.bit_generator.state != called.bit_generator.state:
            return False
        # every array, lists unpacked and None left out, by dtype, shape and bytes
        got, want = ([(a.dtype, a.shape, a.tobytes()) for part in draws if part is not None
                      for a in (part if isinstance(part, list) else [part])]
                     for draws in (got, want))
        if got != want or decoded.random() != called.random():
            return False
    return True


# standard_normal's ziggurat as this process has proven it (_learn_normals).
# A fast-path value reads one word w: magnitude (w >> 9) & _MAGNITUDE times
# its layer's scale (layer w & 0xFF, sign bit 8), taken iff the magnitude is
# below a bound NumPy does not expose. Both tables are indexed by w & 0x1FF:
# the scale (negated for bit 8; NaN until proven) and the limit, the largest
# magnitude a real call proved fast (-1 while unproven). A word is decoded
# only at or below its limit.
_MAGNITUDE = 2 ** 52 - 1
_normal_scale = np.full(512, np.nan)
_normal_limit = np.full(512, -1.0)
# words a GA request reads beyond its fast-path need, for slow-path normals
_SPARE = 16


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
    calls on a fixed PCG64 stream. A call of ``chunk`` values that read
    ``chunk`` words took the fast path for each. A layer's scale is the one
    double that reproduces all such values of the layer, of the candidates
    |x| / magnitude and 3 neighbours either side; its limit is their
    largest magnitude."""
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
        hit = np.flatnonzero(raw[at + chunk:] == word)  # a slow-path value read more words
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


@functools.lru_cache(maxsize=64)
def _ga_layout(n: int, m: int, head: int, cf: int, tournaments: bool, held: bool):
    """Where the bounded draws of ``m`` GA children read a PCG64 stream, from
    the children's first mask words: a pair's tournaments read 2 words
    ``head`` before its first child's, a sample those just before the next
    child's head or mask. Returns per child its head's words (or 0) and its
    sample's; the words p pairs' bounded draws read, in order, as a child
    ``(p, w)`` and offset ``(w,)``; draw numbers, ranges, tournament count."""
    sample = max(2 * cf - 1, 0)
    spend = _halves(sample, held)[0], _halves(sample, not held)[0]
    child = np.repeat([0, 1, 2], (2 * tournaments, *spend)) + 2 * np.arange((m + 1) // 2)[:, None]
    offset = np.concatenate((np.arange(2 * tournaments) - head, np.arange(spend[0]) - spend[0],
                             np.arange(spend[1]) - spend[1] - head))
    pair = 2 * child.shape[1] * np.arange(len(child))[:, None]  # a pair's first draw
    picks = (pair + np.arange(4 * tournaments)).ravel()
    draw = np.append(picks, (pair + 4 * tournaments + np.arange(2 * sample)).ravel()[:m * sample])
    span = np.append(np.full(picks.size, n, np.uint64), np.tile(_floyd_span(n, cf), m))
    for shared in (child, offset, draw, span):
        shared.flags.writeable = False
    steps = tuple((head * (1 - kid % 2), spend[kid % 2]) for kid in range(m))
    return steps, child, offset, draw, span, picks.size


def _decode_ga(rng, n: int, m: int, dim: int, rate: float, tournaments: bool, cf: int | None):
    """The draws of :func:`ga_generation_draws`, decoded from one
    ``random_raw`` request (the permutation is a real call), the state then
    set as the real calls leave it; None, with the stream restored, if a
    bounded draw might have been redrawn or the request ran short.

    A pair reads: with tournaments, 2 words for its four bounded draws;
    its 2d BLX doubles; per child d mask doubles, one word per fast-path
    normal and its sample's words (:func:`_ga_layout`). The mask count at
    every word comes from one array pass, and the chain of children is
    walked in Python. A child with a normal that is not a certain
    fast-path value gets them from one real ``standard_normal(k)`` call;
    the next raw word, found in the request, tells where the walk goes on.
    """
    bitgen = rng.bit_generator
    entry = bitgen.state
    order = None if tournaments else rng.permutation(n)
    state = entry if tournaments else bitgen.state
    k, head = cf or 0, 2 * dim + 2 * tournaments  # head: a pair's words before its first mask
    steps, child, offset, draw, span, split = _ga_layout(n, m, head, k, tournaments,
                                                        bool(state["has_uint32"]))
    size = (m + 1) // 2 * head + 2 * m * dim + _SPARE + m * dim // 8 + m * k
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
        for lead, sampled in steps:
            pos += lead
            at.append(pos)
            first, next_pos = pos + dim, after[pos]
            if next_pos >= 0:
                normals.append(value[first:next_pos] if next_pos > first else _NO_NORMALS)
            else:
                mutated = int(count[pos])
                bitgen.advance(first - cursor)
                normals.append(rng.standard_normal(mutated))
                hit = np.flatnonzero(raw[first + mutated:] == bitgen.random_raw())
                next_pos = first + mutated + int(hit[0])
                cursor = next_pos + 1
                if next_pos == first + mutated:
                    _prove_fast(raw[first:next_pos])
            pos = next_pos + sampled
        # and where a next child, and for odd m one more, would start
        at = np.array(at + [pos + head * (1 - m % 2), pos + head])
        drawn = _bounded(raw, (at[child] + offset).ravel(), state, draw, span, draw.size)
    except IndexError:  # the request ran short
        drawn = None
    if drawn is None:
        bitgen.state = entry
        return None
    value, held, half = drawn
    _leave(bitgen, held, half, cursor - pos)
    u = doubles[at[:m:2, None] + np.arange(-2 * dim, 0)].reshape(-1, 2, dim)
    return (value[:split].reshape(-1, 4) if tournaments else order, u,
            hits[at[:m, None] + np.arange(dim)], normals,
            _floyd(value[split:].reshape(m, -1), n, k).T if k else None)


def _ga_decoder_probe() -> bool:
    """Prove the normal layers (:func:`_learn_normals`), then whether
    decoding matches the real calls (:func:`_probe`) with and without
    tournaments, held halves and samples, odd and even m, dim 1 to 3 and
    rates 0.5 and 1 (the second case makes a slow-path child)."""
    _learn_normals()
    cases = [(1, False, 10, 5, 2, 0.5, True, None), (2, True, 9, 7, 3, 1.0, True, None),
             (3, True, 10, 4, 1, 1.0, False, None), (4, True, 12, 9, 2, 0.5, True, 4),
             (5, False, 12, 8, 1, 0.5, True, 3)]
    return _probe(_decode_ga, _real_ga_draws, cases)
