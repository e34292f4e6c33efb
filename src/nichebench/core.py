"""Shared EA machinery: individuals, populations, the evaluator that is
the run clock, the real-coded variation operators of every algorithm in
this package, and the row distances and leader scan the metrics share.

All genomes are 1-d float ndarrays. Box bounds are given as a (dim, 2)
array of [lo, hi] rows and every operator clamps its output to them. The
operators do not draw: the requests are made child by child
(``rng.integers(n, size=4)`` for a GA pair's two tournaments,
``rng.random((2, d))`` for its BLX doubles, :func:`mutation_draws`,
:func:`de_draws`), or for a DE generation at once
(:func:`de_generation_draws`). :func:`binary_tournament` compares
pre-drawn candidates, and :func:`blend_crossover`,
:func:`gaussian_mutation` and :func:`de_trial_vector` build one child,
or a stacked batch of a generation's children, from the values drawn
(as ``algorithms.crowding_replacement`` takes a pre-drawn sample).
Termination is driven solely by :class:`Evaluator`: each row evaluated
consumes exactly one evaluation, whether the objective sees it alone or in
a batch (:meth:`Evaluator.many`), and a run stops the moment the budget is
exhausted. Either way a row takes the same step: it is counted, checked
to be finite, compared with the best so far and returned as a new
:class:`Individual`, so there is no unevaluated individual, and none is
changed after it is made. No child is built once the budget is spent,
and nothing is drawn for it.

Draw exactness: every published result is a pure function of the run
seed, so the random requests made here are frozen. The rule is word-level:
a change to an RNG request (a cheaper call, a merged or split draw, a
decoding of raw words) is allowed only if it consumes the same 64-bit
words and 32-bit halves of the bit generator's stream, in the same order,
yields bit-identical values and leaves the same ``bit_generator.state``,
held-back half included; e.g. ``lo + (hi - lo) * rng.random(d)`` is what
``rng.uniform(lo, hi)`` computes, and :func:`de_generation_draws` decodes
what a generation of :func:`de_draws` calls would read.
``tests/test_fingerprint.py`` pins the final populations and traces of
all 42 (algorithm, problem) cells and ``tests/test_draw_equivalence.py``
checks each such rewrite against the call it replaced.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Evaluator",
    "Individual",
    "Population",
    "is_better",
    "check_direction",
    "check_integer",
    "check_real",
    "clip_to_bounds",
    "row_distances",
    "leader_scan",
    "binary_tournament",
    "blend_crossover",
    "mutation_draws",
    "gaussian_mutation",
    "de_draws",
    "de_generation_draws",
    "de_trial_vector",
]

_NO_NORMALS = np.empty(0)  # mutation_draws' normals when no coordinate mutates
_SMALL_POOL = "DE needs at least 4 individuals in the donor pool (incl. target)"


@dataclass
class Individual:
    """A real-valued genome with its objective value.

    :class:`Evaluator` makes every individual of a run, so ``fitness`` is
    always set. Neither field is changed afterwards: the same object may
    sit in a population and in a list of species seeds at once.
    """

    genome: np.ndarray
    fitness: float


class Population:
    """Ordered list of evaluated individuals whose size never changes:
    algorithms replace members by index, they never add or remove one.

    The ``(n, dim)`` genome matrix and ``(n,)`` fitness vector of the
    members are built here and kept in sync by ``pop[i] = ind``; callers
    read them and never write them. Members are never edited in place (an
    edited genome would leave the matrix stale): a member is replaced.
    """

    def __init__(self, members):
        self.members: list[Individual] = list(members)
        self._matrix = np.array([m.genome for m in self.members])
        self._fitness = np.array([m.fitness for m in self.members], dtype=float)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> Individual:
        return self.members[i]

    def __setitem__(self, i: int, ind: Individual) -> None:
        self.members[i] = ind
        self._matrix[i] = ind.genome
        self._fitness[i] = ind.fitness

    def genome_matrix(self) -> np.ndarray:
        """The population's own (n, dim) genome matrix; read it, never write it."""
        return self._matrix

    def fitnesses(self) -> np.ndarray:
        """The population's own (n,) fitness vector; read it, never write it."""
        return self._fitness


def is_better(a: float, b: float, direction: str) -> bool:
    """True iff fitness ``a`` is strictly better than ``b``."""
    if direction == "max":
        return a > b
    if direction == "min":
        return a < b
    check_direction(direction)


def check_direction(direction: str) -> None:
    """Raise ValueError unless ``direction`` is 'min' or 'max'."""
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")


def check_integer(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer (a bool is not)."""
    _check_kind(name, value, numbers.Integral, "an integer")


def check_real(name: str, value, finite: bool = True) -> float:
    """``value`` as a float; ValueError unless a real (not a bool), finite if ``finite``."""
    _check_kind(name, value, numbers.Real, "a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if finite and not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def _check_kind(name: str, value, kind, noun: str) -> None:
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {noun}, got {value!r}")


def clip_to_bounds(genome: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    # same values as np.clip (signed zeros and NaN included), at half the cost
    return np.minimum(np.maximum(genome, bounds[:, 0]), bounds[:, 1])


def row_distances(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Euclidean distances between ``points`` and ``rows`` (``(..., d)``
    arrays, broadcast against each other), summed over the last axis."""
    return np.sqrt(((points - rows) ** 2).sum(axis=-1))


def leader_scan(rows: np.ndarray, order, radius: float) -> list[int]:
    """Greedy leader scan: visit the row indices of ``order`` in turn and
    take a row iff it lies at distance >= ``radius`` from every row taken
    so far. Returns the taken indices in the order they were taken."""
    free = np.ones(len(rows), dtype=bool)
    taken = []
    for i in order:
        if free[i]:
            taken.append(i)
            free &= row_distances(rows, rows[i]) >= radius
    return taken


class Evaluator:
    """The run clock and the maker of individuals: turns genomes into
    evaluated :class:`Individual` objects until ``max_evals`` evaluations,
    one per genome, are spent, keeping the best fitness so far and the
    trace of (evaluations used, best fitness) checkpoints.

    An objective with a ``many(rows) -> (m,) values`` method, whose
    values are the same bits as one call per row, is called once per
    batch by :meth:`many`; any other objective is called row by row."""

    def __init__(self, problem, max_evals: int):
        check_integer("max_evals", max_evals)
        if max_evals < 0:
            raise ValueError("max_evals must be >= 0")
        self.max_evals = int(max_evals)
        self.objective = problem.objective
        self._batch = getattr(self.objective, "many", None)
        self.direction = problem.direction
        self.used = 0
        self.best: float | None = None
        self.trace: list[tuple[int, float]] = []

    @property
    def exhausted(self) -> bool:
        return self.used >= self.max_evals

    def __call__(self, genome: np.ndarray) -> Individual:
        """A new individual holding ``genome`` and its objective value.

        Raises RuntimeError, without calling the objective, once the budget
        is used up (callers check :attr:`exhausted` first), and ValueError
        if the objective returns a non-finite value.
        """
        if self.used >= self.max_evals:
            raise RuntimeError(f"evaluation budget of {self.max_evals} is used up")
        return self._record(genome, float(self.objective(genome)))

    def many(self, genomes) -> list[Individual]:
        """New individuals for the rows of ``genomes``, in order: the same
        individuals, count, best fitness and errors as one call per row.

        Raises RuntimeError, before any objective call, if the rows exceed
        the evaluations left. On the first row with a non-finite value it
        raises that call's ValueError, with ``used`` and ``best`` as the
        calls up to that row leave them.
        """
        m = len(genomes)
        if m > self.max_evals - self.used:
            raise RuntimeError(f"{m} evaluations exceed the {self.max_evals - self.used} "
                               f"left of the budget of {self.max_evals}")
        if self._batch is None or not m:
            return [self(genome) for genome in genomes]
        values = np.asarray(self._batch(genomes), dtype=float).tolist()
        if len(values) != m:
            raise ValueError(f"objective returned {len(values)} values for {m} rows")
        return [self._record(genome, value) for genome, value in zip(genomes, values)]

    def _record(self, genome: np.ndarray, value: float) -> Individual:
        """The step every evaluated row takes, alone or in a batch: count
        the evaluation, reject a non-finite value, keep the best so far and
        make the individual."""
        self.used += 1
        if not math.isfinite(value):
            raise ValueError(f"objective returned non-finite value {value!r} at {genome!r}")
        if self.best is None or is_better(value, self.best, self.direction):
            self.best = value
        return Individual(genome, value)

    def checkpoint(self) -> None:
        """Record (evaluations used, best fitness) once anything is evaluated."""
        if self.best is not None:
            self.trace.append((self.used, self.best))


def binary_tournament(fitness: np.ndarray, first, second, direction: str):
    """The winner of a binary tournament between the pre-drawn candidates
    ``first`` and ``second``, indices of ``fitness``: ``second`` if its
    value is better under ``direction``, else ``first``, so a tie keeps
    the first drawn. The candidates are ints, giving an int, or equally
    shaped index arrays, giving the winners of as many tournaments.

    A GA draws a pair's two tournaments as ``rng.integers(n, size=4)``:
    ``(first, second)`` of the first parent, then of the second.
    """
    if len(fitness) == 0:
        raise ValueError("cannot run a tournament on an empty population")
    better = is_better(fitness[second], fitness[first], direction)
    if isinstance(better, np.ndarray):
        return np.where(better, second, first)
    return second if better else first


def blend_crossover(p1: np.ndarray, p2: np.ndarray, u: np.ndarray, bounds: np.ndarray,
                    alpha: float = 0.5) -> np.ndarray:
    """Blend (BLX-alpha) crossover of one parent pair, or of m pairs given
    as ``(m, d)`` parent rows.

    ``u`` holds each pair's ``rng.random((2, d))``: shape ``(2, d)``, or
    ``(m, 2, d)``, which is also the shape of the children returned. A
    child coordinate is uniform on [min - alpha*d, max + alpha*d] where
    d = |p1_i - p2_i|, then clamped to bounds. Equal parents yield
    identical children.
    """
    if p1.shape != p2.shape:
        raise ValueError("parent genomes must have equal length")
    d = np.abs(p1 - p2)
    lo = (np.minimum(p1, p2) - alpha * d)[..., None, :]
    hi = (np.maximum(p1, p2) + alpha * d)[..., None, :]
    # two rng.uniform(lo, hi) calls per pair, each lo + (hi - lo) * next_double
    return clip_to_bounds(lo + (hi - lo) * u, bounds)


def mutation_draws(rng: np.random.Generator, dim: int, rate: float):
    """One child's Gaussian mutation draws, in their frozen order: the
    mask ``rng.random(dim) < rate`` of the coordinates to perturb, then a
    standard normal for each of them (no request when there is none)."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("mutation rate must be in [0, 1]")
    mask = rng.random(dim) < rate
    k = np.count_nonzero(mask)
    return mask, (rng.standard_normal(k) if k else _NO_NORMALS)


def gaussian_mutation(genomes: np.ndarray, mask: np.ndarray, normals: np.ndarray,
                      bounds: np.ndarray, sigma: float) -> np.ndarray:
    """Perturb the coordinates where ``mask`` is True by a Gaussian whose
    standard deviation is ``sigma`` times that coordinate's range.

    ``genomes`` is one genome or an ``(m, d)`` batch with ``mask`` of its
    shape; ``normals`` holds the masked coordinates' standard normals in
    row order, i.e. the rows' :func:`mutation_draws` concatenated.
    """
    if sigma <= 0.0:
        raise ValueError("mutation sigma must be positive")
    if not normals.size:
        return clip_to_bounds(genomes, bounds)
    out = genomes.copy()
    hit = mask.nonzero()
    # rng.normal(0.0, scale) is 0.0 + scale * standard_normal; the 0.0
    # turns a -0.0 step into +0.0
    out[hit] += 0.0 + sigma * (bounds[hit[-1], 1] - bounds[hit[-1], 0]) * normals
    return clip_to_bounds(out, bounds)


def de_draws(rng: np.random.Generator, n: int, target: int, dim: int, CR: float,
             donor_pool: list[int] | None = None):
    """One DE/rand/1/bin trial's draws, in their frozen order: donors
    ``(a, b, c)``, distinct and drawn without replacement from
    ``donor_pool`` (default: all ``n`` members) less the target, then the
    binomial crossover mask ``rng.random(dim) < CR`` with one coordinate
    forced, so the trial keeps at least one mutant coordinate."""
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
                        pools: np.ndarray | None = None):
    """The draws of ``m`` consecutive :func:`de_draws` calls for targets
    0, 1, ..., m - 1: the ``(3, m)`` donors and ``(m, dim)`` crossover
    masks those calls return, leaving ``rng`` in the state they leave it.

    ``pools`` None lets every target draw from all ``n`` members. Otherwise
    it is an ``(n,)`` array of pool labels: a target draws from the members
    that share its label, in index order, less itself, or from all ``n``
    members when its label is negative. A target whose pool less itself
    has fewer than 3 members raises de_draws' ValueError before anything
    is drawn.

    A PCG64 stream is decoded from one ``random_raw`` request, read as
    NumPy's own calls read it (see :func:`_de_layout`). The real
    :func:`de_draws` calls are made instead for any other bit generator,
    when the first-use probe finds that this NumPy reads the words
    differently, and for a generation where Lemire's method might have
    redrawn a bounded value; the stream is then restored first.
    """
    if pools is None:
        pools = np.full(n, -1)
    pool_map = _pool_map(n, m, pools)
    if type(rng.bit_generator) is np.random.PCG64 and _decoder_works():
        decoded = _decode_de(rng.bit_generator, pool_map, dim, CR)
        if decoded is not None:
            return decoded
    return _real_de_draws(rng, n, m, dim, CR, pools)


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


def _real_de_draws(rng, n, m, dim, CR, pools):
    """:func:`de_generation_draws` made by ``m`` real :func:`de_draws` calls."""
    if not m:
        return np.empty((3, 0), np.intp), np.empty((0, dim), bool)

    def pool(t):
        return None if pools[t] < 0 else np.flatnonzero(pools == pools[t]).tolist()

    donors, cross = zip(*[de_draws(rng, n, t, dim, CR, pool(t)) for t in range(m)])
    return np.array(donors, np.intp).T, np.array(cross)


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
    """:func:`de_generation_draws` for the targets of ``pool_map`` (see
    :func:`_pool_map`), decoded from one ``random_raw`` request and the
    held half; the state is then set as the real calls leave it. None,
    with the state restored, if a draw might have been redrawn."""
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
            want = _real_de_draws(real, n, m, dim, 0.5, pools)
            if (got is None or not all(np.array_equal(g, w) for g, w in zip(got, want))
                    or decoded.bit_generator.state != real.bit_generator.state
                    or decoded.random() != real.random()):
                return False
    return True


def de_trial_vector(genomes: np.ndarray, targets, donors, cross: np.ndarray, F: float,
                    bounds: np.ndarray) -> np.ndarray:
    """DE/rand/1/bin trial vectors from the rows of ``genomes``: the
    mutant ``a + F * (b - c)`` where ``cross`` is True, the target row
    elsewhere, clamped to bounds.

    ``targets`` is one row index, with ``donors`` ``(a, b, c)`` and a
    ``(d,)`` ``cross``, or m indices, with ``donors`` a ``(3, m)`` array
    and an ``(m, d)`` ``cross``: the :func:`de_draws` of each target.
    """
    a, b, c = donors
    mutant = genomes[a] + F * (genomes[b] - genomes[c])
    return clip_to_bounds(np.where(cross, mutant, genomes[targets]), bounds)
