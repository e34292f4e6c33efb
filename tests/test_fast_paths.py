"""A differential sweep of every fast path over the configuration space.

The fast paths each claim the bits of a simpler reference: the decoded
GA and DE draws (their Floyd samples included) those of the real RNG
calls, and the plane-by-plane distance sums those of ``.sum``. The
fingerprint tables pin them at fixed cells; this sweep draws its cells.

A case is a random algorithm, problem, ``AlgorithmConfig``, budget and
seed. It runs twice: as is, and with every first-use probe of
:data:`PROBES` patched to False, so that every generation takes the real
calls and every distance block ``.sum``. Both runs must give the same
sha256 of genomes, fitness, ``evals_used`` and trace, spend exactly the
budget, return one genome row inside the bounds and one fitness value
per member, and keep a trace whose evaluation counts strictly increase
up to the budget and whose best fitness never gets worse. A third leg
runs a subset of the cases through ``spec``, the algorithms stated one
individual at a time, which shares no code with the run core but the
per-call draws: its digest must be the same too. So a fault in code that
both library paths share (the crowding walk's rebuilds, conservation's
slots, the budget cap) moves a digest. Tier-1 sweeps 200 cases, every
fourth through the spec, and the ``slow`` sweep 2000 others, every tenth
through the spec (the spec is per-individual Python: all 2000 would take
about 40 s more). Each sweep is one test per algorithm, over that
algorithm's cases, so a failure names its algorithm as the removed
fixed-run tests of ``TestEveryAlgorithm`` did; a failing case is printed
as one line that can be pinned as a regular test::

    sde on deb1: AlgorithmConfig(population_size=7, ...), budget=150, seed=123

:data:`PROBES` is the one list of the fast paths' switches: the sweep,
the probe-off fingerprints, the import check, the pinned-NumPy check
below and the CI probe step all read it, and a test fails when a cached
``*_probe`` of a ``nichebench`` module is missing from it. A later fast
path adds its switch there and nowhere else.
"""

import importlib
import pkgutil
from dataclasses import dataclass

import numpy as np
import pytest

import nichebench
from nichebench import core, draws
from nichebench.algorithms import ALGORITHMS, MIN_POPULATION, AlgorithmConfig
from nichebench.core import is_better
from nichebench.harness import PROBLEM_NAMES, resolve_problem

import spec
from test_fingerprint import result_digest

# (module, name) of each fast path's switch; False takes the reference path
PROBES = [(core, "_sum_order_probe"), (draws, "_decoder_probe"), (draws, "_ga_decoder_probe")]
PROBE_IDS = [name for _, name in PROBES]
TIER1_CASES, SLOW_CASES = 200, 2000
# every how many cases of a sweep also run through the spec
TIER1_SPEC_EVERY, SLOW_SPEC_EVERY = 4, 10


@dataclass(frozen=True)
class Case:
    algorithm: str
    problem: str
    config: AlgorithmConfig
    budget: int
    seed: int

    def __str__(self) -> str:
        return (f"{self.algorithm} on {self.problem}: {self.config!r}, "
                f"budget={self.budget}, seed={self.seed}")


def draw_case(rng: np.random.Generator) -> Case:
    """A case over the ranges the fast paths must cover: odd and even
    populations from the algorithm's minimum to 60, every crowding factor,
    small species and sharing radii, CR and mutation rates at 0, 1 and in
    between, and budgets from one population to 30, so that most runs end
    mid-generation."""
    algorithm = str(rng.choice(sorted(ALGORITHMS)))
    problem = str(rng.choice(PROBLEM_NAMES))
    n = int(rng.integers(MIN_POPULATION.get(algorithm, 2), 61))

    def radius():
        return 1000.0 if rng.random() < 0.5 else float(10.0 ** rng.uniform(-3, 1))

    config = AlgorithmConfig(
        population_size=n,
        crowding_factor=None if rng.random() < 0.5 else int(rng.integers(1, n + 1)),
        species_distance=radius(),
        sharing_radius=radius(),
        de_CR=[0.0, 1.0, float(rng.random())][int(rng.integers(3))],
        mutation_rate=[None, 0.0, 1.0, float(rng.random())][int(rng.integers(4))],
        mutation_sigma=float(10.0 ** rng.uniform(-3, 0)),
    )
    return Case(algorithm, problem, config, int(rng.integers(n, 30 * n + 1)),
                int(rng.integers(2 ** 32)))


def cases(stream: int, count: int) -> list[Case]:
    """``count`` cases; case k depends only on ``stream`` and k."""
    return [draw_case(np.random.default_rng([stream, k])) for k in range(count)]


def run_digest(case: Case, philox: bool = False, runs=ALGORITHMS) -> str:
    """The run's :func:`result_digest`, once the run is checked against
    the budget, the result's shapes and bounds, and the trace invariants.
    ``philox`` runs on a Philox stream of the case's seed instead of
    PCG64; ``runs`` maps the algorithm names to the runs,
    ``spec.ALGORITHMS`` for the specification's."""
    problem = resolve_problem(case.problem)
    rng = np.random.Generator(np.random.Philox(case.seed)) if philox else case.seed
    result = runs[case.algorithm](problem, case.config, case.budget, rng)
    assert result.evals_used == case.budget, f"spent {result.evals_used} evaluations"
    n, (lo, hi) = case.config.population_size, problem.bounds.T
    assert result.genomes.shape == (n, problem.dimension) and result.fitness.shape == (n,), \
        f"result shapes {result.genomes.shape} and {result.fitness.shape}"
    assert ((lo <= result.genomes) & (result.genomes <= hi)).all(), "a genome left the bounds"
    counts = [used for used, _ in result.trace]
    assert counts[-1] == case.budget and all(a < b for a, b in zip(counts, counts[1:])), \
        f"trace counts {counts}"
    bests = [best for _, best in result.trace]
    assert not any(is_better(a, b, problem.direction) for a, b in zip(bests, bests[1:])), \
        f"trace best fitness {bests} got worse"
    return result_digest(result)


def fast_paths_off(monkeypatch, probes=PROBES) -> None:
    """Patch each switch of ``probes`` to answer False: its reference path runs."""
    for module, name in probes:
        monkeypatch.setattr(module, name, lambda: False)


def forbid(monkeypatch, *names) -> None:
    """Make each ``draws`` function of ``names`` fail the test when called."""
    for name in names:
        monkeypatch.setattr(draws, name,
                            lambda *args, name=name: pytest.fail(f"took draws.{name}"))


def check(case: Case, monkeypatch, philox: bool = False, against_spec: bool = False) -> None:
    fast = run_digest(case, philox)
    with monkeypatch.context() as patched:
        fast_paths_off(patched)
        reference = run_digest(case, philox)
    assert fast == reference, "the fast paths moved the run"
    if against_spec:
        assert run_digest(case, philox, spec.ALGORITHMS) == fast, "the run is not the spec's"


def sweep(monkeypatch, swept: list[Case], algorithm: str, philox: bool = False,
          spec_every: int = 1) -> None:
    """Check the cases of ``algorithm``, those at every ``spec_every``-th
    place of ``swept`` from the first against the spec too, then fail with
    one line per failing case."""
    mine = [(k, case) for k, case in enumerate(swept) if case.algorithm == algorithm]
    assert mine, f"no case of {algorithm}"
    failures = []
    for k, case in mine:
        try:
            check(case, monkeypatch, philox, k % spec_every == 0)
        except Exception as exc:  # an assertion, or a run that raised
            reason = str(exc).splitlines()[0] if str(exc) else ""
            failures.append(f"{case} -> {type(exc).__name__}: {reason}")
    assert not failures, f"{len(failures)} of {len(mine)} cases failed:\n" + "\n".join(failures)


def test_the_cases_cover_the_configuration_space():
    swept = cases(0, TIER1_CASES)
    assert {case.algorithm for case in swept} == set(ALGORITHMS)
    assert {case.problem for case in swept} == set(PROBLEM_NAMES)
    configs = [case.config for case in swept]
    assert any(c.population_size % 2 for c in configs)
    assert {c.crowding_factor for c in configs} >= {None, 1}
    assert {c.de_CR for c in configs} >= {0.0, 1.0}
    assert {c.mutation_rate for c in configs} >= {None, 0.0, 1.0}
    assert any(c.species_distance < 0.01 for c in configs)
    # most runs end mid-generation
    mid = [case.budget % case.config.population_size for case in swept]
    assert sum(map(bool, mid)) > TIER1_CASES // 2


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_fast_paths_keep_every_run(monkeypatch, algorithm):
    sweep(monkeypatch, cases(0, TIER1_CASES), algorithm, spec_every=TIER1_SPEC_EVERY)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_a_philox_stream_takes_the_real_calls(monkeypatch, algorithm):
    # the decoders read PCG64 words only: any other bit generator must never
    # reach them, and still spend the budget and reproduce its run
    forbid(monkeypatch, "_decode_de", "_decode_ga")
    # the algorithm's first case, through the spec too
    swept = [next(case for case in cases(2, 50) if case.algorithm == algorithm)]
    sweep(monkeypatch, swept, algorithm, philox=True)


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_fast_paths_keep_every_run_slow_sweep(monkeypatch, algorithm):
    sweep(monkeypatch, cases(1, SLOW_CASES), algorithm, spec_every=SLOW_SPEC_EVERY)


@pytest.mark.skipif(np.__version__ != "2.4.6", reason="the fast paths are certified at NumPy 2.4.6")
def test_every_fast_path_is_on_at_the_pinned_numpy():
    # a probe that fails keeps every bit but loses the speed: catch it here
    assert [name for module, name in PROBES if not getattr(module, name)()] == []


def test_every_cached_probe_is_listed():
    modules = [importlib.import_module(f"nichebench.{info.name}")
               for info in pkgutil.iter_modules(nichebench.__path__)]
    cached = {(module, name) for module in modules for name, value in vars(module).items()
              if name.endswith("_probe") and hasattr(value, "cache_info")}
    assert cached == set(PROBES)
