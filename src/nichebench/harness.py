"""Experiment runner: algorithm x problem grids of seeded, budgeted runs
with metric aggregation, significance matrices, and CSV/JSON persistence.

:meth:`ExperimentSpec.validate` (with :meth:`AlgorithmConfig.validate`)
is the one place a setting is checked, type and range, the content of the
grating profile included; every number goes through ``core.check_integer``
or ``core.check_real`` (a bool is not a number, and a real must be
finite). :func:`run_experiment` calls it, and checks ``jobs``, before any
file is written.

Each problem is built once per grid, by :meth:`ExperimentSpec.validate`,
and every run of it gets that object in its task: a run reads no module
state, so a pool started by fork, spawn or forkserver writes the same
bytes. A problem sent to a pool must therefore pickle, as every built-in
problem and the grating do; the runs in one process share its objective.

Seeds are derived deterministically from (base_seed, algorithm, problem,
run index) so any run can be reproduced in isolation, and every run's
metric rows hit disk, in grid order, before aggregation. A run's rows
land together, in one write and one flush, so a crash or an interrupt
leaves only whole runs in ``runs.csv``. The process pool gets
``workers = min(jobs, len(tasks))`` processes; with ``workers > 1`` runs
go to it in chunks of ``max(1, len(tasks) // (32 * workers))`` runs,
so a crash loses at most the ``runs.csv`` rows of the runs in flight, one
chunk per worker, plus any finished chunk still waiting for an earlier
one; it loses every trace, as traces stay in memory until
:func:`emit_reports` writes them. A run that raises stops the grid with a
:class:`RunError` naming its cell, run index and seed; so does a pool
worker that dies (killed, say, by the OOM killer), the error naming the
first run not yet recorded. The rows of the runs recorded before it stay
in ``runs.csv``. Raw rows use the frozen schema
``algorithm,problem,run,seed,metric,value``. Each report file is written
to a temporary file beside it and moved into place when complete, so a
failed write leaves the previous file intact.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algorithms import ALGORITHMS, AlgorithmConfig, RunResult, check_run, get_algorithm
from .core import check_integer, check_real
from .grating import make_default_problem
from .metrics import avg_min_distance, best_fitness, distinct_peaks, peak_ratio
from .problems import PROBLEM_FACTORIES, BoundedProblem
from .stats import TESTS, pairwise_matrix

__all__ = [
    "ConfigError",
    "RunError",
    "PROBLEM_NAMES",
    "ExperimentSpec",
    "ResultTable",
    "resolve_problem",
    "derive_seed",
    "run_experiment",
    "emit_reports",
    "DEFAULT_TESTS",
]

DEFAULT_TESTS = ("mwu", "ks", "t")
RAW_COLUMNS = ("algorithm", "problem", "run", "seed", "metric", "value")
# every name resolve_problem accepts: the benchmarks sorted, then the grating
PROBLEM_NAMES = (*sorted(PROBLEM_FACTORIES), "grating")


class ConfigError(ValueError):
    """Invalid experiment configuration; raised before any run starts."""


class RunError(RuntimeError):
    """A run raised, or the pool worker running it died. The message names
    the algorithm, problem, run index and seed and ends with the original
    exception, which is chained as ``__cause__`` (from a worker process,
    its formatted traceback is)."""


@dataclass
class ExperimentSpec:
    """A full experiment: which algorithms on which problems, how often, and
    which significance tests (at level ``alpha``) the reports run.

    :meth:`validate` checks every field's type and range, runs
    ``algorithms.check_run`` for each algorithm (its config, its minimum
    population, and ``max_evals`` against the population), rejects a name
    listed twice and the t test on one run per cell when two or more
    algorithms are compared (``welch_t`` needs two values per sample), and
    builds every problem, so a bad grating profile fails here too. It
    returns the built problems as ``{name: BoundedProblem}`` in the order
    of ``problems``.
    """

    algorithms: list[tuple[str, AlgorithmConfig]]
    problems: list[str] | tuple[str, ...]
    runs: int = 50
    max_evals: int = 10000
    base_seed: int = 12345
    output_dir: str | os.PathLike = "results"
    grating_profile: str | os.PathLike | None = None
    tests: list[str] | tuple[str, ...] = DEFAULT_TESTS
    alpha: float = 0.05

    def validate(self) -> dict[str, BoundedProblem]:
        try:
            for name in ("runs", "max_evals", "base_seed"):
                check_integer(repr(name), getattr(self, name))
            check_real("'alpha'", self.alpha)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ConfigError(f"'output_dir' must be a string or a path, got {self.output_dir!r}")
        if not isinstance(self.grating_profile, (str, os.PathLike, type(None))):
            raise ConfigError(f"'grating_profile' must be a string, a path or None, "
                              f"got {self.grating_profile!r}")
        for name in ("problems", "tests"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
                raise ConfigError(f"{name!r} must be a list of strings, got {value!r}")
            if len(set(value)) < len(value):
                raise ConfigError(f"a {name[:-1]} is listed twice: {list(value)}")
        if not isinstance(self.algorithms, (list, tuple)):
            raise ConfigError(f"'algorithms' must be a list of (name, AlgorithmConfig) pairs, "
                              f"got {self.algorithms!r}")
        if self.runs < 1:
            raise ConfigError("runs must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        if not self.problems:
            raise ConfigError("at least one problem is required")
        seen = set()
        for entry in self.algorithms:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                    and isinstance(entry[0], str) and isinstance(entry[1], AlgorithmConfig)):
                raise ConfigError(f"algorithm entry must be a (name, AlgorithmConfig) pair, "
                                  f"got {entry!r}")
            name, config = entry
            if name not in ALGORITHMS:
                known = ", ".join(sorted(ALGORITHMS))
                raise ConfigError(f"unknown algorithm {name!r}; known: {known}")
            if name in seen:
                raise ConfigError(f"algorithm {name!r} listed twice")
            seen.add(name)
            try:
                check_run(name, config, self.max_evals)
            except ValueError as exc:
                raise ConfigError(f"bad config for {name}: {exc}") from None
        for test in self.tests:
            if test not in TESTS:
                raise ConfigError(f"unknown test {test!r}; known: {sorted(TESTS)}")
        if "t" in self.tests and len(self.algorithms) >= 2 and self.runs < 2:
            raise ConfigError("the t test needs runs >= 2 when comparing two or more algorithms")
        return {name: resolve_problem(name, self.grating_profile) for name in self.problems}


def resolve_problem(name: str, grating_profile: str | None = None) -> BoundedProblem:
    """Build a problem by name, or raise ConfigError; 'grating' uses the synthetic recording model."""
    if name == "grating":
        try:
            return make_default_problem(grating_profile)
        except ValueError as exc:  # the profile's content, JSON syntax included
            raise ConfigError(f"grating profile {grating_profile}: {exc}") from None
    if name in PROBLEM_FACTORIES:
        return PROBLEM_FACTORIES[name]()
    raise ConfigError(f"unknown problem {name!r}; known: {', '.join(PROBLEM_NAMES)}")


def derive_seed(base_seed: int, algorithm: str, problem: str, run: int) -> int:
    """Stable 64-bit run seed from the experiment coordinates."""
    key = f"{base_seed}|{algorithm}|{problem}|{run}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def run_metrics(problem: BoundedProblem, result: RunResult) -> dict[str, float]:
    """Metric values for one finished run.

    Problems with known optima are scored by best fitness, peak ratio and
    average minimum distance; problems without (the grating) by best
    fitness and the distinct-peak count in normalized coordinates.
    """
    genomes, fitness = result.genomes, result.fitness
    values = {"best_fitness": best_fitness(fitness, problem.direction)}
    if problem.known_peaks:
        values["peak_ratio"] = peak_ratio(genomes, problem.known_peaks)
        values["avg_min_distance"] = avg_min_distance(genomes, problem.known_peaks)
    else:
        values["distinct_peaks"] = float(
            distinct_peaks(genomes, fitness, direction=problem.direction, bounds=problem.bounds)
        )
    return values


def _execute_run(task) -> tuple:
    """Worker: one seeded, budgeted run of the task's built problem.
    Module-level for process pools, and a function of its task alone.

    Any exception is re-raised as a :class:`RunError` that names the run;
    it carries only a message, so it crosses the process boundary even
    when the original exception cannot be pickled.
    """
    alg_name, config, problem, max_evals, seed, run = task
    try:
        result = get_algorithm(alg_name)(problem, config, max_evals, seed)
        return run_metrics(problem, result), result.trace
    except Exception as exc:
        raise RunError(f"{alg_name} on {problem.name}, run {run}, seed {seed}: "
                       f"{type(exc).__name__}: {exc}") from exc


@dataclass
class ResultTable:
    """Per-(algorithm, problem, metric) run values and per-run traces of ``spec``."""

    spec: ExperimentSpec
    values: dict[tuple[str, str, str], list[float]] = field(default_factory=dict)
    traces: dict[tuple[str, str, int], list[tuple[int, float]]] = field(default_factory=dict)

    @property
    def algorithms(self) -> list[str]:
        return [name for name, _ in self.spec.algorithms]

    def metrics_for(self, problem: str) -> list[str]:
        return list(dict.fromkeys(metric for (_, prob, metric) in self.values if prob == problem))

    def raw(self, algorithm: str, problem: str, metric: str) -> list[float]:
        return self.values[(algorithm, problem, metric)]

    def mean(self, algorithm: str, problem: str, metric: str) -> float:
        return float(np.mean(self.raw(algorithm, problem, metric)))

    def stddev(self, algorithm: str, problem: str, metric: str) -> float:
        raw = self.raw(algorithm, problem, metric)
        return float(np.std(raw, ddof=1)) if len(raw) >= 2 else 0.0


# a grid is cut into about this many chunks per worker: enough to balance
# uneven runs, few enough that short runs are not dominated by dispatch
_CHUNKS_PER_WORKER = 32


def _chunksize(n_tasks: int, workers: int) -> int:
    """Runs per process-pool task for a grid of ``n_tasks`` runs."""
    return max(1, n_tasks // (_CHUNKS_PER_WORKER * workers))


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> ResultTable:
    """Execute every (algorithm, problem, run) cell of the spec.

    Run ``r`` of an algorithm/problem pair is seeded with
    ``derive_seed(base_seed, algorithm, problem, r)``, so per-run results
    do not depend on execution order or parallelism. Raw metric rows are
    appended to ``runs.csv`` in grid order as each run finishes, a run's
    rows together in one write and one flush, so a crash or an interrupt
    leaves only whole runs in the file. The pool has
    ``workers = min(jobs, len(tasks))`` processes, receives the runs in
    chunks of ``_chunksize(len(tasks), workers)`` and returns them in
    order. An integer ``jobs`` <= 1, or a one-run grid, runs serially.
    Each problem is built once, by ``spec.validate()``, and sent to its
    runs in the task, so it must pickle to reach a pool; the outputs
    depend neither on ``jobs`` nor on the pool's start method. A crash
    loses the ``runs.csv`` rows of the runs in flight (see the module
    docstring) and every trace.

    A run that raises stops the grid with :class:`RunError`, and so does a
    pool worker that dies, naming the first run not recorded; the rows of
    the runs recorded before it stay in ``runs.csv``. A ``KeyboardInterrupt``
    (Ctrl-C) stops it too: pool workers ignore SIGINT, and the chunks the
    pool has not yet put on its call queue are cancelled. Up to
    ``2 * workers + 1`` chunks still run: one in each worker and up to
    ``workers + 1`` already queued, which the pool cannot take back. Once
    they are done the interrupt is raised again; ``runs.csv`` keeps the
    rows recorded before it.
    """
    try:
        check_integer("'jobs'", jobs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    problems = spec.validate()
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tasks = [
        (alg_name, config, problem, spec.max_evals,
         derive_seed(spec.base_seed, alg_name, problem.name, run), run)
        for alg_name, config in spec.algorithms
        for problem in problems.values()
        for run in range(spec.runs)
    ]

    table = ResultTable(spec)

    raw_path = out_dir / "runs.csv"
    with open(raw_path, "w", newline="", encoding="utf-8") as fh:
        # rows are formatted here and land in the file a run at a time, in
        # one write and one flush, so an interrupt leaves only whole runs
        rows = io.StringIO()
        writer = csv.writer(rows)

        def land():
            fh.write(rows.getvalue())
            fh.flush()
            rows.seek(0)
            rows.truncate()

        writer.writerow(RAW_COLUMNS)
        land()

        def record(task, outcome):
            alg_name, _, problem, _, seed, run = task
            metric_values, trace = outcome
            for metric, value in metric_values.items():
                table.values.setdefault((alg_name, problem.name, metric), []).append(value)
                writer.writerow([alg_name, problem.name, run, seed, metric, _float_repr(value)])
            land()
            table.traces[(alg_name, problem.name, run)] = trace

        # a fork pool starts all its workers at the first submit, so never
        # ask for more than there are runs
        workers = min(jobs, len(tasks))
        if workers <= 1:
            for task in tasks:
                record(task, _execute_run(task))
        else:
            # imported here: a serial grid, or a library user, never pays for it
            import signal
            from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

            # Ctrl-C signals the whole process group: the workers leave it to
            # this process, which cancels the chunks not yet queued and waits
            # for the rest
            with ProcessPoolExecutor(max_workers=workers, initializer=signal.signal,
                                     initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
                outcomes = pool.map(_execute_run, tasks, chunksize=_chunksize(len(tasks), workers))
                try:
                    for task, outcome in zip(tasks, outcomes):
                        record(task, outcome)
                except KeyboardInterrupt:
                    pool.shutdown(cancel_futures=True)
                    raise
                except BrokenExecutor as exc:
                    alg_name, _, problem, _, seed, run = tasks[len(table.traces)]
                    raise RunError(f"{alg_name} on {problem.name}, run {run}, seed {seed}: a pool "
                                   f"worker died ({type(exc).__name__}: {exc})") from exc
    return table


def _float_repr(value: float) -> str:
    return repr(float(value))


@contextlib.contextmanager
def _replacing(path: Path, newline: str | None = None):
    """Write ``path`` through a temporary file beside it, moved onto ``path``
    only once the block completes; on an error the temporary file is
    removed and ``path`` keeps its previous content."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def emit_reports(table: ResultTable, output_dir: str | os.PathLike = "results") -> list[Path]:
    """Write the report files for a finished experiment.

    Produces ``summary.csv`` (mean and sample standard deviation per cell,
    algorithms as columns), one JSON significance matrix per (problem,
    metric, test) with the same algorithm order on both axes, and
    ``traces.csv`` with per-run convergence checkpoints. The tests and
    their level are ``table.spec.tests`` and ``table.spec.alpha``, which
    :meth:`ExperimentSpec.validate` has checked; nothing is checked here.
    Each file is written to a temporary file and then moved into place, so
    a write that fails leaves the earlier file, if any, as it was.
    The raw rows are not rewritten: ``runs.csv`` is the run-major file that
    :func:`run_experiment` streamed. Returns the written paths.
    """
    spec = table.spec
    labels = table.algorithms
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    summary_path = out_dir / "summary.csv"
    with _replacing(summary_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem", "metric", "statistic", *labels])
        for problem in spec.problems:
            for metric in table.metrics_for(problem):
                means = [_float_repr(table.mean(a, problem, metric)) for a in labels]
                stds = [_float_repr(table.stddev(a, problem, metric)) for a in labels]
                writer.writerow([problem, metric, "mean", *means])
                writer.writerow([problem, metric, "stddev", *stds])
    written.append(summary_path)

    if len(labels) >= 2:
        for problem in spec.problems:
            for metric in table.metrics_for(problem):
                samples = [np.array(table.raw(alg, problem, metric)) for alg in labels]
                for test in spec.tests:
                    pvalues = pairwise_matrix(samples, test)
                    # the diagonal's p of 1.0 is never below an alpha in (0, 1)
                    payload = {"problem": problem, "metric": metric, "test": test,
                               "alpha": spec.alpha, "labels": labels,
                               "significant": (pvalues < spec.alpha).astype(int).tolist(),
                               "p_values": pvalues.tolist()}
                    path = out_dir / f"significance_{problem}_{metric}_{test}.json"
                    with _replacing(path) as fh:
                        json.dump(payload, fh, indent=2)
                        fh.write("\n")
                    written.append(path)

    traces_path = out_dir / "traces.csv"
    with _replacing(traces_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "problem", "run", "eval_count", "best_fitness"])
        for (alg, problem, run), trace in sorted(table.traces.items()):
            for eval_count, best in trace:
                writer.writerow([alg, problem, run, eval_count, _float_repr(best)])
    written.append(traces_path)
    return written
