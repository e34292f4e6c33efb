"""Experiment runner: algorithm x problem grids of seeded, budgeted runs
with metric aggregation, significance matrices, and CSV/JSON persistence.

Seeds are derived deterministically from (base_seed, algorithm, problem,
run index) so any run can be reproduced in isolation, and every run's
metric rows hit disk, in grid order, before aggregation. With ``jobs > 1``
runs go to the process pool in chunks of ``max(1, len(tasks) // (32 *
jobs))`` runs, so a crash loses at most the runs in flight, one chunk per
worker, plus any finished chunk still waiting for an earlier one. Raw
rows use the frozen column schema ``algorithm,problem,run,seed,metric,value``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algorithms import ALGORITHMS, AlgorithmConfig, RunResult, get_algorithm
from .grating import make_default_problem
from .metrics import avg_min_distance, best_fitness, distinct_peaks, peak_ratio
from .problems import PROBLEM_FACTORIES, BoundedProblem
from .stats import TESTS, SampleSet, pairwise_matrix

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "ResultTable",
    "resolve_problem",
    "derive_seed",
    "validate_tests",
    "run_experiment",
    "emit_reports",
    "DEFAULT_TESTS",
]

DEFAULT_TESTS = ("mwu", "ks", "t")
RAW_COLUMNS = ("algorithm", "problem", "run", "seed", "metric", "value")


class ConfigError(ValueError):
    """Invalid experiment configuration; raised before any run starts."""


@dataclass
class ExperimentSpec:
    """A full experiment: which algorithms on which problems, how often."""

    algorithms: list[tuple[str, AlgorithmConfig]]
    problems: list[str]
    runs: int = 50
    max_evals: int = 10000
    base_seed: int = 12345
    output_dir: str | Path = "results"
    grating_profile: str | None = None

    def validate(self) -> None:
        if self.runs < 1:
            raise ConfigError("runs must be at least 1")
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        if not self.problems:
            raise ConfigError("at least one problem is required")
        seen = set()
        for name, config in self.algorithms:
            if name not in ALGORITHMS:
                known = ", ".join(sorted(ALGORITHMS))
                raise ConfigError(f"unknown algorithm {name!r}; known: {known}")
            if name in seen:
                raise ConfigError(f"algorithm {name!r} listed twice")
            seen.add(name)
            try:
                config.validate()
            except ValueError as exc:
                raise ConfigError(f"bad config for {name}: {exc}") from None
            if self.max_evals < config.population_size:
                raise ConfigError(
                    "max_evals must cover at least the initial population "
                    f"({config.population_size} for {name})"
                )
        for problem in self.problems:
            resolve_problem(problem, self.grating_profile)


def resolve_problem(name: str, grating_profile: str | None = None) -> BoundedProblem:
    """Build a problem by name; 'grating' uses the synthetic recording model."""
    if name == "grating":
        return make_default_problem(grating_profile)
    if name in PROBLEM_FACTORIES:
        return PROBLEM_FACTORIES[name]()
    known = ", ".join(sorted(PROBLEM_FACTORIES) + ["grating"])
    raise ConfigError(f"unknown problem {name!r}; known: {known}")


def validate_tests(tests, n_algorithms: int, runs: int) -> None:
    """Reject unknown significance tests, and the t test on one run per
    cell when two or more algorithms are compared (``welch_t`` needs two
    values per sample)."""
    for test in tests:
        if test not in TESTS:
            raise ConfigError(f"unknown test {test!r}; known: {sorted(TESTS)}")
    if "t" in tests and n_algorithms >= 2 and runs < 2:
        raise ConfigError("the t test needs runs >= 2 when comparing two or more algorithms")


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
    pop = result.final_population
    values = {"best_fitness": best_fitness(pop, problem.direction)}
    if problem.known_peaks:
        values["peak_ratio"] = peak_ratio(pop, problem.known_peaks)
        values["avg_min_distance"] = avg_min_distance(pop, problem.known_peaks)
    else:
        values["distinct_peaks"] = float(
            distinct_peaks(pop, direction=problem.direction, bounds=problem.bounds)
        )
    return values


def _execute_run(task) -> tuple:
    """Worker: one seeded, budgeted run. Module-level for process pools."""
    alg_name, config, problem_name, grating_profile, max_evals, seed, _run = task
    problem = resolve_problem(problem_name, grating_profile)
    result = get_algorithm(alg_name)(problem, config, max_evals, seed)
    if result.evals_used > max_evals:
        raise RuntimeError(
            f"budget audit failed: {result.evals_used} > {max_evals} "
            f"({alg_name} on {problem_name})"
        )
    return run_metrics(problem, result), result.trace


@dataclass
class ResultTable:
    """Per-(algorithm, problem, metric) raw run values plus run metadata."""

    algorithms: list[str]
    problems: list[str]
    runs: int
    values: dict[tuple[str, str, str], list[float]] = field(default_factory=dict)
    traces: dict[tuple[str, str, int], list[tuple[int, float]]] = field(default_factory=dict)

    def metrics_for(self, problem: str) -> list[str]:
        names: list[str] = []
        for (alg, prob, metric) in self.values:
            if prob == problem and metric not in names:
                names.append(metric)
        return names

    def raw(self, algorithm: str, problem: str, metric: str) -> list[float]:
        return self.values[(algorithm, problem, metric)]

    def mean(self, algorithm: str, problem: str, metric: str) -> float:
        return float(np.mean(self.raw(algorithm, problem, metric)))

    def stddev(self, algorithm: str, problem: str, metric: str) -> float:
        raw = self.raw(algorithm, problem, metric)
        if len(raw) < 2:
            return 0.0
        return float(np.std(raw, ddof=1))


# a grid is cut into about this many chunks per worker: enough to balance
# uneven runs, few enough that short runs are not dominated by dispatch
_CHUNKS_PER_WORKER = 32


def _chunksize(n_tasks: int, jobs: int) -> int:
    """Runs per process-pool task for a grid of ``n_tasks`` runs."""
    return max(1, n_tasks // (_CHUNKS_PER_WORKER * jobs))


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> ResultTable:
    """Execute every (algorithm, problem, run) cell of the spec.

    Run ``r`` of an algorithm/problem pair is seeded with
    ``derive_seed(base_seed, algorithm, problem, r)``, so per-run results
    do not depend on execution order or parallelism. Raw metric rows are
    appended (and flushed) to ``runs.csv`` in grid order as each run
    finishes. With ``jobs > 1`` the pool receives the runs in chunks of
    ``_chunksize(len(tasks), jobs)`` and returns them in order, so a crash
    loses at most the runs in flight (one chunk per worker) plus finished
    chunks waiting for an earlier one.
    """
    spec.validate()
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tasks = []
    for alg_name, config in spec.algorithms:
        for problem_name in spec.problems:
            for run in range(spec.runs):
                seed = derive_seed(spec.base_seed, alg_name, problem_name, run)
                tasks.append(
                    (alg_name, config, problem_name, spec.grating_profile,
                     spec.max_evals, seed, run)
                )

    table = ResultTable(
        algorithms=[name for name, _ in spec.algorithms],
        problems=list(spec.problems),
        runs=spec.runs,
    )

    raw_path = out_dir / "runs.csv"
    with open(raw_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_COLUMNS)

        def record(task, outcome):
            alg_name, _, problem_name, _, _, seed, run = task
            metric_values, trace = outcome
            for metric, value in metric_values.items():
                table.values.setdefault((alg_name, problem_name, metric), []).append(value)
                writer.writerow([alg_name, problem_name, run, seed, metric, _float_repr(value)])
            fh.flush()
            table.traces[(alg_name, problem_name, run)] = trace

        if jobs <= 1:
            for task in tasks:
                record(task, _execute_run(task))
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                outcomes = pool.map(_execute_run, tasks, chunksize=_chunksize(len(tasks), jobs))
                for task, outcome in zip(tasks, outcomes):
                    record(task, outcome)
    return table


def _float_repr(value: float) -> str:
    return repr(float(value))


def emit_reports(table: ResultTable, tests=DEFAULT_TESTS, alpha: float = 0.05,
                 output_dir: str | Path = "results") -> list[Path]:
    """Write the report files for a finished experiment.

    Produces ``summary.csv`` (mean and sample standard deviation per cell,
    algorithms as columns), one JSON significance matrix per (problem,
    metric, test) with the same algorithm order on both axes, and
    ``traces.csv`` with per-run convergence checkpoints. The raw rows are
    not rewritten: ``runs.csv`` is the run-major file that
    :func:`run_experiment` streamed. The tests are checked with
    :func:`validate_tests` before any file is written. Returns the written
    paths.
    """
    validate_tests(tests, len(table.algorithms), table.runs)
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem", "metric", "statistic", *table.algorithms])
        for problem in table.problems:
            for metric in table.metrics_for(problem):
                means = [_float_repr(table.mean(a, problem, metric)) for a in table.algorithms]
                stds = [_float_repr(table.stddev(a, problem, metric)) for a in table.algorithms]
                writer.writerow([problem, metric, "mean", *means])
                writer.writerow([problem, metric, "stddev", *stds])
    written.append(summary_path)

    if len(table.algorithms) >= 2:
        for problem in table.problems:
            for metric in table.metrics_for(problem):
                samples = [
                    SampleSet(np.array(table.raw(alg, problem, metric)), label=alg)
                    for alg in table.algorithms
                ]
                for test in tests:
                    matrix = pairwise_matrix(samples, test=test, alpha=alpha, metric=metric)
                    payload = {
                        "problem": problem,
                        "metric": metric,
                        "test": test,
                        "alpha": alpha,
                        "labels": matrix.labels,
                        "significant": matrix.cells.astype(int).tolist(),
                        "p_values": matrix.pvalues.tolist(),
                    }
                    path = out_dir / f"significance_{problem}_{metric}_{test}.json"
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(payload, fh, indent=2)
                        fh.write("\n")
                    written.append(path)

    traces_path = out_dir / "traces.csv"
    with open(traces_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "problem", "run", "eval_count", "best_fitness"])
        for (alg, problem, run), trace in sorted(table.traces.items()):
            for eval_count, best in trace:
                writer.writerow([alg, problem, run, eval_count, _float_repr(best)])
    written.append(traces_path)
    return written
