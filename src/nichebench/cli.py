"""Command-line experiment runner.

Experiments can be described in a JSON config file, with flags overriding
file values. The file holds one JSON object whose keys are the
:class:`~nichebench.harness.ExperimentSpec` fields and ``jobs``; any other
key is a configuration error. Values reach the library as they are, and
:meth:`ExperimentSpec.validate` checks every one, type and range, before
any run. Exit status: 0 on success, 2 on configuration errors, 3 when a
run raises or a pool worker dies (one line on stderr naming the
algorithm, problem, run index and seed of that run, or of the first run
not recorded; the rows of earlier runs stay in ``runs.csv`` and no report
is written), 1 on I/O failures, 130 when interrupted (Ctrl-C: one line on
stderr, the rows of the runs finished stay in ``runs.csv``, no report is
written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .algorithms import ALGORITHMS, AlgorithmConfig
from .harness import (
    DEFAULT_TESTS,
    PROBLEM_NAMES,
    ConfigError,
    ExperimentSpec,
    RunError,
    emit_reports,
    run_experiment,
)

# settings a flag or the config file may give: the spec's fields and jobs
_SETTINGS = {f.name for f in dataclasses.fields(ExperimentSpec)} | {"jobs"}


def _algorithm_config(entry, pop_size: int | None) -> tuple[str, AlgorithmConfig]:
    """Build (name, config) from a config-file entry or a bare name."""
    if isinstance(entry, str):
        entry = {"name": entry}
    if not isinstance(entry, dict):
        raise ConfigError(f"algorithm entry must be a name or an object, got {entry!r}")
    if "name" not in entry:
        raise ConfigError("algorithm entry without a 'name' field")
    entry = dict(entry)
    name = entry.pop("name")
    unknown = set(entry) - {f.name for f in dataclasses.fields(AlgorithmConfig)}
    if unknown:
        raise ConfigError(f"unknown config fields for {name}: {sorted(unknown)}")
    config = AlgorithmConfig(**entry)
    if pop_size is not None:
        config.population_size = pop_size
    return name, config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nichebench",
        description="Run niching algorithms on multimodal benchmarks under "
                    "a fitness-evaluation budget and report metrics and "
                    "pairwise significance matrices.",
    )
    parser.add_argument("--config", help="JSON experiment config; flags override its values")
    parser.add_argument("--algorithm", action="append", dest="algorithms", metavar="NAME",
                        help=f"algorithm to run (repeatable); one of: {', '.join(sorted(ALGORITHMS))}")
    parser.add_argument("--problem", action="append", dest="problems", metavar="NAME",
                        help=f"problem to run on (repeatable); one of: {', '.join(PROBLEM_NAMES)}")
    parser.add_argument("--runs", type=int, help="independent seeded runs per cell (default 50)")
    parser.add_argument("--evals", type=int, dest="max_evals",
                        help="fitness evaluation budget per run (default 10000)")
    parser.add_argument("--pop-size", type=int, help="population size for every algorithm (default 50)")
    parser.add_argument("--seed", type=int, dest="base_seed",
                        help="base seed for deriving per-run seeds")
    parser.add_argument("--out", dest="output_dir", help="output directory (default: results)")
    parser.add_argument("--grating-profile", help="JSON grating parameter profile")
    parser.add_argument("--tests", type=lambda text: text.split(","),
                        help=f"comma-separated significance tests (default {','.join(DEFAULT_TESTS)})")
    parser.add_argument("--alpha", type=float, help="significance level (default 0.05)")
    parser.add_argument("--jobs", type=int, help="parallel worker processes (default 1)")
    return parser


def build_spec(args) -> tuple[ExperimentSpec, int]:
    """The spec and the worker count: flags over file values over defaults."""
    file_cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except ValueError as exc:  # JSON syntax, UTF-8 decoding or an oversized integer
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
    unknown = sorted(set(file_cfg) - _SETTINGS)
    if unknown:
        raise ConfigError(f"unknown keys in config file {args.config}: {unknown}")
    settings = dict(file_cfg)
    settings.update((key, value) for key, value in vars(args).items()
                    if key in _SETTINGS and value is not None)
    jobs = settings.pop("jobs", 1)
    algorithms = settings.pop("algorithms", sorted(ALGORITHMS))
    if not isinstance(algorithms, list):
        raise ConfigError(f"'algorithms' must be a list of names or objects, got {algorithms!r}")
    settings.setdefault("problems", PROBLEM_NAMES)
    spec = ExperimentSpec([_algorithm_config(a, args.pop_size) for a in algorithms], **settings)
    return spec, jobs


def _print_summary(table) -> None:
    width = max(len(a) for a in table.algorithms) + 2
    for problem in table.spec.problems:
        print(f"\n== {problem} ==")
        for metric in table.metrics_for(problem):
            print(f"  {metric}:")
            for alg in table.algorithms:
                mean = table.mean(alg, problem, metric)
                std = table.stddev(alg, problem, metric)
                print(f"    {alg:<{width}} {mean:.6g} +- {std:.6g}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec, jobs = build_spec(args)
        table = run_experiment(spec, jobs=jobs)
        written = emit_reports(table, output_dir=spec.output_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except RunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted: the rows of the runs finished are in runs.csv", file=sys.stderr)
        return 130
    _print_summary(table)
    print(f"\nwrote {len(written)} report files to {spec.output_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
