"""Command-line experiment runner.

Experiments can be described in a JSON config file, with flags overriding
file values. Exit status: 0 on success, 2 on configuration errors, 1 on
I/O failures.
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
    emit_reports,
    run_experiment,
    validate_tests,
)

_NUMBER = (int, float)
_TYPE_NAMES = {int: "an integer", _NUMBER: "a number", list: "a list",
               str: "a string", (str, type(None)): "a string or null"}
# JSON type of each top-level config-file field; other keys are ignored
_FILE_TYPES = {
    "algorithms": list, "problems": list, "tests": list, "runs": int, "max_evals": int,
    "base_seed": int, "jobs": int, "alpha": _NUMBER, "output_dir": str,
    "grating_profile": (str, type(None)),
}
# AlgorithmConfig field name -> its annotation ("int", "float | None", ...)
_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(AlgorithmConfig)}


def _check_type(what: str, value, kind) -> None:
    """Reject a JSON value that is not of ``kind``; true/false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{what} must be {_TYPE_NAMES[kind]}, got {value!r}")


def _algorithm_config(entry, pop_size: int | None) -> tuple[str, AlgorithmConfig]:
    """Build (name, config) from a config-file entry or a bare name."""
    if isinstance(entry, str):
        entry = {"name": entry}
    if not isinstance(entry, dict):
        raise ConfigError(f"algorithm entry must be a name or an object, got {entry!r}")
    entry = dict(entry)
    try:
        name = entry.pop("name")
    except KeyError:
        raise ConfigError("algorithm entry without a 'name' field") from None
    unknown = set(entry) - set(_CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config fields for {name}: {sorted(unknown)}")
    for key, value in entry.items():
        annotation = _CONFIG_FIELDS[key]
        if value is not None or "None" not in annotation:
            kind = int if annotation.startswith("int") else _NUMBER
            _check_type(f"bad config for {name}: {key}", value, kind)
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
    parser.add_argument("--evals", type=int, help="fitness evaluation budget per run (default 10000)")
    parser.add_argument("--pop-size", type=int, help="population size for every algorithm (default 50)")
    parser.add_argument("--seed", type=int, help="base seed for deriving per-run seeds")
    parser.add_argument("--out", help="output directory (default: results)")
    parser.add_argument("--grating-profile", help="JSON grating parameter profile")
    parser.add_argument("--tests", help=f"comma-separated significance tests (default {','.join(DEFAULT_TESTS)})")
    parser.add_argument("--alpha", type=float, help="significance level (default 0.05)")
    parser.add_argument("--jobs", type=int, help="parallel worker processes (default 1)")
    return parser


def _load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    for key, kind in _FILE_TYPES.items():
        if key in config:
            _check_type(f"config field {key!r}", config[key], kind)
    return config


def build_spec(args) -> tuple[ExperimentSpec, list[str], float, int]:
    file_cfg = _load_config_file(args.config) if args.config else {}

    algorithms = args.algorithms or file_cfg.get("algorithms") or sorted(ALGORITHMS)
    problems = args.problems or file_cfg.get("problems") or PROBLEM_NAMES
    pop_size = args.pop_size
    spec = ExperimentSpec(
        algorithms=[_algorithm_config(a, pop_size) for a in algorithms],
        problems=list(problems),
        runs=args.runs if args.runs is not None else int(file_cfg.get("runs", 50)),
        max_evals=args.evals if args.evals is not None else int(file_cfg.get("max_evals", 10000)),
        base_seed=args.seed if args.seed is not None else int(file_cfg.get("base_seed", 12345)),
        output_dir=args.out or file_cfg.get("output_dir", "results"),
        grating_profile=args.grating_profile or file_cfg.get("grating_profile"),
    )
    tests = (args.tests.split(",") if args.tests
             else list(file_cfg.get("tests", DEFAULT_TESTS)))
    validate_tests(tests, len(spec.algorithms), spec.runs)  # before any run starts
    alpha = args.alpha if args.alpha is not None else float(file_cfg.get("alpha", 0.05))
    jobs = args.jobs if args.jobs else int(file_cfg.get("jobs", 1))
    return spec, tests, alpha, jobs


def _print_summary(table) -> None:
    width = max(len(a) for a in table.algorithms) + 2
    for problem in table.problems:
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
        spec, tests, alpha, jobs = build_spec(args)
        table = run_experiment(spec, jobs=jobs)
        written = emit_reports(table, tests=tests, alpha=alpha, output_dir=spec.output_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    _print_summary(table)
    print(f"\nwrote {len(written)} report files to {spec.output_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
