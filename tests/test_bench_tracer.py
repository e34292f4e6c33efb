"""The per-layer bench tracer against the library it patches from outside.

``bench/tracer.py`` wraps library module attributes by name. If one of
those names went away, or the library stopped calling through it, the
traced pass would report zeros instead of failing. These tests attach a
tracer to a small grid and check its counters against counts taken
independently, and that detaching puts every original back.
"""

import importlib.util
from pathlib import Path

import pytest

from nichebench import algorithms, harness, stats
from nichebench.algorithms import AlgorithmConfig
from nichebench.harness import ExperimentSpec, emit_reports, run_experiment

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
NAMES = ["crowding_ga", "crowding_de", "scga"]  # crowding_de: the only caller of de_trial_vector here
RUNS, BUDGET = 2, 200


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched_attributes(tracer_module):
    """(module, name) of every library attribute ``attach`` replaces."""
    return ([(harness, name) for name in
             ("get_algorithm", "resolve_problem", "run_metrics", "pairwise_matrix")]
            + [(algorithms, op) for op in tracer_module.VARIATION + tracer_module.SELECTION])


def test_traced_grid_counts_match_the_library_and_detach_restores_it(
        tracer_module, tmp_path, monkeypatch):
    accepted = []
    replacement = algorithms.crowding_replacement

    def counting_replacement(*args, **kwargs):
        outcome = replacement(*args, **kwargs)
        accepted.append(outcome)
        return outcome

    monkeypatch.setattr(algorithms, "crowding_replacement", counting_replacement)
    originals = [getattr(module, name) for module, name in patched_attributes(tracer_module)]
    original_tests = dict(stats.TESTS)

    tracer = tracer_module.Tracer()
    detach = tracer_module.attach(tracer)
    try:
        spec = ExperimentSpec(
            algorithms=[(name, AlgorithmConfig(population_size=10)) for name in NAMES],
            problems=["himmelblau"], runs=RUNS, max_evals=BUDGET, base_seed=3,
            output_dir=tmp_path,
        )
        emit_reports(run_experiment(spec, jobs=1), tmp_path)
    finally:
        detach()

    metrics = tracer_module.layer_metrics(tracer, NAMES)
    assert accepted and any(accepted) and not all(accepted)
    assert metrics["algorithms.crowding_replacement.accept_ratio"] == sum(accepted) / len(accepted)
    assert metrics["objective.calls"] == len(NAMES) * RUNS * BUDGET
    assert metrics["algorithms.species_per_generation"] > 0
    totals = tracer.totals()
    for op in tracer_module.VARIATION + tracer_module.SELECTION:
        assert totals.get(op, {"calls": 0})["calls"] > 0, op
    assert totals["run_metrics"]["calls"] == len(NAMES) * RUNS
    # best_fitness, peak_ratio and avg_min_distance, each under three tests
    assert totals["pairwise_matrix"]["calls"] == 3 * len(spec.tests)
    for test in tracer_module.STATS_TESTS.values():
        assert totals[test]["calls"] > 0, test

    for (module, name), original in zip(patched_attributes(tracer_module), originals):
        assert getattr(module, name) is original, name
    assert stats.TESTS == original_tests
    assert all(stats.TESTS[key] is fn for key, fn in original_tests.items())
