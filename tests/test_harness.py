"""Experiment runner: seeding, persistence, aggregation, and reports."""

import csv
import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from nichebench import harness
from nichebench.algorithms import AlgorithmConfig, _RunState
from nichebench.harness import (
    DEFAULT_TESTS,
    ConfigError,
    ExperimentSpec,
    ResultTable,
    RunError,
    _chunksize,
    _execute_run,
    derive_seed,
    emit_reports,
    resolve_problem,
    run_experiment,
    run_metrics,
)


def tiny_spec(tmp_path, problems=("deb1",), algorithms=("crowding_de", "sde"),
              runs=2, max_evals=120, **settings):
    return ExperimentSpec(
        algorithms=[(name, AlgorithmConfig(population_size=10)) for name in algorithms],
        problems=list(problems),
        runs=runs,
        max_evals=max_evals,
        base_seed=4242,
        output_dir=tmp_path / "out",
        **settings,
    )


def hand_table(labels, runs, tests):
    """An empty table for labels that need not name real algorithms."""
    spec = ExperimentSpec(algorithms=[(label, AlgorithmConfig()) for label in labels],
                          problems=["p"], runs=runs, tests=tests)
    return ResultTable(spec)


class TestSeeds:
    def test_deterministic(self):
        assert derive_seed(1, "a", "p", 0) == derive_seed(1, "a", "p", 0)

    def test_distinct_across_coordinates(self):
        seeds = {
            derive_seed(base, alg, prob, run)
            for base in (1, 2)
            for alg in ("a", "b")
            for prob in ("p", "q")
            for run in (0, 1, 2)
        }
        assert len(seeds) == 24


class TestResolveProblem:
    def test_benchmarks_and_grating(self):
        assert resolve_problem("himmelblau").name == "himmelblau"
        assert resolve_problem("grating").dimension == 8

    def test_unknown(self):
        with pytest.raises(ConfigError):
            resolve_problem("nope")


class TestValidation:
    def test_unknown_algorithm_fails_before_running(self, tmp_path):
        spec = ExperimentSpec(
            algorithms=[("foo", AlgorithmConfig())],
            problems=["deb1"],
            output_dir=tmp_path / "out",
        )
        with pytest.raises(ConfigError):
            run_experiment(spec)
        assert not (tmp_path / "out").exists()  # nothing ran, nothing written

    def test_budget_must_cover_initial_population(self, tmp_path):
        spec = tiny_spec(tmp_path, max_evals=5)
        with pytest.raises(ConfigError):
            spec.validate()

    def test_runs_positive(self, tmp_path):
        spec = tiny_spec(tmp_path, runs=0)
        with pytest.raises(ConfigError):
            spec.validate()

    def test_duplicate_algorithm_rejected(self, tmp_path):
        spec = tiny_spec(tmp_path, algorithms=("sde", "sde"))
        with pytest.raises(ConfigError):
            spec.validate()

    def test_duplicate_problem_rejected(self, tmp_path):
        # each cell would hold every run twice and the tests would see 2n values
        spec = tiny_spec(tmp_path, problems=("deb1", "deb1"))
        with pytest.raises(ConfigError, match="listed twice"):
            run_experiment(spec)
        assert not Path(spec.output_dir).exists()

    @pytest.mark.parametrize("settings, message", [
        ({"algorithms": [("sde", AlgorithmConfig(population_size=10.5))]},
         "population_size must be an integer"),
        ({"algorithms": [("sde", AlgorithmConfig(de_F="x"))]}, "de_F must be a number"),
        ({"algorithms": [("sde", AlgorithmConfig(crowding_factor=True))]},
         "crowding_factor must be an integer"),
        ({"runs": 1}, "the t test needs runs >= 2"),
        ({"runs": 2.5}, "'runs' must be an integer"),
        ({"runs": "two"}, "'runs' must be an integer"),
        ({"max_evals": 100.5}, "'max_evals' must be an integer"),
        ({"base_seed": "x"}, "'base_seed' must be an integer"),
        ({"problems": "deb1"}, "'problems' must be a list"),
        ({"alpha": 2.0}, "alpha must be in"),
        ({"algorithms": [("crowding_de", AlgorithmConfig(population_size=3))]},
         "crowding_de: population_size must be at least 4"),
        ({"algorithms": [("sharing_de", AlgorithmConfig(population_size=3))]},
         "sharing_de: population_size must be at least 4"),
        ({"algorithms": [("sde", AlgorithmConfig(population_size=3))]},
         "sde: population_size must be at least 4"),
        ({"tests": ["mwu", "mwu"]}, "a test is listed twice"),
        ({"algorithms": []}, "at least one algorithm"),
        ({"problems": []}, "at least one problem"),
        ({"algorithms": [("sde", {"population_size": 10})]}, "algorithm entry must be a"),
        ({"algorithms": "sde"}, "'algorithms' must be a list of"),
        ({"algorithms": {"sde": AlgorithmConfig()}}, "'algorithms' must be a list of"),
        ({"algorithms": [("sharing_ga", AlgorithmConfig(mutation_sigma=math.nan))]},
         "sharing_ga: mutation_sigma must be finite"),
        ({"algorithms": [("sde", AlgorithmConfig(de_F=math.nan))]}, "sde: de_F must be finite"),
        ({"algorithms": [("scga", AlgorithmConfig(species_distance=math.inf))]},
         "scga: species_distance must be finite"),
        ({"runs": True}, "'runs' must be an integer, got True"),
        ({"alpha": True}, "'alpha' must be a number, got True"),
        ({"algorithms": [("sde", AlgorithmConfig(de_F=True))]}, "de_F must be a number, got True"),
    ], ids=["population_size_fraction", "de_F_text", "crowding_factor_bool", "t_test_one_run",
            "runs_fraction", "runs_text", "max_evals_fraction", "base_seed_text",
            "problems_string", "alpha_above_1", "crowding_de_population_3",
            "sharing_de_population_3", "sde_population_3", "test_listed_twice",
            "no_algorithms", "no_problems", "entry_not_a_pair", "algorithms_string",
            "algorithms_dict", "mutation_sigma_nan", "de_F_nan",
            "species_distance_infinity", "runs_bool", "alpha_bool", "de_F_bool"])
    def test_malformed_setting_raises_before_any_run(self, tmp_path, settings, message):
        spec = dataclasses.replace(tiny_spec(tmp_path), **settings)
        with pytest.raises(ConfigError, match=message):
            run_experiment(spec)
        assert not (Path(spec.output_dir) / "runs.csv").exists()

    @pytest.mark.parametrize("jobs", ["two", 1.5, True])
    def test_non_integer_jobs_rejected_before_any_run(self, tmp_path, jobs):
        spec = tiny_spec(tmp_path)
        with pytest.raises(ConfigError, match="'jobs' must be an integer"):
            run_experiment(spec, jobs=jobs)
        assert not (Path(spec.output_dir) / "runs.csv").exists()

    def test_spec_defaults_validate(self, tmp_path):
        spec = tiny_spec(tmp_path)
        assert (spec.tests, spec.alpha) == (DEFAULT_TESTS, 0.05)
        spec.validate()
        # the built problems, keyed by name in the order of spec.problems
        built = dataclasses.replace(spec, problems=["grating", "deb1"]).validate()
        assert [(name, p.name, p.dimension) for name, p in built.items()] == [
            ("grating", "grating", 8), ("deb1", "deb1", 1)]
        dataclasses.replace(spec, runs=np.int64(3), tests=["ks"], alpha=0.01,
                            output_dir=str(tmp_path), grating_profile=None).validate()
        # NumPy scalars are numbers wherever a setting is checked
        numpy_config = AlgorithmConfig(population_size=np.int64(10), de_F=np.float64(0.7))
        dataclasses.replace(spec, algorithms=[("sde", numpy_config)], max_evals=np.int64(120),
                            alpha=np.float64(0.01)).validate()


class TestRunExperiment:
    def test_cell_counts_and_determinism(self, tmp_path):
        spec = tiny_spec(tmp_path)
        table = run_experiment(spec)
        for alg in table.algorithms:
            for problem in table.spec.problems:
                for metric in table.metrics_for(problem):
                    assert len(table.raw(alg, problem, metric)) == spec.runs
        runs_csv = Path(spec.output_dir) / "runs.csv"
        first = runs_csv.read_bytes()
        table2 = run_experiment(tiny_spec(tmp_path))
        assert table.values == table2.values
        assert runs_csv.read_bytes() == first  # same derived seeds, same rows

    def test_runs_csv_schema_and_flush(self, tmp_path):
        spec = tiny_spec(tmp_path)
        table = run_experiment(spec)
        with open(Path(spec.output_dir) / "runs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"algorithm", "problem", "run", "seed", "metric", "value"}
        # every persisted value reloads bit-exactly
        for row in rows:
            stored = float(row["value"])
            assert stored in table.raw(row["algorithm"], row["problem"], row["metric"])
            assert int(row["seed"]) == derive_seed(spec.base_seed, row["algorithm"],
                                                   row["problem"], int(row["run"]))

    def test_run_isolation_matches_harness(self, tmp_path):
        # executing a single run in isolation reproduces the table cell
        spec = tiny_spec(tmp_path)
        table = run_experiment(spec)
        alg, config = spec.algorithms[1]
        seed = derive_seed(spec.base_seed, alg, "deb1", 1)
        metrics, _ = _execute_run((alg, config, resolve_problem("deb1"), spec.max_evals, seed, 1))
        for metric, value in metrics.items():
            assert table.raw(alg, "deb1", metric)[1] == value

    def test_parallel_jobs_match_sequential(self, tmp_path):
        spec = tiny_spec(tmp_path)
        sequential = run_experiment(spec)
        parallel = run_experiment(tiny_spec(tmp_path), jobs=2)
        assert sequential.values == parallel.values

    def test_pool_never_gets_more_workers_than_runs(self, tmp_path, monkeypatch):
        # a thread pool stands in for the process pool, so no process starts
        import concurrent.futures

        asked = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers, **worker_setup):
                # worker_setup sets SIGINT in a worker process; threads keep the process's
                asked.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        sequential = run_experiment(tiny_spec(tmp_path / "serial", algorithms=("sde",)))
        capped = run_experiment(tiny_spec(tmp_path / "capped", algorithms=("sde",)), jobs=10**6)
        assert asked == [2]
        assert capped.values == sequential.values
        run_experiment(tiny_spec(tmp_path / "one", algorithms=("sde",), runs=1), jobs=10**6)
        assert asked == [2]  # a one-run grid runs serially

    def test_chunked_parallel_dispatch_matches_sequential_bytes(self, tmp_path, start_method):
        # 2 algorithms x 64 runs = 128 tasks: two runs per chunk at jobs=2
        assert _chunksize(128, 2) == 2
        outputs = {}
        for jobs in (1, 2):
            spec = tiny_spec(tmp_path / f"jobs{jobs}", runs=64, max_evals=30)
            table = run_experiment(spec, jobs=jobs)
            out = Path(spec.output_dir)
            written = emit_reports(table, output_dir=out)
            outputs[jobs] = {p.name: p.read_bytes() for p in [out / "runs.csv", *written]}
        assert outputs[1] == outputs[2]

    @pytest.mark.parametrize("pool_jobs", [(1, None), (2, "fork")], ids=["1", "2"], indirect=True)
    def test_each_problem_is_built_once_per_grid(self, tmp_path, monkeypatch, pool_jobs):
        # a file, not a list: a forked worker that built a problem would
        # inherit the wrapper and append its line here too
        calls = tmp_path / "calls"
        resolve = harness.resolve_problem

        def counting(name, grating_profile=None):
            with open(calls, "a", encoding="utf-8") as fh:
                fh.write(f"{name}\n")
            return resolve(name, grating_profile)

        monkeypatch.setattr(harness, "resolve_problem", counting)
        run_experiment(tiny_spec(tmp_path, problems=("deb1", "grating"), max_evals=60),
                       jobs=pool_jobs)
        assert calls.read_text(encoding="utf-8").split() == ["deb1", "grating"]

    def test_chunk_rule_keeps_small_grids_at_one_run_per_task(self):
        for n_tasks in (14, 50, 100):
            assert _chunksize(n_tasks, 2) == 1
        assert _chunksize(840, 2) == 13

    def test_grating_metrics_selection(self, tmp_path):
        spec = tiny_spec(tmp_path, problems=("grating",), algorithms=("sde",),
                         runs=1, max_evals=60)
        table = run_experiment(spec)
        assert set(table.metrics_for("grating")) == {"best_fitness", "distinct_peaks"}

    def test_benchmark_metrics_selection(self, tmp_path):
        spec = tiny_spec(tmp_path, runs=1, tests=("mwu", "ks"))
        table = run_experiment(spec)
        assert set(table.metrics_for("deb1")) == {"best_fitness", "peak_ratio", "avg_min_distance"}


class TestRunFailure:
    def test_failed_run_is_named_and_earlier_rows_kept(self, tmp_path, nan_problem, pool_jobs):
        spec = tiny_spec(tmp_path / "grid", problems=("deb1", "nan"), algorithms=("crowding_de",))
        with pytest.raises(RunError) as info:
            run_experiment(spec, jobs=pool_jobs)
        seed = derive_seed(spec.base_seed, "crowding_de", "nan", 0)
        assert str(info.value).startswith(
            f"crowding_de on nan, run 0, seed {seed}: "
            "ValueError: objective returned non-finite value nan at array(")
        # the worker's exception, or its traceback from a pool process
        assert "objective returned non-finite value nan" in str(info.value.__cause__)
        # the rows of both deb1 runs, exactly as a grid without the failing cell writes them
        clean = tiny_spec(tmp_path / "clean", problems=("deb1",), algorithms=("crowding_de",))
        run_experiment(clean)
        runs_csv = (Path(spec.output_dir) / "runs.csv").read_bytes()
        assert runs_csv == (Path(clean.output_dir) / "runs.csv").read_bytes()
        assert runs_csv.count(b"\n") == 1 + 2 * 3

    def test_run_past_its_budget_fails_in_the_evaluator_naming_the_run(self, monkeypatch):
        # the Evaluator is the one budget guard: a run asking for an evaluation
        # past its budget gets its RuntimeError before the objective is called
        deb1, calls = resolve_problem("deb1"), []

        def counted(genome):
            calls.append(genome)
            return deb1.objective(genome)

        def overspending(problem, config, budget, rng):
            st = _RunState("sde", problem, config, budget, rng)
            genomes, _ = st.init_population()
            for row in itertools.cycle(genomes):
                st.evaluate(row)

        monkeypatch.setitem(harness.ALGORITHMS, "overspending", overspending)
        task = ("overspending", AlgorithmConfig(population_size=10),
                dataclasses.replace(deb1, objective=counted), 60, 17, 4)
        with pytest.raises(RunError, match=r"^overspending on deb1, run 4, seed 17: RuntimeError: "
                                           r"evaluation budget of 60 is used up$"):
            _execute_run(task)
        assert len(calls) == 60


class TestEmitReports:
    def test_files_written_and_roundtrip(self, tmp_path):
        spec = tiny_spec(tmp_path)
        table = run_experiment(spec)
        runs_csv = Path(spec.output_dir) / "runs.csv"
        streamed = runs_csv.read_bytes()
        written = emit_reports(table, output_dir=spec.output_dir)
        names = {p.name for p in written}
        assert "summary.csv" in names and "traces.csv" in names
        assert any(n.startswith("significance_") for n in names)
        # the run-major file streamed by run_experiment is the only runs.csv
        assert "runs.csv" not in names
        assert runs_csv.read_bytes() == streamed

        with open(Path(spec.output_dir) / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            for alg in table.algorithms:
                stored = float(row[alg])
                if row["statistic"] == "mean":
                    assert stored == table.mean(alg, row["problem"], row["metric"])
                else:
                    assert stored == table.stddev(alg, row["problem"], row["metric"])

    def test_t_test_on_single_runs_rejected_before_any_file(self, tmp_path):
        spec = ExperimentSpec(
            algorithms=[(name, AlgorithmConfig(population_size=6)) for name in ("crowding_de", "sde")],
            problems=["deb1"],
            runs=1,
            max_evals=60,
            output_dir=tmp_path / "out",
        )
        out = Path(spec.output_dir)
        with pytest.raises(ConfigError):
            run_experiment(spec)
        assert not (out / "runs.csv").exists()
        assert not (out / "summary.csv").exists()
        assert not list(out.glob("significance_*.json"))
        # without the t test, one run per cell is reportable
        spec.tests = ("mwu",)
        written = emit_reports(run_experiment(spec), output_dir=out)
        assert (out / "significance_deb1_best_fitness_mwu.json") in written

    def test_unknown_test_rejected(self, tmp_path):
        spec = tiny_spec(tmp_path, tests=("nope",))
        with pytest.raises(ConfigError):
            run_experiment(spec)
        assert not list(tmp_path.iterdir())

    def test_significance_matrix_layout(self, tmp_path):
        spec = tiny_spec(tmp_path, tests=("mwu",))
        table = run_experiment(spec)
        emit_reports(table, output_dir=spec.output_dir)
        path = Path(spec.output_dir) / "significance_deb1_best_fitness_mwu.json"
        payload = json.loads(path.read_text())
        k = len(table.algorithms)
        assert payload["labels"] == table.algorithms
        assert len(payload["significant"]) == k
        assert all(len(row) == k for row in payload["significant"])
        assert all(payload["significant"][i][i] == 0 for i in range(k))
        grid = np.array(payload["significant"])
        assert np.array_equal(grid, grid.T)

    def test_identical_values_make_all_false_matrix(self, tmp_path):
        table = hand_table(["a", "b"], runs=4, tests=("mwu", "ks", "t"))
        same = [1.0, 2.0, 3.0, 4.0]
        table.values[("a", "p", "score")] = list(same)
        table.values[("b", "p", "score")] = list(same)
        emit_reports(table, output_dir=tmp_path)
        for test in ("mwu", "ks", "t"):
            payload = json.loads((tmp_path / f"significance_p_score_{test}.json").read_text())
            assert not np.array(payload["significant"]).any()

    def test_ten_algorithm_grid(self, tmp_path):
        rng = np.random.default_rng(3)
        labels = [f"alg{i:02d}" for i in range(10)]
        table = hand_table(labels, runs=6, tests=("ks",))
        for label in labels:
            table.values[(label, "p", "score")] = list(rng.normal(size=6))
        emit_reports(table, output_dir=tmp_path)
        payload = json.loads((tmp_path / "significance_p_score_ks.json").read_text())
        assert payload["labels"] == labels
        assert np.array(payload["significant"]).shape == (10, 10)
        assert np.array(payload["p_values"]).shape == (10, 10)

    def test_reports_are_replaced_whole(self, tmp_path, monkeypatch):
        spec = tiny_spec(tmp_path, tests=("mwu", "ks"))
        table = run_experiment(spec)
        out = Path(spec.output_dir)
        emit_reports(table, output_dir=out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert not [name for name in before if name.endswith(".tmp")]

        def torn_dump(obj, fh, **kwargs):
            fh.write('{"problem": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", torn_dump)
        with pytest.raises(OSError, match="disk full"):
            emit_reports(table, output_dir=out)
        # every file, the significance file being written included, as it was
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_traces_monotone(self, tmp_path):
        spec = tiny_spec(tmp_path)
        table = run_experiment(spec)
        emit_reports(table, output_dir=spec.output_dir)
        with open(Path(spec.output_dir) / "traces.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_run = {}
        for row in rows:
            key = (row["algorithm"], row["problem"], row["run"])
            by_run.setdefault(key, []).append(int(row["eval_count"]))
        assert by_run
        for counts in by_run.values():
            assert counts == sorted(counts)
            assert counts[-1] <= 120


class TestRunMetrics:
    def test_known_peak_problem_metrics(self):
        from nichebench.algorithms import RunResult

        # a single member sitting exactly on the 0.5 peak of deb1
        result = RunResult(np.array([[0.5]]), np.array([1.0]), evals_used=10, trace=[])
        problem = resolve_problem("deb1")
        values = run_metrics(problem, result)
        assert values["peak_ratio"] == 0.2
        assert values["best_fitness"] == 1.0
        assert values["avg_min_distance"] == pytest.approx(0.24)  # mean of 0.4+0.2+0+0.2+0.4
