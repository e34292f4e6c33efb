"""End-to-end and per-layer benchmark of the nichebench experiment grid.

Usage (from the repository root)::

    python3 bench/run.py --workload bench2d_serial --seed 12345 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, both passes
    python3 bench/compare.py OLD.jsonl NEW.jsonl # side-by-side medians

Each workload is a grid of ``ExperimentSpec`` runs driven through the real
pipeline from this process: ``spec.validate()`` -> ``run_experiment(spec,
jobs)`` -> ``emit_reports``, writing into a temporary directory under
``.bench_out/`` in the repository root (never under ``results/``). Grids
are repeated for ``--seconds`` seconds and each end-to-end figure is the
median over the repetitions. Set-up time is measured in fresh
interpreters (``setup_probe.py``) started between the repetitions.

With ``--trace 1`` one more grid runs at ``jobs=1`` with the library's
layer entry points wrapped from outside (``tracer.py``), which gives the
per-layer split. Its output digests must equal the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference_digests.json"
DEFAULT_SEED = 12345
POP_SIZE = 50
SETUP_REPS = 7
# nproc, capped so the parallel workloads are the same grid on larger machines
JOBS = max(1, min(2, len(os.sched_getaffinity(0))))
BENCH2D = ("deb1", "himmelblau", "six_hump_camel", "branin", "rosenbrock")


@dataclass(frozen=True)
class Workload:
    problems: tuple[str, ...]
    runs: int
    max_evals: int
    jobs: int


# Every workload keeps at least 2 runs per cell: with runs=1 the grid passes
# validate() but emit_reports raises in welch_t after the whole grid has run.
WORKLOADS = {
    # per-individual Python overhead in core/algorithms is almost all of the
    # time; the objective is ~1% and stats/reports well under 1%
    "bench2d_serial": Workload(BENCH2D, runs=2, max_evals=1000, jobs=1),
    # 8-D grating objective (6-18% of a run) and the O(n^2) species seed scan,
    # long tasks on a process pool
    "grating_parallel": Workload(("grating",), runs=2, max_evals=4000, jobs=JOBS),
    # one to two generations per run: pool dispatch, run_metrics, runs.csv
    # writes and emit_reports (exact MWU, n*m = 400) dominate
    "short_runs_reports": Workload(BENCH2D + ("grating",), runs=20, max_evals=100, jobs=JOBS),
}

END_TO_END_UNITS = {
    "evals_per_s": "1/s",
    "setup_s": "s",
    "core_util": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".report_files", ".species_per_generation")):
        return "count"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith((".ms_per_call", ".run_ms")):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("share", "ratio")):
        return "ratio"
    return "s"


@dataclass
class Rep:
    """One grid: timings, CPU use, outputs and the runs that failed."""

    wall: float = 0.0
    run_s: float = 0.0
    emit_s: float = 0.0
    cpu: float = 0.0
    worker_cpu: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    report_files: int = 0
    report_bytes: int = 0
    failed: set = field(default_factory=set)


def cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def make_spec(w: Workload, seed: int, out_dir: Path):
    from nichebench.algorithms import ALGORITHMS, AlgorithmConfig
    from nichebench.harness import ExperimentSpec
    return ExperimentSpec(
        algorithms=[(name, AlgorithmConfig(population_size=POP_SIZE)) for name in sorted(ALGORITHMS)],
        problems=list(w.problems), runs=w.runs, max_evals=w.max_evals,
        base_seed=seed, output_dir=out_dir,
    )


def all_runs(spec) -> set:
    return {(a, p, str(r)) for a, _ in spec.algorithms for p in spec.problems
            for r in range(spec.runs)}


def digest_outputs(out_dir: Path) -> dict[str, str]:
    """sha256 of every report file; runs.csv with its rows sorted, so the
    row order of the file is free to change."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "runs.csv":
            header, *rows = data.decode().splitlines(keepends=True)
            data = (header + "".join(sorted(rows))).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def structural_failures(out_dir: Path, spec) -> set:
    """Runs with no rows in runs.csv, or whose last trace checkpoint is not
    the full budget."""
    with open(out_dir / "runs.csv", newline="", encoding="utf-8") as fh:
        have = {tuple(row[:3]) for row in list(csv.reader(fh))[1:]}
    last = {}
    with open(out_dir / "traces.csv", newline="", encoding="utf-8") as fh:
        for alg, problem, run, eval_count, _ in list(csv.reader(fh))[1:]:
            last[(alg, problem, run)] = int(eval_count)
    return {key for key in all_runs(spec) if key not in have or last.get(key) != spec.max_evals}


def run_grid(spec, jobs: int) -> Rep:
    """run_experiment + emit_reports once, timed, then checked."""
    from nichebench.harness import emit_reports, run_experiment
    rep = Rep()
    out_dir = Path(spec.output_dir)
    self0, child0 = cpu_seconds(resource.RUSAGE_SELF), cpu_seconds(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        table = run_experiment(spec, jobs=jobs)  # validates the spec first
        t1 = time.perf_counter()
        self1, child1 = cpu_seconds(resource.RUSAGE_SELF), cpu_seconds(resource.RUSAGE_CHILDREN)
        written = emit_reports(table, output_dir=out_dir)
        t2 = time.perf_counter()
    except Exception:
        rep.wall = time.perf_counter() - t0
        traceback.print_exc()
        rep.failed = all_runs(spec)
        return rep
    self2, child2 = cpu_seconds(resource.RUSAGE_SELF), cpu_seconds(resource.RUSAGE_CHILDREN)
    rep.wall, rep.run_s, rep.emit_s = t2 - t0, t1 - t0, t2 - t1
    rep.cpu = (self2 - self0) + (child2 - child0)
    rep.worker_cpu = (child1 - child0) if jobs > 1 else (self1 - self0)
    rep.report_files = len(written)
    rep.report_bytes = sum(p.stat().st_size for p in written)
    rep.failed = structural_failures(out_dir, spec)
    rep.digests = digest_outputs(out_dir)
    return rep


SETUP_STEPS = ("import_s", "resolve_problem_s", "validate_s")


def probe_setup(w: Workload) -> dict[str, float]:
    """import/resolve/validate times of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
         json.dumps(list(w.problems)), str(w.runs), str(w.max_evals)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(probe["module"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"setup probe imported nichebench from {probe['module']}")
    return {key: probe[key] for key in SETUP_STEPS}


def end_to_end(samples: dict[str, list[float]]) -> dict[str, float]:
    return {metric: statistics.median(samples[metric]) for metric in END_TO_END_UNITS}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Measurement:
    """Everything one workload measured; the numbers behind both passes."""

    def __init__(self, name: str):
        self.name = name
        self.samples: dict[str, list[float]] = {}
        self.layers: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def count(self, spec, rep: Rep) -> None:
        self.attempted += len(all_runs(spec))
        self.failed += len(rep.failed)

    def fail_all(self, spec, rep: Rep, why: str) -> None:
        print(f"{self.name}: {why}", file=sys.stderr)
        self.correct = False
        rep.failed = all_runs(spec)


def reference_digests(name: str):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(name)


def measure(name: str, w: Workload, seed: int, seconds: float, trace: bool, work: Path,
            check_reference: bool, setup_reps: int, spans_path: Path | None = None) -> Measurement:
    from nichebench.algorithms import ALGORITHMS
    m = Measurement(name)
    reps: list[Rep] = []
    n_rep = 0

    def spec_for(workload: Workload):
        nonlocal n_rep
        n_rep += 1
        return make_spec(workload, seed, work / f"{name}-{n_rep}")

    def finish(spec, rep: Rep) -> None:
        shutil.rmtree(spec.output_dir, ignore_errors=True)
        m.count(spec, rep)

    # warm-up grid: imports, the pool's first fork and the grating profile
    warm = spec_for(replace(w, runs=2, max_evals=2 * POP_SIZE))
    run_grid(warm, w.jobs)
    shutil.rmtree(warm.output_dir, ignore_errors=True)

    expected = reference_digests(name) if check_reference else None
    if check_reference and expected is None:
        print(f"{name}: no reference digests in {REFERENCE.name}", file=sys.stderr)
        m.correct = False
    # set-up probes run between the grids, so their median spans the window
    setup: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while True:
        spec = spec_for(w)
        rep = run_grid(spec, w.jobs)
        if expected is not None and rep.digests != expected:
            bad = sorted(k for k in set(rep.digests) | set(expected)
                         if rep.digests.get(k) != expected.get(k))
            m.fail_all(spec, rep, f"outputs differ from the reference digests: {bad[:5]}")
        if reps and rep.digests != reps[0].digests:
            m.fail_all(spec, rep, "outputs differ between repetitions of one grid")
        reps.append(rep)
        finish(spec, rep)
        if len(setup) < setup_reps:
            setup.append(probe_setup(w))
        if time.perf_counter() + rep.wall > deadline:
            break

    evals = len(all_runs(spec)) * w.max_evals
    m.samples["evals_per_s"] = [evals / r.wall for r in reps]
    m.samples["core_util"] = [r.cpu / (w.jobs * r.wall) for r in reps]
    # the set-up probes are children too, but import a subset of what the parent holds
    m.samples["peak_rss_mb"] = [max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024]

    if trace:
        import tracer as tracing
        if w.jobs == 1:
            baseline = statistics.median(r.wall for r in reps)
        else:
            spec = spec_for(w)
            serial = run_grid(spec, 1)
            if serial.digests != reps[0].digests:
                m.fail_all(spec, serial, "outputs at jobs=1 differ from the parallel grid")
            finish(spec, serial)
            baseline = serial.wall
        spans = tracing.Tracer()
        detach = tracing.attach(spans)
        try:
            spec = spec_for(w)
            traced = run_grid(spec, 1)
        finally:
            detach()
        if traced.digests != reps[0].digests:
            m.fail_all(spec, traced, "traced outputs differ from the untraced ones")
        m.layers = tracing.layer_metrics(spans, sorted(ALGORITHMS))
        if m.layers["objective.calls"] != evals:
            m.fail_all(spec, traced, f"objective.calls {m.layers['objective.calls']:.0f} != {evals}")
        finish(spec, traced)
        m.layers["trace.overhead_share"] = traced.wall / baseline - 1.0
        m.layers["harness.run_experiment_s"] = statistics.median(r.run_s for r in reps)
        m.layers["harness.emit_reports_s"] = statistics.median(r.emit_s for r in reps)
        m.layers["harness.report_files"] = float(reps[0].report_files)
        m.layers["harness.report_bytes"] = float(reps[0].report_bytes)
        m.layers["harness.pool_idle_share"] = statistics.median(
            1.0 - r.worker_cpu / (w.jobs * r.run_s) if r.run_s else 1.0 for r in reps)
        if spans_path is not None:
            spans.save(spans_path)

    setup += [probe_setup(w) for _ in range(setup_reps - len(setup))]
    m.samples["setup_s"] = [sum(probe.values()) for probe in setup]
    if trace:
        for key in SETUP_STEPS:
            m.layers[f"setup.{key}"] = statistics.median(probe[key] for probe in setup)
    m.samples["failed_run_frac"] = [m.failed / m.attempted]
    m.correct = m.correct and m.failed == 0
    return m


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def cache(index):
        try:
            return Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size").read_text().strip()
        except OSError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2": cache(2),
        "l3": cache(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git (None when
    the tree is not a git repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fmt(value: float) -> str:
    return f"{value:.6g}"


def print_row(name: str, samples: dict[str, list[float]]) -> None:
    cells = []
    for metric, unit in {**END_TO_END_UNITS, "failed_run_frac": "ratio"}.items():
        q1, med, q3 = quartiles(samples[metric])
        cells.append(f"{metric}={fmt(med)} {unit} [{fmt(q1)}, {fmt(q3)}] n={len(samples[metric])}")
    print(f"{name:<20} " + "  ".join(cells))


def metric_json(values: dict[str, float], unit) -> dict:
    return {k: {"value": v, "unit": unit(k)} for k, v in values.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed, the grid's base seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the untraced repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run the traced pass and report per-layer metrics")
    parser.add_argument("--save", type=Path, help="append the result record to this JSONL file")
    parser.add_argument("--spans", type=Path, help="write the traced pass's spans to this .npz file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids (2 runs, 100 evals) to test the benchmark itself")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default seed's output digests of the chosen workloads")
    return parser.parse_args(argv)


def write_reference(names, work: Path) -> None:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in names:
        spec = make_spec(WORKLOADS[name], DEFAULT_SEED, work / f"{name}-reference")
        rep = run_grid(spec, WORKLOADS[name].jobs)
        if rep.failed:
            raise SystemExit(f"{name}: {len(rep.failed)} runs failed the structural checks")
        refs[name] = rep.digests
        print(f"{name}: {len(rep.digests)} files")
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def run_all(args) -> int:
    """Every workload, traced, each in its own process so that max RSS and
    imports are per workload, exactly as a single-workload run sees them."""
    records = {}
    for name in sorted(WORKLOADS):
        save = ROOT / ".bench_out" / f"all-{os.getpid()}-{name}.jsonl"
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "1", "--save", str(save)]
        if args.smoke:
            cmd.append("--smoke")
        if args.spans is not None:
            cmd += ["--spans", str(args.spans.with_name(f"{args.spans.stem}-{name}.npz"))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        print("\n".join(proc.stdout.splitlines()[:-1]))
        try:
            records[name] = json.loads(save.read_text())
        except OSError:
            print(f"{name}: the run exited with {proc.returncode} and saved no result", file=sys.stderr)
            return 1
        finally:
            save.unlink(missing_ok=True)

    print("end to end:")
    metrics = {}
    for name, record in records.items():
        samples = record["samples"][name]
        print_row(name, samples)
        metrics.update({f"{name}.{k}": v for k, v in
                        metric_json(end_to_end(samples), END_TO_END_UNITS.get).items()})
        metrics.update({f"{name}.{k}": v for k, v in record["result"]["metrics"].items()})
    result = {
        "correct": all(r["result"]["correct"] for r in records.values()),
        "attempted": sum(r["result"]["attempted"] for r in records.values()),
        "failed": sum(r["result"]["failed"] for r in records.values()),
        "metrics": metrics,
    }
    if args.save is not None:
        with open(args.save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": "all", "seed": args.seed, "trace": 1,
                                 "seconds": args.seconds, "env": records[name]["env"],
                                 "result": result,
                                 "samples": {n: r["samples"][n] for n, r in records.items()}}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nichebench" / "__init__.py").is_file():
        print(f"nichebench sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nichebench
    if not Path(nichebench.__file__).resolve().is_relative_to(SRC):
        print(f"nichebench imported from {nichebench.__file__}, not {SRC}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="grid-", dir=scratch))
    try:
        if args.write_reference:
            names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
            write_reference(names, work)
            return 0
        if args.workload == "all":
            return run_all(args)
        env = environment(args.seed)
        print("env " + json.dumps(env))
        w = WORKLOADS[args.workload]
        if args.smoke:
            w = replace(w, runs=2, max_evals=2 * POP_SIZE)
        m = measure(args.workload, w, args.seed, args.seconds, bool(args.trace), work,
                    check_reference=args.seed == DEFAULT_SEED and not args.smoke,
                    setup_reps=2 if args.smoke else SETUP_REPS, spans_path=args.spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    print_row(m.name, m.samples)
    if args.trace:
        print(f"per layer ({m.name}, traced pass at jobs=1):")
        for metric, value in m.layers.items():
            print(f"  {metric:<48} {fmt(value):>12} {layer_unit(metric)}")
        metrics = metric_json(m.layers, layer_unit)
    else:
        metrics = metric_json(end_to_end(m.samples), END_TO_END_UNITS.get)
    result = {"correct": m.correct, "attempted": m.attempted, "failed": m.failed,
              "metrics": metrics}
    if args.save is not None:
        with open(args.save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": m.name, "seed": args.seed, "trace": args.trace,
                                 "seconds": args.seconds, "env": env, "result": result,
                                 "samples": {m.name: m.samples}}) + "\n")
    print(json.dumps(result))
    return 0 if m.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
