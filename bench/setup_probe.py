"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR PROBLEMS_JSON RUNS MAX_EVALS

Times ``import nichebench``, ``resolve_problem`` for each problem (the
grating loads its JSON profile here) and ``spec.validate()``, the steps a
grid takes before its first run is dispatched, and prints them as one
JSON object. The benchmark starts a new interpreter for every repetition
so that the import is never served from an earlier repetition's modules.
"""

import json
import sys
import time


def main(argv) -> int:
    src, problems, runs, max_evals = argv[1], json.loads(argv[2]), int(argv[3]), int(argv[4])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import nichebench
    from nichebench.algorithms import ALGORITHMS, AlgorithmConfig
    from nichebench.harness import ExperimentSpec, resolve_problem
    t1 = time.perf_counter()
    for name in problems:
        resolve_problem(name)
    t2 = time.perf_counter()
    # the same spec as run.make_spec, which is not imported here: its module
    # would load csv, hashlib and dataclasses ahead of the timed import
    spec = ExperimentSpec(
        algorithms=[(name, AlgorithmConfig(population_size=50)) for name in sorted(ALGORITHMS)],
        problems=problems, runs=runs, max_evals=max_evals,
    )
    spec.validate()
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "resolve_problem_s": t2 - t1,
                      "validate_s": t3 - t2, "module": nichebench.__file__}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
