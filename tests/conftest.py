"""Fixtures shared by the harness and CLI tests: a problem whose runs fail,
one whose pool workers die, one that counts the runs started, and the
worker count with the pool's start method. A collection hook fails the
session when one test is collected twice."""

import concurrent.futures
import csv
import dataclasses
import functools
import multiprocessing
import os
import signal

import pytest

from nichebench import cli, harness
from nichebench.problems import himmelblau


def pytest_collection_modifyitems(items):
    """Fail collection when one test function, with the same parameters,
    is collected under two node ids: a ``from test_x import TestY`` in
    another module would run that class twice."""
    seen = {}
    for item in items:
        if hasattr(item, "function"):
            key = item.function, getattr(getattr(item, "callspec", None), "id", None)
            if seen.setdefault(key, item.nodeid) != item.nodeid:
                raise pytest.UsageError(f"{item.nodeid} collects {seen[key]} again")


def _nan_objective(genome):
    return float("nan")


@pytest.fixture
def nan_problem(monkeypatch):
    """A problem named 'nan' whose objective returns NaN. The harness builds
    it once in this process and sends it to pool workers in their tasks, so
    its objective is a module-level function: every start method can
    unpickle it."""
    def build():
        return dataclasses.replace(harness.resolve_problem("himmelblau"), name="nan",
                                   objective=_nan_objective)

    monkeypatch.setitem(harness.PROBLEM_FACTORIES, "nan", build)


KILL_AT = 3000  # a worker's calls: 1000 into its second run of 2000 evaluations
_calls = 0


def _objective_that_kills_its_worker(genome):
    """himmelblau's objective, except that the ``KILL_AT``-th call in a
    pool worker kills that worker by SIGKILL, as the OOM killer would. A
    call in the test's own process never kills."""
    global _calls
    _calls += 1
    if _calls == KILL_AT and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return harness.resolve_problem("himmelblau").objective(genome)


@pytest.fixture
def doomed_problem(monkeypatch):
    """A problem named 'doomed': himmelblau, whose objective kills its pool
    worker at the worker's ``KILL_AT``-th call (module-level, so that every
    start method can unpickle it). Returns a function that makes 'doomed'
    plain himmelblau again, for the grid the workers would have run."""
    def build(objective):
        return dataclasses.replace(harness.resolve_problem("himmelblau"), name="doomed",
                                   objective=objective)

    monkeypatch.setitem(harness.PROBLEM_FACTORIES, "doomed",
                        lambda: build(_objective_that_kills_its_worker))
    himmelblau = harness.resolve_problem("himmelblau").objective
    return lambda: monkeypatch.setitem(harness.PROBLEM_FACTORIES, "doomed",
                                       lambda: build(himmelblau))


STARTS = "NICHEBENCH_TEST_STARTS"  # the variable naming the file of run starts
INTERRUPT_AT = "NICHEBENCH_TEST_INTERRUPT_AT"  # the CSV line at which counted_cli presses Ctrl-C
RUN_EVALS = 2000  # evaluations per run of a 'counted' grid
_HIMMELBLAU = himmelblau().objective
_counted = 0


def _objective_that_counts_runs(genome):
    """himmelblau's objective, which appends a line to the file named by
    ``$NICHEBENCH_TEST_STARTS``, when set, at every ``RUN_EVALS``-th call
    of its process from the first: as a run spends exactly ``RUN_EVALS``
    evaluations, at the start of each run."""
    global _counted
    if _counted % RUN_EVALS == 0 and STARTS in os.environ:
        with open(os.environ[STARTS], "a", encoding="utf-8") as fh:
            fh.write("start\n")
    _counted += 1
    return _HIMMELBLAU(genome)


def counted_problem():
    """'counted': himmelblau, with the objective that counts the runs started."""
    return dataclasses.replace(himmelblau(), name="counted", objective=_objective_that_counts_runs)


def mark_interrupt(starts):
    """Mark the moment of an interrupt in the file of run starts."""
    with open(starts, "a", encoding="utf-8") as fh:
        fh.write("interrupt\n")


class _InterruptingWriter:
    """A CSV writer that, once it has formatted its ``at``-th line, marks
    the moment and presses Ctrl-C: SIGINT to its process group."""

    def __init__(self, writer, at, fh):
        self.writer, self.at, self.lines = writer(fh), at, 0

    def writerow(self, row):
        self.writer.writerow(row)
        self.lines += 1
        if self.lines == self.at:
            mark_interrupt(os.environ[STARTS])
            os.killpg(0, signal.SIGINT)


def counted_cli(argv):
    """``nichebench.cli.main(argv)`` with the 'counted' problem known to it,
    in a process of its own. With ``$NICHEBENCH_TEST_INTERRUPT_AT`` set
    to k, the CLI interrupts itself as it formats the k-th line of
    ``runs.csv``."""
    harness.PROBLEM_FACTORIES["counted"] = counted_problem
    if INTERRUPT_AT in os.environ:
        csv.writer = functools.partial(_InterruptingWriter, csv.writer,
                                       int(os.environ[INTERRUPT_AT]))
    return cli.main(argv)


def _start_pools_by(monkeypatch, method):
    """Hand ``run_experiment``'s process pool the ``method`` start context;
    the library itself never names one."""
    pool = functools.partial(concurrent.futures.ProcessPoolExecutor,
                             mp_context=multiprocessing.get_context(method))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)


@pytest.fixture(params=["fork", "spawn", "forkserver"])
def start_method(request, monkeypatch):
    """The start method of every process pool the test's grids use."""
    _start_pools_by(monkeypatch, request.param)
    return request.param


@pytest.fixture(params=[(1, None), (2, "fork"), (2, "spawn"), (2, "forkserver")],
                ids=["1", "2", "2-spawn", "2-forkserver"])
def pool_jobs(request, monkeypatch):
    """``jobs`` for ``run_experiment``: serial, or two pool workers started
    by fork (id ``2``), spawn or forkserver."""
    jobs, method = request.param
    if method is not None:
        _start_pools_by(monkeypatch, method)
    return jobs
