"""Fixtures shared by the harness and CLI tests: a problem whose runs fail,
and the worker count with the pool's start method."""

import concurrent.futures
import dataclasses
import functools
import multiprocessing

import pytest

from nichebench import harness


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
