"""Span recorder for the traced pass, attached to nichebench from outside.

``attach(tracer)`` replaces module attributes of the library with timing
wrappers and returns a function that puts the originals back. Nothing in
the library is edited: the run and the objective are wrapped through
``harness.get_algorithm`` and ``harness.resolve_problem``, the operators
through the names ``nichebench.algorithms`` imported them under, and the
significance tests through the ``stats.TESTS`` table. The wrappers only
pass arguments and results through, so the RNG draw order is untouched;
the benchmark proves that by comparing output digests with an untraced
grid.

Spans (name, start, end, parent) are kept in flat in-memory arrays while
the pass runs and are summarized (or saved) after it ends. Workers of a
process pool would not send their spans back, so the traced pass must run
with ``jobs=1``.
"""

from __future__ import annotations

import dataclasses
import time
from array import array

import numpy as np

# operators that build trial points (names as nichebench.algorithms imports them)
VARIATION = ("de_trial_vector", "blend_crossover", "gaussian_mutation", "binary_tournament")
# survivor selection, defined in nichebench.algorithms itself
SELECTION = ("crowding_replacement", "determine_species_seeds", "conserve_species_seeds")
STATS_TESTS = {"mwu": "mann_whitney_u", "ks": "ks_two_sample", "t": "welch_t"}


class Tracer:
    """Records one span per wrapped call; the caller of a span is its parent."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counts: dict[str, float] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span called ``name``; ``after(args, result)``
        runs once the span has ended, so its cost is not in the span."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(ends)
            names.append(nid)
            parents.append(self.current)
            ends.append(0.0)
            self.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                self.current = parents[idx]
            if after is not None:
                after(args, result)
            return result

        return traced

    def arrays(self):
        """(name id, parent index, start, end) as NumPy arrays."""
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed duration, summed self time.

        Self time is a span's duration minus the durations of its direct
        children; wrapped calls run on one thread, so children never overlap.
        """
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        own = dur - child_time
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_total = np.bincount(name, weights=own, minlength=k)
        return {n: {"calls": int(calls[i]), "total": float(total[i]), "self": float(self_total[i])}
                for i, n in enumerate(self.names)}

    def durations(self, span: str) -> np.ndarray:
        name, _, start, end = self.arrays()
        if span not in self._ids:
            return np.empty(0)
        mask = name == self._ids[span]
        return end[mask] - start[mask]


def attach(tracer: Tracer):
    """Wrap the library's layer entry points; returns the undo function."""
    from nichebench import algorithms, harness, stats

    saved = []

    def patch(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    get_algorithm = harness.get_algorithm
    resolve_problem = harness.resolve_problem

    def traced_get_algorithm(name):
        return tracer.wrap(f"run.{name}", get_algorithm(name))

    def traced_resolve_problem(name, grating_profile=None):
        problem = resolve_problem(name, grating_profile)
        return dataclasses.replace(problem, objective=tracer.wrap("objective", problem.objective))

    def crowding_outcome(args, _):
        child, pop = args[0], args[1]
        tracer.count("crowding.challenges")
        if any(member is child for member in pop.members):
            tracer.count("crowding.accepted")

    def species_outcome(_, seeds):
        tracer.count("species.scans")
        tracer.count("species.seeds", len(seeds))

    patch(harness, "get_algorithm", traced_get_algorithm)
    patch(harness, "resolve_problem", traced_resolve_problem)
    patch(harness, "run_metrics", tracer.wrap("run_metrics", harness.run_metrics))
    patch(harness, "pairwise_matrix", tracer.wrap("pairwise_matrix", harness.pairwise_matrix))
    for op in VARIATION:
        patch(algorithms, op, tracer.wrap(op, getattr(algorithms, op)))
    after = {"crowding_replacement": crowding_outcome, "determine_species_seeds": species_outcome}
    for op in SELECTION:
        patch(algorithms, op, tracer.wrap(op, getattr(algorithms, op), after.get(op)))
    original_tests = dict(stats.TESTS)
    for key, fn in original_tests.items():
        stats.TESTS[key] = tracer.wrap(STATS_TESTS.get(key, key), fn)

    def detach():
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
        stats.TESTS.update(original_tests)

    return detach


def layer_metrics(tracer: Tracer, algorithm_names) -> dict[str, float]:
    """Per-layer figures of one traced grid, keyed by benchmark metric name."""
    t = tracer.totals()
    empty = {"calls": 0, "total": 0.0, "self": 0.0}

    def get(span):
        return t.get(span, empty)

    def per_call(span, field="self", scale=1e6):
        s = get(span)
        return s[field] / s["calls"] * scale if s["calls"] else 0.0

    runs = [f"run.{a}" for a in algorithm_names]
    run_time = sum(get(r)["total"] for r in runs)

    def share(seconds):
        return seconds / run_time if run_time else 0.0

    counts = tracer.counts
    out = {
        "objective.calls": float(get("objective")["calls"]),
        "objective.us_per_call": per_call("objective"),
        "objective.share": share(get("objective")["self"]),
    }
    for op in VARIATION:
        out[f"core.{op}.us_per_call"] = per_call(op)
    out["core.variation.share"] = share(sum(get(op)["self"] for op in VARIATION))
    out["algorithms.crowding_replacement.us_per_call"] = per_call("crowding_replacement")
    challenges = counts.get("crowding.challenges", 0)
    out["algorithms.crowding_replacement.accept_ratio"] = (
        counts.get("crowding.accepted", 0) / challenges if challenges else 0.0)
    out["algorithms.determine_species_seeds.us_per_call"] = per_call("determine_species_seeds")
    scans = counts.get("species.scans", 0)
    out["algorithms.species_per_generation"] = counts.get("species.seeds", 0) / scans if scans else 0.0
    out["algorithms.conserve_species_seeds.us_per_call"] = per_call("conserve_species_seeds")
    out["algorithms.selection.share"] = share(sum(get(op)["self"] for op in SELECTION))
    out["algorithms.bookkeeping.share"] = share(sum(get(r)["self"] for r in runs))
    for name in algorithm_names:
        d = tracer.durations(f"run.{name}")
        out[f"algorithms.{name}.run_ms"] = float(np.median(d)) * 1e3 if d.size else 0.0
    out["metrics.run_metrics.us_per_call"] = per_call("run_metrics", "total")
    for test in STATS_TESTS.values():
        out[f"stats.{test}.us_per_call"] = per_call(test, "total")
    out["stats.pairwise_matrix.ms_per_call"] = per_call("pairwise_matrix", "total", 1e3)
    return out
