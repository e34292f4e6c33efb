"""Side-by-side comparison of two sets of benchmark results.

Usage: python3 bench/compare.py OLD.jsonl NEW.jsonl

Each file holds the records that ``run.py --save FILE`` appended, one per
benchmark run. For every workload and end-to-end metric it prints the
median and quartiles over the runs of each set, the change of the median,
and a verdict against the metric's bound from ``BENCHMARK.json``:

* ``unresolved``: the run-to-run spread (quartile distance over median)
  of either set exceeds the bound, so a change inside it cannot be told;
* ``worse``: the new median is worse than the old by more than the bound;
* ``ok``: neither.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import quartiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per saved run."""
    values: dict[tuple[str, str], list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["result"]["metrics"].items():
                workload, key = record["workload"], name
                if workload == "all":
                    workload, key = name.split(".", 1)
                values.setdefault((workload, key), []).append(metric["value"])
    return values


def verdict(old, new, better: str, bound: float) -> str:
    for q1, med, q3 in (old, new):
        if med == 0 or (q3 - q1) / abs(med) > bound:
            return "unresolved"
    change = (new[1] - old[1]) / abs(old[1])
    worse = -change if better == "higher" else change
    return "worse" if worse > bound else "ok"


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    old, new = load(argv[1]), load(argv[2])
    workloads = sorted({w for w, _ in old} & {w for w, _ in new})
    print(f"{'workload':<20} {'metric':<14} {'old median [q1, q3] n':<36} "
          f"{'new median [q1, q3] n':<36} {'change':>8}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in old or key not in new:
                continue
            a, b = quartiles(old[key]), quartiles(new[key])
            cells = [f"{s[1]:.5g} [{s[0]:.5g}, {s[2]:.5g}] n={len(v)}"
                     for s, v in ((a, old[key]), (b, new[key]))]
            change = (b[1] - a[1]) / abs(a[1]) if a[1] else float("nan")
            print(f"{workload:<20} {metric['name']:<14} {cells[0]:<36} {cells[1]:<36} "
                  f"{change:>+8.1%}  {verdict(a, b, metric['better'], metric['bound'])} "
                  f"({metric['unit']}, bound {metric['bound']:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
