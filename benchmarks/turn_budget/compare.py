"""Noise-aware diff of two sets of runs.

    python3 benchmarks/turn_budget/compare.py A.json B.json

Each file is what ``run.py --runs N --json OUT`` wrote: N result records
per workload (a *set*; use five or more).  For every workload x metric the
table shows each set's median and quartiles and a verdict for B against A:

* ``worse``      B's median is worse than A's by more than the metric's bound;
* ``unresolved`` the quartile spread of either set is wider than the bound,
  and not every run of B beats every run of A;
* ``better``     B's median beats A's by more than A's own quartile spread;
* ``same``       otherwise.

Per-layer metrics have no bound; their rows show the medians and the change.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

import spec

Key = Tuple[str, str]  # workload, metric


def load(path: str) -> Dict[Key, List[float]]:
    """workload x metric -> one value per run."""
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)["results"]
    values: Dict[Key, List[float]] = {}
    for record in records:
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(float(metric["value"]))
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """B against A for one end-to-end metric."""
    sign = 1.0 if better == "lower" else -1.0  # positive change = worse
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    scale = abs(a_med) or 1.0
    change = sign * (b_med - a_med) / scale
    if change > bound:
        return "worse"
    every_b_beats_a = max(sign * v for v in b) < min(sign * v for v in a)
    if max(a_q3 - a_q1, b_q3 - b_q1) / scale > bound:
        return "better" if every_b_beats_a else "unresolved"
    if -change > (a_q3 - a_q1) / scale and change < 0:
        return "better"
    return "same"


def compare(a: Dict[Key, List[float]], b: Dict[Key, List[float]]) -> List[Dict[str, object]]:
    bounded = {str(m["name"]): m for m in spec.END_TO_END}
    rows = []
    for key in sorted(set(a) & set(b)):
        workload, name = key
        a_q1, a_med, a_q3 = quartiles(a[key])
        b_q1, b_med, b_q3 = quartiles(b[key])
        metric = bounded.get(name)
        rows.append(
            {
                "workload": workload,
                "metric": name,
                "a": (a_q1, a_med, a_q3),
                "b": (b_q1, b_med, b_q3),
                "runs": (len(a[key]), len(b[key])),
                "change": (b_med - a_med) / abs(a_med) if a_med else 0.0,
                "verdict": verdict(a[key], b[key], str(metric["better"]), float(metric["bound"]))
                if metric
                else "-",
            }
        )
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    print(
        f"{'workload':<20} {'metric':<40} {'A q1/med/q3':>34} {'B q1/med/q3':>34} "
        f"{'change':>8}  verdict"
    )
    for row in rows:
        a = "/".join(f"{v:.5g}" for v in row["a"])
        b = "/".join(f"{v:.5g}" for v in row["b"])
        print(
            f"{row['workload']:<20} {row['metric']:<40} {a:>34} {b:>34} "
            f"{row['change']:>+8.1%}  {row['verdict']}"
        )
    worse = [row for row in rows if row["verdict"] == "worse"]
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
