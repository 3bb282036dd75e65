"""Turn-budget benchmark: one command, four workloads, checked outputs.

    python3 benchmarks/turn_budget/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/turn_budget/run.py --seed N [--runs R] # all four, one subprocess each
    python3 benchmarks/turn_budget/run.py --list | --guard | --selftest

A run generates its inputs from the seed, repeats one deterministic lap of
the workload against a real ``PneumaService`` driven by one closed-loop
client (``max_workers=1``), folds the repeats, checks the outputs, prints
every metric by name and unit, and ends with one JSON object on the last
line of standard output.  ``--trace 0`` reports the end-to-end metrics from
untraced laps; ``--trace 1`` alternates untraced and traced laps of the
same inputs and reports the per-layer metrics (README has the details).
It exits non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def _bootstrap() -> None:
    """Put the program under test on the path; refuse to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"turn_budget: no program to measure: {SRC / 'repro'} is missing")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


_bootstrap()

import spec  # noqa: E402
from harness import run_in_subprocess, run_workload  # noqa: E402
from workloads import OUT_DIR  # noqa: E402


def report(result: Dict[str, Any], out=sys.stdout) -> None:
    """Every metric by name and unit, then the checks."""
    samples = result["samples"]
    print(
        f"== {result['workload']}  seed={result['seed']} seconds={result['seconds']:g} "
        f"trace={result['trace']}  laps={samples['laps']} ops/lap={samples['ops']} "
        f"units/lap={samples['units']}  machine {result['slowdown']:.2f}x slower than reference",
        file=out,
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}", file=out)
    counts = " ".join(f"{key}={value:g}" for key, value in result["counts"].items())
    print(f"  counts: {counts}", file=out)
    print(f"  transcript digest: {result['digest']}", file=out)
    print(f"  attempted={result['attempted']} failed={result['failed']}", file=out)
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}", file=out)


def contract_line(result: Dict[str, Any]) -> str:
    """The last line of standard output: exactly the four contract keys."""
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = spec.names(spec.WORKLOADS)
    parser.add_argument("--workload", choices=names, help="run this workload in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--runs", type=int, default=1, help="repeat each workload (a set)")
    parser.add_argument("--json", type=Path, help="also write the result records here")
    parser.add_argument("--list", action="store_true", help="print workload and metric names")
    parser.add_argument("--guard", action="store_true", help="exact-count guard (checks.py)")
    parser.add_argument("--selftest", action="store_true", help="sensitivity check (checks.py)")
    args = parser.parse_args(argv)
    trace = bool(args.trace or args.traced)

    if args.list:
        for kind, metrics in (
            ("workload", spec.WORKLOADS),
            ("end_to_end", spec.END_TO_END),
            ("per_layer", spec.PER_LAYER),
        ):
            for metric in metrics:
                print(kind, metric["name"], metric.get("unit", ""))
        return 0
    if args.guard or args.selftest:
        import checks

        check = checks.exact_count_guard if args.guard else checks.selftest
        problems = check(args.seed)
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        print("ok" if not problems else f"{len(problems)} problem(s)")
        return 1 if problems else 0

    in_process = bool(args.workload) and args.runs == 1
    if in_process:
        spans_path = OUT_DIR / f"spans-{args.workload}.jsonl" if trace else None
        results = [run_workload(args.workload, args.seed, args.seconds, trace, None, spans_path)]
    else:
        results = [
            run_in_subprocess(name, args.seed, args.seconds, trace)
            for _ in range(args.runs)
            for name in ([args.workload] if args.workload else names)
        ]
    for result in results:
        report(result)
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({"results": results}, indent=1))
    correct = all(result["correct"] for result in results)
    if in_process:
        print(contract_line(results[0]))
    else:
        print(json.dumps({"correct": correct, "runs": len(results)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
