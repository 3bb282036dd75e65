"""Check the experiments against the text committed under ``golden/``.

    python scripts/golden.py [--check]   # exit 1 with a diff when a run differs
    python scripts/golden.py --write     # rewrite both files from a fresh run

``golden/experiments.txt`` is the standard output of
``scripts/run_all_experiments.py`` at its default scale: every paper table
and figure, Table 3's answer to every question, the ablations and the
scenario coverage grids.  ``golden/turn_budget.txt`` holds the ``counts:``
and ``transcript digest:`` lines of ``benchmarks/turn_budget/run.py
--workload W --seed 1 --seconds 4 --trace 0`` for each workload; they are
exact at a fixed seed, whatever the machine's speed.  Both files are
deterministic, so any difference is a change of program behaviour: a
change that moves one rewrites the file in the same diff and says why.

The diff is block by block (blocks are separated by blank lines): each
changed block is named by its first line and shown with its second (the
column header of a table), then the changed lines.
"""

import argparse
import difflib
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List, Sequence

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden"
WORKLOADS = ("dialogue_small", "dialogue_lake_scale", "discover_wide", "scenario_churn")
TURN_BUDGET_LINES = ("counts:", "transcript digest:")


def _run(args: Sequence[str]) -> str:
    """Standard output of ``python args...`` run from the repository root."""
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, check=False
    )
    if done.returncode != 0:
        sys.exit(f"golden: {' '.join(args)} exited {done.returncode}\n{done.stderr[-2000:]}")
    return done.stdout


def experiments() -> str:
    return _run(["scripts/run_all_experiments.py"])


def turn_budget(workload: str) -> str:
    out = _run(
        ["benchmarks/turn_budget/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "4", "--trace", "0"]
    )  # fmt: skip
    kept = [line for line in out.splitlines() if line.strip().startswith(TURN_BUDGET_LINES)]
    return "\n".join([workload, *kept]) + "\n"


def fresh() -> dict:
    """Both golden files' text from a fresh run (two processes at a time)."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        driver = pool.submit(experiments)
        budgets = [turn_budget(workload) for workload in WORKLOADS]
        return {"experiments.txt": driver.result(), "turn_budget.txt": "\n".join(budgets)}


def _blocks(text: str) -> List[List[str]]:
    return [block.splitlines() for block in text.strip("\n").split("\n\n") if block]


def block_diff(name: str, golden: str, run: str) -> List[str]:
    """The changed blocks of ``run`` against ``golden``: each named by its
    first line and shown with its second, then its changed lines."""
    old, new = _blocks(golden), _blocks(run)
    out: List[str] = []
    matcher = difflib.SequenceMatcher(a=[b[0] for b in old], b=[b[0] for b in new], autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "replace" and i2 - i1 == j2 - j1:
            pairs = zip(old[i1:i2], new[j1:j2])
        elif tag == "equal":
            pairs = ((a, b) for a, b in zip(old[i1:i2], new[j1:j2]) if a != b)
        else:
            pairs = [(b, []) for b in old[i1:i2]] + [([], b) for b in new[j1:j2]]
        for a, b in pairs:
            head = a or b
            out.append(f"--- {name}: {head[0]}")
            out.append("+++ fresh run")
            out.extend(f"  {line}" for line in head[1:2])
            out.extend(list(difflib.unified_diff(a, b, n=0, lineterm=""))[2:])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="diff a fresh run (the default)")
    mode.add_argument("--write", action="store_true", help="rewrite golden/ from a fresh run")
    args = parser.parse_args()

    texts = fresh()
    if args.write:
        GOLDEN.mkdir(exist_ok=True)
        for name, text in texts.items():
            (GOLDEN / name).write_text(text)
            print(f"wrote golden/{name}")
        return 0
    diff = []
    for name, text in texts.items():
        path = GOLDEN / name
        diff += block_diff(f"golden/{name}", path.read_text() if path.exists() else "", text)
    print("\n".join(diff) if diff else "golden: no difference")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
