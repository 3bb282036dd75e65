"""Reachability census: which ``def``s under ``src/repro`` production reaches.

Runs every production entry point, then the tier-1 suite, each in a
subprocess under a call-event profiler (``sys.setprofile`` +
``threading.setprofile``, installed by a generated ``sitecustomize`` so
the entry points' own subprocesses are profiled too), and prints, per
file, the ``def``s that only the tests reach and the ones nothing
reaches, then a production / tests-only / unreached table of ``def``s
and lines (a ``def``'s lines exclude the ``def``s nested in it).

    python scripts/census.py            # about 3 minutes on two cores

The census reports what ran; deciding what is dead takes reading the
code — a model-facing SQL form the rule-based LLM never writes is
reached only by tests and still stays.  A traced turn-budget lap may
exit 1 on its layer-share floors (the profiler's overhead lands in the
shares); what it reached still counts.  Profiles go to a temporary
directory; nothing is written into the repository.
"""

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
WORKLOADS = ("dialogue_small", "dialogue_lake_scale", "discover_wide", "scenario_churn")
JOBS = 2  # entry points run at once: few enough to keep memory and cores modest

PRODUCTION = [
    *[[str(path)] for path in sorted((ROOT / "examples").glob("*.py"))],
    ["scripts/fsck.py", "--selftest"],
    ["scripts/tracetool.py", "--selftest"],
    *[
        ["benchmarks/turn_budget/run.py", "--workload", w, "--seconds", "3", "--trace", t]
        for w in WORKLOADS
        for t in ("0", "1")
    ],
    ["scripts/run_all_experiments.py", "--scale", "0.02"],
    ["-m", "pytest", "benchmarks", "-q", "--benchmark-disable",
     "--ignore=benchmarks/turn_budget"],
]
TIER1 = [["-m", "pytest", "tests", "-q"]]

# Written as ``sitecustomize.py`` into the profile directory, which leads
# PYTHONPATH, so every Python process the entry point starts records too.
PROFILER = '''
import atexit, os, sys, threading
_seen = set()
def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
sys.setprofile(_profile)
threading.setprofile(_profile)
@atexit.register
def _dump():
    sys.setprofile(None)
    src = os.environ["CENSUS_SRC"]
    hits = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in _seen}
    with open(os.path.join(os.environ["CENSUS_OUT"], f"{os.getpid()}.txt"), "w") as out:
        out.writelines(f"{f}:{n}\\n" for f, n in sorted(hits) if f.startswith(src))
'''


def defs_by_key():
    """``(path, first line) -> (qualified name, own lines)`` for every def."""
    found = {}

    def walk(node, prefix, path):
        """Record the defs under ``node``; returns the lines its outermost defs span."""
        spanned = 0
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([child.lineno] + [d.lineno for d in child.decorator_list])
                span = child.end_lineno - start + 1
                inner = walk(child, f"{prefix}{child.name}.<locals>.", path)
                found[(path, start)] = (prefix + child.name, span - inner)
                spanned += span
            elif isinstance(child, ast.ClassDef):
                spanned += walk(child, f"{prefix}{child.name}.", path)
            else:
                spanned += walk(child, prefix, path)
        return spanned

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text()), "", str(path.resolve()))
    return found


def run(argv, out_dir, profile_dir):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([profile_dir, str(ROOT / "src"), str(ROOT)]),
        "PYTHONDONTWRITEBYTECODE": "1",
        "HYPOTHESIS_STORAGE_DIRECTORY": str(Path(profile_dir) / "hypothesis"),
        "CENSUS_SRC": str(SRC.resolve()),
        "CENSUS_OUT": out_dir,
    }
    command = [sys.executable, *argv, *(["-p", "no:cacheprovider"] if "pytest" in argv else [])]
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
    print(f"  [{status}] {' '.join(argv)}", file=sys.stderr, flush=True)
    if done.returncode:
        print(done.stderr[-2000:], file=sys.stderr)


def reached(out_dir):
    hits = set()
    for part in Path(out_dir).glob("*.txt"):
        for line in part.read_text().splitlines():
            path, _, lineno = line.rpartition(":")
            hits.add((path, int(lineno)))
    return hits


def main():
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        (Path(tmp) / "sitecustomize.py").write_text(PROFILER)
        groups = {"production": PRODUCTION, "tests": TIER1}
        for name in groups:
            (Path(tmp) / name).mkdir()
        with ThreadPoolExecutor(JOBS) as pool:
            list(pool.map(lambda job: run(job[1], str(Path(tmp) / job[0]), tmp),
                          [(name, argv) for name, jobs in groups.items() for argv in jobs]))
        production, tests = reached(Path(tmp) / "production"), reached(Path(tmp) / "tests")

    table = defaultdict(lambda: [0, 0])
    report = defaultdict(lambda: defaultdict(list))
    for key, (name, lines) in sorted(defs_by_key().items()):
        kind = "production" if key in production else "tests-only" if key in tests else "unreached"
        table[kind][0] += 1
        table[kind][1] += lines
        if kind != "production":
            report[os.path.relpath(key[0], ROOT)][kind].append(f"{name}:{key[1]}")
    for path, kinds in report.items():
        print(path)
        for kind, names in kinds.items():
            print(f"  {kind:<11} {', '.join(names)}")
    print(f"\n{'':<12}{'defs':>6}{'lines':>8}")
    for kind in ("production", "tests-only", "unreached"):
        print(f"{kind:<12}{table[kind][0]:>6}{table[kind][1]:>8}")


if __name__ == "__main__":
    main()
