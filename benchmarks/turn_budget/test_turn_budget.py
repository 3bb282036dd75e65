"""Smoke tests for the turn-budget benchmark (collected by ``pytest benchmarks --smoke``)."""

import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path)
import spec  # noqa: E402
from compare import verdict  # noqa: E402
from harness import run_workload  # noqa: E402
from spans import OutsideTracer, Span, Target, fold  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

pytestmark = pytest.mark.smoke


# ----------------------------------------------------------------------
# self-time folding on synthetic span trees
# ----------------------------------------------------------------------
def _span(span_id, parent, name, start, end, op=1):
    return Span(span_id, parent, op, name, float(start), float(end), None)


def test_fold_nested_children_leave_the_parent_its_own_time():
    stats = fold(
        [
            _span(1, 0, "turn", 0, 10),
            _span(2, 1, "llm", 1, 4),
            _span(3, 2, "embed", 2, 3),
            _span(4, 1, "sql", 5, 9),
        ]
    )
    assert stats["turn"].self_s == pytest.approx(3.0)  # 10 - 3 - 4
    assert stats["llm"].self_s == pytest.approx(2.0)
    assert stats["embed"].self_s == pytest.approx(1.0)
    assert stats["sql"].self_s == pytest.approx(4.0)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(10.0)


def test_fold_siblings_of_one_name_accumulate():
    stats = fold(
        [_span(1, 0, "turn", 0, 10), _span(2, 1, "sql", 0, 2), _span(3, 1, "sql", 2, 5)]
    )
    assert stats["sql"].calls == 2
    assert stats["sql"].total_s == pytest.approx(5.0)
    assert stats["turn"].self_s == pytest.approx(5.0)


def test_fold_cross_thread_child_is_not_counted_twice():
    # the caller blocks in post_turn [0, 10]; the worker's turn runs [1, 9]
    linked = [_span(1, 0, "post_turn", 0, 10), _span(2, 1, "conductor", 1, 9)]
    assert sum(s.self_s for s in fold(linked).values()) == pytest.approx(10.0)
    # without the link the same spans would claim 18 s of a 10 s wall
    unlinked = [_span(1, 0, "post_turn", 0, 10), _span(2, 0, "conductor", 1, 9, op=2)]
    assert sum(s.self_s for s in fold(unlinked).values()) == pytest.approx(18.0)


def test_fold_overlapping_children_cover_their_union():
    stats = fold(
        [_span(1, 0, "reindex", 0, 10), _span(2, 1, "build", 1, 6), _span(3, 1, "publish", 4, 8)]
    )
    assert stats["reindex"].self_s == pytest.approx(3.0)  # [1, 8] is covered


class _FakeService:
    """A caller that blocks while a pool thread does the work, as post_turn does."""

    def __init__(self):
        self.pool = ThreadPoolExecutor(max_workers=1)
        self.worker_thread = None

    def post_turn(self):
        return self.pool.submit(self.handle_turn).result()

    def handle_turn(self):
        self.worker_thread = threading.get_ident()
        return self.complete()

    def complete(self):
        return "done"


def test_tracer_links_the_worker_root_to_the_blocked_caller():
    service = _FakeService()
    with OutsideTracer() as tracer:
        tracer.install(
            [
                Target(_FakeService, "post_turn", "service.post_turn", handoff=True),
                Target(_FakeService, "handle_turn", "core.conductor"),
                Target(_FakeService, "complete", "llm.complete"),
            ]
        )
        assert service.post_turn() == "done"
        assert service.post_turn() == "done"
    service.pool.shutdown()
    assert service.worker_thread != threading.get_ident()
    assert _FakeService.post_turn.__name__ == "post_turn"  # originals are back
    spans = tracer.spans()
    by_id = {span.span_id: span for span in spans}
    assert [span.name for span in spans if not span.parent] == ["service.post_turn"] * 2
    for span in spans:
        if span.name == "core.conductor":
            assert by_id[span.parent].name == "service.post_turn"
            assert span.op == span.parent
        if span.name == "llm.complete":
            assert by_id[span.parent].name == "core.conductor"
    wall = sum(span.end - span.start for span in spans if not span.parent)
    assert sum(s.self_s for s in fold(spans).values()) == pytest.approx(wall)


# ----------------------------------------------------------------------
# names
# ----------------------------------------------------------------------
def test_benchmark_json_matches_what_run_lists(capsys):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.main(["--list"]) == 0
    listed = {"workload": [], "end_to_end": [], "per_layer": []}
    for line in capsys.readouterr().out.splitlines():
        kind, name = line.split()[:2]
        listed[kind].append(name)
    assert [w["name"] for w in declared["workloads"]] == listed["workload"]
    assert [m["name"] for m in declared["end_to_end"]] == listed["end_to_end"]
    assert [m["name"] for m in declared["per_layer"]] == listed["per_layer"]
    assert declared["workloads"] == spec.WORKLOADS
    assert listed["workload"] == list(WORKLOADS)
    assert declared["end_to_end"] == spec.END_TO_END
    assert declared["per_layer"] == spec.PER_LAYER
    assert declared["run_seconds"] == spec.RUN_SECONDS
    assert declared["paths"] == ["benchmarks/turn_budget"]


# ----------------------------------------------------------------------
# a tiny-N pass of each workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", spec.names(spec.WORKLOADS))
def test_tiny_traced_pass(workload):
    result = run_workload(workload, seed=1, seconds=1.0, trace=True)
    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == spec.names(spec.PER_LAYER)
    assert result["metrics"]["obs.self_time_closure_error"]["value"] <= 0.03


def test_tiny_untraced_pass_prints_the_contract_line(capsys):
    argv = ["--workload", "discover_wide", "--seed", "3", "--seconds", "1", "--trace", "0"]
    code = run.main(argv)
    assert code == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == spec.names(spec.END_TO_END)
    assert all(metric["value"] > 0 for metric in last["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command must fail."""
    target = tmp_path / "benchmarks" / "turn_budget"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/turn_budget/run.py", "--workload", "discover_wide"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, [v * 1.01 for v in steady], "lower", 0.05) == "same"
    assert verdict(steady, [v * 1.2 for v in steady], "lower", 0.05) == "worse"
    assert verdict(steady, [v * 0.8 for v in steady], "lower", 0.05) == "better"
    assert verdict(steady, [v * 0.8 for v in steady], "higher", 0.05) == "worse"
    noisy = [100.0, 120.0, 90.0, 110.0, 80.0]
    assert verdict(noisy, [102.0, 118.0, 91.0, 108.0, 85.0], "lower", 0.05) == "unresolved"
    assert verdict(noisy, [40.0, 45.0, 50.0, 42.0, 48.0], "lower", 0.05) == "better"
