"""Inspect exported trace files: pretty-print span trees, summarize stages.

Reads the JSONL the observability layer writes — either
``Tracer.export_jsonl`` output (one trace tree per line) or
``SlowTurnLog.dump_jsonl`` output (one ``{"outcome", "duration",
"trace"}`` record per line; both shapes are auto-detected) — and renders
each trace as an indented tree with per-span durations, attributes, and
events.

Exit status: 0 on success, 1 on selftest failure, 2 on usage errors.

    PYTHONPATH=src python scripts/tracetool.py traces.jsonl
    PYTHONPATH=src python scripts/tracetool.py traces.jsonl --json
    PYTHONPATH=src python scripts/tracetool.py traces.jsonl --slowest 3
    PYTHONPATH=src python scripts/tracetool.py --selftest
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import render_span_tree  # noqa: E402


def load_traces(path: Path) -> list:
    """Parse a trace JSONL file into ``(outcome, duration, tree)`` tuples.

    Accepts both export shapes: bare trace trees and slow-turn-log
    records wrapping one under ``"trace"``.
    """
    entries = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not valid JSON ({exc})") from exc
            if "trace" in record:  # slow-turn-log record
                tree = record["trace"]
                outcome = record.get("outcome", "")
                duration = record.get("duration", _duration_of(tree))
            else:  # bare Tracer.export_jsonl tree
                tree = record
                outcome = (tree.get("attrs") or {}).get("outcome", "")
                duration = _duration_of(tree)
            if "name" not in tree or "start" not in tree:
                raise ValueError(f"{path}:{line_no}: record is not a span tree")
            entries.append((outcome, duration, tree))
    return entries


def _duration_of(tree: dict) -> float:
    return tree.get("duration", tree.get("end", tree["start"]) - tree["start"])


def _count_spans(tree: dict) -> int:
    return 1 + sum(_count_spans(child) for child in tree.get("children") or [])


def print_trace(outcome: str, duration: float, tree: dict) -> None:
    label = f"trace {tree.get('trace_id', '?')}"
    if outcome:
        label += f" outcome={outcome}"
    label += f" spans={_count_spans(tree)} duration={duration * 1000:.3f}ms"
    print(label)
    print(render_span_tree(tree))
    print()


def selftest() -> int:
    """Boot a tiny traced service, export its traces, and re-render them."""
    from repro.datasets.procurement import build_procurement_lake
    from repro.service import ObservabilityConfig, PneumaService

    question = "What is the total purchase order cost impact of the new tariffs by supplier?"
    with PneumaService(
        build_procurement_lake(),
        max_workers=2,
        observability=ObservabilityConfig(slow_turn_seconds=0.0),
    ) as service:
        session = service.open_session(user="selftest")
        response = service.post_turn(session, question)
        metrics_text = service.metrics_text()
        with tempfile.TemporaryDirectory() as tmp:
            exported = Path(tmp) / "traces.jsonl"
            slowlog = Path(tmp) / "slow.jsonl"
            n_traces = service.tracer.export_jsonl(exported, name="turn")
            n_slow = service.slow_turns.dump_jsonl(slowlog)
            traces = load_traces(exported)
            slow = load_traces(slowlog)
    if n_traces != 1 or len(traces) != 1:
        print("selftest FAILED: expected exactly one exported turn trace", file=sys.stderr)
        return 1
    if n_slow != 1 or len(slow) != 1 or slow[0][0] != "ok":
        print("selftest FAILED: slow-turn log (threshold 0) missed the turn", file=sys.stderr)
        return 1
    _, _, tree = traces[0]
    if not response.trace_id or response.trace_id != tree["trace_id"]:
        print("selftest FAILED: the response's trace_id is not the exported root's", file=sys.stderr)
        return 1
    for family in ("pneuma_sql_plan_cache_", "pneuma_breakers_", "pneuma_admission_"):
        if not any(line.startswith(family) for line in metrics_text.splitlines()):
            print(f"selftest FAILED: metrics_text() has no {family}* sample", file=sys.stderr)
            return 1
    rendered = render_span_tree(tree)
    for stage in ("llm.complete", "retrieval.search", "action."):
        if stage not in rendered:
            print(f"selftest FAILED: rendered tree lacks {stage!r} spans", file=sys.stderr)
            return 1
    print(rendered)
    print("selftest ok: traced turn exports, reloads, renders every stage, and is in the metrics")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("traces", type=Path, nargs="?", help="trace JSONL file to render")
    parser.add_argument(
        "--slowest", type=int, metavar="N", help="render only the N slowest traces"
    )
    parser.add_argument("--json", action="store_true", help="emit parsed trace trees as JSON")
    parser.add_argument(
        "--selftest", action="store_true", help="trace a tiny service end to end and render it"
    )
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if args.traces is None:
        parser.error("a trace JSONL file is required (or --selftest)")
    if not args.traces.is_file():
        print(f"tracetool: {args.traces} is not a file", file=sys.stderr)
        return 2

    try:
        entries = load_traces(args.traces)
    except ValueError as exc:
        print(f"tracetool: {exc}", file=sys.stderr)
        return 2
    if args.slowest is not None:
        entries = sorted(entries, key=lambda e: e[1], reverse=True)[: args.slowest]
    if args.json:
        print(json.dumps([tree for _, _, tree in entries], indent=2))
        return 0
    for outcome, duration, tree in entries:
        print_trace(outcome, duration, tree)
    print(f"{len(entries)} trace(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
