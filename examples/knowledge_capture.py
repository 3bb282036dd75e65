"""Emergent documentation: knowledge captured from one user helps the next.

The paper (§3.3, §5.2): Pneuma-Seeker automatically captures clarifications
into the Document Database, so "if one user specifies that estimating
tariff impacts requires accounting for [previous tariffs], subsequent
tariff-related queries can leverage that insight."

Both users search Web Search, which the service does not wire, so they
are bare sessions over one shared index of the lake.

Run:  python examples/knowledge_capture.py
"""

from repro.core import SeekerSession
from repro.datasets import build_procurement_lake, build_tariff_web
from repro.ir import DocumentDatabase
from repro.service import build_shared_retriever


def main() -> None:
    lake = build_procurement_lake(scale=0.25)
    retriever = build_shared_retriever(lake)
    shared_knowledge = DocumentDatabase()

    print("=" * 72)
    print("USER 1 (senior analyst): teaches the system domain knowledge")
    print("=" * 72)
    first = SeekerSession(
        lake, retriever, web=build_tariff_web(),
        knowledge=shared_knowledge, user="senior-analyst",
    )
    first.submit(
        "When analyzing tariffs, assume the impact must be calculated relative "
        "to the previous active tariff, not just the new rate."
    )
    print(f"Knowledge entries captured: {len(shared_knowledge)}")
    for entry in shared_knowledge.entries():
        print(f"  - ({entry.author}) {entry.text}")

    print()
    print("=" * 72)
    print("USER 2 (newcomer): asks WITHOUT mentioning previous tariffs")
    print("=" * 72)
    second = SeekerSession(
        lake, retriever, web=build_tariff_web(),
        knowledge=shared_knowledge, user="newcomer",
    )
    answer = second.ask(
        "What is the average price of purchase orders from Germany under the "
        "new tariffs?"
    )
    query = second.state.queries[-1] if second.state.queries else "(none)"
    print(f"Answer: {answer:.2f}")
    print(f"Q: {query}")
    if "previous_tariff" in query:
        print()
        print(
            "The newcomer's query accounts for the previous tariff even though "
            "they never asked for it - the captured knowledge transferred."
        )


if __name__ == "__main__":
    main()
