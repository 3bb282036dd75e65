"""The paper's running example (§1, §3.6): tariff impact on procurement.

A Finance analyst asks "What impact will tariffs have on our organization?"
The system discovers procurement tables, pulls the tariff schedule from
(simulated) Web Search, integrates both into T, and — after the user's key
clarification that impact is *relative to the previous active tariff* —
converges on Q computing price * (1 + new_tariff - previous_tariff).

The session searches Web Search, which the service does not wire, so it
is a bare session over the lake's shared index.

Run:  python examples/tariff_impact.py
"""

from repro.core import SeekerSession
from repro.datasets import (
    build_procurement_lake,
    build_tariff_web,
    tariff_impact_ground_truth,
)
from repro.service import build_shared_retriever


def main() -> None:
    lake = build_procurement_lake(scale=0.25)
    retriever = build_shared_retriever(lake)
    session = SeekerSession(lake, retriever, web=build_tariff_web(), user="finance-analyst")

    print("=" * 72)
    print("ROUND 1 - the broad question from the Finance department")
    print("=" * 72)
    response = session.submit("What impact will tariffs have on our organization?")
    print(response.message)

    print()
    print("=" * 72)
    print("ROUND 2 - the key clarification (impact relative to previous tariff)")
    print("=" * 72)
    response = session.submit(
        "Impact should be calculated relative to the previous active tariff, not "
        "just the current rate. What is the average price of orders from Germany "
        "under the new tariffs?"
    )
    print(response.message)
    if session.answer_value is None:
        response = session.submit("Please continue with the analysis.")
        print(response.message)
    print()
    print(response.state_view)

    expected_new_cost, expected_delta = tariff_impact_ground_truth(lake, "Germany")
    print()
    print(f"System answer:        {session.answer_value:.2f}")
    print(f"Reference new cost:   {expected_new_cost:.2f}")
    print(f"Implied avg increase: {expected_delta:.2f} per order")
    print()
    print("Captured knowledge (the emergent documentation layer):")
    for entry in session.knowledge_db.entries():
        print(f"  - [{entry.topic}] {entry.text}")


if __name__ == "__main__":
    main()
