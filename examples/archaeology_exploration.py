"""LLM-Sim-driven exploration of the archaeology lake (§4's methodology).

Watches the simulated domain expert converge on the Maltese-potassium
question — the paper's worked example of a latent information need — and
prints the full transcript plus the final state alignment.

Run:  python examples/archaeology_exploration.py
"""

from repro.baselines import SeekerSystem
from repro.datasets import load_archaeology
from repro.eval import build_sim_llm
from repro.service import build_shared_retriever
from repro.sim import SimulationRunner


def main() -> None:
    dataset = load_archaeology(scale=0.05)
    question = next(q for q in dataset.questions if q.qid == "arch-02")

    print("Latent information need (unknown to the sim at the start):")
    print(f"  {question.text}")
    print()

    system = SeekerSystem(build_shared_retriever(dataset.lake))
    runner = SimulationRunner(build_sim_llm(), max_turns=15)
    outcome = runner.run(system, question)

    for i, turn in enumerate(outcome.transcript, 1):
        print(f"--- turn {i} ---")
        print(f"LLM-Sim : {turn.user_message}")
        reply = turn.system_response.split("\nSTATE")[0]
        print(f"Seeker  : {reply.strip()[:400]}")
        print()

    print("=" * 72)
    print(f"Converged: {outcome.converged} after {outcome.turns} turns")
    truth = question.ground_truth(dataset.lake)
    print(f"System answer: {system.session.answer_value}")
    print(f"Ground truth : {truth}")
    print()
    print("Final shared state (T, Q):")
    print(system.session.state.render())


if __name__ == "__main__":
    main()
