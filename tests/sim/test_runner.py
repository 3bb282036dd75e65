"""Unit tests for the LLM-Sim runner."""


import pytest

from repro.core import Concept
from repro.datasets.questions import Question
from repro.eval import build_sim_llm
from repro.sim import SimulationRunner
from tests.baselines.test_one_shot import Scripted
from tests.oracles.token_count import count_tokens_two_pass


def make_question(concepts):
    return Question(
        qid="t-01",
        dataset="archaeology",
        text="What is the average potassium in the samples?",
        topic="soil chemistry",
        concepts=concepts,
        relevant_tables=["samples"],
        reference=lambda lake: 0.0,
    )


class ScriptedSystem:
    """A fake system that surfaces concepts then answers."""

    name = "scripted"
    kind = "seeker"

    def __init__(self, responses):
        self.responses = list(responses)
        self.received = []

    def respond(self, message):
        self.received.append(message)
        if self.responses:
            return self.responses.pop(0)
        return "nothing further"


class StonewallSystem:
    name = "stonewall"
    kind = "static"

    def respond(self, message):
        return "no relevant tables found"


class TestRunner:
    def test_convergence_flow(self):
        question = make_question(
            [Concept("samples", "seed"), Concept("potassium", "column")]
        )
        system = ScriptedSystem(
            [
                "samples has variables: potassium_ppm, region",  # surfaces column
                "the average potassium for samples: answer = 12.5",
                "the average potassium for samples: answer = 12.5",
            ]
        )
        outcome = SimulationRunner(build_sim_llm(), max_turns=10).run(system, question)
        assert outcome.converged
        assert 2 <= outcome.turns <= 4
        # The sim starts broad and only then reveals the measure.
        assert "potassium" not in system.received[0].lower()
        assert any("potassium" in m.lower() for m in system.received[1:])

    def test_non_convergence_hits_limit(self):
        question = make_question(
            [Concept("samples", "seed"), Concept("potassium", "column")]
        )
        outcome = SimulationRunner(build_sim_llm(), max_turns=5).run(
            StonewallSystem(), question
        )
        assert not outcome.converged
        assert outcome.turns == 5
        assert len(outcome.transcript) == 5

    def test_transcript_records_both_sides(self):
        question = make_question([Concept("samples", "seed")])
        system = ScriptedSystem(["samples info", "samples answer = 1"])
        outcome = SimulationRunner(build_sim_llm(), max_turns=6).run(system, question)
        assert all(t.user_message and t.system_response for t in outcome.transcript)

    def test_context_truncation(self):
        runner = SimulationRunner(build_sim_llm(), sim_context_tokens=100)
        conversation = [
            {"speaker": "you", "text": "short"},
            {"speaker": "system", "text": "long " * 400},
            {"speaker": "system", "text": "recent " * 10},
        ]
        view = runner._truncated(conversation)
        assert "[truncated]" in view[1]["text"]
        assert count_tokens_two_pass(view[1]["text"]) < 200
        # Recent short turns survive untouched.
        assert view[2]["text"] == conversation[2]["text"]


class TestUnreadableSimReplies:
    """The runner reads the sim's reply against ``USER_SIM_REPLY``: one it
    cannot read ends that dialogue unconverged instead of raising."""

    def run_with_reply(self, reply):
        llm = build_sim_llm()
        llm.register(Scripted("user_sim", reply))
        system = ScriptedSystem([])
        outcome = SimulationRunner(llm, max_turns=4).run(system, make_question([]))
        return outcome, system

    def test_a_well_formed_reply_drives_the_dialogue(self):
        outcome, system = self.run_with_reply('{"message": "more please", "converged": false}')
        assert not outcome.converged and outcome.turns == 4
        assert system.received == ["more please"] * 4

    def test_a_converged_reply_ends_the_dialogue(self):
        outcome, system = self.run_with_reply('{"message": "thanks", "converged": true}')
        assert outcome.converged and outcome.turns == 0
        assert outcome.final_message == "thanks" and system.received == []

    @pytest.mark.parametrize(
        "reply",
        [
            "not json",
            "[1, 2]",
            '{"message": 5, "converged": false}',
            '{"message": "hi", "converged": "yes"}',
            '{"message": "hi"}',
            '{"message": "hi", "converged": true, "extra": 1}',
        ],
    )
    def test_a_reply_that_cannot_be_read_ends_the_dialogue_unconverged(self, reply):
        outcome, system = self.run_with_reply(reply)
        assert not outcome.converged
        assert outcome.turns == 0 and outcome.transcript == [] and system.received == []
