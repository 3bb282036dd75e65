"""A Conductor reply that decodes to no action spends one action instead
of failing the turn: it is logged as ``rejected``, its error is the next
prompt's ``LAST_ERROR``, and the service counts it."""

import json

from repro.core.session import SeekerResponse, build_seeker_llm
from repro.datasets import build_procurement_lake
from repro.llm.policies import ConductorPolicy
from repro.llm.prompts import section_json
from repro.service import PneumaService

QUESTION = "What is the total price of purchase orders by supplier?"

#: Not JSON, JSON that is no object, and an object whose action is no action.
MALFORMED = ["not json", "[1]", json.dumps({"action": 3})]
ERRORS = [
    "rejected reply: LLM response is not valid JSON: Expecting value: line 1 column 1 (char 0)",
    "rejected reply: LLM response must be a JSON object holding an 'action', got '[1]'",
    "rejected reply: action payload must be a dict with 'kind': 3",
]


class ScriptedConductor(ConductorPolicy):
    """The rule policy, except that the first reply of a turn is the next
    scripted one (every reply, with ``always``); records each prompt's
    ``ACTIONS`` and ``LAST_ERROR``."""

    def __init__(self, replies, always=False):
        self.replies = list(replies)
        self.always = always
        self.prompts = []

    def respond(self, sections):
        actions = section_json(sections, "ACTIONS", [])
        self.prompts.append((actions, sections.get("LAST_ERROR", "")))
        if self.always:
            return self.replies[0]
        if not actions:
            return self.replies.pop(0)
        return super().respond(sections)


def serve(policy, turns):
    def llm_factory():
        llm = build_seeker_llm()
        llm.register(policy)
        return llm

    with PneumaService(build_procurement_lake(), max_workers=1, llm_factory=llm_factory) as service:
        session = service.open_session()
        responses = [service.post_turn(session, QUESTION) for _ in range(turns)]
        return responses, service.stats()


def test_a_malformed_reply_spends_one_action_and_the_next_prompt_sees_why():
    policy = ScriptedConductor(MALFORMED)
    responses, stats = serve(policy, len(MALFORMED))
    assert stats["turns_failed"] == 0 and stats["replies_rejected"] == len(MALFORMED)
    for response, error in zip(responses, ERRORS):
        assert type(response) is SeekerResponse and response.message
        log = response.turn_log
        assert log.rejected == 1
        assert log.actions[0] == {"kind": "rejected", "error": error[len("rejected reply: "):]}
        assert all(action["kind"] != "rejected" for action in log.actions[1:])
        assert len(log.thoughts) == len(log.actions)
    # The prompt after a rejected reply carries its error, and only that one.
    rejected_next = [i + 1 for i, (actions, _) in enumerate(policy.prompts) if not actions]
    assert [policy.prompts[i] for i in rejected_next] == [(["rejected"], e) for e in ERRORS]
    later = [error for i, (_, error) in enumerate(policy.prompts) if i not in rejected_next]
    assert not any(error.startswith("rejected reply") for error in later)


def test_a_malformed_forced_reply_ends_the_turn_honestly():
    (response,), stats = serve(ScriptedConductor(["not json"], always=True), 1)
    assert type(response) is SeekerResponse
    assert response.message == "I need another turn to make progress."
    log = response.turn_log
    assert log.forced and log.rejected == 6
    assert [action["kind"] for action in log.actions] == ["rejected"] * 6
    assert stats["turns_failed"] == 0 and stats["replies_rejected"] == 6
