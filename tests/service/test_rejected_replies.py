"""A Conductor reply that decodes to no action spends one action instead
of failing the turn: it is logged as ``rejected``, its error is the next
prompt's ``LAST_ERROR``, and the service counts it.  So does an action
with a field of the wrong JSON type, and a Materializer reply that holds
no program (one failed attempt).  Both roles are fuzzed, and fed every
truncation of a real reply, through ``post_turn``."""

import dataclasses
import json
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.actions import _ACTION_TYPES, ActionError, action_from_json
from repro.core.interpreter import OP_SIGNATURES, OPTIONAL_FIELDS
from repro.core.session import SeekerResponse, build_seeker_llm
from repro.datasets import build_procurement_lake
from repro.llm.policies import ConductorPolicy, MaterializerPolicy
from repro.llm.prompts import section_json
from repro.service import PneumaService

QUESTION = "What is the total price of purchase orders by supplier?"
#: Reaches the Materializer's generate / repair loop (a filter is not seeded).
PIPELINE_QUESTION = "What is the average price of orders from Germany?"

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


def serve(policy, turns, question=QUESTION):
    def llm_factory():
        llm = build_seeker_llm()
        llm.register(policy)
        return llm

    with PneumaService(build_procurement_lake(), max_workers=1, llm_factory=llm_factory) as service:
        session = service.open_session()
        responses = [service.post_turn(session, question) for _ in range(turns)]
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


#: Well-formed actions whose fields have the wrong JSON type, and a kind
#: that is no string.
MISTYPED = [
    {"kind": "retrieve", "query": 5},
    {"kind": "ground_values", "table": 3},
    {"kind": "update_state", "table_spec": {"x": 1}},
    {"kind": "materialize", "table": ["a"]},
    {"kind": ["x"]},
]


def test_a_mistyped_action_is_one_rejected_reply():
    replies = [json.dumps({"action": action}) for action in MISTYPED]
    responses, stats = serve(ScriptedConductor(replies), len(MISTYPED))
    assert stats["turns_failed"] == 0 and stats["replies_rejected"] == len(MISTYPED)
    for response in responses:
        assert type(response) is SeekerResponse and response.message
        assert response.turn_log.rejected == 1
        assert response.turn_log.actions[0]["kind"] == "rejected"


_DECLARED = {"thought": str, "query": str, "table": str, "column": str, "note": str,
             "message": str, "table_spec": dict, "queries": list, "plan": dict}  # fmt: skip

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8)
)


def containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)


json_values = st.recursive(scalars, containers, max_leaves=6)


@st.composite
def actions(draw):
    """An action kind with any subset of its fields, each filled with a
    JSON value of any type."""
    kind = draw(st.sampled_from(sorted(_ACTION_TYPES)))
    names = [f.name for f in dataclasses.fields(_ACTION_TYPES[kind]) if f.name != "kind"]
    chosen = draw(st.lists(st.sampled_from(names), unique=True)) if names else []
    return {"kind": kind, **{name: draw(json_values) for name in chosen}}


@pytest.fixture(scope="module")
def scripted_service():
    policy = ScriptedConductor([])

    def llm_factory():
        llm = build_seeker_llm()
        llm.register(policy)
        return llm

    with PneumaService(build_procurement_lake(), max_workers=1, llm_factory=llm_factory) as service:
        yield service, policy


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(payload=actions())
def test_any_typed_fields_decode_to_a_typed_action_or_one_rejected_reply(scripted_service, payload):
    service, policy = scripted_service
    try:
        action = action_from_json(payload)
    except ActionError:
        action = None
    else:
        for field in dataclasses.fields(action):
            value = getattr(action, field.name)
            if field.name != "kind" and value is not None:
                assert isinstance(value, _DECLARED[field.name])
        assert all(isinstance(q, str) for q in getattr(action, "queries", None) or [])
    failed = service.stats()["turns_failed"]
    session = service.open_session()
    policy.replies = [json.dumps({"action": payload})]
    response = service.post_turn(session, QUESTION)
    service.close_session(session)
    assert type(response) is SeekerResponse
    assert service.stats()["turns_failed"] == failed
    assert (response.turn_log.actions[0]["kind"] == "rejected") == (action is None)


class FlakyMaterializer(MaterializerPolicy):
    """The rule policy, after one reply that is not JSON."""

    def __init__(self):
        self.replies = 0

    def respond(self, sections):
        self.replies += 1
        return "not json" if self.replies == 1 else super().respond(sections)


def test_a_materializer_reply_with_no_program_is_counted():
    policy = FlakyMaterializer()
    (response,), stats = serve(policy, 1, PIPELINE_QUESTION)
    assert type(response) is SeekerResponse and policy.replies == 2
    assert response.turn_log.rejected == 1
    assert all(action["kind"] != "rejected" for action in response.turn_log.actions)
    assert stats["turns_failed"] == 0 and stats["replies_rejected"] == 1
    assert response.answer_value is not None


class ScriptedMaterializer(MaterializerPolicy):
    """The rule policy, except that the first attempt of every
    materialization is answered with ``reply``; counts those answers."""

    def __init__(self):
        self.reply = ""
        self.served = 0

    def respond(self, sections):
        if sections.get("ATTEMPT") != "1":
            return super().respond(sections)
        self.served += 1
        return self.reply


def holds_program(reply):
    """Whether a Materializer reply is a JSON object whose program is a list."""
    try:
        response = json.loads(reply)
    except ValueError:
        return False
    return isinstance(response, dict) and isinstance(response.get("program"), list)


@contextmanager
def service_for(policy):
    def llm_factory():
        llm = build_seeker_llm()
        llm.register(policy)
        return llm

    with PneumaService(build_procurement_lake(), max_workers=1, llm_factory=llm_factory) as service:
        yield service


def scripted_turn(service, policy, reply, question):
    """One turn of a fresh session whose first reply (a Conductor's) or
    first attempts (a Materializer's) are ``reply``.  The turn must return
    a response and fail nothing; returns it with the number of rejected
    replies the service counted and the scripted replies served."""
    if isinstance(policy, ScriptedConductor):
        policy.replies = [reply]
    else:
        policy.reply, policy.served = reply, 0
    before = service.stats()
    session = service.open_session()
    response = service.post_turn(session, question)
    service.close_session(session)
    after = service.stats()
    assert type(response) is SeekerResponse and response.message, reply
    assert after["turns_failed"] == before["turns_failed"], reply
    served = 1 - len(policy.replies) if isinstance(policy, ScriptedConductor) else policy.served
    return response, after["replies_rejected"] - before["replies_rejected"], served


def recorded_reply(policy_class, question):
    """The rule policy's first reply in one turn of ``question``."""
    replies = []

    class Recording(policy_class):
        def respond(self, sections):
            replies.append(super().respond(sections))
            return replies[-1]

    serve(Recording(), 1, question)
    return replies[0]


def test_every_truncation_of_a_real_conductor_reply_is_one_rejected_reply():
    reply = recorded_reply(ConductorPolicy, QUESTION)
    json.loads(reply)  # the whole reply decodes; no strict prefix does
    policy = ScriptedConductor([])
    with service_for(policy) as service:
        for n in range(len(reply)):
            response, rejected, served = scripted_turn(service, policy, reply[:n], QUESTION)
            assert served == rejected == response.turn_log.rejected == 1, n
            assert response.turn_log.actions[0]["kind"] == "rejected", n


def test_every_truncation_of_a_real_materializer_reply_is_one_rejected_reply():
    reply = recorded_reply(MaterializerPolicy, PIPELINE_QUESTION)
    assert holds_program(reply)
    policy = ScriptedMaterializer()
    with service_for(policy) as service:
        for n in range(len(reply)):
            response, rejected, served = scripted_turn(
                service, policy, reply[:n], PIPELINE_QUESTION
            )
            assert served >= 1 and rejected == response.turn_log.rejected == served, n
            assert response.answer_value is not None, n


#: Names of the procurement lake and of the rule policy's programs, so that
#: fuzzed steps can reach past field checks into the frames.
LAKE_NAMES = ["main", "dim", "purchase_orders", "suppliers", "price", "Germany", "order_id"]


@st.composite
def program_steps(draw):
    """A step naming a known op with any subset of its fields, each a name
    from the lake or a JSON value of any type."""
    op = draw(st.sampled_from(sorted(OP_SIGNATURES)))
    names = [*OP_SIGNATURES[op], *OPTIONAL_FIELDS]
    chosen = draw(st.lists(st.sampled_from(names), unique=True))
    values = st.sampled_from(LAKE_NAMES) | json_values
    return {"op": op, **{name: draw(values) for name in chosen}}


materializer_replies = st.one_of(
    st.text(max_size=12),
    json_values.map(json.dumps),
    st.lists(program_steps() | json_values, max_size=5).map(
        lambda program: json.dumps({"program": program})
    ),
)


@pytest.fixture(scope="module")
def materializer_service():
    policy = ScriptedMaterializer()
    with service_for(policy) as service:
        yield service, policy


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(reply=materializer_replies)
def test_any_materializer_reply_is_a_program_or_one_rejected_attempt(materializer_service, reply):
    service, policy = materializer_service
    response, rejected, served = scripted_turn(service, policy, reply, PIPELINE_QUESTION)
    assert served >= 1
    assert rejected == response.turn_log.rejected == (0 if holds_program(reply) else served)


def test_a_reply_nested_too_deeply_to_parse_is_one_rejected_reply():
    deep = "[" * 100_000
    policy = ScriptedConductor([])
    with service_for(policy) as service:
        response, rejected, _ = scripted_turn(service, policy, deep, QUESTION)
    assert rejected == 1
    assert response.turn_log.actions[0]["error"] == "LLM response nests too deeply to parse"
    policy = ScriptedMaterializer()
    with service_for(policy) as service:
        response, rejected, served = scripted_turn(service, policy, deep, PIPELINE_QUESTION)
    assert rejected == served >= 1 and response.answer_value is not None


@pytest.mark.parametrize("program", [[1], [[1]], [["a", "b"]], [None], [{"op": 3}], ["load"]])
def test_a_program_whose_steps_the_repair_cannot_read_is_written_afresh(
    materializer_service, program
):
    service, policy = materializer_service
    reply = json.dumps({"program": program})
    response, rejected, _ = scripted_turn(service, policy, reply, PIPELINE_QUESTION)
    assert rejected == 0 and response.answer_value is not None
