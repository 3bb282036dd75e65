"""A Conductor reply that decodes to no action spends one action instead
of failing the turn: it is logged as ``rejected``, its error is the next
prompt's ``LAST_ERROR``, and the service counts it.  So does an action
with a field of the wrong JSON type, and a Materializer reply that holds
no program (one failed attempt).  Both roles are fuzzed, and fed every
truncation of a real reply, through ``post_turn``."""

import dataclasses
import json
import typing
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.actions import ActionError, action_from_json
from repro.core.session import SeekerResponse, build_seeker_llm
from repro.datasets import build_procurement_lake
from repro.llm import contract
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
    """The rule policy, except that the first replies of a turn are the next
    scripted entry: one reply, or a list of replies sent in order (every
    reply is the first entry, with ``always``); records each prompt's
    ``ACTIONS`` and ``LAST_ERROR``."""

    def __init__(self, replies, always=False):
        self.replies = list(replies)
        self.always = always
        self.prompts = []
        self.turn = []

    def respond(self, sections):
        actions = section_json(sections, "ACTIONS", [])
        self.prompts.append((actions, sections.get("LAST_ERROR", "")))
        if self.always:
            return self.replies[0]
        if not actions:
            entry = self.replies.pop(0) if self.replies else []
            self.turn = [entry] if isinstance(entry, str) else list(entry)
        if self.turn:
            return self.turn.pop(0)
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


def test_a_function_handed_the_wrong_type_is_an_sql_error_not_a_failed_turn():
    """``UPPER`` of an INTEGER column fails its statement as an
    ``ExecutionError``: the next prompt's ``LAST_ERROR`` says so and the
    turn returns, where a bare Python error would escape ``post_turn``."""
    sql = "SELECT UPPER(n) AS shout FROM (SELECT 7 AS n) AS s"
    turn = [
        json.dumps({"action": {"kind": "update_state", "queries": [sql]}}),
        json.dumps({"action": {"kind": "execute_sql"}}),
        json.dumps({"action": {"kind": "message_user", "message": "That query failed."}}),
    ]
    policy = ScriptedConductor([turn])
    (response,), stats = serve(policy, 1)
    assert type(response) is SeekerResponse and response.message
    assert stats["turns_failed"] == 0
    (error,) = [error for _, error in policy.prompts if error]
    assert error.startswith("SQL failed: ExecutionError: UPPER: ")
    assert error.endswith(f"(query: {sql})")


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


#: A message the user could not read, and a thought that is no string.
SILENT_OR_THOUGHTLESS = [
    {"action": {"kind": "message_user"}},
    {"action": {"kind": "message_user", "message": ""}},
    {"action": {"kind": "message_user", "message": " \n"}},
    {"thought": 5, "action": {"kind": "retrieve", "query": "orders"}},
    {"thought": "t", "action": {"kind": "retrieve", "query": "orders"}, "note": "x"},
]


def test_a_reply_with_nothing_to_say_or_no_string_thought_is_one_rejected_reply():
    replies = [json.dumps(reply) for reply in SILENT_OR_THOUGHTLESS]
    responses, stats = serve(ScriptedConductor(replies), len(replies))
    assert stats["turns_failed"] == 0 and stats["replies_rejected"] == len(replies)
    for response in responses:
        assert type(response) is SeekerResponse and response.message.strip()
        log = response.turn_log
        assert log.rejected == 1 and log.actions[0]["kind"] == "rejected"
        assert all(type(thought) is str for thought in log.thoughts)
        assert len(log.thoughts) == len(log.actions)


def target_spec(**integration):
    """A valid table spec over the procurement lake's orders."""
    return {"name": "orders_t", "base_tables": ["purchase_orders"],
            "columns": [{"name": "price"}, {"name": "country"}], "integration": integration}


LOOPED_PLAN = {"table": "purchase_orders", "aggregate": "avg", "measure": "price",
               "order_column": "order_date"}  # an ordering keeps the Materializer's loop in charge

#: An ``update_state`` whose plan or integration hint no reader can read,
#: each followed by a ``materialize`` of its table (which used to raise).
HOLES = {
    "plan filters": (target_spec(), {**LOOPED_PLAN, "filters": [1]}),
    "join hint": (target_spec(join=1), LOOPED_PLAN),
    "web hint": (target_spec(web=5), LOOPED_PLAN),
}


@pytest.mark.parametrize("hole", sorted(HOLES))
def test_a_stored_field_no_reader_can_read_is_one_rejected_reply(hole):
    spec, plan = HOLES[hole]
    update = {"kind": "update_state", "table_spec": spec, "plan": plan}
    materialize = {"kind": "materialize", "table": "orders_t"}
    replies = [json.dumps({"action": action}) for action in (update, materialize)]
    (response,), stats = serve(ScriptedConductor([replies]), 1)
    assert type(response) is SeekerResponse and response.message
    assert stats["turns_failed"] == 0 and stats["replies_rejected"] == 1
    assert response.turn_log.rejected == 1
    assert [a["kind"] for a in response.turn_log.actions[:2]] == ["rejected", "materialize"]


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8)
)


def containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)


json_values = st.recursive(scalars, containers, max_leaves=6)

#: Names of the procurement lake and of the rule policy's programs, so that
#: a drawn reply can reach past its checks into the lake and the frames.
LAKE_NAMES = ["main", "dim", "purchase_orders", "suppliers", "price", "Germany", "order_id"]
names = st.sampled_from(LAKE_NAMES)
#: Per kind of JSON value the contract names, values a model may plausibly write.
PLAUSIBLE = {
    contract.TEXT: names,
    contract.MESSAGE: names | st.sampled_from(["", " "]),
    contract.NAMES: st.lists(names, max_size=3),
    contract.KEYS: names | st.lists(names, min_size=1, max_size=2),
    contract.VALUE: scalars | names,
    contract.OPERAND: st.fixed_dictionaries({"col": names})
    | st.fixed_dictionaries({"lit": scalars}),
    contract.RECORDS: st.lists(st.dictionaries(names, scalars | names, max_size=3), max_size=3),
    contract.MAPPING: st.dictionaries(names, names, max_size=2),
    contract.COUNT: st.integers(-2, 5),
    contract.FLAG: st.booleans(),
    contract.FLAGS: st.booleans() | st.lists(st.booleans(), max_size=2),
}


def drawn(kind, junk):
    """Values of a declared kind; with ``junk``, now and then a field or an
    item holds any JSON value, a required field is left out or an unknown
    one is added."""

    def inner(kind):
        values = drawn(kind, junk)
        return st.one_of(values, values, values, json_values) if junk else values

    if isinstance(kind, contract.Kind):
        return PLAUSIBLE[kind]
    if isinstance(kind, contract.Shape):
        fields = {name: inner(field) for name, field in {**kind.required, **kind.optional}.items()}
        values = st.fixed_dictionaries(
            {name: fields[name] for name in kind.required},
            optional={name: fields[name] for name in kind.optional},
        )
        if junk:
            values |= st.fixed_dictionaries({}, optional={**fields, "extra": json_values})
        return values
    if isinstance(kind, list):
        return st.lists(inner(kind[0]), max_size=2)
    return st.none() | drawn(kind[0], junk)  # (kind, None)


def tagged(shapes, tag, names):
    """An object of one of the ``names`` shapes, whose ``tag`` names it:
    as declared, or with junk in it."""
    return st.one_of(
        [
            drawn(shapes[name], junk).map(lambda fields, name=name: {**fields, tag: name})
            for name in names
            for junk in (False, True)
        ]
    )


actions = tagged(contract.ACTIONS, "kind", sorted(contract.ACTIONS))


def decoded(payload):
    """The action a payload decodes to; None for a rejected one."""
    try:
        return action_from_json(payload)
    except ActionError:
        return None


def holds_annotated_types(action):
    """Whether every field of an action holds the type its dataclass
    annotates (``str``, ``Optional[Dict]``, ``Optional[List[str]]``): checked
    by hand, apart from the contract the decoder reads."""
    hints = typing.get_type_hints(type(action))
    for field in dataclasses.fields(action):
        value, hint = getattr(action, field.name), hints[field.name]
        if value is None:
            if type(None) not in typing.get_args(hint):
                return False
            continue
        hint = next((h for h in typing.get_args(hint) if h is not type(None)), hint)
        if not isinstance(value, typing.get_origin(hint) or hint):
            return False
        if typing.get_origin(hint) is list and not all(isinstance(v, str) for v in value):
            return False
    return True


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
@given(payload=actions)
def test_any_typed_fields_decode_to_a_typed_action_or_one_rejected_reply(scripted_service, payload):
    service, policy = scripted_service
    action = decoded(payload)
    assert action is None or holds_annotated_types(action)
    failed = service.stats()["turns_failed"]
    session = service.open_session()
    policy.replies = [json.dumps({"action": payload})]
    response = service.post_turn(session, QUESTION)
    service.close_session(session)
    assert type(response) is SeekerResponse
    assert service.stats()["turns_failed"] == failed
    assert (response.turn_log.actions[0]["kind"] == "rejected") == (action is None)


@st.composite
def reply_sequences(draw):
    """Two to four Conductor replies for one turn: an ``update_state``, up
    to two actions of any kind, and a ``materialize`` of the table the
    update names, so that the spec and plan it stores reach their readers."""
    junk = draw(st.booleans())
    spec = draw(drawn(contract.TABLE_SPEC, junk))
    update = {"kind": "update_state", "table_spec": spec, "plan": draw(drawn(contract.PLAN, junk))}
    name = spec.get("name")
    middle = draw(st.lists(actions, max_size=2))
    materialize = {"kind": "materialize", "table": name if isinstance(name, str) else "main"}
    return [update, *middle, materialize]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sequence=reply_sequences())
def test_a_stored_field_reaches_its_reader_or_its_reply_is_rejected(scripted_service, sequence):
    """The readers of a stored spec and plan (the Materializer's program
    generator, the alignment compiler) are the check the contract does
    not write: none of them fails the turn."""
    service, policy = scripted_service
    before = service.stats()
    session = service.open_session()
    policy.replies = [[json.dumps({"action": action}) for action in sequence]]
    response = service.post_turn(session, PIPELINE_QUESTION)
    service.close_session(session)
    after = service.stats()
    assert type(response) is SeekerResponse
    assert after["turns_failed"] == before["turns_failed"]
    actions_taken = response.turn_log.actions
    served = min(len(sequence), len(actions_taken))
    rejected = [decoded(action) is None for action in sequence[:served]]
    assert [a["kind"] == "rejected" for a in actions_taken[:served]] == rejected
    assert response.turn_log.rejected == after["replies_rejected"] - before["replies_rejected"]
    assert response.turn_log.rejected == sum(rejected)


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


materializer_replies = st.one_of(
    st.text(max_size=12),
    json_values.map(json.dumps),
    st.lists(tagged(contract.STEPS, "op", sorted(contract.STEPS)) | json_values, max_size=5).map(
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
