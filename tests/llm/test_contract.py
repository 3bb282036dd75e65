"""The reply contract declares the fields the decoders build their objects
from, and names the first field a reply gets wrong."""

import dataclasses

import pytest

from repro.core.actions import _ACTION_TYPES, ActionError, action_from_json
from repro.core.state import TargetColumn, TargetTable
from repro.llm import contract
from repro.llm.policies.planning import plan_from_json, plan_to_json
from repro.llm.semantics import FilterSpec, QueryPlan


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize(
    "shape, cls",
    [
        (contract.TABLE_SPEC, TargetTable),
        (contract.COLUMN, TargetColumn),
        (contract.PLAN, QueryPlan),
        (contract.FILTER, FilterSpec),
        *((contract.ACTIONS[kind], cls) for kind, cls in _ACTION_TYPES.items()),
    ],
)
def test_a_shape_declares_the_fields_its_decoder_builds_from(shape, cls):
    assert {*shape.required, *shape.optional} == field_names(cls)


def test_every_action_kind_has_a_shape_and_a_class():
    assert set(contract.ACTIONS) == set(_ACTION_TYPES)
    assert len(contract.STEPS) == 13


def test_a_plan_round_trips_through_its_json():
    plan = QueryPlan(
        table="orders", aggregate="avg", measure="price",
        filters=[FilterSpec("country", "Germany"), FilterSpec("order_date", 2023, "year")],
        join={"table": "suppliers", "left_on": "supplier_id", "right_on": "supplier_id"},
        round_digits=2,
    )  # fmt: skip
    assert contract.problem(contract.PLAN, plan_to_json(plan)) is None
    assert plan_from_json(plan_to_json(plan)) == plan
    assert plan_from_json({"table": "orders"}) == QueryPlan("orders", None, None)


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"columns": []}, "missing fields: ['table_spec.name']"),
        ({"name": "t", "base_table": ["a"]}, "unknown fields: ['table_spec.base_table']"),
        ({"name": "t", "integration": {"join": 1}},
         "field 'table_spec.integration.join' must be an object, got 1"),
        ({"name": "t", "integration": {"web": [{"records": [], "key": "k"}]}},
         "missing fields: ['table_spec.integration.web[0].record_key', 'table_spec.integration"
         ".web[0].value_field', 'table_spec.integration.web[0].new_column']"),
        ({"name": "t", "columns": [{"name": "a", "dtype": 3}]},
         "field 'table_spec.columns[0].dtype' must be a string, got 3"),
    ],
)  # fmt: skip
def test_a_bad_table_spec_names_its_first_bad_field(spec, message):
    with pytest.raises(ActionError) as err:
        action_from_json({"kind": "update_state", "table_spec": spec})
    assert str(err.value) == f"bad 'update_state' action: {message}"


def test_a_bad_plan_is_a_bad_update_state_action():
    plan = {"table": "orders", "aggregate": "avg", "filters": [1]}
    with pytest.raises(ActionError) as err:
        action_from_json({"kind": "update_state", "plan": plan})
    assert str(err.value) == (
        "bad 'update_state' action: field 'plan.filters[0]' must be an object, got 1"
    )


@pytest.mark.parametrize(
    "reply, message",
    [
        ({"action": {}}, None),
        ({"thought": "t", "action": 3}, None),  # the action's own check names it
        ({"thought": "t"}, "missing fields: ['action']"),
        ({"thought": 5, "action": {}}, "field 'thought' must be a string, got 5"),
        ({"action": {}, "note": ""}, "unknown fields: ['note']"),
    ],
)  # fmt: skip
def test_a_reply_envelope_holds_an_action_and_a_string_thought(reply, message):
    assert contract.problem(contract.REPLY, reply) == message


@pytest.mark.parametrize("payload", [{"kind": "message_user"},
                                     {"kind": "message_user", "message": "  "}])
def test_a_message_to_the_user_may_not_be_blank(payload):
    with pytest.raises(ActionError, match="bad 'message_user' action"):
        action_from_json(payload)
    with pytest.raises(ActionError):
        _ACTION_TYPES["message_user"](**{**payload, "kind": "message_user"})
