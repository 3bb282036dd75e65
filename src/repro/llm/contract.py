"""The reply contract: each role's reply shape, declared once.

The system acts on a model reply only once it meets its shape here, as a
hosted model's replies would have to.  The Conductor replies ``{"thought":
..., "action": {...}}`` (:data:`REPLY`), the action one of :data:`ACTIONS`; an
``update_state`` carries a :data:`TABLE_SPEC` and the :data:`PLAN` the
Materializer reads later.  The Materializer replies ``{"program": [...]}``
(:data:`PROGRAM_REPLY`), each step one of the 13 :data:`STEPS`; the one-shot
baselines reply :data:`DS_GURU_REPLY` and :data:`FULL_CONTEXT_REPLY`, the
RAG baseline :data:`RAG_REPLY` and the simulated user :data:`USER_SIM_REPLY`.  A
kind is plain data: a :class:`Kind` of JSON value, a :class:`Shape` of
object, ``[kind]`` for a list of them or ``(kind, None)`` for one or null.
:func:`problem` names the first field of a value that breaks its kind (a
dotted path into nested objects), and the decoders report that as the
reply's error; :func:`decode` reads a reply that breaks its shape as empty.
"""

from __future__ import annotations

import datetime
from collections.abc import Mapping
from typing import Any, Callable, NamedTuple, Optional

from .prompts import PromptFormatError, parse_response


class Kind(NamedTuple):
    """The JSON values ``accepts`` takes; ``expected`` names them in an error."""

    expected: str
    accepts: Callable[[Any], bool]


class Shape(NamedTuple):
    """An object with every ``required`` field, any ``optional`` one and no other."""

    required: Mapping[str, Any]
    optional: Mapping[str, Any] = {}


def problem(kind: Any, value: Any, where: str = "") -> Optional[str]:
    """None when ``value`` is of ``kind``, else what its first bad field breaks."""
    if isinstance(kind, Kind):
        if kind.accepts(value):
            return None
        return f"field {where!r} must be {kind.expected}, got {value!r}"
    if isinstance(kind, Shape):
        if not isinstance(value, Mapping):
            return f"field {where!r} must be an object, got {value!r}"
        prefix = f"{where}." if where else ""
        missing = [prefix + name for name in kind.required if name not in value]
        if missing:
            return f"missing fields: {missing}"
        unknown = [f"{prefix}{name}" for name in value
                   if name not in kind.required and name not in kind.optional]
        if unknown:
            return f"unknown fields: {unknown}"
        # A scalar field that passes needs no recursion and no path.
        children = [(field, value[name], prefix + name)
                    for fields in (kind.required, kind.optional) for name, field in fields.items()
                    if name in value and not (type(field) is Kind and field.accepts(value[name]))]
    elif isinstance(kind, list):
        if not isinstance(value, list):
            return f"field {where!r} must be a list, got {value!r}"
        children = [(kind[0], item, f"{where}[{i}]") for i, item in enumerate(value)]
    else:  # (kind, None)
        return None if value is None else problem(kind[0], value, where)
    for child in children:
        wrong = problem(*child)
        if wrong:
            return wrong
    return None


def decode(reply: str, shape: Shape) -> Mapping[str, Any]:
    """The reply's JSON object if it parses and meets ``shape``, else ``{}``."""
    try:
        payload = parse_response(reply)
    except PromptFormatError:
        return {}
    return {} if problem(shape, payload) else payload


def _list_of(kind: type) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, list) and all(isinstance(x, kind) for x in v)


def _is_value(v: Any) -> bool:
    return v is None or isinstance(v, (str, int, float, datetime.date))


def _is_operand(v: Any) -> bool:
    if not isinstance(v, Mapping):
        return False
    return isinstance(v["col"], str) if "col" in v else "lit" in v and _is_value(v["lit"])


TEXT = Kind("a string", lambda v: isinstance(v, str))
NAMES = Kind("a list of strings", _list_of(str))
KEYS = Kind("a string or a non-empty list of strings",
            lambda v: isinstance(v, str) or (NAMES.accepts(v) and len(v) > 0))
VALUE = Kind("a string, a number, a boolean, a date or null", _is_value)
OPERAND = Kind("{'col': <column>} or {'lit': <value>}", _is_operand)
RECORDS = Kind("a list of objects", _list_of(Mapping))
MAPPING = Kind("an object of strings to strings",
               lambda v: isinstance(v, Mapping) and NAMES.accepts([*v, *v.values()]))
COUNT = Kind("an integer", lambda v: type(v) is int)
FLAG = Kind("a boolean", lambda v: isinstance(v, bool))
FLAGS = Kind("a boolean or a list of booleans", lambda v: isinstance(v, bool) or _list_of(bool)(v))

# ----------------------------------------------------------- the Conductor's
JOIN = Shape({"table": TEXT, "left_on": TEXT, "right_on": TEXT})

#: The integration hints a table spec may carry; the Materializer's program
#: generator reads all three, the alignment compiler reads ``join``.
INTEGRATION = Shape({}, {
    "join": JOIN,
    "web": [Shape({"records": RECORDS, "key": TEXT, "record_key": TEXT,
                   "value_field": TEXT, "new_column": TEXT})],
    "interpolate": Shape({"column": (TEXT, None), "order_by": KEYS}),
})

COLUMN = Shape({"name": TEXT}, {"dtype": TEXT, "source": TEXT})
TABLE_SPEC = Shape(
    {"name": TEXT},
    {"columns": [COLUMN], "base_tables": NAMES, "integration": INTEGRATION, "notes": TEXT},
)

FILTER = Shape({"column": TEXT, "value": VALUE}, {"op": TEXT})
PLAN = Shape({"table": TEXT}, {
    "aggregate": (TEXT, None), "measure": (TEXT, None), "filters": [FILTER],
    "group_by": (TEXT, None), "order_column": (TEXT, None), "interpolate": FLAG,
    "first_last": FLAG, "round_digits": (COUNT, None), "join": (JOIN, None),
    "second_measure": (TEXT, None), "measure_expr": (TEXT, None),
})

#: What a user is told: a message with something in it.
MESSAGE = Kind("a non-blank string", lambda v: isinstance(v, str) and bool(v.strip()))

#: Each action kind's shape: its kind, its required fields and its optional ones.
ACTIONS = {kind: Shape({"kind": TEXT, **required}, optional) for kind, (required, optional) in {
    "reason": ({}, {"thought": TEXT}),
    "retrieve": ({}, {"query": TEXT}),
    "ground_values": ({}, {"table": TEXT, "column": TEXT}),
    "update_state": ({}, {"table_spec": (TABLE_SPEC, None), "queries": (NAMES, None),
                          "plan": (PLAN, None)}),
    "materialize": ({}, {"table": TEXT, "note": TEXT}),
    "execute_sql": ({}, {}),
    # It ends the turn: a reply with nothing to say is rejected instead.
    "message_user": ({"message": MESSAGE}, {}),
}.items()}

#: A whole Conductor reply: its action (which :data:`ACTIONS` checks by the
#: kind it names) and the thought behind it.
REPLY = Shape({"action": Kind("an action", lambda v: True)}, {"thought": TEXT})

# -------------------------------------- the Materializer's and the one-shots'
#: A program: the interpreter checks each step against :data:`STEPS` as it runs.
PROGRAM = Kind("a list of steps", lambda v: isinstance(v, list))
PROGRAM_REPLY = Shape({"program": PROGRAM})
#: DS-Guru's subtasks and plan, its program and the SQL over the program's result;
#: the O3 full-context answerer's SQL over the tables it was shown.
DS_GURU_REPLY = Shape({}, {"subtasks": NAMES, "plan": (PLAN, None), "program": (PROGRAM, None),
                           "sql": (TEXT, None)})
FULL_CONTEXT_REPLY = Shape({}, {"answer_value": VALUE, "sql": (TEXT, None), "plan_table": TEXT})
#: The RAG baseline's prose answer over what its retriever found.
RAG_REPLY = Shape({"answer": TEXT})
#: The simulated user's next message, and whether its need is met.
USER_SIM_REPLY = Shape({"message": TEXT, "converged": FLAG})

#: Each op's shape: its op and required fields, and the fields any op may carry.
STEPS = {op: Shape({"op": TEXT, **fields}, {"as": TEXT, "how": TEXT, "ascending": FLAGS})
         for op, fields in {
    "load": {"table": TEXT},
    "join": {"left": TEXT, "right": TEXT, "left_on": KEYS, "right_on": KEYS},
    "add_from_records": {"frame": TEXT, "records": RECORDS, "key": TEXT, "record_key": TEXT,
                         "value_field": TEXT, "new_column": TEXT},
    "parse_dates": {"frame": TEXT, "column": TEXT},
    "derive": {"frame": TEXT, "new_column": TEXT, "operator": TEXT, "left": OPERAND,
               "right": OPERAND},
    "filter_not_null": {"frame": TEXT, "columns": NAMES},
    "filter_equals": {"frame": TEXT, "column": TEXT, "value": VALUE},
    "sort": {"frame": TEXT, "by": KEYS},
    "interpolate": {"frame": TEXT, "column": TEXT, "order_by": KEYS},
    "rename": {"frame": TEXT, "mapping": MAPPING},
    "select": {"frame": TEXT, "columns": NAMES},
    "limit": {"frame": TEXT, "n": COUNT},
    "result": {"frame": TEXT, "name": TEXT},
}.items()}


def op_of(step: Any) -> Optional[str]:
    """The op a program step names, when it is an object naming one of :data:`STEPS`."""
    op = step.get("op") if isinstance(step, Mapping) else None
    return op if isinstance(op, str) and op in STEPS else None
