"""Quickstart: build a tiny lake, ask Pneuma-Seeker a question, watch (T, Q).

The lake is served by a :class:`PneumaService`: one shared index, and a
session per user.

Run:  python examples/quickstart.py
"""

import datetime

from repro.relational import Database, Table
from repro.service import PneumaService


def build_lake() -> Database:
    """A two-table lake: sensor readings plus a station dimension."""
    lake = Database("demo")
    lake.register(
        Table.from_columns(
            "readings",
            {
                "station": ["North", "North", "South", "North", "South", "South"],
                "day": [datetime.date(2024, 1, d) for d in (1, 3, 5, 7, 9, 11)],
                "ozone": [31.0, None, 44.0, 35.0, 48.0, 46.0],
                "pm25": [9.0, 12.0, 15.0, 11.0, 18.0, 14.0],
            },
        )
    )
    lake.register(
        Table.from_columns(
            "stations",
            {
                "station": ["North", "South"],
                "operator": ["City Observatory", "River Authority"],
            },
        )
    )
    return lake


TURNS = [
    ("TURN 1 - a broad, exploratory question", "What air quality data do we have here?"),
    ("TURN 2 - the refined information need", "What is the average ozone at the South station? "),
]


def main() -> None:
    with PneumaService(build_lake()) as service:
        session = service.open_session(user="quickstart")
        for title, message in TURNS:
            print("=" * 72)
            print(title)
            print("=" * 72)
            response = service.post_turn(session, message)
            print(response.message)
            print()
            print(response.state_view)
            print()
        summary = service.close_session(session)

    print(f"Final computed answer: {response.answer_value}")
    print(
        f"LLM usage: {summary.prompt_tokens} prompt + {summary.completion_tokens} "
        f"completion tokens across {summary.turns} turns "
        f"({summary.virtual_seconds:.0f} virtual seconds)"
    )


if __name__ == "__main__":
    main()
