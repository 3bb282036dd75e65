"""Scenario-driven investigator personas (STATE + INTENT = ACTION).

A :class:`ScenarioPersona` plays the KU cell of its planted scenario: what
it already knows it may articulate immediately; everything else it may say
only after the system *surfaces* it — the same articulated/surfaced
discipline the LLM-Sim user policy enforces for the benchmark personas.

* **KK** — endpoint and relation known: the full enrichment/discovery
  request on turn one.
* **KU** — endpoints known, relation unknown: first asks whether the two
  record sets are connected, then issues the request once the system has
  surfaced both endpoints' variables.
* **UK** — relation known, endpoint unknown: opens along the relation
  ("the custody trail that starts from..."), then walks the chain with
  connection probes, articulating each next table only after it appears
  in a response.
* **UU** — neither known: a generic overview opener, then the same walk.

The persona is deterministic and text-driven: its only inputs are the
scenario's planted truth and the raw system responses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .runner import SimTurn


@dataclass
class ScenarioTranscript:
    cell_id: str
    satisfied: bool
    turns: List[SimTurn] = field(default_factory=list)

    @property
    def messages(self) -> int:
        return len(self.turns)


class ScenarioPersona:
    """A scripted investigator for one planted scenario."""

    #: Messages the persona sends before it gives up unsatisfied.
    MAX_TURNS = 8

    def __init__(self, scenario):
        self.scenario = scenario
        self.satisfied = False
        self._responses: List[str] = []
        self._opened = False
        self._asked_final = False

    # ------------------------------------------------------------------
    # What the system has surfaced so far
    # ------------------------------------------------------------------
    def observe(self, response: str) -> None:
        self._responses.append(response)
        if self._check_satisfied(response):
            self.satisfied = True

    def _surfaced(self) -> str:
        return "\n".join(self._responses)

    def _deepest_surfaced(self) -> int:
        """Highest chain index whose table name a response has mentioned."""
        surfaced = self._surfaced()
        deepest = 0
        for index, table in enumerate(self.scenario.chain):
            if index == 0 or table in surfaced:
                deepest = index
        return deepest

    def _columns_surfaced(self) -> bool:
        """Both request columns appeared in system text (fair to articulate)."""
        surfaced = self._surfaced()
        return all(col in surfaced for _, col in self.scenario.request_columns())

    def _check_satisfied(self, response: str) -> bool:
        """The need is met when one reified spec carries *both* request
        columns (one ``T[...]`` line) and that spec is materialized."""
        columns = [col for _, col in self.scenario.request_columns()]
        lines = response.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("T[") or not all(col in line for col in columns):
                continue
            for follower in lines[i + 1 :]:
                if not follower.startswith("  "):
                    break
                if "materialized (" in follower:
                    return True
        return False

    # ------------------------------------------------------------------
    # Message generation
    # ------------------------------------------------------------------
    def next_message(self) -> Optional[str]:
        if self.satisfied:
            return None
        cell = self.scenario.cell
        if self._asked_final:
            return self._final_request()  # re-ask: the need has not changed
        if cell.endpoint_known and cell.relation_known:
            return self._final_request()
        if not self._opened:
            self._opened = True
            return self._opener()
        if cell.endpoint_known:
            if self._columns_surfaced():
                return self._final_request()
            return self._probe()
        deepest = self._deepest_surfaced()
        if deepest == len(self.scenario.chain) - 1 and self._columns_surfaced():
            return self._final_request()
        return self._probe()

    def _opener(self) -> str:
        s = self.scenario
        cell = s.cell
        if cell.endpoint_known:  # KU: knows both record sets, not the link
            return (
                f"Are the {s.root} records and the {s.deep} records "
                "connected in our data?"
            )
        if cell.relation_known:  # UK: knows the relation, walks for the end
            return (
                f"I am tracing the {cell.relation_type} trail that starts from "
                f"our {s.root} records. What do they connect to?"
            )
        # UU: knows only the root exists
        return (
            f"I want to understand what surrounds our {s.root} records. "
            "Please give me an overview of the data we hold about them."
        )

    def _probe(self) -> str:
        anchor = self.scenario.chain[self._deepest_surfaced()]
        return f"What other records connect to the {anchor} data?"

    def _final_request(self) -> str:
        self._asked_final = True
        s = self.scenario
        (root, root_col), (deep, deep_col) = s.request_columns()
        return (
            f"Please link the {root} records to the {deep} records they reach, "
            f"and show the {root_col.replace('_', ' ')} alongside "
            f"the {deep_col.replace('_', ' ')}."
        )


def run_scenario(
    persona: ScenarioPersona,
    respond: Callable[[str], str],
    after_turn: Optional[Callable[[int], None]] = None,
) -> ScenarioTranscript:
    """Drive one persona against a system until satisfied or out of turns.

    ``after_turn(i)`` runs after the i-th exchange (1-based) — the hook the
    stress harness uses to apply schema drift *between* turns.
    """
    turns: List[SimTurn] = []
    for turn in range(1, persona.MAX_TURNS + 1):
        message = persona.next_message()
        if message is None:
            break
        response = respond(message)
        persona.observe(response)
        turns.append(SimTurn(message, response))
        if after_turn is not None:
            after_turn(turn)
        if persona.satisfied:
            break
    return ScenarioTranscript(
        cell_id=persona.scenario.cell.cell_id,
        satisfied=persona.satisfied,
        turns=turns,
    )
