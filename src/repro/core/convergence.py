"""The unit of convergence: one concept of an information need.

Convergence (§3.1) happens when the user's *active* information need — what
they have articulated — matches the *latent* one.  A need is a list of
:class:`Concept` values; whether a text mentions one is decided in one
place, the LLM-Sim policy (``llm/policies/user_sim.py::_mentioned``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Concept:
    """One constituent of an information need.

    ``kind``:
      - ``seed``: known to the user from the start (domain, entities);
      - ``column``: must be surfaced by the system (variables in the lake);
      - ``value``: a filter entity the user cares about;
      - ``operation``: a preparation step (interpolation, first/last), only
        articulable once the relevant data has been seen.
    """

    token: str
    kind: str = "column"

    def to_json(self) -> dict:
        return {"token": self.token, "kind": self.kind}
