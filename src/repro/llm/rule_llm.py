"""The offline, deterministic language model.

:class:`RuleLLM` sits behind the same boundary a hosted LLM would: callers
render prompt *strings* (:mod:`repro.llm.prompts`) and parse text responses.
Internally a registry of role-specific :class:`Policy` objects produces the
responses — the reproduction's substitute for O4-mini/GPT-4o (README, opening
paragraph).
Every call is metered (tokens, virtual latency) and checked against the
context window, so Table 2 and the §4.2 context-overflow behaviour are
reproduced mechanically.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Protocol

from .clock import LLM_CALL_SECONDS, VirtualClock
from .interface import ModelLimits
from .prompts import parse_prompt
from .tokens import TokenMeter, UsageLedger


class Policy(Protocol):
    """A role-specific response generator (the model's 'capability')."""

    role: str

    def respond(self, sections: Mapping[str, str]) -> str: ...


class RuleLLM:
    """Deterministic multi-role language model with usage metering."""

    def __init__(self, model_name: str = "O4-mini", limits: Optional[ModelLimits] = None):
        self.model_name = model_name
        self.limits = limits or ModelLimits()
        self.ledger = UsageLedger()
        self.clock = VirtualClock()
        #: This model's own line-count memo; its owner clears it when the
        #: conversation ends (``PneumaService.close_session``).
        self.meter = TokenMeter()
        self._policies: Dict[str, Policy] = {}

    def register(self, policy: Policy) -> None:
        self._policies[policy.role] = policy

    def complete(self, prompt: str, component: str = "") -> str:
        """One LLM call: context check, policy dispatch, metering."""
        # Counted once, through this model's memo; may raise ContextLengthExceeded.
        prompt_tokens = self.limits.check(self.meter.count(prompt))
        role, sections = parse_prompt(prompt)
        policy = self._policies.get(role)
        if policy is None:
            known = sorted(self._policies)
            raise KeyError(f"no policy registered for role {role!r}; known: {known}")
        response = policy.respond(sections)
        self.ledger.record(component or role, prompt_tokens, self.meter.count(response))
        self.clock.tick(LLM_CALL_SECONDS)
        return response
