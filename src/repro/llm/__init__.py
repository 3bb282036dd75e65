"""llm — the offline language-model substrate.

Components talk to the model through prompt strings and parse text
responses (:mod:`repro.llm.prompts`); :class:`RuleLLM` answers them with
deterministic role policies, meters token usage (:mod:`repro.llm.tokens`),
enforces a context window, and ticks a virtual latency clock.
"""

from .clock import (
    INDEX_LOOKUP_SECONDS,
    LLM_CALL_SECONDS,
    TOOL_CALL_SECONDS,
    VirtualClock,
)
from .interface import ContextLengthExceeded, LanguageModel, ModelLimits
from .pricing import MODEL_PRICES, TABLE2_MODEL_ORDER, CostBreakdown, ModelPrice, price_for
from .prompts import (
    PromptFormatError,
    parse_prompt,
    parse_response,
    render_prompt,
    render_response,
    section_json,
)
from .rule_llm import Policy, RuleLLM
from .tokens import Usage, UsageEvent, UsageLedger, count_tokens

__all__ = [
    "RuleLLM",
    "Policy",
    "LanguageModel",
    "ModelLimits",
    "ContextLengthExceeded",
    "VirtualClock",
    "LLM_CALL_SECONDS",
    "TOOL_CALL_SECONDS",
    "INDEX_LOOKUP_SECONDS",
    "UsageLedger",
    "Usage",
    "UsageEvent",
    "count_tokens",
    "MODEL_PRICES",
    "TABLE2_MODEL_ORDER",
    "ModelPrice",
    "CostBreakdown",
    "price_for",
    "render_prompt",
    "parse_prompt",
    "render_response",
    "parse_response",
    "section_json",
    "PromptFormatError",
]
