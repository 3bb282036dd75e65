"""llm — the offline language-model substrate.

Components talk to the model through prompt strings and parse text
responses (:mod:`repro.llm.prompts`); :class:`RuleLLM` answers them with
deterministic role policies, meters token usage (:mod:`repro.llm.tokens`),
enforces a context window, and ticks a virtual latency clock.  Every
system's model comes from :func:`build_model`; nothing outside this package
imports the policies or the text semantics they score with.
"""

from .clock import (
    INDEX_LOOKUP_SECONDS,
    LLM_CALL_SECONDS,
    TOOL_CALL_SECONDS,
    VirtualClock,
)
from .interface import ContextLengthExceeded, LanguageModel, ModelLimits
from .models import build_model
from .pricing import MODEL_PRICES, TABLE2_MODEL_ORDER, CostBreakdown, ModelPrice
from .prompts import (
    PromptFormatError,
    parse_prompt,
    parse_response,
    render_prompt,
    render_response,
    section_json,
)
from .rule_llm import Policy, RuleLLM
from .semantics import cache_stats as policy_text_stats
from .tokens import TokenMeter, Usage, UsageEvent, UsageLedger

__all__ = [
    "RuleLLM",
    "Policy",
    "build_model",
    "policy_text_stats",
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
    "TokenMeter",
    "MODEL_PRICES",
    "TABLE2_MODEL_ORDER",
    "ModelPrice",
    "CostBreakdown",
    "render_prompt",
    "parse_prompt",
    "render_response",
    "parse_response",
    "section_json",
    "PromptFormatError",
]
