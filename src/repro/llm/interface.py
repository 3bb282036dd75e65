"""The language-model interface every component programs against."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol


class ContextLengthExceeded(Exception):
    """Raised when a prompt exceeds the model's context window.

    The paper's §4.2 reports exactly this failure mode for the O3
    full-context baseline (6/12 archaeology, 17/20 environment questions).
    Retrying cannot help — the same prompt overflows the same window — so
    the resilience layer classifies it non-retryable (:func:`is_retryable`)
    and lets it propagate to the caller unchanged.
    """

    def __init__(self, tokens: int, limit: int):
        super().__init__(f"prompt of {tokens} tokens exceeds context limit of {limit}")
        self.tokens = tokens
        self.limit = limit


class TransientDependencyError(RuntimeError):
    """A dependency (model endpoint, ANN half, SQL backend) failed in a way
    a retry may fix: timeouts, 5xx-style flakes, injected faults.

    This is the one exception type the serving layer's retry loop and
    circuit breakers react to; everything else is treated as a permanent,
    caller-visible error.  ``dependency`` names which backend failed
    ("llm" | "retriever" | "sql") so per-dependency breakers can attribute
    the failure.
    """

    def __init__(self, dependency: str, message: str = ""):
        super().__init__(message or f"transient failure in dependency {dependency!r}")
        self.dependency = dependency


def is_retryable(exc: BaseException) -> bool:
    """Retry classification at the model/tool boundary.

    Transient dependency failures are retryable; :class:`ContextLengthExceeded`
    and every other exception (protocol misuse, genuine bugs) are not.
    """
    return isinstance(exc, TransientDependencyError)


class LanguageModel(Protocol):
    """Minimal protocol: text in, text out."""

    @property
    def model_name(self) -> str: ...

    def complete(self, prompt: str, component: str = "llm") -> str: ...


@dataclass
class ModelLimits:
    """Context-window budget enforced on every call."""

    context_tokens: int = 200_000

    def check(self, tokens: int) -> int:
        """``tokens``, a prompt's count, if the window holds it."""
        if tokens > self.context_tokens:
            raise ContextLengthExceeded(tokens, self.context_tokens)
        return tokens
