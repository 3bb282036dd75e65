"""Token counting and usage accounting.

The paper's Table 2 reports average input/output tokens per interaction and
the implied cost across model price points.  We meter every prompt and
response that crosses the LLM boundary with a deterministic BPE-style
approximation: one token per piece — a run of ASCII letters, a group of up
to four digits, or one character that is neither a word character nor
whitespace — plus ``(len - 1) // 4`` subword tokens for each run of seven or
more ASCII letters, and at least one token for any non-empty text.

No piece contains a newline, so the count of a text is the sum of its
lines' counts (then the floor of one).  A Conductor turn re-sends the same
retrieved documents on every call, so lines repeat within a turn, and
:func:`count_tokens` counts each distinct line once from a small cache."""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional

_PIECE_RE = re.compile(r"[A-Za-z]+|\d{1,4}|[^\w\s]")
_LONG_WORD_RE = re.compile(r"[A-Za-z]{7,}")


def count_tokens(text: str) -> int:
    """Approximate LLM token count of ``text``.

    BPE-style approximation: alphabetic runs, digit groups (up to four
    digits per token), and punctuation marks each count as one piece, and
    long words contribute extra subword pieces (~one per four characters).
    This tracks real tokenizers on both prose and serialized tables — CSV
    rows in particular, where every comma and number costs tokens even
    though the row contains no whitespace.
    """
    if not text:
        return 0
    return max(sum(map(_line_tokens, text.split("\n"))), 1)


#: One turn's working set: a conductor prompt is ~20 lines and the
#: materializer's repeats its largest one.  Keyed by the whole line, so a
#: hit is an equal string.
@lru_cache(maxsize=32)
def _line_tokens(line: str) -> int:
    pieces = len(_PIECE_RE.findall(line))
    return pieces + sum((len(word) - 1) // 4 for word in _LONG_WORD_RE.findall(line))


@dataclass(frozen=True)
class UsageEvent:
    """One metered LLM call."""

    component: str  # e.g. 'conductor', 'materializer', 'user_sim'
    prompt_tokens: int
    completion_tokens: int


@dataclass
class Usage:
    """Aggregated token totals."""

    prompt_tokens: int = 0
    completion_tokens: int = 0

    def add(self, prompt: int, completion: int) -> None:
        self.prompt_tokens += prompt
        self.completion_tokens += completion


class UsageLedger:
    """Records every LLM call so experiments can report per-component costs."""

    def __init__(self) -> None:
        self.events: List[UsageEvent] = []

    def record(self, component: str, prompt_tokens: int, completion_tokens: int) -> None:
        if prompt_tokens < 0 or completion_tokens < 0:
            raise ValueError("token counts must be non-negative")
        self.events.append(UsageEvent(component, prompt_tokens, completion_tokens))

    def total(self) -> Usage:
        usage = Usage()
        for event in self.events:
            usage.add(event.prompt_tokens, event.completion_tokens)
        return usage

    def by_component(self) -> Dict[str, Usage]:
        out: Dict[str, Usage] = defaultdict(Usage)
        for event in self.events:
            out[event.component].add(event.prompt_tokens, event.completion_tokens)
        return dict(out)

    def num_calls(self, component: Optional[str] = None) -> int:
        if component is None:
            return len(self.events)
        return sum(1 for e in self.events if e.component == component)
