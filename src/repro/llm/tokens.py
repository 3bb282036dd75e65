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
retrieved documents on every call, and the next turn re-sends most of them
again, so each model meters through its own :class:`TokenMeter`: a 32-line
memo that other models' calls cannot evict."""

from __future__ import annotations

import re
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

_PIECE_RE = re.compile(r"[A-Za-z]+|\d{1,4}|[^\w\s]")
_LONG_WORD_RE = re.compile(r"[A-Za-z]{7,}")


def _line_tokens(line: str) -> int:
    """The formula itself; exact on any text, not only on one line."""
    pieces = len(_PIECE_RE.findall(line))
    return pieces + sum((len(word) - 1) // 4 for word in _LONG_WORD_RE.findall(line))


class TokenMeter:
    """One model's line-count memo: the counts of the last :attr:`SIZE`
    distinct lines it metered, least recently used first.

    Lines are keyed by their text.  It takes no lock: threads sharing one
    meter may count a line twice, never wrongly."""

    #: One turn's working set: a conductor prompt is ~20 lines and the
    #: materializer's repeats its largest one.
    SIZE = 32

    def __init__(self) -> None:
        self._counts: "OrderedDict[str, int]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._counts)

    def count(self, text: str) -> int:
        """The token count of ``text``: its lines' memoised counts, summed,
        and at least one for any non-empty text."""
        if not text:
            return 0
        return max(sum(map(self._line, text.split("\n"))), 1)

    def clear(self) -> None:
        self._counts.clear()

    def _line(self, line: str) -> int:
        counts = self._counts
        try:
            counts.move_to_end(line)
            return counts[line]
        except KeyError:  # a miss, or evicted by another thread in between
            pass
        tokens = _line_tokens(line)
        counts[line] = tokens
        if len(counts) > self.SIZE:
            try:
                counts.popitem(last=False)
            except KeyError:  # another thread emptied it first
                pass
        return tokens


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
