"""Token metering as it was before line counting: two regex passes over the
whole text, then the floor of one for any non-empty text.

``repro.llm.tokens.TokenMeter`` sums memoised per-line counts instead;
both must give the same number for every string.
"""

import re

_PIECE_RE = re.compile(r"[A-Za-z]+|\d{1,4}|[^\w\s]")
_LONG_WORD_RE = re.compile(r"[A-Za-z]{7,}")


def count_tokens_two_pass(text):
    if not text:
        return 0
    pieces = len(_PIECE_RE.findall(text))
    extra = sum((len(word) - 1) // 4 for word in _LONG_WORD_RE.findall(text))
    return max(pieces + extra, 1)
