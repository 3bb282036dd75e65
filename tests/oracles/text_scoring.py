"""The policies' text scoring as it was before the name lexicon (PR 13).

``reference_name_match_score`` and ``reference_detect_aggregate`` are the
pre-lexicon function bodies, verbatim: per-call tokenisation, per-call
norms, one ``re.search`` per cue.  ``reference_stem`` names the stemming
rules without the vocabulary table in front of them.
"""

import re

from repro.llm.semantics import _AGGREGATE_CUES
from repro.text.embedding import CachedEmbedder, cosine_similarity
from repro.text.tokenize import _strip_suffixes, tokenize

_EMBEDDER = CachedEmbedder(dim=192)

reference_stem = _strip_suffixes


def reference_name_match_score(question_tokens, column_name):
    """Lexical + embedding score of a column name against question tokens."""
    col_tokens = set(tokenize(column_name))
    if not col_tokens:
        return 0.0
    q_tokens = set(question_tokens)
    overlap = len(col_tokens & q_tokens) / len(col_tokens)
    emb = cosine_similarity(
        _EMBEDDER.embed(column_name), _EMBEDDER.embed(" ".join(question_tokens))
    )
    return 0.8 * overlap + 0.2 * max(emb, 0.0)


def reference_detect_aggregate(text):
    """Which aggregate the question asks for (earliest whole-word cue wins)."""
    lowered = text.lower()
    best = None
    for agg, cues in _AGGREGATE_CUES:
        for cue in cues:
            match = re.search(rf"\b{re.escape(cue)}\b", lowered)
            if match and (best is None or match.start() < best[0]):
                best = (match.start(), agg)
    return best[1] if best else None
