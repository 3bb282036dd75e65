"""Line-cached token metering equals the two-pass formula on every string."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import count_tokens
from repro.llm.prompts import render_prompt
from repro.llm.tokens import _line_tokens
from tests.oracles.token_count import count_tokens_two_pass

#: ``"\n"`` beside separators ``str.splitlines`` also splits on (metering
#: must split on ``"\n"`` alone), ``_`` (a word character that is no piece),
#: non-ASCII letters and digits, and the pieces: letters, digits, punctuation.
ALPHABET = "\n\r\t\x0b\x0c\x1c\x85\u2028 _\u00e9\u0661\u0662aZx9,.-\"{}:"
TEXTS = st.one_of(
    st.text(alphabet=ALPHABET, max_size=80),
    st.lists(
        st.one_of(
            st.text(alphabet=ALPHABET, max_size=12),
            st.text(alphabet=string.ascii_letters, min_size=7, max_size=20),  # long words
            st.text(alphabet=string.digits, min_size=5, max_size=14),  # digit runs over four
            st.sampled_from(["\n", " ", "## ROLE", "é", "١٢٣٤٥"]),
        ),
        max_size=12,
    ).map("".join),
)


@settings(max_examples=200, deadline=None)
@given(TEXTS)
def test_cold_cache_equals_two_pass(text):
    _line_tokens.cache_clear()
    assert count_tokens(text) == count_tokens_two_pass(text)


@settings(max_examples=200, deadline=None)
@given(TEXTS)
def test_warm_cache_equals_two_pass(text):
    expected = count_tokens_two_pass(text)
    assert count_tokens(text) == expected
    assert count_tokens(text) == expected  # every line a hit


@settings(max_examples=100, deadline=None)
@given(st.lists(TEXTS, max_size=6))
def test_newline_joins_equal_two_pass(texts):
    """Prompts are ``"\\n"``-joins of bodies, and bodies repeat across calls."""
    joined = "\n".join(texts)
    assert count_tokens(joined) == count_tokens_two_pass(joined)
    assert count_tokens(joined + "\n" + joined) == count_tokens_two_pass(joined + "\n" + joined)


def test_pinned_counts():
    """Counts of the two-pass formula, taken before line counting landed."""
    csv_row = '2023-04-17,PO-004512,Acme Industrial Supplies,Germany,1499.95,"widgets, assorted",3'
    section = render_prompt(
        "conductor",
        {
            "RETRIEVED": [
                {
                    "doc_id": "table:purchase_orders",
                    "kind": "table",
                    "payload": {
                        "columns": [
                            {"name": "order_date", "dtype": "DATE"},
                            {"name": "unit_price_eur", "dtype": "REAL"},
                        ],
                        "num_rows": 12500,
                    },
                }
            ]
        },
    ).split("\n")[-1]
    prose = (
        "The Conductor re-sends the accumulated retrieved documents on every action; "
        "metering each prompt from scratch made tokenization about forty-five percent "
        "of a turn. Über-große Tabellen (١٢٣٤٥) don't help either."
    )
    for text, expected in ((csv_row, 34), (section, 85), (prose, 58)):
        _line_tokens.cache_clear()
        assert count_tokens(text) == expected
        assert count_tokens(text) == expected


def test_a_hit_needs_an_equal_line():
    """Lines of one length, one prefix or one suffix never share a count."""
    _line_tokens.cache_clear()
    prefix, suffix = "x" * 300, ", 1" * 100
    pairs = (
        ("abcdefgh", "a,b,c,d,"),
        (prefix + "abcdefgh", prefix + "a,b,c,d,"),
        ("abcdefgh" + suffix, "a,b,c,d," + suffix),
    )
    for first, second in pairs:
        for text in (first, second, first + "\n" + second):
            assert count_tokens(text) == count_tokens_two_pass(text)
