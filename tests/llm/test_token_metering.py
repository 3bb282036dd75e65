"""Per-model line-count metering equals the two-pass formula on every string."""

import string
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import build_seeker_llm
from repro.datasets import build_procurement_lake
from repro.llm import ContextLengthExceeded, ModelLimits, RuleLLM, TokenMeter
from repro.llm import tokens as tokens_module
from repro.llm.prompts import render_prompt
from repro.service import PneumaService
from repro.sim import SimulationRunner
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
#: Lines of about 1 KB, the length of a retrieved document's section line.
LONG_LINES = st.tuples(
    st.text(alphabet=ALPHABET.replace("\n", "") + string.ascii_letters, min_size=1, max_size=16),
    st.integers(1020, 1104),
).map(lambda pair: (pair[0] * pair[1])[: pair[1]])

QUESTION = "What is the total purchase order cost impact of the new tariffs by supplier?"


class EchoPolicy:
    role = "echo"

    def respond(self, sections):
        return sections.get("MESSAGE", "")


def echo_llm(**kwargs) -> RuleLLM:
    llm = RuleLLM(**kwargs)
    llm.register(EchoPolicy())
    return llm


def echo_prompt(text: str) -> str:
    return render_prompt("echo", {"MESSAGE": text})


def truncated_two_pass(conversation, budget):
    """The sim's context budget, metered by the two-pass formula: the
    oldest system responses over 400 characters shrink first."""
    view = [dict(turn) for turn in conversation]
    total = sum(count_tokens_two_pass(turn["text"]) for turn in view)
    for turn in view:
        if total <= budget:
            break
        if turn["speaker"] == "system" and len(turn["text"]) > 400:
            total -= count_tokens_two_pass(turn["text"])
            turn["text"] = turn["text"][:400] + " ...[truncated]"
            total += count_tokens_two_pass(turn["text"])
    return view


@settings(max_examples=200, deadline=None)
@given(TEXTS)
def test_cold_cache_equals_two_pass(text):
    assert TokenMeter().count(text) == count_tokens_two_pass(text)


@settings(max_examples=200, deadline=None)
@given(TEXTS)
def test_warm_cache_equals_two_pass(text):
    meter = TokenMeter()
    expected = count_tokens_two_pass(text)
    assert meter.count(text) == expected
    assert meter.count(text) == expected  # every line a hit


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(TEXTS, LONG_LINES), max_size=6))
def test_newline_joins_equal_two_pass(texts):
    """Prompts are ``"\\n"``-joins of bodies, and bodies repeat across calls."""
    meter = TokenMeter()
    joined = "\n".join(texts)
    assert meter.count(joined) == count_tokens_two_pass(joined)
    assert meter.count(joined + "\n" + joined) == count_tokens_two_pass(joined + "\n" + joined)


@settings(max_examples=100, deadline=None)
@given(
    pool=st.lists(st.one_of(LONG_LINES, TEXTS), min_size=1, max_size=40),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["seeker", "other", "sim"]),
            st.lists(st.integers(0, 39), min_size=1, max_size=8),
        ),
        max_size=12,
    ),
)
def test_interleaved_models_count_exactly(pool, steps):
    """Two models and a sim runner's model take turns over one pool of
    lines (repeats, lines of about 1 KB, ``"\\n"``-joins): every
    prompt, reply and truncation count is the two-pass count."""
    models = {"seeker": echo_llm(), "other": echo_llm()}
    runner = SimulationRunner(echo_llm())
    for who, picks in steps:
        texts = [pool[i % len(pool)] for i in picks]
        if who == "sim":
            conversation = [
                {"speaker": ("system", "you")[i % 2], "text": text}
                for i, text in enumerate(texts)
            ]
            # At the exact total nothing shrinks; one token under, the
            # oldest long system turn does.  A miscount flips one of the two.
            total = sum(count_tokens_two_pass(text) for text in texts)
            for budget in (total, total - 1):
                runner.sim_context_tokens = budget
                assert runner._truncated(conversation) == truncated_two_pass(conversation, budget)
            continue
        llm = models[who]
        prompt = echo_prompt("\n".join(texts))
        reply = llm.complete(prompt, who)
        event = llm.ledger.events[-1]
        assert event.prompt_tokens == count_tokens_two_pass(prompt)
        assert event.completion_tokens == count_tokens_two_pass(reply)


@pytest.fixture
def counted(monkeypatch):
    """Every line the formula counts from here on, in order."""
    lines = []
    kernel = tokens_module._line_tokens

    def counting_kernel(line):
        lines.append(line)
        return kernel(line)

    monkeypatch.setattr(tokens_module, "_line_tokens", counting_kernel)
    return lines


def test_other_models_never_evict_a_models_lines(counted):
    """Between two calls of one model, a second model's calls (the
    simulated user's, another session's) recount none of its lines."""
    rows = "\n".join(f"row {i}, value {i * 7}" for i in range(20))
    prompt = echo_prompt(rows + "\n" + ", ".join(["wide"] * 300))  # 24 lines, one of 1.8 KB
    user_prompts = [
        echo_prompt("\n".join(f"reply {i} line {j}" for j in range(40))) for i in range(5)
    ]

    seeker, user = echo_llm(), echo_llm()
    seeker.complete(prompt)
    assert len(counted) == 24  # cold: each distinct line once
    for user_prompt in user_prompts:
        user.complete(user_prompt)
    counted.clear()
    seeker.complete(prompt)
    assert counted == []

    # The same calls through one shared model do evict: the check can fail.
    shared = echo_llm()
    shared.complete(prompt)
    for user_prompt in user_prompts:
        shared.complete(user_prompt)
    counted.clear()
    shared.complete(prompt)
    assert len(counted) == 24


def test_a_line_sent_on_every_call_stays_memoised(counted):
    """Least recently used goes first: a retrieved body re-sent on every
    call outlives many more one-off lines than the memo holds."""
    meter, body = TokenMeter(), ", ".join(["retrieved"] * 200)
    for i in range(3 * TokenMeter.SIZE):
        meter.count(f"{body}\nmessage {i}")
    assert counted.count(body) == 1
    assert len(meter) == TokenMeter.SIZE


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_one_token_over_the_window_raises(warm):
    prompt = echo_prompt("\n".join(["12,500 rows of purchase_orders", "x, " * 600]))
    tokens = count_tokens_two_pass(prompt)

    def model(context_tokens):
        llm = echo_llm(limits=ModelLimits(context_tokens=context_tokens))
        if warm:
            llm.meter.count(prompt)
            assert len(llm.meter) == 5
        return llm

    over = model(tokens - 1)
    with pytest.raises(ContextLengthExceeded) as err:
        over.complete(prompt)
    assert (err.value.tokens, err.value.limit) == (tokens, tokens - 1)
    assert over.ledger.num_calls() == 0

    at_limit = model(tokens)
    at_limit.complete(prompt)
    assert at_limit.ledger.events[-1].prompt_tokens == tokens


def test_close_session_empties_that_sessions_meter():
    models = []

    def factory():
        models.append(build_seeker_llm())
        return models[-1]

    with PneumaService(build_procurement_lake(), max_workers=1, llm_factory=factory) as service:
        first, second = service.open_session(), service.open_session()
        for session_id in (first, second):
            service.post_turn(session_id, QUESTION)
        assert len(models[0].meter) > 0 and len(models[1].meter) > 0
        service.close_session(first)
        assert len(models[0].meter) == 0
        assert len(models[1].meter) > 0


def test_threads_sharing_one_meter_count_exactly():
    """A race may cost a recount, never a wrong count or an exception."""
    lines = [f"line {i}, " + "w" * (i * 40) for i in range(48)]  # 48 > 32, up to 1.9 KB
    texts = ["\n".join(lines[(i + j) % 48] for j in range(5)) for i in range(48)]
    expected = [count_tokens_two_pass(text) for text in texts]
    meter, wrong, raised = TokenMeter(), [], []

    def work(offset):
        try:
            for _ in range(30):
                for i in range(48):
                    k = (i + offset) % 48
                    if meter.count(texts[k]) != expected[k]:
                        wrong.append(k)
        except Exception as exc:  # noqa: BLE001 - the assertion reports it
            raised.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(o,)) for o in (0, 11, 23, 37)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert (wrong, raised) == ([], [])
    assert len(meter) <= TokenMeter.SIZE


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
        meter = TokenMeter()
        assert meter.count(text) == expected
        assert meter.count(text) == expected


def test_a_hit_needs_an_equal_line():
    """Lines of one length, one prefix or one suffix never share a count,
    short or long."""
    meter = TokenMeter()
    prefix, suffix = "x" * 300, ", 1" * 100
    wide = "x" * 1024
    pairs = (
        ("abcdefgh", "a,b,c,d,"),
        (prefix + "abcdefgh", prefix + "a,b,c,d,"),
        ("abcdefgh" + suffix, "a,b,c,d," + suffix),
        (wide + "abcdefgh", wide + "a,b,c,d,"),
        ("abcdefgh" + wide, "a,b,c,d," + wide),
    )
    for first, second in pairs:
        for text in (first, second, first + "\n" + second):
            assert meter.count(text) == count_tokens_two_pass(text)
