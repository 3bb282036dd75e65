"""Unit tests for token metering and model pricing."""

import pytest

from repro.llm import MODEL_PRICES, TABLE2_MODEL_ORDER, UsageLedger
from repro.llm.tokens import TokenMeter, Usage

count_tokens = TokenMeter().count


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_single_word(self):
        assert count_tokens("hello") >= 1

    def test_scales_with_length(self):
        short = count_tokens("one two three")
        long = count_tokens(" ".join(["word"] * 300))
        assert long > short * 10

    def test_char_heavy_text(self):
        # Long unbroken strings count by characters, not words.
        assert count_tokens("x" * 400) >= 100

    def test_deterministic(self):
        text = "SELECT AVG(potassium_ppm) FROM samples"
        assert count_tokens(text) == count_tokens(text)


class TestUsageLedger:
    def test_totals(self):
        ledger = UsageLedger()
        ledger.record("conductor", 100, 10)
        ledger.record("materializer", 50, 5)
        total = ledger.total()
        assert total.prompt_tokens == 150
        assert total.completion_tokens == 15

    def test_by_component(self):
        ledger = UsageLedger()
        ledger.record("a", 10, 1)
        ledger.record("a", 10, 1)
        ledger.record("b", 5, 2)
        by = ledger.by_component()
        assert by["a"].prompt_tokens == 20
        assert by["b"].completion_tokens == 2

    def test_num_calls(self):
        ledger = UsageLedger()
        ledger.record("a", 1, 1)
        ledger.record("b", 1, 1)
        assert ledger.num_calls() == 2
        assert ledger.num_calls("a") == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            UsageLedger().record("a", -1, 0)


class TestPricing:
    def test_paper_o4_mini_rates(self):
        # §4.1: "$1.1 and $4.4 for every 1 million input and output tokens".
        price = MODEL_PRICES["O4-mini"]
        assert price.input_per_million == 1.10
        assert price.output_per_million == 4.40

    def test_all_table2_models_present(self):
        assert TABLE2_MODEL_ORDER == [
            "Haiku 4.5", "O4-mini", "O3", "gpt-5.1", "Sonnet 4.5", "Opus 4.5",
        ]

    def test_cost_computation(self):
        usage = Usage(prompt_tokens=1_000_000, completion_tokens=500_000)
        cost = MODEL_PRICES["O4-mini"].cost(usage)
        assert cost.input_cost == pytest.approx(1.10)
        assert cost.output_cost == pytest.approx(2.20)
        assert cost.total == pytest.approx(3.30)
