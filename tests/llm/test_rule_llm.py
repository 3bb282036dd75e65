"""Unit tests for the RuleLLM: dispatch, metering, context limits."""

import pytest

from repro.llm import ContextLengthExceeded, ModelLimits, RuleLLM, render_prompt
from repro.llm.clock import LLM_CALL_SECONDS, VirtualClock


class EchoPolicy:
    role = "echo"

    def respond(self, sections):
        return sections.get("MESSAGE", "")


class TestRuleLLM:
    def test_dispatch(self):
        llm = RuleLLM()
        llm.register(EchoPolicy())
        out = llm.complete(render_prompt("echo", {"MESSAGE": "hello"}))
        assert out == "hello"

    def test_unknown_role_raises(self):
        llm = RuleLLM()
        with pytest.raises(KeyError):
            llm.complete(render_prompt("ghost", {}))

    def test_usage_metered(self):
        llm = RuleLLM()
        llm.register(EchoPolicy())
        llm.complete(render_prompt("echo", {"MESSAGE": "hello world"}), "tester")
        usage = llm.ledger.total()
        assert usage.prompt_tokens > 0
        assert usage.completion_tokens > 0
        assert llm.ledger.num_calls("tester") == 1

    def test_context_limit_enforced(self):
        llm = RuleLLM(limits=ModelLimits(context_tokens=50))
        llm.register(EchoPolicy())
        big = render_prompt("echo", {"MESSAGE": "word " * 200})
        with pytest.raises(ContextLengthExceeded) as err:
            llm.complete(big)
        assert err.value.tokens > 50
        # Nothing should be recorded for a failed call.
        assert llm.ledger.num_calls() == 0

    def test_clock_ticks(self):
        llm = RuleLLM()
        llm.register(EchoPolicy())
        llm.complete(render_prompt("echo", {"MESSAGE": "x"}))
        llm.complete(render_prompt("echo", {"MESSAGE": "y"}))
        assert llm.clock.now == pytest.approx(2 * LLM_CALL_SECONDS)

    def test_model_name(self):
        assert RuleLLM(model_name="O3").model_name == "O3"


class TestVirtualClock:
    def test_tick_accumulates(self):
        clock = VirtualClock()
        clock.tick(1.5)
        clock.tick(2.5)
        assert clock.now == 4.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().tick(-1)
