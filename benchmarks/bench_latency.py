"""§4.1 latency trade-off: seconds per prompt across systems.

Paper: "On average, Pneuma-Seeker takes 70.26 seconds to respond to a
prompt, while FTS and Pneuma-Retriever answer almost instantaneously."
Latency here is the virtual clock (LLM calls cost seconds, index lookups
cost milliseconds; see repro.llm.clock); wall-clock per respond() is also
measured by the benchmark timer.
"""

import pytest

from repro.baselines import FTSSystem, RetrieverOnlySystem, SeekerSystem, raw_text_index


@pytest.fixture(scope="module")
def prompt(arch_eval):
    return arch_eval.questions[0].text


def test_latency_seeker_vs_static(arch_eval, index_of, prompt, benchmark):
    bundle = index_of(arch_eval)
    seeker = SeekerSystem(bundle)
    fts = FTSSystem(arch_eval.lake, raw_text_index(arch_eval.lake))
    retriever = RetrieverOnlySystem(bundle)

    before = seeker.clock.now
    seeker.respond(prompt)
    seeker_seconds = seeker.clock.now - before

    fts_before = fts.clock.now
    fts.respond(prompt)
    fts_seconds = fts.clock.now - fts_before

    retriever_before = retriever.clock.now
    retriever.respond(prompt)
    retriever_seconds = retriever.clock.now - retriever_before

    print()
    print("Latency per prompt (virtual seconds):")
    print(f"  Pneuma-Seeker    {seeker_seconds:8.2f}  (paper: 70.26)")
    print(f"  FTS              {fts_seconds:8.2f}  (paper: ~0)")
    print(f"  Pneuma-Retriever {retriever_seconds:8.2f}  (paper: ~0)")

    assert seeker_seconds > 30.0
    assert fts_seconds < 1.0
    assert retriever_seconds < 1.0

    # Wall-clock of a static lookup (the actual fast path).
    benchmark(fts.respond, prompt)


@pytest.mark.smoke
def test_smoke_latency(arch_smoke, index_of):
    """Tiny-N smoke: the latency comparison code path still runs."""
    seeker = SeekerSystem(index_of(arch_smoke))
    fts = FTSSystem(arch_smoke.lake, raw_text_index(arch_smoke.lake))
    prompt = arch_smoke.questions[0].text
    before = seeker.clock.now
    seeker.respond(prompt)
    assert seeker.clock.now > before
    fts.respond(prompt)
    assert fts.clock.now < 1.0
