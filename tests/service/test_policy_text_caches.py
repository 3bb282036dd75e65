"""The policies' process-wide text tables are invisible in what sessions say.

The lexicon, question memo, stem vocabulary, policy embedder and the
embedder's word and bigram table are shared by every session of every
service in the process.  They are keyed by
content, so the same conversations must produce byte-identical transcripts
and token ledgers whether the tables start empty, start full, or are filled
by four workers at once.
"""

import importlib
import sys
import threading

import pytest

from repro.datasets import build_procurement_lake, load_environment
from repro.eval.convergence_eval import build_sim_llm
from repro.llm import semantics
from repro.service import PneumaService
from repro.sim.runner import SimulationRunner
from repro.text import CachedEmbedder

tokenize_module = importlib.import_module("repro.text.tokenize")
embedding_module = importlib.import_module("repro.text.embedding")

# env-01 and env-06.  Neither conversation states a reusable fact, so nothing
# is captured into the shared knowledge base and the two sessions share only
# the caches under test (asserted below): what one says cannot depend on how
# far the other has got.
QUESTIONS = (0, 5)


class _Session:
    """One service session behind the sim runner's ``respond`` interface."""

    kind = "seeker"
    name = "Pneuma-Seeker"

    def __init__(self, service, session_id):
        self.service, self.session_id = service, session_id

    def respond(self, message):
        return self.service.post_turn(self.session_id, message).message


def converse(service, question):
    """(transcript, ledger) of one simulated user's whole conversation."""
    session_id = service.open_session(user=question.qid)
    outcome = SimulationRunner(build_sim_llm()).run(_Session(service, session_id), question)
    summary = service.close_session(session_id)
    transcript = [(turn.user_message, turn.system_response) for turn in outcome.transcript]
    return transcript, (summary.turns, summary.prompt_tokens, summary.completion_tokens)


@pytest.fixture(scope="module")
def dataset():
    return load_environment(0.05)


@pytest.fixture
def empty_tables(monkeypatch):
    """Empties every process-wide table of the policies' text scoring."""

    def empty():
        monkeypatch.setattr(semantics, "_LEXICON", semantics._Memo(bound=16384))
        monkeypatch.setattr(semantics, "_QUESTIONS", semantics._Memo(bound=8))
        monkeypatch.setattr(semantics, "_TEXTS", semantics._Memo(bound=64))
        monkeypatch.setattr(semantics, "_EMBEDDER", CachedEmbedder(dim=192))
        monkeypatch.setattr(tokenize_module, "_STEMS", tokenize_module._StemVocabulary())
        monkeypatch.setattr(embedding_module, "_FEATURES", embedding_module._FeatureTable())

    return empty


def serial_run(dataset, max_workers=1):
    service = PneumaService(dataset.lake, max_workers=max_workers)
    try:
        return [converse(service, dataset.questions[i]) for i in QUESTIONS]
    finally:
        service.shutdown()


def test_cold_warm_and_concurrent_runs_are_byte_identical(dataset, empty_tables):
    empty_tables()
    cold = serial_run(dataset)
    filled = semantics.cache_stats()
    assert filled["lexicon"]["misses"] == filled["lexicon"]["size"] > 0
    assert filled["questions"]["hits"] > filled["questions"]["misses"] > 0

    warm = serial_run(dataset)
    assert warm == cold
    after = semantics.cache_stats()
    assert after["lexicon"]["misses"] == filled["lexicon"]["misses"]  # nothing new to learn
    assert after["stems"]["misses"] == filled["stems"]["misses"]

    # Four workers filling the emptied tables at once: one client thread per
    # session, switching as often as the interpreter allows.
    empty_tables()
    service = PneumaService(dataset.lake, max_workers=4)
    results = {}

    def client(index):
        results[index] = converse(service, dataset.questions[index])

    threads = [threading.Thread(target=client, args=(i,)) for i in QUESTIONS]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        knowledge_entries = service.stats()["knowledge_entries"]
        service.shutdown()
    assert knowledge_entries == 0
    assert not any(thread.is_alive() for thread in threads)
    assert [results[i] for i in QUESTIONS] == cold
    assert all(turns > 1 and prompt > 0 for _, (turns, prompt, _c) in cold)


def test_stats_reports_the_policy_tables_beside_the_build_caches():
    service = PneumaService(build_procurement_lake(), max_workers=1)
    try:
        session_id = service.open_session()
        service.post_turn(session_id, "What is the average price of imported goods per country?")
        caches = service.stats()["caches"]
    finally:
        service.shutdown()
    # The keys the turn-budget benchmark reads, and their shape.
    for key in ("narration", "embedding", "payload"):
        assert set(caches[key]) == {"hits", "misses", "size"}
    assert set(caches) == {"narration", "embedding", "payload", "policy_text"}
    policy = caches["policy_text"]
    assert set(policy) == {
        "lexicon", "questions", "texts", "embedding", "stems", "tokenize",
        "features", "trigrams",
    }  # fmt: skip
    sizes = {name: ("words", "bigrams") if name == "features" else ("size",) for name in policy}
    assert policy == {
        name: {key: c[key] for key in ("hits", "misses", *sizes[name])}
        for name, c in semantics.cache_stats().items()
    }
    assert policy["lexicon"]["size"] > 0 and policy["questions"]["hits"] > 0
    assert policy["stems"]["size"] > 0
    # The embedder's trigram hash table: every narration trigram after the
    # first occurrence is a hit.
    assert 0 < policy["trigrams"]["size"] == policy["trigrams"]["misses"]
    assert policy["trigrams"]["hits"] > policy["trigrams"]["misses"]
    # Its word and bigram table: a distinct word or bigram is one miss.
    features = policy["features"]
    assert 0 < features["words"] and 0 < features["bigrams"]
    assert features["words"] + features["bigrams"] <= features["misses"] < features["hits"]
