"""Unit tests for convergence: the concept type and the one predicate that
decides whether a text mentions a concept (the LLM-Sim's ``_mentioned``)."""

from repro.core import Concept
from repro.llm.policies import UserSimPolicy
from repro.llm.policies.user_sim import _mentioned
from repro.llm.prompts import parse_prompt, parse_response, render_prompt
from repro.text.tokenize import tokenize


def concept_mentioned(phrase, text):
    return _mentioned(phrase, set(tokenize(text)))


class TestConceptMentioned:
    def test_exact(self):
        assert concept_mentioned("potassium", "average potassium levels")

    def test_inflected(self):
        assert concept_mentioned("linearly interpolated", "with linear interpolation")

    def test_multiword_requires_all(self):
        assert not concept_mentioned("world heritage", "heritage sites only")

    def test_empty_phrase_false(self):
        assert not concept_mentioned("", "anything")


class TestCoverage:
    """A need is covered when every concept is mentioned; the sim names
    the uncovered ones in its corrective feedback."""

    CONCEPTS = [Concept("potassium"), Concept("maltese", "value"), Concept("sites", "seed")]

    def covered(self, concepts, text):
        return UserSimPolicy._addressed(
            [c.to_json() for c in concepts], set(tokenize(text)), text, "rag"
        )

    def test_full(self):
        assert self.covered(self.CONCEPTS, "potassium at maltese sites")

    def test_partial(self):
        assert not self.covered(self.CONCEPTS, "potassium only")

    def test_no_concepts_is_one(self):
        assert self.covered([], "whatever")

    def test_uncovered_lists_missing(self):
        goal = "potassium at maltese sites"
        prompt = render_prompt(
            "user_sim",
            {
                "GOAL": goal,
                "SYSTEM_KIND": "rag",
                "CONCEPTS": [c.to_json() for c in self.CONCEPTS],
                "CONVERSATION": [
                    {"speaker": "you", "text": goal},
                    {"speaker": "system", "text": "potassium only"},
                ],
            },
        )
        payload = parse_response(UserSimPolicy().respond(parse_prompt(prompt)[1]))
        assert payload["converged"] is False
        assert payload["message"].endswith("accounts for maltese, sites.")

    def test_concept_json(self):
        assert Concept("x", "seed").to_json() == {"token": "x", "kind": "seed"}
