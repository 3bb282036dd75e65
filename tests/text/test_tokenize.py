"""Unit tests for the tokenizer and stemmer."""

from hypothesis import given
from hypothesis import strategies as st

from repro.text import stem, tokenize
from repro.text.embedding import _gram, _gram_codes
from repro.text.tokenize import normalize
from tests.oracles.embedding_scalar import char_ngrams


def grams(text):
    """The embedder's character trigrams of ``text``, decoded from their codes."""
    return [_gram(code) for code in _gram_codes([normalize(text)]).tolist()]


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello World") == ["hello", "world"]

    def test_removes_stopwords(self):
        assert tokenize("the cat and the hat") == ["cat", "hat"]

    def test_snake_case_splits(self):
        assert "potassium" in tokenize("potassium_ppm")

    def test_camel_case_splits(self):
        assert tokenize("tariffRate", do_stem=False) == ["tariff", "rate"]

    def test_numbers_survive(self):
        assert "2020" in tokenize("year 2020")

    def test_no_stop_no_stem(self):
        assert tokenize("the samples", stop=False, do_stem=False) == ["the", "samples"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("!!!") == []


class TestStem:
    def test_plural(self):
        assert stem("samples") == stem("sample")

    def test_gerund(self):
        assert stem("planning") == "plan"

    def test_past_tense(self):
        assert stem("recorded") == stem("record")

    def test_ies(self):
        assert stem("studies") == stem("study")

    def test_short_tokens_untouched(self):
        assert stem("is") == "is"
        assert stem("gas") == "gas"

    def test_idempotent_on_matching_queries(self):
        # The retrieval property we actually need: question and narration
        # inflections collapse together.
        assert tokenize("average potassium readings") == tokenize(
            "average potassium reading"
        )


class TestCharNgrams:
    """The embedder's integer trigram codes stand for the oracle's strings."""

    def test_basic(self):
        assert grams("abcd") == char_ngrams("abcd", 3) == ["abc", "bcd"]

    def test_short_text(self):
        assert grams("ab") == char_ngrams("ab", 3) == ["ab"]
        assert grams("Z!") == char_ngrams("Z!", 3) == ["z"]

    def test_normalizes_punctuation(self):
        assert normalize("a,b") == b"a b"
        assert grams("a,b") == char_ngrams("a,b", 3) == ["a b"]

    def test_empty(self):
        assert grams("") == char_ngrams("", 3) == []
        assert grams("?? -- ¿") == []

    @given(st.text(max_size=40))
    def test_codes_decode_to_the_oracle_grams(self, text):
        assert grams(text) == char_ngrams(text, 3)
