"""Unit tests for the tokenizer and stemmer."""

from repro.text import stem, tokenize
from repro.text.tokenize import char_ngrams


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
    def test_basic(self):
        assert char_ngrams("abcd", 3) == ["abc", "bcd"]

    def test_short_text(self):
        assert char_ngrams("ab", 3) == ["ab"]

    def test_normalizes_punctuation(self):
        assert char_ngrams("a,b", 3) == ["a b"]

    def test_empty(self):
        assert char_ngrams("", 3) == []
