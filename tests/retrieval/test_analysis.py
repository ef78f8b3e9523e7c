"""Tests for tokenization, stopwords and the Porter stemmer."""

from __future__ import annotations

import pytest

from repro.retrieval.analysis import (
    ENGLISH_STOPWORDS,
    Analyzer,
    PorterStemmer,
    tokenize,
)


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Apple IPHONE") == ["apple", "iphone"]

    def test_splits_on_punctuation(self):
        assert tokenize("obama's family-tree.") == ["obama", "s", "family", "tree"]

    def test_keeps_digits(self):
        assert tokenize("trec 2009 web") == ["trec", "2009", "web"]

    def test_mixed_alphanumerics_stay_joined(self):
        assert tokenize("clueweb09") == ["clueweb09"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_only_punctuation(self):
        assert tokenize("!!! --- ...") == []

    def test_unicode_outside_ascii_is_separator(self):
        assert tokenize("café") == ["caf"]


class TestStopwords:
    def test_common_words_present(self):
        for word in ("the", "of", "and", "is", "to"):
            assert word in ENGLISH_STOPWORDS

    def test_content_words_absent(self):
        for word in ("apple", "leopard", "search", "diversification"):
            assert word not in ENGLISH_STOPWORDS

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ENGLISH_STOPWORDS.add("x")


class TestPorterStemmer:
    """Classic vocabulary drawn from Porter's published examples."""

    @pytest.fixture(scope="class")
    def stem(self):
        return PorterStemmer()

    @pytest.mark.parametrize(
        ("word", "expected"),
        [
            # step 1a
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            # step 1b
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            # step 1b cleanup
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
            # step 1c
            ("happy", "happi"),
            ("sky", "sky"),
            # step 2
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("hesitanci", "hesit"),
            ("digitizer", "digit"),
            ("conformabli", "conform"),
            ("radicalli", "radic"),
            ("differentli", "differ"),
            ("vileli", "vile"),
            ("analogousli", "analog"),
            ("vietnamization", "vietnam"),
            ("predication", "predic"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("callousness", "callous"),
            ("formaliti", "formal"),
            ("sensitiviti", "sensit"),
            ("sensibiliti", "sensibl"),
            # step 3
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            # step 4
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("gyroscopic", "gyroscop"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("homologou", "homolog"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
            # step 5
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ],
    )
    def test_porter_examples(self, stem, word, expected):
        assert stem(word) == expected

    def test_short_words_unchanged(self, stem):
        assert stem("a") == "a"
        assert stem("be") == "be"
        assert stem("is") == "is"

    def test_idempotent_on_common_stems(self, stem):
        for word in ("run", "runs", "running", "runner"):
            once = stem(word)
            assert stem(once) == once

    def test_callable_protocol(self, stem):
        assert stem("walking") == stem.stem("walking")

    def test_y_as_vowel_handling(self, stem):
        # 'y' after consonant acts as vowel: "syzygy" has vowels.
        assert stem("crying") == "cry"

    def test_memo_is_bounded_and_never_changes_a_stem(self, stem, monkeypatch):
        from repro.retrieval import analysis

        monkeypatch.setattr(analysis, "_STEM_MEMO_CAP", 8)
        monkeypatch.setattr(PorterStemmer, "_memo", {})
        words = [f"relational{i}s" for i in range(40)] + ["ponies", "caresses"]
        for word in words * 2:  # second lap: hits, clears and refills
            assert stem(word) == stem._stem(word)
            assert len(PorterStemmer._memo) <= 8
        assert PorterStemmer._memo  # in use, not bypassed


class TestAnalyzer:
    def test_default_pipeline(self):
        analyzer = Analyzer()
        assert analyzer.analyze("The leopards are running") == ["leopard", "run"]

    def test_stopwords_removed_before_stemming(self):
        analyzer = Analyzer()
        # "this" is a stopword and must not be stemmed into a content term.
        assert "thi" not in analyzer.analyze("this running")

    def test_no_stemming_option(self):
        analyzer = Analyzer(use_stemming=False)
        assert analyzer.analyze("running leopards") == ["running", "leopards"]

    def test_custom_stopwords(self):
        analyzer = Analyzer(stopwords={"leopard"})
        assert "leopard" not in analyzer.analyze("the leopard runs")
        # default stopwords disabled → "the" survives (stemmed)
        assert "the" in analyzer.analyze("the leopard runs")

    def test_empty_stopwords_keeps_everything(self):
        analyzer = Analyzer(stopwords=())
        assert analyzer.analyze("the apple") == ["the", "appl"]

    def test_iter_terms_is_lazy_equivalent(self):
        analyzer = Analyzer()
        text = "diversification of search results"
        assert list(analyzer.iter_terms(text)) == analyzer.analyze(text)

    def test_preserves_order_and_duplicates(self):
        analyzer = Analyzer(stopwords=(), use_stemming=False)
        assert analyzer.analyze("b a b") == ["b", "a", "b"]
