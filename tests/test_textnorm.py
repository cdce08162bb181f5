"""Tests for stopword loading (corpus), lemmatization, and stemming."""

from importlib import resources

import pytest
from hypothesis import given, strategies as st

from pickgen.corpus import builtin_stopwords, load_stopwords
from pickgen.textnorm import lemmatize, porter_stem


class TestStopwords:
    def test_english_contains_function_words(self):
        stops = builtin_stopwords("english")
        for word in ["i", "you", "they", "the", "a", "did", "to", "in", "when"]:
            assert word in stops

    def test_english_excludes_content_words(self):
        stops = builtin_stopwords("english")
        for word in ["paramore", "albums", "tour", "formed", "2004"]:
            assert word not in stops

    def test_chinese_contains_plural_suffix_not_pronoun_stem(self):
        stops = builtin_stopwords("chinese")
        assert "们" in stops
        assert "他" not in stops

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("foo\n\nbar\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"foo", "bar"})

    @pytest.mark.parametrize("language,size", [("english", 143), ("chinese", 70)])
    def test_builtin_reads_as_its_file_does(self, language, size):
        # one line per word in the packaged file, no blank lines or repeats
        path = resources.files("pickgen") / f"resources/stopwords/{language}.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert builtin_stopwords(language) == load_stopwords(path) == frozenset(lines)
        assert len(lines) == size

    def test_builtin_is_cached(self):
        assert builtin_stopwords("english") is builtin_stopwords("english")


class TestLemmatize:
    @pytest.mark.parametrize(
        "word,lemma",
        [
            ("albums", "album"),
            ("cities", "city"),
            ("boxes", "box"),
            ("churches", "church"),
            ("wishes", "wish"),
            ("buzzes", "buzz"),
            ("potatoes", "potato"),
            ("classes", "class"),
            ("bus", "bus"),
            ("analysis", "analysis"),
            ("broke", "break"),
            ("did", "do"),
            ("went", "go"),
            ("album", "album"),
        ],
    )
    def test_known_forms(self, word, lemma):
        assert lemmatize(word) == lemma

    def test_short_words_pass_through(self):
        assert lemmatize("as") == "as"
        assert lemmatize("up") == "up"

    def test_irregular_verbs_map_to_base(self):
        assert lemmatize("is") == "be"
        assert lemmatize("does") == "do"


class TestPorterStem:
    @pytest.mark.parametrize(
        "word,stem",
        [
            ("paramore", "paramor"),
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("motoring", "motor"),
            ("sing", "sing"),
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
            ("happy", "happi"),
            ("sky", "sky"),
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
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
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
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
            ("albums", "album"),
            ("formed", "form"),
            ("released", "releas"),
        ],
    )
    def test_classic_vectors(self, word, stem):
        assert porter_stem(word) == stem

    def test_short_and_nonalpha_pass_through(self):
        assert porter_stem("at") == "at"
        assert porter_stem("2004") == "2004"
        assert porter_stem("don't") == "don't"

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12))
    def test_never_longer_and_idempotent_prefixes(self, word):
        stem = porter_stem(word)
        assert len(stem) <= len(word)
        assert stem  # never empties a word
