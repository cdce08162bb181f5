"""Tests for the dialogue data model, JSONL I/O, tokenization, and vocab."""

import json

import pytest
from hypothesis import given, strategies as st

from pickgen.corpus import (
    CorpusError,
    DialogueSample,
    LanguageConfig,
    Vocabulary,
    EOS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    SOS_ID,
    UNK_ID,
    X1_ID,
    X2_ID,
    build_vocab,
    detokenize,
    ids_of,
    load_corpus,
    save_corpus,
    tokenize,
)


@pytest.fixture
def english():
    return LanguageConfig.for_language("english")


@pytest.fixture
def chinese():
    return LanguageConfig.for_language("chinese")


class TestDialogueSample:
    def test_fields(self):
        s = DialogueSample(("a", "b"), "u", "r", "0")
        assert s.context == ("a", "b")
        assert (s.incomplete, s.reference, s.id) == ("u", "r", "0")

    def test_empty_context_rejected(self):
        with pytest.raises(CorpusError):
            DialogueSample((), "u", "r", "0")

    def test_blank_utterance_rejected(self):
        with pytest.raises(CorpusError):
            DialogueSample(("a",), "   ", "r", "0")

    def test_blank_context_turn_rejected(self):
        with pytest.raises(CorpusError):
            DialogueSample(("a", " "), "u", "r", "0")

    def test_reference_optional(self):
        s = DialogueSample(("a",), "u", None, "0")
        assert s.reference is None


class TestTokenize:
    def test_whitespace_mode(self, english):
        assert tokenize("when  did they\ttour", english) == [
            "when", "did", "they", "tour"]

    def test_character_mode(self, chinese):
        assert tokenize("他们 出发", chinese) == ["他", "们", "出", "发"]

    def test_detokenize_round_trip(self, english, chinese):
        assert detokenize(["a", "b"], english) == "a b"
        assert detokenize(["他", "们"], chinese) == "他们"

    def test_empty_string(self, english):
        assert tokenize("", english) == []


class TestLanguageConfig:
    def test_chinese_forbids_lemma_and_stem(self):
        with pytest.raises(ValueError):
            LanguageConfig(language="chinese", lemmatize=True, stem=False,
                           granularity="character")
        with pytest.raises(ValueError):
            LanguageConfig(language="chinese", lemmatize=False, stem=True,
                           granularity="character")

    def test_bad_granularity_rejected(self):
        with pytest.raises(ValueError):
            LanguageConfig(granularity="bpe")

    def test_joiner(self, english, chinese):
        assert english.joiner == " "
        assert chinese.joiner == ""


class TestLoadCorpus:
    def _write(self, tmp_path, lines):
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_load_basic(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"context": ["a b"], "utterance": "c", "reference": "a c"}),
            json.dumps({"context": ["d"], "utterance": "e", "reference": "d e",
                        "id": "x9"}),
        ])
        samples = load_corpus(path)
        assert len(samples) == 2
        assert samples[0].id == "0"
        assert samples[0].context == ("a b",)
        assert samples[1].id == "x9"

    def test_sequential_default_ids(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"context": ["a"], "utterance": "u", "reference": "r"})
            for _ in range(3)
        ])
        assert [s.id for s in load_corpus(path)] == ["0", "1", "2"]

    def test_bad_json_names_line(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"context": ["a"], "utterance": "u", "reference": "r"}),
            "{not json",
        ])
        with pytest.raises(CorpusError, match=r":2:"):
            load_corpus(path)

    def test_missing_field_names_line(self, tmp_path):
        path = self._write(tmp_path, [json.dumps({"utterance": "u"})])
        with pytest.raises(CorpusError, match=r":1:.*context"):
            load_corpus(path)

    def test_wrong_type_rejected(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"context": "not a list", "utterance": "u",
                        "reference": "r"})])
        with pytest.raises(CorpusError):
            load_corpus(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusError):
            load_corpus(path)

    def test_extra_fields_ignored(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"context": ["a"], "utterance": "u", "reference": "r",
                        "speaker": "alice"})])
        assert load_corpus(path)[0].incomplete == "u"

    def test_save_round_trip(self, tmp_path):
        samples = [
            DialogueSample(("a b", "c"), "u one", "r one", "0"),
            DialogueSample(("d",), "u two", None, "1"),
        ]
        path = tmp_path / "out.jsonl"
        save_corpus(samples, path)
        back = load_corpus(path)
        assert [s.context for s in back] == [s.context for s in samples]
        assert back[1].reference is None


def _vocab(*extra: str) -> Vocabulary:
    return Vocabulary.from_tokens(list(RESERVED_TOKENS) + list(extra))


class TestVocabulary:
    def test_reserved_layout(self):
        vocab = _vocab()
        assert vocab.id_to_token[:6] == RESERVED_TOKENS
        assert (PAD_ID, UNK_ID, SOS_ID, EOS_ID, X1_ID, X2_ID) == (0, 1, 2, 3, 4, 5)

    def test_reserved_prefix_required(self):
        with pytest.raises(CorpusError):
            Vocabulary.from_tokens(["a", "b"])

    def test_duplicates_rejected(self):
        with pytest.raises(CorpusError):
            _vocab("a", "a")

    def test_id_of_unknown_maps_to_unk(self):
        vocab = _vocab("a")
        assert vocab.id_of("zzz") == UNK_ID
        assert vocab.id_of("a") == 6

    def test_token_of_round_trip(self):
        vocab = _vocab("a", "b")
        assert vocab.token_of(vocab.id_of("b")) == "b"
        assert len(vocab) == 8

    def test_save_load_round_trip(self, tmp_path):
        vocab = _vocab("b", "a")
        path = tmp_path / "vocab.json"
        vocab.save(path)
        again = Vocabulary.load(path)
        assert again.id_to_token == vocab.id_to_token

    def test_load_rejects_non_list(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text('{"a": 1}', encoding="utf-8")
        with pytest.raises(CorpusError):
            Vocabulary.load(path)

    def test_save_is_byte_deterministic(self, tmp_path):
        vocab = _vocab("b", "a")
        p1, p2 = tmp_path / "v1.json", tmp_path / "v2.json"
        vocab.save(p1)
        vocab.save(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestBuildVocab:
    def test_frequency_then_lexicographic(self, english):
        samples = [DialogueSample(
            ("b b c",), "a a a", "c", "0")]
        vocab = build_vocab(samples, 100, english)
        # a: 3, b: 2, c: 2 -> a, then b before c on tie
        assert vocab.id_to_token[6:9] == ("a", "b", "c")

    def test_reference_tokens_counted(self, english):
        samples = [DialogueSample(("x",), "y", "zed zed zed", "0")]
        vocab = build_vocab(samples, 100, english)
        assert vocab.id_to_token[6] == "zed"

    def test_truncation_to_max_size(self, english):
        samples = [DialogueSample(
            ("e d c b a",), "u", "r", "0")]
        vocab = build_vocab(samples, 8, english)
        assert len(vocab) == 8
        assert vocab.id_to_token[6:] == ("a", "b")

    def test_max_size_must_fit_reserved(self, english):
        samples = [DialogueSample(("a",), "u", "r", "0")]
        with pytest.raises(CorpusError):
            build_vocab(samples, 5, english)

    def test_reserved_tokens_not_duplicated(self, english):
        samples = [DialogueSample(("[X1] </s>",), "u", "r", "0")]
        vocab = build_vocab(samples, 100, english)
        assert vocab.id_to_token.count("[X1]") == 1
        assert vocab.id_to_token.count("</s>") == 1

    def test_character_granularity(self, chinese):
        samples = [DialogueSample(("他们",), "走", "他们走", "0")]
        vocab = build_vocab(samples, 100, chinese)
        assert "他" in vocab.token_to_id
        assert "他们" not in vocab.token_to_id


class TestIdsOf:
    def test_oov_becomes_unk(self):
        vocab = _vocab("hello")
        assert ids_of(["hello", "mars"], vocab) == [6, UNK_ID]

    @given(st.lists(st.sampled_from(["a", "b", "c", "qqq"]), max_size=8))
    def test_length_preserved(self, tokens):
        vocab = _vocab("a", "b", "c")
        assert len(ids_of(tokens, vocab)) == len(tokens)
