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
    read_jsonl,
    save_corpus,
    tokenize,
    write_jsonl,
)
from pickgen.decoding import InferenceError, load_predictions
from pickgen.labeling import LabelError, load_labeled_corpus


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
    def test_joiner(self, english, chinese):
        assert english.joiner == " "
        assert chinese.joiner == ""

    def test_settings_follow_the_language(self):
        assert LanguageConfig("chinese").by_character
        assert not LanguageConfig("german").by_character
        assert LanguageConfig("english").stems
        assert not LanguageConfig("chinese").stems
        assert not LanguageConfig("german").stems


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


def _load_labeled(path):
    return load_labeled_corpus(path, LanguageConfig.for_language("english"))


# (reader, its error class, a record it accepts): corpus, labeled corpus and
# predictions files share read_jsonl's rules for blank and malformed lines
READERS = [
    (load_corpus, CorpusError,
     {"context": ["a b"], "utterance": "u", "reference": "a u"}),
    (_load_labeled, LabelError,
     {"context": ["a b"], "utterance": "u", "reference": "a u",
      "labels": {"mode": "hard", "tags": [["B", "O"]]}}),
    (load_predictions, InferenceError, {"id": "0", "prediction": "a u"}),
]
READER_IDS = ["corpus", "labeled", "predictions"]


class TestJsonlReaders:
    @pytest.mark.parametrize("reader,error,record", READERS, ids=READER_IDS)
    def test_blank_lines_skipped(self, tmp_path, reader, error, record):
        path = tmp_path / "f.jsonl"
        lines = ["", json.dumps(record), "   ", json.dumps({**record, "id": "1"}), ""]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert len(reader(str(path))) == 2

    @pytest.mark.parametrize("bad,problem", [
        ("{not json", "invalid JSON"),
        ('["a", "b"]', "record must be a JSON object"),
        ("3", "record must be a JSON object"),
    ], ids=["json", "array", "number"])
    @pytest.mark.parametrize("reader,error,record", READERS, ids=READER_IDS)
    def test_bad_line_raises_readers_own_error(self, tmp_path, reader, error,
                                               record, bad, problem):
        path = tmp_path / "f.jsonl"
        path.write_text(f"{json.dumps(record)}\n\n{bad}\n", encoding="utf-8")
        with pytest.raises(error) as info:
            reader(str(path))
        assert type(info.value) is error
        assert str(info.value).startswith(f"{path}:3: {problem}")

    def test_write_sorts_keys_and_keeps_non_ascii(self, tmp_path):
        path = tmp_path / "f.jsonl"
        write_jsonl([{"b": "\u4f60\u597d", "a": 1}, {"c": None}], str(path))
        assert path.read_bytes() == (
            '{"a": 1, "b": "\u4f60\u597d"}\n{"c": null}\n'.encode("utf-8"))
        assert list(read_jsonl(str(path), CorpusError)) == [
            (f"{path}:1", {"a": 1, "b": "\u4f60\u597d"}), (f"{path}:2", {"c": None})]


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
