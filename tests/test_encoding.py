"""Tests for input serialization, teacher forcing, label alignment, and
batch collation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pickgen.corpus import (
    EOS_ID,
    PAD_ID,
    SOS_ID,
    UNK_ID,
    X1_ID,
    X2_ID,
    DialogueSample,
    LanguageConfig,
    build_vocab,
)
from pickgen.encoding import (
    IGNORE_MARK,
    EncodingError,
    Segment,
    align_labels,
    build_input,
    build_target,
    collate,
    encode_sample,
)
from pickgen.labeling import EmbeddingTable, PickerLabels, label_sample

ENGLISH = LanguageConfig.for_language("english")

WORDS = st.text(alphabet="abcdefghij", min_size=1, max_size=4)


def _decode(ids, vocab):
    return " ".join(vocab.token_of(i) for i in ids)


class TestBuildInput:
    def test_layout_example(self):
        sample = DialogueSample(("hello there", "hi"), "how are you",
                                "how are you doing", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        ids, segments = build_input(sample, vocab, ENGLISH)
        assert _decode(ids, vocab) == "hello there [X1] hi [X1] how are you [X2] </s>"
        kinds = [s.kind for s in segments]
        assert kinds == ["context", "context", "x1", "context", "x1",
                         "incomplete", "incomplete", "incomplete", "x2", "eos"]

    def test_length_accounting(self):
        # each context turn costs len+1 ([X1]); tail costs n+2 ([X2], </s>)
        sample = DialogueSample(("a b", "c"), "d", "c d", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        ids, _ = build_input(sample, vocab, ENGLISH)
        assert len(ids) == (2 + 1) + (1 + 1) + (1 + 2)

    def test_truncation_drops_oldest_first(self):
        sample = DialogueSample(("a b", "c"), "d", "c d", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        ids, segments = build_input(sample, vocab, ENGLISH, max_len=5)
        assert _decode(ids, vocab) == "c [X1] d [X2] </s>"
        assert segments[0] == Segment("context", 1, 0)

    def test_truncation_keeps_when_fits(self):
        sample = DialogueSample(("a b", "c"), "d", "c d", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        ids, _ = build_input(sample, vocab, ENGLISH, max_len=8)
        assert len(ids) == 8
        assert ids.count(X1_ID) == 2

    def test_last_turn_never_dropped(self):
        sample = DialogueSample(("a b c d e",), "f", "a f", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        with pytest.raises(EncodingError, match="exceeds"):
            build_input(sample, vocab, ENGLISH, max_len=6)

    def test_oov_context_becomes_unk(self):
        sample = DialogueSample(("hello",), "hi", "hello hi", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        other = DialogueSample(("mars",), "hi", None, "1")
        ids, _ = build_input(other, vocab, ENGLISH)
        assert ids[0] == UNK_ID

    @given(st.lists(st.lists(WORDS, min_size=1, max_size=4), min_size=1,
                    max_size=5),
           st.lists(WORDS, min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_structure_invariants(self, ctx_words, inc_words):
        sample = DialogueSample(tuple(" ".join(w) for w in ctx_words),
                                " ".join(inc_words), None, "0")
        vocab = build_vocab([sample], 1000, ENGLISH)
        ids, segments = build_input(sample, vocab, ENGLISH)
        assert ids.count(X1_ID) == len(ctx_words)
        assert ids.count(X2_ID) == 1
        assert ids[-1] == EOS_ID
        assert ids[-2] == X2_ID
        assert len(ids) == len(segments)


class TestBuildTarget:
    def test_shift_and_eos(self):
        sample = DialogueSample(("x",), "u", "x u", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        dec_in, dec_out = build_target("x u", vocab, ENGLISH)
        x, u = vocab.id_of("x"), vocab.id_of("u")
        assert dec_in == [SOS_ID, x, u]
        assert dec_out == [x, u, EOS_ID]

    def test_oov_reference_becomes_unk(self):
        sample = DialogueSample(("x",), "u", "x u", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        dec_in, dec_out = build_target("x mars", vocab, ENGLISH)
        assert dec_in == [SOS_ID, vocab.id_of("x"), UNK_ID]
        assert dec_out[1] == UNK_ID

    def test_empty_reference_rejected(self):
        sample = DialogueSample(("x",), "u", "x", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        with pytest.raises(EncodingError):
            build_target("", vocab, ENGLISH)


class TestAlignLabels:
    def _segments(self):
        return [
            Segment("context", 0, 0), Segment("context", 0, 1),
            Segment("x1", 0, -1),
            Segment("incomplete", -1, 0),
            Segment("x2", -1, -1), Segment("eos", -1, -1),
        ]

    def test_hard_identity_alignment(self):
        labels = PickerLabels("hard", tags=(("B", "O"),))
        out = align_labels(labels, self._segments())
        assert out == [1.0, 0.0, IGNORE_MARK, 0.0, IGNORE_MARK, IGNORE_MARK]

    def test_soft_identity_alignment(self):
        labels = PickerLabels("soft", scores=((0.9, 0.2),))
        out = align_labels(labels, self._segments())
        assert out == [0.9, 0.2, IGNORE_MARK, 0.0, IGNORE_MARK, IGNORE_MARK]

    def test_out_of_range_word_rejected(self):
        labels = PickerLabels("hard", tags=(("B",),))
        segments = [Segment("context", 0, 1), Segment("eos", -1, -1)]
        with pytest.raises(EncodingError, match="out of range"):
            align_labels(labels, segments)

    def test_out_of_range_utterance_rejected(self):
        labels = PickerLabels("hard", tags=(("B",),))
        segments = [Segment("context", 1, 0), Segment("eos", -1, -1)]
        with pytest.raises(EncodingError, match="utterance 1"):
            align_labels(labels, segments)


class TestEncodeSample:
    def _sample(self):
        return DialogueSample(("paramore formed in 2004",),
                              "when did they start to tour",
                              "when did paramore start to tour", "7")

    def test_end_to_end_hard(self):
        sample = self._sample()
        vocab = build_vocab([sample], 100, ENGLISH)
        labeled = label_sample(sample, "hard", EmbeddingTable(), ENGLISH)
        enc = encode_sample(sample, vocab, ENGLISH, labeled.labels)
        assert enc.id == "7"
        assert enc.picker_targets[:5] == (1.0, 0.0, 0.0, 0.0, IGNORE_MARK)
        assert enc.input_ids[-1] == EOS_ID
        assert enc.decoder_input[0] == SOS_ID
        assert enc.decoder_target[-1] == EOS_ID
        assert len(enc.decoder_input) == len(enc.decoder_target)

    def test_no_labels_means_ignore_everywhere(self):
        sample = self._sample()
        vocab = build_vocab([sample], 100, ENGLISH)
        enc = encode_sample(sample, vocab, ENGLISH)
        assert set(enc.picker_targets) == {IGNORE_MARK}

    def test_missing_reference_rejected(self):
        sample = DialogueSample(("a",), "u", None, "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        with pytest.raises(EncodingError, match="no reference"):
            encode_sample(sample, vocab, ENGLISH)

    def test_label_word_count_mismatch_names_utterance(self):
        sample = DialogueSample(("a b", "c"), "u", "a u", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        labels = PickerLabels("hard", tags=(("B", "O"), ("O", "O")))
        with pytest.raises(EncodingError, match="utterance 1"):
            encode_sample(sample, vocab, ENGLISH, labels=labels)

    def test_label_row_count_mismatch(self):
        sample = DialogueSample(("a b", "c"), "u", "a u", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        labels = PickerLabels("hard", tags=(("B", "O"),))
        with pytest.raises(EncodingError, match="label rows"):
            encode_sample(sample, vocab, ENGLISH, labels=labels)


class TestCollate:
    def _encoded(self, n_words, sample_id):
        ctx = " ".join(f"w{i}" for i in range(n_words))
        sample = DialogueSample((ctx,), "u", "u r", sample_id)
        vocab = build_vocab([sample], 100, ENGLISH)
        return encode_sample(sample, vocab, ENGLISH)

    def test_padding_and_masks(self):
        a = self._encoded(1, "a")
        b = self._encoded(4, "b")
        batch = collate([a, b])
        assert batch.input_ids.shape == (2, len(b.input_ids))
        n = len(a.input_ids)
        assert (batch.input_ids[0, n:] == PAD_ID).all()
        assert batch.input_mask[0, :n].tolist() == [1.0] * n
        assert (batch.input_mask[0, n:] == 0.0).all()
        assert (batch.picker_targets[0, n:] == IGNORE_MARK).all()

    def test_empty_batch_rejected(self):
        with pytest.raises(EncodingError):
            collate([])

    def test_target_padding(self):
        a = self._encoded(1, "a")
        batch = collate([a])
        assert batch.decoder_input.shape == batch.decoder_target.shape
        assert batch.target_mask.sum() == len(a.decoder_input)
