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
        ids, first = build_input(sample, vocab, ENGLISH)
        assert _decode(ids, vocab) == "hello there [X1] hi [X1] how are you [X2] </s>"
        assert first == (0, 0)

    def test_length_accounting(self):
        # each context turn costs len+1 ([X1]); tail costs n+2 ([X2], </s>)
        sample = DialogueSample(("a b", "c"), "d", "c d", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        ids, _ = build_input(sample, vocab, ENGLISH)
        assert len(ids) == (2 + 1) + (1 + 1) + (1 + 2)

    def test_truncation_drops_oldest_first(self):
        sample = DialogueSample(("a b", "c"), "d", "c d", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        ids, first = build_input(sample, vocab, ENGLISH, max_len=5)
        assert _decode(ids, vocab) == "c [X1] d [X2] </s>"
        assert first == (1, 0)

    def test_truncation_keeps_when_fits(self):
        sample = DialogueSample(("a b", "c"), "d", "c d", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        ids, _ = build_input(sample, vocab, ENGLISH, max_len=8)
        assert len(ids) == 8
        assert ids.count(X1_ID) == 2

    def test_last_turn_never_dropped(self):
        # the last turn loses its oldest words, not itself
        sample = DialogueSample(("a b", "c d e"), "f", "a f", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        ids, first = build_input(sample, vocab, ENGLISH, max_len=6)
        assert _decode(ids, vocab) == "d e [X1] f [X2] </s>"
        assert first == (1, 1)

    @pytest.mark.parametrize("max_len, text, first", [
        (5, "[X1] f g [X2] </s>", (0, 5)),
        (4, "[X1] g [X2] </s>", (0, 6)),
        (3, "[X1] [X2] </s>", (0, 7)),
    ])
    def test_incomplete_head_dropped_last(self, max_len, text, first):
        sample = DialogueSample(("a b c d e",), "f g", "a f", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        ids, got = build_input(sample, vocab, ENGLISH, max_len=max_len)
        assert _decode(ids, vocab) == text
        assert got == first

    def test_max_len_must_hold_the_markers(self):
        sample = DialogueSample(("a",), "f", "a f", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        with pytest.raises(EncodingError, match=r"\[X1\] \[X2\] </s>"):
            build_input(sample, vocab, ENGLISH, max_len=2)

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
        ids, first = build_input(sample, vocab, ENGLISH)
        assert ids.count(X1_ID) == len(ctx_words)
        assert ids.count(X2_ID) == 1
        assert ids[-1] == EOS_ID
        assert ids[-2] == X2_ID
        assert first == (0, 0)
        assert len(ids) == sum(len(w) + 1 for w in ctx_words) + len(inc_words) + 2


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

    def test_reserved_strings_in_text_are_not_control_ids(self):
        # the text spells [X1], </s> and <pad>; only the layout's own [X1],
        # [X2], </s> and <s> may be control ids
        sample = DialogueSample(("go to [X1] now </s> ok",), "there",
                                "go to <pad> </s> there", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        ids, _ = build_input(sample, vocab, ENGLISH)
        go, to, now, ok, there = (vocab.id_of(w) for w in ("go", "to", "now", "ok", "there"))
        assert ids == [go, to, UNK_ID, now, UNK_ID, ok, X1_ID, there, X2_ID, EOS_ID]
        dec_in, dec_out = build_target(sample.reference, vocab, ENGLISH)
        assert dec_in == [SOS_ID, go, to, UNK_ID, UNK_ID, there]
        assert dec_out == [go, to, UNK_ID, UNK_ID, there, EOS_ID]

    def test_empty_reference_rejected(self):
        sample = DialogueSample(("x",), "u", "x", "0")
        vocab = build_vocab([sample], 100, ENGLISH)
        with pytest.raises(EncodingError):
            build_target("", vocab, ENGLISH)


class TestAlignLabels:
    # layout of one two-word turn and a one-word incomplete utterance:
    # w0 w1 [X1] u [X2] </s>
    def test_hard_identity_alignment(self):
        labels = PickerLabels("hard", tags=(("B", "O"),))
        out = align_labels(labels, (0, 0), 6)
        assert out == [1.0, 0.0, IGNORE_MARK, 0.0, IGNORE_MARK, IGNORE_MARK]

    def test_soft_identity_alignment(self):
        labels = PickerLabels("soft", scores=((0.9, 0.2),))
        out = align_labels(labels, (0, 0), 6)
        assert out == [0.9, 0.2, IGNORE_MARK, 0.0, IGNORE_MARK, IGNORE_MARK]

    def test_truncated_start(self):
        # turn 0 dropped, the first word of turn 1 too: w2 [X1] u [X2] </s>
        labels = PickerLabels("hard", tags=(("B", "I"), ("O", "B")))
        out = align_labels(labels, (1, 1), 5)
        assert out == [1.0, IGNORE_MARK, 0.0, IGNORE_MARK, IGNORE_MARK]

    def test_incomplete_head_dropped(self):
        # both words of the only turn and the incomplete head are gone:
        # [X1] u2 [X2] </s>
        labels = PickerLabels("soft", scores=((0.9, 0.2),))
        out = align_labels(labels, (0, 3), 4)
        assert out == [IGNORE_MARK, 0.0, IGNORE_MARK, IGNORE_MARK]


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

    def test_over_long_turn_truncated_with_aligned_targets(self):
        words = [f"w{i}" for i in range(600)]
        sample = DialogueSample((" ".join(words),), "u v", "w0 u v", "long")
        vocab = build_vocab([sample], 1000, ENGLISH)
        tags = tuple("B" if i % 3 == 0 else "O" for i in range(600))
        labels = PickerLabels("hard", tags=(tags,))
        enc = encode_sample(sample, vocab, ENGLISH, labels, max_len=512)
        assert len(enc.input_ids) == 512
        dropped = 600 + 1 + 2 + 2 - 512
        assert enc.input_ids[:3] == tuple(vocab.id_of(w) for w in words[dropped:dropped + 3])
        context = 600 - dropped
        assert enc.picker_targets[:context] == tuple(
            1.0 if i % 3 == 0 else 0.0 for i in range(dropped, 600))
        assert enc.picker_targets[context:] == (IGNORE_MARK, 0.0, 0.0,
                                                 IGNORE_MARK, IGNORE_MARK)

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
