"""Tests for greedy and beam-search decoding.

Beam search with beam size 1 must reduce to greedy decoding exactly. The
best hypothesis any beam returns is an EOS-terminated output, so its score
can never exceed the global argmax over exhaustive enumeration (a theorem,
tested on random models). Exact agreement WITH the exhaustive argmax and
monotonicity in beam size are not theorems for pruned search, so those are
asserted on pinned model fixtures that were verified to satisfy them.
"""

import numpy as np
import pytest

from oracles import exhaustive_best_hypothesis
from pickgen.corpus import (
    EOS_ID,
    PAD_ID,
    SOS_ID,
    DialogueSample,
    LanguageConfig,
    Vocabulary,
    RESERVED_TOKENS,
    build_vocab,
)
from pickgen.decoding import (
    BeamHypothesis,
    InferenceError,
    beam_search,
    default_max_decode_len,
    greedy_decode,
    hypothesis_text,
    load_predictions,
    predict_picker_tags,
    restore,
    restore_corpus,
    save_predictions,
)
from pickgen.labeling import EmbeddingTable, label_corpus
from pickgen.model import ModelConfig, init_parameters
from pickgen.synth import generate_corpus
from pickgen.training import TrainConfig, make_model_config, train

ENGLISH = LanguageConfig.for_language("english")


def toy_params(seed, vocab_size=6):
    cfg = ModelConfig(vocab_size=vocab_size, d_model=8, num_layers=1,
                      num_heads=2, ffn_dim=16, picker_widths=(4, 3),
                      picker_arity=3, rel_pos_buckets=8,
                      rel_pos_max_distance=16, dropout=0.0, seed=seed)
    return init_parameters(cfg)


class TestBeamHypothesis:
    def test_generated_strips_sos_and_eos(self):
        hyp = BeamHypothesis((SOS_ID, 7, 8, EOS_ID), -1.0, finished=True)
        assert hyp.generated() == (7, 8)

    def test_generated_keeps_unfinished_tail(self):
        hyp = BeamHypothesis((SOS_ID, 7, 8), -1.0)
        assert hyp.generated() == (7, 8)

    def test_empty_generation(self):
        hyp = BeamHypothesis((SOS_ID, EOS_ID), -0.5, finished=True)
        assert hyp.generated() == ()

    def test_score_normalization(self):
        hyp = BeamHypothesis((SOS_ID, 7, EOS_ID), -3.0, finished=True)
        assert hyp.score(1.0) == -1.5
        assert hyp.score(0.0) == -3.0
        assert hyp.score(2.0) == -0.75

    def test_score_of_sos_only(self):
        hyp = BeamHypothesis((SOS_ID,), -1.0)
        assert hyp.score(1.0) == -1.0  # length floors at 1


class TestGreedyVsBeamOne:
    def test_identical_on_random_models_and_inputs(self):
        rng = np.random.default_rng(42)
        for model_seed in range(6):
            params = toy_params(model_seed, vocab_size=9)
            for _ in range(4):
                length = int(rng.integers(2, 7))
                body = rng.integers(0, 9, size=length).tolist()
                input_ids = body + [EOS_ID]
                greedy = greedy_decode(params, input_ids, max_len=5)
                beam = beam_search(params, input_ids, beam_size=1, max_len=5)
                assert tuple(greedy) == beam[0].generated(), (
                    model_seed, input_ids)

    def test_pinned_empty_output(self):
        # seed chosen so the model's argmax at step one is EOS
        params = toy_params(5)
        assert greedy_decode(params, [4, 5, 3], max_len=4) == []
        best = beam_search(params, [4, 5, 3], beam_size=1, max_len=4)[0]
        assert best.generated() == ()
        assert best.finished

    def test_max_len_cutoff(self):
        params = toy_params(1)
        out = greedy_decode(params, [4, 5, 3], max_len=2)
        assert len(out) <= 2
        hyps = beam_search(params, [4, 5, 3], beam_size=3, max_len=2)
        for hyp in hyps:
            assert len(hyp.generated()) + int(hyp.finished) <= 2 + 1


class TestBeamAgainstExhaustive:
    # model seeds verified to make beam-8 recover the global argmax on this
    # input; other seeds (0, 4, 9, 13, ...) are genuine pruning failures
    AGREE_SEEDS = (1, 2, 3, 7, 11, 12, 14, 18, 21, 25)

    @pytest.mark.parametrize("seed", AGREE_SEEDS)
    def test_pinned_agreement(self, seed):
        params = toy_params(seed)
        input_ids = [4, 5, 3]
        best = beam_search(params, input_ids, beam_size=8, max_len=4)[0]
        score, ids = exhaustive_best_hypothesis(params, input_ids, 4)
        assert best.finished
        assert best.ids == ids
        assert best.score(1.0) == pytest.approx(score, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_finished_beam_never_beats_exhaustive(self, seed):
        # the bound only holds for EOS-terminated outputs; a narrow beam may
        # return an unfinished hypothesis, which is not comparable
        params = toy_params(seed)
        input_ids = [4, 5, 3]
        score, _ = exhaustive_best_hypothesis(params, input_ids, 4)
        for beam_size in (1, 2, 8):
            best = beam_search(params, input_ids, beam_size=beam_size,
                               max_len=4)[0]
            if best.finished:
                assert best.score(1.0) <= score + 1e-12

    def test_full_width_beam_always_finishes(self):
        # beam size >= vocab keeps the EOS-only candidate alive from step one
        for seed in range(12):
            best = beam_search(toy_params(seed), [4, 5, 3], beam_size=8,
                               max_len=4)[0]
            assert best.finished

    @pytest.mark.parametrize("seed,input_ids", [
        (18, [5, 3]), (33, [1, 4, 0, 5, 3]), (4, [5, 3]),
    ])
    def test_dominance_on_pinned_fixtures(self, seed, input_ids):
        params = toy_params(seed)
        scores = [
            beam_search(params, input_ids, beam_size=b, max_len=4)[0].score(1.0)
            for b in range(1, 9)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))


class TestBeamMechanics:
    def test_scores_recomputable_by_teacher_forcing(self):
        from pickgen.autodiff import no_grad
        from pickgen.decoding import _encode_single
        from pickgen.model import decode_forward

        params = toy_params(2)
        input_ids = [4, 5, 3]
        for hyp in beam_search(params, input_ids, beam_size=4, max_len=4,
                               nbest=4):
            enc = _encode_single(params, input_ids)
            with no_grad():
                dists = decode_forward(
                    enc, np.asarray([hyp.ids[:-1]], dtype=np.int64), params)
            logs = np.log(np.maximum(dists.data[0], 1e-300))
            total = sum(float(logs[t, hyp.ids[t + 1]])
                        for t in range(len(hyp.ids) - 1))
            assert total == pytest.approx(hyp.logp, abs=1e-5)

    def test_nbest_sorted_and_unique(self):
        params = toy_params(3)
        hyps = beam_search(params, [4, 5, 3], beam_size=6, max_len=4, nbest=5)
        assert len(hyps) <= 5
        scores = [h.score(1.0) for h in hyps]
        assert scores == sorted(scores, reverse=True)
        assert len({h.ids for h in hyps}) == len(hyps)

    def test_deterministic(self):
        params = toy_params(7)
        a = beam_search(params, [4, 5, 3], beam_size=8, max_len=4)
        b = beam_search(params, [4, 5, 3], beam_size=8, max_len=4)
        assert a == b

    def test_bad_beam_size(self):
        with pytest.raises(InferenceError):
            beam_search(toy_params(0), [4, 5, 3], beam_size=0)

    def test_bad_nbest(self):
        with pytest.raises(InferenceError, match="nbest"):
            beam_search(toy_params(0), [4, 5, 3], beam_size=2, nbest=0)


class TestDefaultMaxDecodeLen:
    def test_from_reference_lengths(self):
        samples = [
            DialogueSample(("a",), "u", "one two three", "0"),
            DialogueSample(("a",), "u", "one two three four five", "1"),
        ]
        assert default_max_decode_len(samples, ENGLISH) == 13

    def test_no_references(self):
        samples = [DialogueSample(("a",), "u", None, "0")]
        assert default_max_decode_len(samples, ENGLISH) == 64

    def test_capped(self):
        samples = [DialogueSample(("a",), "u", " ".join(["x"] * 100), "0")]
        assert default_max_decode_len(samples, ENGLISH) == 64


class TestRestore:
    def test_vocab_size_mismatch_rejected(self):
        params = toy_params(0)
        vocab = Vocabulary.from_tokens(list(RESERVED_TOKENS) + ["a", "b"])
        sample = DialogueSample(("a",), "b", None, "0")
        with pytest.raises(InferenceError, match="vocabulary"):
            restore(sample, params, vocab, ENGLISH)

    def test_hypothesis_text_strips_specials(self):
        vocab = Vocabulary.from_tokens(list(RESERVED_TOKENS) + ["hi", "there"])
        hyp = BeamHypothesis((SOS_ID, 6, PAD_ID, 7, EOS_ID), -1.0, True)
        assert hypothesis_text(hyp, vocab, ENGLISH) == "hi there"

    def test_restore_corpus_preserves_ids_and_order(self):
        corpus = generate_corpus(4, seed=2)
        vocab = build_vocab(corpus, 200, ENGLISH)
        params = init_parameters(make_model_config(
            len(vocab), "hard", d_model=8, num_layers=1, num_heads=2,
            ffn_dim=16, picker_hidden=(4,), dropout=0.0))
        pairs = restore_corpus(corpus, params, vocab, ENGLISH, beam_size=2)
        assert [p[0] for p in pairs] == [s.id for s in corpus]
        assert all(isinstance(p[1], str) for p in pairs)

    def test_trained_model_restores_memorized_sample(self):
        corpus = generate_corpus(2, seed=6)
        labeled = label_corpus(corpus, "hard", EmbeddingTable(), ENGLISH)
        vocab = build_vocab(corpus, 200, ENGLISH)
        mcfg = make_model_config(len(vocab), "hard", seed=1, d_model=16,
                                 num_layers=1, num_heads=2, ffn_dim=32,
                                 picker_hidden=(8,), dropout=0.0)
        cfg = TrainConfig(epochs=60, batch_size=2, learning_rate=3e-3,
                          seed=0)
        result = train(labeled, cfg, mcfg, vocab, ENGLISH)
        text = restore(corpus[0], result.state.params, vocab, ENGLISH,
                       beam_size=2, max_len=16)
        assert text == corpus[0].reference


class TestPredictPickerTags:
    def _setup(self):
        corpus = generate_corpus(3, seed=1)
        vocab = build_vocab(corpus, 200, ENGLISH)
        params = init_parameters(make_model_config(
            len(vocab), "hard", d_model=8, num_layers=1, num_heads=2,
            ffn_dim=16, picker_hidden=(4,), dropout=0.0))
        return corpus, vocab, params

    def test_row_shapes_match_context(self):
        corpus, vocab, params = self._setup()
        sample = corpus[0]
        rows = predict_picker_tags(sample, params, vocab, ENGLISH)
        assert len(rows) == len(sample.context)
        for utterance, row in zip(sample.context, rows):
            assert len(row) == len(utterance.split())
        for row in rows:
            assert set(row) <= {"O", "B", "I"}

    def test_soft_picker_rejected(self):
        corpus, vocab, _ = self._setup()
        soft_params = init_parameters(make_model_config(
            len(vocab), "soft", d_model=8, num_layers=1, num_heads=2,
            ffn_dim=16, picker_hidden=(4,), dropout=0.0))
        with pytest.raises(InferenceError, match="arity 3"):
            predict_picker_tags(corpus[0], soft_params, vocab, ENGLISH)

    def test_truncated_utterances_stay_all_o(self):
        vocab = Vocabulary.from_tokens(list(RESERVED_TOKENS) + ["a", "b", "c"])
        params = init_parameters(ModelConfig(
            vocab_size=len(vocab), d_model=8, num_layers=1, num_heads=2,
            ffn_dim=16, picker_widths=(4, 3), picker_arity=3,
            rel_pos_buckets=8, rel_pos_max_distance=16, dropout=0.0))
        sample = DialogueSample(("a b c", "b"), "c", None, "0")
        rows = predict_picker_tags(sample, params, vocab, ENGLISH,
                                   input_max_len=6)
        assert rows[0] == ["O", "O", "O"]


class TestPredictionsIO:
    def test_round_trip(self, tmp_path):
        pairs = [("0", "hello there"), ("x", ""), ("2", "再 见")]
        path = tmp_path / "predictions.jsonl"
        save_predictions(pairs, path)
        assert load_predictions(path) == dict(pairs)

    def test_byte_deterministic(self, tmp_path):
        pairs = [("0", "a"), ("1", "b")]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_predictions(pairs, p1)
        save_predictions(pairs, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        path.write_text('{"id": "0", "prediction": "a"}\n'
                        '{"id": "0", "prediction": "b"}\n', encoding="utf-8")
        with pytest.raises(InferenceError, match="duplicate"):
            load_predictions(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        path.write_text('{"id": "0"}\n', encoding="utf-8")
        with pytest.raises(InferenceError, match="prediction"):
            load_predictions(path)
