"""Tests for greedy and beam-search decoding.

Beam search with beam size 1 must reduce to greedy decoding exactly. The
best hypothesis any beam returns is an EOS-terminated output, so its score
can never exceed the global argmax over exhaustive enumeration (a theorem,
tested on random models). Exact agreement WITH the exhaustive argmax and
monotonicity in beam size are not theorems for pruned search, so those are
asserted on pinned model fixtures that were verified to satisfy them.
"""

import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    encode_single,
    exhaustive_best_hypothesis,
    next_log_probs,
    reference_beam_search,
)
from pickgen import decoding, model
from pickgen.autodiff import Tensor, log_softmax, no_grad
from pickgen.corpus import (
    EOS_ID,
    EOS_TOKEN,
    PAD_ID,
    PAD_TOKEN,
    SOS_ID,
    SOS_TOKEN,
    UNK_ID,
    X1_ID,
    X1_TOKEN,
    X2_ID,
    X2_TOKEN,
    DialogueSample,
    LanguageConfig,
    Vocabulary,
    RESERVED_TOKENS,
    build_vocab,
)
from pickgen.decoding import (
    RESTORE_CHUNK,
    BeamHypothesis,
    _search,
    InferenceError,
    beam_search,
    default_max_decode_len,
    greedy_decode,
    hypothesis_text,
    load_predictions,
    predict_picker_tags,
    restore,
    restore_corpus,
    restore_ranked,
    save_predictions,
)
from pickgen.encoding import IGNORE_MARK, build_input, encode_sample
from pickgen.labeling import BIO_TO_CLASS, EmbeddingTable, PickerLabels, label_corpus
from pickgen.model import (
    DecoderCache,
    ModelConfig,
    ModelError,
    _query_grid,
    decode_forward,
    encode,
    init_parameters,
)
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
        params = toy_params(2)
        input_ids = [4, 5, 3]
        for hyp in beam_search(params, input_ids, beam_size=4, max_len=4,
                               nbest=4):
            enc = encode_single(params, input_ids)
            with no_grad():
                logits = decode_forward(
                    enc, np.asarray([hyp.ids[:-1]], dtype=np.int64), params)
            logs = log_softmax(logits.data)[0]
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

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_survivors_rank_by_score_then_ids(self, data):
        # three score values make ties common; a sort of every candidate in
        # Python breaks them by parent prefix, then row, then token
        per_source = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        rows, vocab = sum(per_source), data.draw(st.integers(1, 5))
        beam = data.draw(st.integers(1, 6))
        scores = np.array(data.draw(st.lists(
            st.sampled_from([-1.0, -2.0, -3.0]), min_size=rows * vocab,
            max_size=rows * vocab))).reshape(rows, vocab)
        prefixes = np.array(data.draw(st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=rows,
            max_size=rows)), dtype=np.int64)
        source = np.repeat(np.arange(len(per_source)), per_source)
        expected = []
        for s in range(len(per_source)):
            candidates = sorted(
                (-scores[r, t], tuple(prefixes[r].tolist()), r, t)
                for r in np.flatnonzero(source == s).tolist() for t in range(vocab))
            expected += [(r, t) for _, _, r, t in candidates[:beam]]
        got_rows, got_tokens = decoding._survivors(scores, prefixes, source, beam)
        assert list(zip(got_rows.tolist(), got_tokens.tolist())) == expected

    def test_bad_beam_size(self):
        with pytest.raises(InferenceError):
            beam_search(toy_params(0), [4, 5, 3], beam_size=0)

    def test_bad_nbest(self):
        with pytest.raises(InferenceError, match="nbest"):
            beam_search(toy_params(0), [4, 5, 3], beam_size=2, nbest=0)

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_bad_max_len(self, max_len):
        # zero steps would restore every input to the empty string
        with pytest.raises(InferenceError, match="max_len"):
            beam_search(toy_params(0), [4, 5, 3], beam_size=2, max_len=max_len)

    @pytest.mark.parametrize("penalty", [1000.0, 1000, -1000.0, float("nan"),
                                         float("inf")])
    def test_extreme_length_penalty_rejected(self, penalty):
        # 64 ** 1000 overflows a float, 64 ** -1000 underflows to 0
        with pytest.raises(InferenceError, match="length_penalty"):
            _search(toy_params(0), [[4, 5, 3]], 2, 64, penalty, 1)[0]

    def test_large_penalty_accepted_when_normalizers_fit(self):
        hyps = _search(toy_params(0), [[4, 5, 3]], 2, 4, 100.0, 1)[0]
        assert hyps and all(np.isfinite(h.score(100.0)) for h in hyps)


class TestDecoderCache:
    """One cached step per token gives the log-probs of the decoder run over
    the whole prefix from a fresh cache, for rows of different encoder
    inputs, padded to one length, after the rows are reordered with repeats
    and after an input has no rows left."""

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_cached_steps_match_full_prefix(self, num_layers):
        # distances past rel_pos_max_distance reach the clamped bucket
        params = init_parameters(ModelConfig(
            vocab_size=11, d_model=8, num_layers=num_layers, num_heads=2,
            ffn_dim=16, picker_widths=(4, 3), rel_pos_buckets=8,
            rel_pos_max_distance=6, dropout=0.0, seed=num_layers))
        rng = np.random.default_rng(num_layers)
        inputs = [rng.integers(3, 11, size=n).tolist() + [EOS_ID] for n in (3, 8)]
        ids = np.full((2, 9), PAD_ID)
        mask = np.zeros((2, 9))
        for row, seq in enumerate(inputs):
            ids[row, :len(seq)] = seq
            mask[row, :len(seq)] = 1.0
        with no_grad():
            enc = encode(ids, mask, params)
        single = [encode_single(params, seq) for seq in inputs]
        cache = DecoderCache(source=np.array([0, 0, 1, 1, 1]))
        prefixes = rng.integers(3, 11, size=(5, 14))
        prefixes[:, 0] = SOS_ID
        # sources [0, 0, 1, 1, 1] -> [0, 0, 1, 1] -> [1, 1, 1]: input 0 loses
        # all its rows, so its query slots go unused
        reorders = {6: np.array([1, 1, 2, 4]), 10: np.array([2, 2, 3])}
        for step in range(14):
            if step in reorders:
                rows = reorders[step]
                cache.reorder(rows)
                prefixes = prefixes[rows]
                prefixes[:, step:] = rng.integers(3, 11, size=(len(rows), 14 - step))
            elif step:
                cache.reorder(np.arange(len(cache.source)))  # every row kept
            with no_grad():
                logits = decode_forward(enc, prefixes[:, step:step + 1], params,
                                        cache=cache)
            got = log_softmax(logits.data)[:, -1]
            for row, source in enumerate(cache.source):
                want = next_log_probs(params, single[source],
                                      [tuple(prefixes[row, :step + 1])])[0]
                assert np.abs(got[row] - want).max() <= 1e-12, (step, row)

    def test_reorder_gathers_rows_with_room_for_one_step(self):
        # a step without a reorder since the last one is refused; after
        # reorder(rows), each layer holds old[rows] bit for bit with one free
        # position; the next step fills exactly that position, and both
        # layers share one query grid, equal to its recomputation from source
        params = init_parameters(ModelConfig(
            vocab_size=11, d_model=8, num_layers=2, num_heads=2, ffn_dim=16,
            picker_widths=(4, 3), rel_pos_buckets=8, rel_pos_max_distance=6,
            dropout=0.0, seed=5))
        rng = np.random.default_rng(5)
        ids = rng.integers(3, 11, size=(3, 6))
        prefixes = rng.integers(3, 11, size=(5, 4))
        cache = DecoderCache(source=np.array([0, 0, 1, 2, 2]))
        with no_grad():
            enc = encode(ids, np.ones((3, 6)), params)
            for step in range(3):
                if step:
                    cache.reorder(np.arange(5))
                decode_forward(enc, prefixes[:, step:step + 1], params, cache=cache)
            with pytest.raises(ModelError, match="must follow DecoderCache.reorder"):
                decode_forward(enc, prefixes[:, 3:4], params, cache=cache)
            old = [[x.data.copy() for x in kv] for kv in cache.self_kv]
            rows = np.array([1, 1, 1, 3, 4, 4])
            cache.reorder(rows)
            for kv, was in zip(cache.self_kv, old):
                for x, w in zip(kv, was):
                    assert x.shape == (6, 4, 8)
                    assert x.data[:, :3].tobytes() == w[rows].tobytes()
            with mock.patch.object(model, "_query_grid", wraps=model._query_grid) as grid:
                decode_forward(enc, prefixes[rows, 3:4], params, cache=cache)
        assert grid.call_count == 1 and cache.length == 4
        for kv, was in zip(cache.self_kv, old):
            for x, w in zip(kv, was):
                assert x.shape == (6, 4, 8)
                assert x.data[:, :3].tobytes() == w[rows].tobytes()
        source = cache.source.tolist()
        assert source == [0, 0, 0, 2, 2, 2]
        slots = [source[:r].count(source[r]) for r in range(6)]
        members, back = cache.grid
        want = np.zeros((3, 3), dtype=np.int64)  # unused slots read row 0
        want[source, slots] = np.arange(6)
        assert members.tolist() == want.tolist()
        assert back.tolist() == [3 * s + j for s, j in zip(source, slots)]
        assert _query_grid(np.arange(3), 3) == (None, None)

    def test_rows_as_many_as_inputs_but_regrouped(self):
        # three decoder rows over three encoder rows, decoding inputs 0, 0
        # and 2: as many rows as inputs, yet row 1 must read input 0
        params = init_parameters(ModelConfig(
            vocab_size=11, d_model=8, num_layers=2, num_heads=2, ffn_dim=16,
            picker_widths=(4, 3), rel_pos_buckets=8, rel_pos_max_distance=6,
            dropout=0.0, seed=3))
        rng = np.random.default_rng(3)
        inputs = [rng.integers(3, 11, size=n).tolist() + [EOS_ID] for n in (4, 2, 6)]
        ids = np.full((3, 7), PAD_ID)
        mask = np.zeros((3, 7))
        for row, seq in enumerate(inputs):
            ids[row, :len(seq)] = seq
            mask[row, :len(seq)] = 1.0
        prefixes = rng.integers(3, 11, size=(3, 5))
        prefixes[:, 0] = SOS_ID
        source = np.array([0, 0, 2])
        with no_grad():
            enc = encode(ids, mask, params)
            got = decode_forward(enc, prefixes, params,
                                 cache=DecoderCache(source=source)).data
            for row, src in enumerate(source):
                want = decode_forward(encode_single(params, inputs[src]),
                                      prefixes[row:row + 1], params).data[0]
                assert np.abs(got[row] - want).max() <= 1e-12, row


class TestAgainstReferenceBeam:
    """The vectorized search keeps the reference's candidates and order."""

    @pytest.mark.parametrize("seed", range(8))
    def test_same_hypotheses_as_reference(self, seed):
        rng = np.random.default_rng(seed)
        params = toy_params(seed, vocab_size=9)
        input_ids = rng.integers(3, 9, size=int(rng.integers(2, 7))).tolist()
        for beam_size in (1, 3, 8):
            got = beam_search(params, input_ids, beam_size, max_len=5, nbest=8)
            want = reference_beam_search(params, input_ids, beam_size, 5, nbest=8)
            assert [h.ids for h in got] == [h.ids for h in want]
            assert [h.logp for h in got] == pytest.approx(
                [h.logp for h in want], abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_greedy_is_stepwise_argmax(self, seed):
        params = toy_params(seed, vocab_size=9)
        enc = encode_single(params, [4, 5, 3])
        prefix = (SOS_ID,)
        while len(prefix) <= 5:
            token = int(np.argmax(next_log_probs(params, enc, [prefix])[0]))
            if token == EOS_ID:
                break
            prefix += (token,)
        assert greedy_decode(params, [4, 5, 3], max_len=5) == list(prefix[1:])

    def test_all_tied_candidates(self):
        # a zero lm_head ties every candidate: ids alone order them; at
        # max_len 10 the early stop fires at penalties 0 and 0.5 and must
        # drop no hypothesis the full-length reference returns
        params = toy_params(3, vocab_size=9)
        params["lm_head"].data[:] = 0.0
        for penalty in (0.0, 0.5, 1.0, 2.0):
            for nbest in (1, 4):
                got = _search(params, [[4, 5, 3]], 4, 10, penalty, nbest)[0]
                want = reference_beam_search(params, [4, 5, 3], 4, 10, penalty,
                                             nbest)
                assert [h.ids for h in got] == [h.ids for h in want]
                assert [h.logp for h in got] == [h.logp for h in want]

    def test_wide_vocabulary(self):
        params = toy_params(4, vocab_size=300)
        got = beam_search(params, [40, 250, 7, 3], 8, max_len=4, nbest=8)
        want = reference_beam_search(params, [40, 250, 7, 3], 8, 4, nbest=8)
        assert [h.ids for h in got] == [h.ids for h in want]


def eos_raised_params(seed, raise_by):
    """A toy model whose EOS column is raised, so that hypotheses finish
    early and inputs can stop before max_len."""
    params = toy_params(seed, vocab_size=9)
    params["lm_head"].data[:, EOS_ID] += raise_by
    return params


class TestEarlyStop:
    """An input leaves the batch once no live row can change its n-best; the
    reference search never stops early."""

    @given(st.integers(0, 30), st.sampled_from((1.0, 2.0, 4.0)),
           st.lists(st.lists(st.integers(3, 8), min_size=1, max_size=5),
                    min_size=1, max_size=3),
           st.sampled_from((0.0, 0.5, 1.0, 2.0)), st.sampled_from((1, 3, 8)),
           st.sampled_from((1, 3, "beam")), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_same_hypotheses_as_reference(self, seed, raise_by, inputs, penalty,
                                          beam, nbest, max_len):
        nbest = beam if nbest == "beam" else nbest
        params = eos_raised_params(seed, raise_by)
        batched = _search(params, inputs, beam, max_len, penalty, nbest)
        for input_ids, in_batch in zip(inputs, batched):
            got = _search(params, [input_ids], beam, max_len, penalty, nbest)[0]
            want = reference_beam_search(params, input_ids, beam, max_len,
                                         penalty, nbest)
            for hyps in (got, in_batch):
                assert [h.ids for h in hyps] == [h.ids for h in want]
                assert [h.logp for h in hyps] == pytest.approx(
                    [h.logp for h in want], abs=1e-12)

    def test_stops_before_max_len(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return decode_forward(*args, **kwargs)

        monkeypatch.setattr(decoding, "decode_forward", counted)
        beam_search(eos_raised_params(0, 2.0), [4, 5, 3], 3, max_len=12)
        assert 0 < len(calls) < 12

    def test_tied_bound_keeps_input_running(self, monkeypatch):
        # (SOS, UNK) ties the finished (SOS, EOS) at -log 2 and then adds
        # EOS at log-prob 0, so (SOS, UNK, EOS) ties it too and wins on ids:
        # a bound equal to the threshold must not stop the input
        def fake_decode_forward(enc, ids, params, cache):
            logits = np.full((len(ids), 1, 9), -1e4)
            logits[:, 0, EOS_ID] = 0.0
            if cache.length == 0:
                logits[:, 0, UNK_ID] = 0.0
            cache.length += 1
            return Tensor(logits)

        monkeypatch.setattr(decoding, "decode_forward", fake_decode_forward)
        hyps = _search(toy_params(0, vocab_size=9), [[4, 5, 3]], 2, 3, 0.0, 1)[0]
        assert [h.ids for h in hyps] == [(SOS_ID, UNK_ID, EOS_ID)]
        assert hyps[0].logp == -np.log(2.0)


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

    def test_hypothesis_text_strips_reserved_markers(self):
        # an untrained model restored 'oslo <s> i': reserved ids can be
        # generated mid-sequence, and none of them is a word
        vocab = Vocabulary.from_tokens(list(RESERVED_TOKENS) + ["hi", "there"])
        ids = (SOS_ID, X1_ID, 6, SOS_ID, UNK_ID, X2_ID, 7, EOS_ID)
        hyp = BeamHypothesis(ids, -1.0, True)
        assert hypothesis_text(hyp, vocab, ENGLISH) == "hi <unk> there"

    def test_restore_corpus_preserves_ids_and_order(self):
        corpus = generate_corpus(4, seed=2)
        vocab = build_vocab(corpus, 200, ENGLISH)
        params = init_parameters(make_model_config(
            len(vocab), "hard", d_model=8, num_layers=1, num_heads=2,
            ffn_dim=16, picker_hidden=(4,), dropout=0.0))
        pairs = restore_corpus(corpus, params, vocab, ENGLISH, beam_size=2)
        assert [p[0] for p in pairs] == [s.id for s in corpus]
        assert all(isinstance(p[1], str) for p in pairs)

    def test_batched_corpus_matches_per_sample(self):
        # 70 samples: two full chunks and a short one, each padded to its
        # longest input
        corpus = generate_corpus(70, seed=4)
        vocab = build_vocab(corpus, 200, ENGLISH)
        params = init_parameters(make_model_config(
            len(vocab), "hard", seed=2, d_model=8, num_layers=2, num_heads=2,
            ffn_dim=16, picker_hidden=(4,), dropout=0.0))
        lengths = {len(build_input(s, vocab, ENGLISH)[0])
                   for s in corpus[:RESTORE_CHUNK]}
        assert len(corpus) > 2 * RESTORE_CHUNK and len(lengths) > 1
        pairs = restore_corpus(corpus, params, vocab, ENGLISH, beam_size=4,
                               max_len=10)
        assert pairs == [
            (s.id, restore_ranked([s], params, vocab, ENGLISH, 4, 10)[0][0][0])
            for s in corpus
        ]

    def test_over_long_sample_does_not_abort_the_corpus(self):
        corpus = generate_corpus(40, seed=0)
        vocab = build_vocab(corpus, 300, ENGLISH)
        params = init_parameters(make_model_config(
            len(vocab), "hard", d_model=8, num_layers=1, num_heads=2,
            ffn_dim=16, picker_hidden=(4,), dropout=0.0))
        words = " ".join(vocab.token_of(6 + i % 20) for i in range(600))
        long = DialogueSample((words,), "where", "where is it", "long")
        samples = corpus + [long]
        pairs = restore_corpus(samples, params, vocab, ENGLISH, beam_size=2,
                               max_len=6)
        assert [sample_id for sample_id, _ in pairs] == [s.id for s in samples]

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


IN_VOCAB = ("alpha", "beta", "gamma")
DEGENERATE_VOCAB = Vocabulary.from_tokens(list(RESERVED_TOKENS) + list(IN_VOCAB))
# every reserved token but <unk>, which stands for an unknown word
HIDDEN_TOKENS = (PAD_TOKEN, SOS_TOKEN, EOS_TOKEN, X1_TOKEN, X2_TOKEN)
TURNS = st.lists(st.sampled_from(IN_VOCAB + ("oslo", "zyx", "qq")), min_size=1,
                 max_size=3).map(" ".join)  # out-of-vocabulary words too
DEGENERATE_SAMPLES = st.builds(
    DialogueSample,
    st.lists(TURNS | st.sampled_from(("oslo", "zyx qq", "alpha")), min_size=1,
             max_size=2).map(tuple),
    TURNS,
)


@functools.lru_cache(maxsize=None)
def degenerate_params(seed):
    return init_parameters(make_model_config(
        len(DEGENERATE_VOCAB), "hard", seed=seed, d_model=8, num_layers=1,
        num_heads=2, ffn_dim=16, picker_hidden=(4,), dropout=0.0))


class TestDegenerateRestore:
    @given(st.lists(DEGENERATE_SAMPLES, min_size=1, max_size=3),
           st.sampled_from((1, 2, RESTORE_CHUNK, RESTORE_CHUNK + 1)),
           st.sampled_from((1, 3, len(DEGENERATE_VOCAB) + 2)),
           st.sampled_from((1, 2, 6)), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_every_sample_gets_a_clean_prediction(self, pool, size, beam, max_len,
                                                   seed):
        # single-word and all-OOV turns, beam wider than the vocabulary,
        # max_len 1, and corpora on either side of the chunk edge
        corpus = [dataclasses.replace(pool[i % len(pool)], id=f"s{i}")
                  for i in range(size)]
        params = degenerate_params(seed)
        pairs = restore_corpus(corpus, params, DEGENERATE_VOCAB, ENGLISH,
                               beam_size=beam, max_len=max_len)
        assert [sample_id for sample_id, _ in pairs] == [s.id for s in corpus]
        for _, text in pairs:
            assert not any(token in text for token in HIDDEN_TOKENS), text
        assert [text for _, text in pairs] == [
            restore_ranked([s], params, DEGENERATE_VOCAB, ENGLISH, beam,
                           max_len)[0][0][0]
            for s in corpus
        ]


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

    def test_dropped_words_tagged_o(self):
        # a picker that says B everywhere: only the kept words can get it
        corpus, vocab, params = self._setup()
        sample = DialogueSample((" ".join(["fly"] * 600),), "where", None, "0")
        with mock.patch.object(decoding, "picker_forward", _picker_says(
                lambda n: [BIO_TO_CLASS["B"]] * n)):
            rows = predict_picker_tags(sample, params, vocab, ENGLISH)
        dropped = 600 + 1 + 1 + 2 - 512
        assert rows == [["O"] * dropped + ["B"] * (600 - dropped)]

    @given(st.sampled_from(("english", "chinese")),
           st.lists(st.lists(st.tuples(st.integers(0, 3), st.booleans()),
                             min_size=1, max_size=6), min_size=1, max_size=4),
           st.integers(1, 4), st.integers(3, 30))
    @settings(max_examples=60, deadline=None)
    def test_targets_sit_where_tags_are_read(self, language, turns, n_inc,
                                             max_len):
        # the picker echoes the training targets, so every kept word must
        # get back its own label and every dropped word O
        cfg = LanguageConfig.for_language(language)
        letters = ("ab", "cd", "ef", "gh") if language == "english" else "他们出发"
        tags = []
        for turn in turns:
            row, prev = [], False
            for _, marked in turn:
                row.append(("I" if prev else "B") if marked else "O")
                prev = marked
            tags.append(tuple(row))
        context = tuple(cfg.joiner.join(letters[w] for w, _ in t) for t in turns)
        incomplete = cfg.joiner.join(letters[i % 4] for i in range(n_inc))
        sample = DialogueSample(context, incomplete, incomplete, "0")
        vocab = build_vocab([sample], 100, cfg)
        enc = encode_sample(sample, vocab, cfg, PickerLabels("hard", tuple(tags)),
                            max_len)
        assert len(enc.input_ids) <= max_len
        targets = [0 if t == IGNORE_MARK else int(t) for t in enc.picker_targets]
        _, (turn, word) = build_input(sample, vocab, cfg, max_len)
        expected = [
            [tag if (k, w) >= (turn, word) else "O" for w, tag in enumerate(row)]
            for k, row in enumerate(tags)
        ]
        params = toy_params(0, vocab_size=len(vocab))
        with mock.patch.object(decoding, "picker_forward",
                               _picker_says(lambda n: targets)):
            rows = predict_picker_tags(sample, params, vocab, cfg, max_len)
        assert rows == expected


def _picker_says(classes):
    """A stand-in for model.picker_forward whose argmax at each of the n
    input positions is classes(n)."""
    def forward(enc, params):
        n = enc.hidden.data.shape[1]
        return Tensor(np.eye(3)[None, classes(n)])
    return forward


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

    def test_numeric_ids_read_as_load_corpus_reads_them(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        path.write_text('{"id": 42, "prediction": "a"}\n', encoding="utf-8")
        assert load_predictions(path) == {"42": "a"}
        path.write_text('{"id": 42, "prediction": "a"}\n'
                        '{"id": "42", "prediction": "b"}\n', encoding="utf-8")
        with pytest.raises(InferenceError, match="duplicate id '42'"):
            load_predictions(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        path.write_text('{"id": "0"}\n', encoding="utf-8")
        with pytest.raises(InferenceError, match="prediction"):
            load_predictions(path)
