"""Tests for the encoder-decoder transformer and picker head.

Masking and causality are exactness properties here: padded keys receive an
additive -1e9 bias whose softmax contribution underflows to exactly zero,
so outputs at real positions must be bitwise independent of padding, and
decoder steps bitwise independent of future tokens.
"""

import gc
import io
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

import pickgen.model as M
from pickgen import corpus
from oracles import retained_backward, weighted_sum
from pickgen.autodiff import Tensor, _differentiated
from pickgen.corpus import LanguageConfig, build_vocab
from pickgen.encoding import collate, encode_sample
from pickgen.labeling import EmbeddingTable, label_corpus
from pickgen.model import (
    ModelConfig,
    ModelError,
    NonFiniteError,
    _tensor_shapes,
    decode_forward,
    embed,
    encode,
    init_parameters,
    is_weight_matrix,
    load_checkpoint,
    picker_forward,
    relative_position_bucket,
    save_checkpoint,
)
from pickgen.synth import generate_corpus
from pickgen.training import (
    generator_loss,
    joint_loss,
    make_model_config,
    picker_loss,
)

RNG = np.random.default_rng(77)


def softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def tiny_config(**overrides):
    base = dict(vocab_size=12, d_model=8, num_layers=1, num_heads=2,
                ffn_dim=16, picker_widths=(6, 3), picker_arity=3,
                rel_pos_buckets=8, rel_pos_max_distance=16, dropout=0.0,
                seed=5)
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture
def params():
    return init_parameters(tiny_config())


class TestModelConfig:
    def test_vocab_must_cover_reserved(self):
        with pytest.raises(ModelError):
            tiny_config(vocab_size=5)
        tiny_config(vocab_size=6)

    def test_divisibility(self):
        with pytest.raises(ModelError):
            tiny_config(d_model=9)

    @pytest.mark.parametrize("name", ["d_model", "num_layers", "num_heads", "ffn_dim"])
    def test_sizes_at_least_one(self, name):
        with pytest.raises(ModelError, match=f"^{name} must be >= 1"):
            tiny_config(**{name: 0})

    def test_arity_values(self):
        with pytest.raises(ModelError):
            tiny_config(picker_arity=2, picker_widths=(6, 2))

    def test_widths_must_end_with_arity(self):
        with pytest.raises(ModelError):
            tiny_config(picker_widths=(6, 4))

    def test_dropout_range(self):
        with pytest.raises(ModelError):
            tiny_config(dropout=1.0)

    def test_bucket_count(self):
        with pytest.raises(ModelError):
            tiny_config(rel_pos_buckets=7)

    @pytest.mark.parametrize("buckets,distance", [(8, 4), (8, 0), (32, 12), (32, 16)])
    def test_max_distance_must_exceed_half_the_buckets(self, buckets, distance):
        with pytest.raises(ModelError, match="^rel_pos_max_distance"):
            tiny_config(rel_pos_buckets=buckets, rel_pos_max_distance=distance)
        tiny_config(rel_pos_buckets=buckets, rel_pos_max_distance=buckets // 2 + 1)

    @pytest.mark.parametrize("widths", [(0, 3), (6, -1, 3)])
    def test_picker_widths_at_least_one(self, widths):
        with pytest.raises(ModelError, match="^picker_hidden widths must be >= 1"):
            tiny_config(picker_widths=widths)

    @pytest.mark.parametrize("name,value", [
        ("vocab_size", 40.0), ("d_model", 8.0), ("num_layers", 1.0),
        ("num_heads", True), ("ffn_dim", "16"), ("picker_arity", 3.0),
        ("rel_pos_buckets", 8.0), ("rel_pos_max_distance", 16.0), ("seed", 5.0),
    ])
    def test_integer_settings_must_be_integers(self, name, value):
        with pytest.raises(ModelError, match=f"^{name} must be integral, not {value!r}"):
            tiny_config(**{name: value})

    @pytest.mark.parametrize("widths", [(6.0, 3), (6, 3.0), (False, 3)])
    def test_picker_widths_must_be_integers(self, widths):
        with pytest.raises(ModelError, match="^picker_widths must be integral"):
            tiny_config(picker_widths=widths)

    def test_numpy_integers_accepted(self):
        cfg = tiny_config(d_model=np.int64(8), picker_widths=(np.int32(6), 3))
        assert cfg.d_model == 8

    def test_dict_round_trip(self):
        cfg = tiny_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestInitParameters:
    def test_same_seed_identical(self):
        a = init_parameters(tiny_config())
        b = init_parameters(tiny_config())
        for (n1, t1), (n2, t2) in zip(a.named_tensors(), b.named_tensors()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)

    def test_different_seed_differs(self):
        a = init_parameters(tiny_config(seed=5))
        b = init_parameters(tiny_config(seed=6))
        assert not np.array_equal(a["embedding"].data, b["embedding"].data)

    def test_shapes_match_canonical_listing(self):
        cfg = tiny_config()
        p = init_parameters(cfg)
        listed = [(n, tuple(t.data.shape)) for n, t in p.named_tensors()]
        assert listed == _tensor_shapes(cfg)

    def test_listing_is_pinned(self):
        # the listing orders the checkpoint payload and the initial draws
        d, attn, up, down = (8,), (8, 8), (8, 16), (16, 8)
        assert _tensor_shapes(tiny_config(picker_widths=(4, 3))) == [
            ("embedding", (12, 8)), ("lm_head", (8, 12)),
            ("enc_rel_bias", (8, 2)), ("dec_rel_bias", (8, 2)),
            ("enc0.norm1", d), ("enc0.attn.wq", attn), ("enc0.attn.wk", attn),
            ("enc0.attn.wv", attn), ("enc0.attn.wo", attn),
            ("enc0.norm2", d), ("enc0.ffn.w1", up), ("enc0.ffn.w2", down),
            ("enc_final_norm", d),
            ("dec0.norm1", d), ("dec0.self.wq", attn), ("dec0.self.wk", attn),
            ("dec0.self.wv", attn), ("dec0.self.wo", attn),
            ("dec0.norm2", d), ("dec0.cross.wq", attn), ("dec0.cross.wk", attn),
            ("dec0.cross.wv", attn), ("dec0.cross.wo", attn),
            ("dec0.norm3", d), ("dec0.ffn.w1", up), ("dec0.ffn.w2", down),
            ("dec_final_norm", d),
            ("picker.w0", (8, 4)), ("picker.b0", (4,)),
            ("picker.w1", (4, 3)), ("picker.b1", (3,)),
        ]

    def test_biases_zero_norms_one(self, params):
        assert (params["picker.b0"].data == 0.0).all()
        assert (params["enc0.norm1"].data == 1.0).all()
        assert (params["dec_final_norm"].data == 1.0).all()

    def test_six_hidden_picker_widths(self):
        # one bias per picker layer, however many there are
        p = init_parameters(tiny_config(picker_widths=(4,) * 6 + (3,)))
        for j in range(7):
            assert (p[f"picker.b{j}"].data == 0.0).all()
        assert p["picker.w6"].data.shape == (4, 3)


class TestIsWeightMatrix:
    @pytest.mark.parametrize(
        "name,shape,expected",
        [
            ("embedding", (12, 8), False),
            ("dec_rel_bias", (8, 2), False),
            ("enc_rel_bias", (8, 2), False),
            ("lm_head", (8, 12), True),
            ("enc0.attn.wq", (8, 8), True),
            ("picker.w0", (8, 6), True),
            ("picker.b0", (6,), False),
            ("enc0.norm1", (8,), False),
            ("dec0.cross.wq", (8, 8), True),
            ("enc_final_norm", (8,), False),
            ("enc0.ffn.w1", (8, 16), True),
            ("dec0.ffn.w2", (16, 8), True),
        ],
    )
    def test_cases(self, name, shape, expected):
        assert is_weight_matrix(name, shape) is expected


class TestRelativePositionBucket:
    def test_bidirectional_hand_values(self):
        rel = np.array([0, 1, -1, 2, -2, -15, -100, 100])
        out = relative_position_bucket(rel, True, 8, 16)
        assert out.tolist() == [0, 5, 1, 6, 2, 3, 3, 7]

    def test_causal_hand_values(self):
        rel = np.array([0, 3, -3, -4, -100])
        out = relative_position_bucket(rel, False, 8, 16)
        assert out.tolist() == [0, 0, 3, 4, 7]

    def test_range(self):
        rel = np.arange(-300, 300)
        out = relative_position_bucket(rel, True, 8, 16)
        assert out.min() >= 0 and out.max() <= 7
        causal = relative_position_bucket(rel, False, 8, 16)
        assert causal.min() >= 0 and causal.max() <= 7

    @pytest.mark.parametrize("buckets", [4, 8, 32])
    def test_range_at_smallest_accepted_distance(self, buckets):
        # the closest max_distance ModelConfig accepts still maps every
        # offset, both ways, into a row of the bias table
        distance = buckets // 2 + 1
        tiny_config(rel_pos_buckets=buckets, rel_pos_max_distance=distance)
        rel = np.arange(-300, 300)
        for bidirectional in (True, False):
            out = relative_position_bucket(rel, bidirectional, buckets, distance)
            assert out.min() >= 0 and out.max() < buckets

    def test_monotone_in_distance_causal(self):
        rel = -np.arange(0, 200)
        out = relative_position_bucket(rel, False, 32, 128)
        assert (np.diff(out) >= 0).all()


class TestEmbed:
    def test_rows_match_table(self, params):
        ids = np.array([[0, 5, 11]])
        out = embed(ids, params)
        np.testing.assert_array_equal(out.data,
                                      params["embedding"].data[ids])

    def test_out_of_range_rejected(self, params):
        with pytest.raises(ModelError, match="out of vocabulary"):
            embed(np.array([[12]]), params)
        with pytest.raises(ModelError):
            embed(np.array([[-1]]), params)


class TestEncode:
    def test_shape_and_determinism(self, params):
        ids = np.array([[6, 7, 4, 8, 5, 3]])
        mask = np.ones((1, 6))
        a = encode(ids, mask, params)
        b = encode(ids, mask, params)
        assert a.hidden.shape == (1, 6, 8)
        assert np.array_equal(a.hidden.data, b.hidden.data)

    def test_padding_invariance_exact(self, params):
        ids = np.array([[6, 7, 8, 5, 3]])
        mask = np.ones((1, 5))
        short = encode(ids, mask, params).hidden.data
        padded_ids = np.array([[6, 7, 8, 5, 3, 0, 0]])
        padded_mask = np.array([[1.0, 1, 1, 1, 1, 0, 0]])
        long = encode(padded_ids, padded_mask, params).hidden.data
        assert np.array_equal(long[:, :5], short)

    def test_masked_position_content_irrelevant(self, params):
        mask = np.array([[1.0, 1, 1, 0, 0]])
        a = encode(np.array([[6, 7, 3, 0, 0]]), mask, params).hidden.data
        b = encode(np.array([[6, 7, 3, 9, 11]]), mask, params).hidden.data
        assert np.array_equal(a[:, :3], b[:, :3])

    @pytest.mark.parametrize("flat", [True, False], ids=["flat-bias", "varied-bias"])
    def test_word_order_enters_only_through_the_relative_bias(self, params, flat):
        # with one value in every bias bucket the encoder reads its input as
        # a bag of tokens: permuting the input permutes the outputs, no more
        params["enc_rel_bias"].data[:] = 0.0 if flat else RNG.normal(size=(8, 2))
        ids = np.array([[6, 7, 4, 8, 5, 3]])
        order = np.array([2, 0, 5, 1, 4, 3])
        mask = np.ones((1, 6))
        hidden = encode(ids, mask, params).hidden.data
        permuted = encode(ids[:, order], mask, params).hidden.data
        assert np.allclose(permuted, hidden[:, order], rtol=1e-12, atol=1e-12) is flat

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_detection_names_layer(self, params):
        params["enc0.ffn.w2"].data[0, 0] = np.inf
        with pytest.raises(NonFiniteError, match="encoder layer 0"):
            encode(np.array([[6, 7, 3]]), np.ones((1, 3)), params)


class TestPickerForward:
    def test_hard_rows_are_distributions(self, params):
        enc = encode(np.array([[6, 7, 3]]), np.ones((1, 3)), params)
        out = picker_forward(enc, params)
        assert out.shape == (1, 3, 3)
        np.testing.assert_allclose(softmax(out.data).sum(axis=-1),
                                   np.ones((1, 3)), atol=1e-12)

    def test_soft_outputs_probabilities(self):
        p = init_parameters(tiny_config(picker_widths=(6, 1), picker_arity=1))
        enc = encode(np.array([[6, 7, 3]]), np.ones((1, 3)), p)
        out = picker_forward(enc, p)
        assert out.shape == (1, 3)
        probs = 1.0 / (1.0 + np.exp(-out.data))  # sigmoid of the logits
        assert ((probs > 0) & (probs < 1)).all()

    def test_zero_weights_give_uniform_classes(self, params):
        for name in params.picker_names():
            params[name].data[:] = 0.0
        enc = encode(np.array([[6, 7, 3]]), np.ones((1, 3)), params)
        out = picker_forward(enc, params)
        np.testing.assert_array_equal(out.data, np.zeros((1, 3, 3)))
        np.testing.assert_array_equal(softmax(out.data),
                                      np.full((1, 3, 3), 1.0 / 3.0))


class TestDecodeForward:
    def test_distributions_sum_to_one(self, params):
        enc = encode(np.array([[6, 7, 3]]), np.ones((1, 3)), params)
        logits = decode_forward(enc, np.array([[2, 6, 7]]), params)
        assert logits.shape == (1, 3, 12)
        np.testing.assert_allclose(softmax(logits.data).sum(axis=-1),
                                   np.ones((1, 3)), atol=1e-12)

    def test_causality_exact(self, params):
        enc = encode(np.array([[6, 7, 3]]), np.ones((1, 3)), params)
        full = decode_forward(enc, np.array([[2, 6, 7, 8]]), params).data
        prefix = decode_forward(enc, np.array([[2, 6]]), params).data
        assert np.array_equal(full[:, :2], prefix)

    def test_cross_attention_ignores_padded_encoder_positions(self, params):
        ids = np.array([[6, 7, 3]])
        enc_a = encode(ids, np.ones((1, 3)), params)
        padded = np.array([[6, 7, 3, 0]])
        pmask = np.array([[1.0, 1, 1, 0]])
        enc_b = encode(padded, pmask, params)
        dec = np.array([[2, 6]])
        a = decode_forward(enc_a, dec, params).data
        b = decode_forward(enc_b, dec, params).data
        assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_detection_names_layer(self, params):
        params["dec0.ffn.w2"].data[0, 0] = np.nan
        enc = encode(np.array([[6, 3]]), np.ones((1, 2)), params)
        with pytest.raises(NonFiniteError, match="decoder layer 0"):
            decode_forward(enc, np.array([[2, 6]]), params)


class TestDropout:
    def test_disabled_at_rate_zero(self, params):
        x = Tensor(RNG.standard_normal((2, 3)))
        assert M._dropout(x, 0.0, np.random.default_rng(0)) is x
        assert M._dropout(x, 0.5, None) is x

    def test_mask_values(self):
        x = Tensor(np.ones((4, 50)))
        out = M._dropout(x, 0.5, np.random.default_rng(3))
        vals = np.unique(out.data)
        assert set(vals.tolist()) <= {0.0, 2.0}

    def test_seeded_rng_reproducible(self):
        x = Tensor(RNG.standard_normal((3, 8)))
        a = M._dropout(x, 0.3, np.random.default_rng(9)).data
        b = M._dropout(x, 0.3, np.random.default_rng(9)).data
        assert np.array_equal(a, b)


class TestBackward:
    def test_untouched_tensors_get_zero_grads(self, params):
        enc = encode(np.array([[6, 7, 3]]), np.ones((1, 3)), params)
        loss = weighted_sum(enc.hidden)
        grads = M.backward(loss, params)
        assert set(grads) == set(params.tensors)
        assert (grads["lm_head"] == 0.0).all()
        assert (grads["enc0.attn.wq"] != 0.0).any()
        assert all(t.grad is None for _, t in params.named_tensors())

    def test_finite_difference_spot_check(self, params):
        ids = np.array([[6, 7, 4, 8, 5, 3]])
        mask = np.ones((1, 6))
        dec = np.array([[2, 6, 7]])
        weights = RNG.standard_normal((1, 3, 12))
        pick_w = RNG.standard_normal((1, 6, 3))

        def forward():
            enc = encode(ids, mask, params)
            dists = decode_forward(enc, dec, params)
            pick = picker_forward(enc, params)
            return weighted_sum(dists, weights) + weighted_sum(pick, pick_w)

        grads = M.backward(forward(), params)
        eps = 1e-5
        coords = [("embedding", (6, 0)), ("enc0.attn.wq", (0, 1)),
                  ("dec0.cross.wv", (2, 3)), ("lm_head", (4, 7)),
                  ("picker.w0", (1, 2)), ("enc_rel_bias", (0, 1)),
                  ("dec0.norm2", (3,)), ("picker.b0", (0,))]
        for name, idx in coords:
            tensor = params[name]
            orig = tensor.data[idx]
            tensor.data[idx] = orig + eps
            hi = forward().item()
            tensor.data[idx] = orig - eps
            lo = forward().item()
            tensor.data[idx] = orig
            numeric = (hi - lo) / (2 * eps)
            assert grads[name][idx] == pytest.approx(numeric, rel=1e-4,
                                                     abs=1e-8), name


def joint_batch():
    """The default model and one 12-sample hard-labeled batch, as a
    training step sees them."""
    lang = LanguageConfig.for_language("english")
    corpus = generate_corpus(12, seed=0)
    vocab = build_vocab(corpus, 2000, lang)
    labeled = label_corpus(corpus, "hard", EmbeddingTable(), lang)
    batch = collate([encode_sample(item.sample, vocab, lang, labels=item.labels)
                     for item in labeled])
    return init_parameters(make_model_config(len(vocab), "hard", seed=0)), batch


def joint_step_loss(params, batch):
    """One training step's forward and joint loss, dropout included."""
    rng = np.random.default_rng(3)
    enc = encode(batch.input_ids, batch.input_mask, params, rng)
    logits = decode_forward(enc, batch.decoder_input, params, rng)
    lg = generator_loss(logits, batch.decoder_target, batch.target_mask)
    lp = picker_loss(picker_forward(enc, params), batch.picker_targets,
                     batch.input_mask)
    return joint_loss(lp, lg, 1.0)


class TestBackwardUsesUpTheGraph:
    def test_grads_bit_equal_to_retained_walk(self):
        params, batch = joint_batch()
        loss = joint_step_loss(params, batch)
        nodes = retained_backward(loss)
        expected = {name: t.grad.copy() for name, t in params.named_tensors()}
        interior = [node for node in nodes if node._backward_fn is not None]
        grads = M.backward(loss, params)
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, expected[name], err_msg=name)
        assert all(node.grad is None and node._parents == ()
                   and node._backward_fn is _differentiated for node in interior)

    def test_memory_held_after_backward_is_the_grads(self):
        # with the loss still referenced, as in the training loop until the
        # next step, only the parameter gradients may outlive backward
        params, batch = joint_batch()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            loss = joint_step_loss(params, batch)
            grads = M.backward(loss, params)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        grad_bytes = sum(g.nbytes for g in grads.values())
        assert held <= grad_bytes + 500_000, (held, grad_bytes)

    def test_graph_holds_only_what_backward_reads(self):
        # each node keeps only the arrays its own backward reads: no
        # projection output under a residual add, no float dropout mask, no
        # relu input and no normalized copy in rmsnorm. Holding those took
        # this forward's graph from 6.2 MB to 10.0 MB.
        params, batch = joint_batch()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            loss = joint_step_loss(params, batch)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert loss.item() > 0.0
        assert held <= 6_700_000, held


class TestCheckpoint:
    def test_round_trip_is_exact(self, params, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path, vocab_sha256="ab" * 32)
        loaded, manifest = load_checkpoint(path)
        assert manifest["vocab_sha256"] == "ab" * 32
        assert loaded.config == params.config
        assert [n for n, _ in loaded.named_tensors()] == \
               [n for n, _ in params.named_tensors()]
        for name, tensor in params.named_tensors():
            data = loaded[name].data
            assert data.dtype == np.float64 and data.flags.writeable, name
            assert np.array_equal(data, tensor.data), name

    def test_save_is_byte_deterministic(self, params, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(params, p1)
        save_checkpoint(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("failure", [OSError("disk full"), KeyboardInterrupt()],
                             ids=["oserror", "interrupt"])
    def test_failed_write_keeps_previous_checkpoint(self, params, tmp_path,
                                                    monkeypatch, failure):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        previous = path.read_bytes()
        params["lm_head"].data += 1.0

        class FailingFile(io.FileIO):
            def write(self, data):  # the manifest lands, then a payload fails
                if self.tell():
                    raise failure
                return super().write(data)

        monkeypatch.setattr(corpus, "open", FailingFile, raising=False)
        with pytest.raises(type(failure)):
            save_checkpoint(params, path)
        monkeypatch.undo()
        assert path.read_bytes() == previous
        assert os.listdir(tmp_path) == ["ckpt.bin"]
        save_checkpoint(params, path)
        assert path.read_bytes() != previous
        assert os.listdir(tmp_path) == ["ckpt.bin"]

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x80\x81\x82 junk\n more")
        with pytest.raises(ModelError, match="not a checkpoint"):
            load_checkpoint(path)

    @staticmethod
    def _older(params, path, version):
        """Write params as a version 1 or 2 file: float32 payloads whose
        entries carry offset and size; version 1 manifests also carried
        literal_pe, max_positions and a top-level seed."""
        entries, payloads, offset = [], [], 0
        for name, tensor in params.named_tensors():
            payloads.append(tensor.data.astype("<f4").tobytes())
            entries.append({"name": name, "shape": list(tensor.data.shape),
                            "offset": offset, "size": len(payloads[-1])})
            offset += len(payloads[-1])
        manifest = {"version": version, "config": params.config.to_dict(),
                    "vocab_sha256": None, "tensors": entries}
        if version == 1:
            manifest["config"].update(literal_pe=False, max_positions=512)
            manifest["seed"] = manifest["config"]["seed"]
        path.write_bytes(json.dumps(manifest, sort_keys=True).encode() + b"\n"
                         + b"".join(payloads))

    def test_version_mismatch(self, params, tmp_path):
        # a version 2 file holds float32-rounded weights: refused, not widened
        for version in (1, 2):
            path = tmp_path / f"v{version}.bin"
            self._older(params, path, version)
            with pytest.raises(ModelError, match=re.escape(
                    f"{path}: unsupported checkpoint version {version}") + "$"):
                load_checkpoint(path)

    def test_newer_version_rejected(self, params, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        header, _, payload = path.read_bytes().partition(b"\n")
        path.write_bytes(header.replace(b'"version": 3', b'"version": 4')
                         + b"\n" + payload)
        with pytest.raises(ModelError, match=re.escape(
                f"{path}: unsupported checkpoint version 4") + "$"):
            load_checkpoint(path)

    def test_manifest_holds_the_config_once(self, params, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        manifest = json.loads(path.read_bytes().partition(b"\n")[0])
        assert manifest["version"] == M.CHECKPOINT_VERSION == 3
        assert sorted(manifest) == ["config", "language", "tensors", "version",
                                    "vocab_sha256"]
        assert all(sorted(entry) == ["name", "shape"] for entry in manifest["tensors"])
        assert ModelConfig.from_dict(manifest["config"]) == params.config

    def test_truncated_payload(self, params, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 64])
        with pytest.raises(ModelError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, params, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes() + b"\0" * 4)
        with pytest.raises(ModelError, match=re.escape(f"{path}: trailing bytes")):
            load_checkpoint(path)

    @staticmethod
    def _drop(key):
        def edit(manifest):
            del manifest["tensors"][1][key]
            return manifest
        return edit

    @pytest.mark.parametrize("edit", [
        lambda m: {**m, "config": {**m["config"], "bogus": 1}},
        lambda m: {k: v for k, v in m.items() if k != "config"},
        _drop("name"),
        _drop("shape"),
        lambda m: [m],
        lambda m: 2,
    ], ids=["extra config key", "no config", "entry without name",
            "entry without shape", "list", "number"])
    def test_malformed_manifest_names_the_file(self, params, tmp_path, edit):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        header, _, payload = path.read_bytes().partition(b"\n")
        path.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n"
                         + payload)
        with pytest.raises(ModelError,
                           match=re.escape(f"{path}: malformed manifest (")):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", [
        "d_model", "num_layers", "vocab_size", "rel_pos_buckets", "picker_widths"])
    def test_float_integer_setting_names_file_and_field(self, params, tmp_path, name):
        # 8.0 passes every range check; numpy refused it later, naming nothing
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        header, _, payload = path.read_bytes().partition(b"\n")
        manifest = json.loads(header)
        value = manifest["config"][name]
        manifest["config"][name] = (
            [float(w) for w in value] if name == "picker_widths" else float(value))
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
        with pytest.raises(ModelError, match=re.escape(
                f"{path}: malformed manifest (ModelError: {name} must be ")):
            load_checkpoint(path)
