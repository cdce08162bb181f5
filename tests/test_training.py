"""Tests for losses, AdamW, subsampling, and the joint training loop.

The optimizer has a closed-form oracle: under a constant gradient g on a
tensor that is not decayed (not a weight matrix), bias-corrected moments
collapse to m-hat = g and v-hat = g*g, so after N steps
theta = theta0 - N * lr * g / (|g| + eps).
"""

import dataclasses
import logging
import math
import os
import warnings
import weakref

import numpy as np
import pytest

from pickgen.autodiff import Tensor, parameter
from pickgen.corpus import LanguageConfig, build_vocab
from pickgen.encoding import IGNORE_MARK, collate, encode_sample
from pickgen.labeling import EmbeddingTable, label_corpus
from pickgen.model import (
    ModelConfig,
    ModelParameters,
    decode_forward,
    encode,
    init_parameters,
    picker_forward,
)
from pickgen import model as model_module
from pickgen import training as training_module
from pickgen.model import backward as model_backward
from pickgen.synth import generate_corpus
from pickgen.training import (
    ADAM_EPS,
    BETA1,
    BETA2,
    LOSS_LOG_HEADER,
    WEIGHT_DECAY,
    TrainConfig,
    TrainState,
    TrainingError,
    clip_gradients,
    generator_loss,
    joint_loss,
    make_model_config,
    optimizer_step,
    picker_loss,
    subsample,
    train,
    write_loss_log,
)

ENGLISH = LanguageConfig.for_language("english")


def single_param_state(data: np.ndarray, name: str = "w") -> TrainState:
    cfg = ModelConfig(vocab_size=12)
    params = ModelParameters(cfg, {name: parameter(data.copy())})
    return TrainState.fresh(params)


class TestPickerLoss:
    def test_uniform_hard_gives_log3(self):
        logits = Tensor(np.zeros((1, 3, 3)))
        targets = np.array([[0.0, 1.0, 2.0]])
        loss = picker_loss(logits, targets, np.ones(targets.shape))
        assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)

    def test_ignore_marks_excluded(self):
        logits = Tensor(np.array([[[0.0, -800.0, -800.0],
                                   [0.0, 0.0, 0.0]]]))
        targets = np.array([[0.0, IGNORE_MARK]])
        loss = picker_loss(logits, targets, np.ones(targets.shape))
        # only the perfect position counts: -log(1) = 0
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_mask_excludes_padding(self):
        logits = Tensor(np.zeros((1, 2, 3)))
        targets = np.array([[0.0, 0.0]])
        mask = np.array([[1.0, 0.0]])
        loss = picker_loss(logits, targets, mask)
        assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)

    def test_all_ignored_gives_zero(self):
        logits = Tensor(np.zeros((1, 2, 3)))
        targets = np.full((1, 2), IGNORE_MARK)
        loss = picker_loss(logits, targets, np.ones(targets.shape))
        assert loss.item() == 0.0

    def test_soft_bce_hand_value(self):
        logits = Tensor(np.array([[0.0]]))
        targets = np.array([[0.5]])
        loss = picker_loss(logits, targets, np.ones(targets.shape))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_soft_perfect_confidence(self):
        logits = Tensor(np.array([[40.0, -40.0]]))
        targets = np.array([[1.0, 0.0]])
        loss = picker_loss(logits, targets, np.ones(targets.shape))
        assert 0.0 <= loss.item() < 1e-17

    def test_gradient_flows(self):
        logits = parameter(np.zeros((1, 2, 3)))
        loss = picker_loss(logits, np.array([[1.0, 0.0]]), np.ones((1, 2)))
        loss.backward()
        assert (logits.grad != 0.0).any()

    def test_confidently_wrong_hard_still_learns(self):
        # target class 0 sits 40 below the maximum logit
        logits = parameter(np.array([[[0.0, 40.0, 0.0]]]))
        loss = picker_loss(logits, np.array([[0.0]]), np.ones((1, 1)))
        loss.backward()
        assert loss.item() == pytest.approx(40.0, abs=1e-12)
        assert logits.grad[0, 0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert logits.grad[0, 0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_confidently_wrong_soft_still_learns(self):
        logits = parameter(np.array([[-40.0]]))
        loss = picker_loss(logits, np.array([[1.0]]), np.ones((1, 1)))
        loss.backward()
        assert loss.item() == pytest.approx(40.0, abs=1e-12)
        assert logits.grad[0, 0] == pytest.approx(-1.0, abs=1e-12)


class TestGeneratorLoss:
    def test_hand_value(self):
        logits = Tensor(np.array([[[0.0, 0.0, -800.0, -800.0],
                                   [0.0, 0.0, 0.0, 0.0]]]))
        targets = np.array([[0, 3]])
        mask = np.ones((1, 2))
        loss = generator_loss(logits, targets, mask)
        expected = (math.log(2.0) + math.log(4.0)) / 2.0
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_perfect_prediction_is_zero(self):
        logits = Tensor(np.array([[[0.0, -800.0], [-800.0, 0.0]]]))
        loss = generator_loss(logits, np.array([[0, 1]]), np.ones((1, 2)))
        assert loss.item() == 0.0

    def test_padding_steps_excluded(self):
        logits = Tensor(np.array([[[0.0, 0.0], [-800.0, 0.0]]]))
        mask = np.array([[1.0, 0.0]])
        loss = generator_loss(logits, np.array([[0, 0]]), mask)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_empty_mask_gives_zero(self):
        logits = Tensor(np.zeros((1, 2, 3)))
        loss = generator_loss(logits, np.zeros((1, 2), dtype=int),
                              np.zeros((1, 2)))
        assert loss.item() == 0.0

    def test_confidently_wrong_target_still_learns(self):
        # target token 0 sits 40 below the maximum logit
        logits = parameter(np.array([[[0.0, 40.0, 0.0]]]))
        loss = generator_loss(logits, np.array([[0]]), np.ones((1, 1)))
        loss.backward()
        assert loss.item() == pytest.approx(40.0, abs=1e-12)
        assert logits.grad[0, 0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert logits.grad[0, 0, 1] == pytest.approx(1.0, abs=1e-12)


class TestJointLoss:
    def test_tensor_graph_flows(self):
        lp = parameter(np.array(2.0)) * 1.0
        lg = parameter(np.array(3.0)) * 1.0
        out = joint_loss(lp, lg, 0.5)
        assert out.item() == 4.0
        out.backward()


class TestClipGradients:
    def test_norm_above_cap_scales(self):
        grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
        arrays = list(grads.values())
        clipped, total = clip_gradients(grads, 1.0)
        assert list(clipped.values()) == arrays  # scaled in place
        assert all(a is b for a, b in zip(clipped.values(), arrays))
        assert total == pytest.approx(5.0)
        norm = math.sqrt(sum(float((g * g).sum()) for g in clipped.values()))
        assert norm == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(clipped["a"], [0.6, 0.0])

    def test_norm_below_cap_untouched(self):
        grads = {"a": np.array([0.3])}
        clipped, total = clip_gradients(grads, 1.0)
        assert clipped is grads
        assert total == pytest.approx(0.3)

    def test_infinite_cap_never_clips(self):
        grads = {"a": np.array([1e300, -1e300])}
        clipped, total = clip_gradients(grads, math.inf)
        assert clipped is grads
        assert total == pytest.approx(math.sqrt(2.0) * 1e300, rel=1e-12)
        np.testing.assert_array_equal(clipped["a"], [1e300, -1e300])

    def test_zero_cap_disables(self):
        grads = {"a": np.array([100.0])}
        clipped, _ = clip_gradients(grads, 0.0)
        assert clipped is grads

    def test_zero_gradient(self):
        grads = {"a": np.zeros(3)}
        clipped, total = clip_gradients(grads, 1.0)
        assert total == 0.0
        assert clipped is grads

    def test_huge_finite_gradients_are_scaled_not_zeroed(self):
        # g * g overflows to inf here; the norm is taken again over g / max|g|
        grads = {"a": np.array([1e200, 1e200]), "b": np.array([3.0])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clipped, total = clip_gradients(grads, 1.0)
        assert total == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-12)
        norm = math.sqrt(sum(float((g * g).sum()) for g in clipped.values()))
        assert norm == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(clipped["a"], [math.sqrt(0.5)] * 2, rtol=1e-12)
        assert 0.0 < clipped["b"][0] < 1e-199

    def test_overflowing_norm_still_scales(self):
        # the norm itself overflows: max_norm / inf would zero every entry
        grads = {"a": np.array([1.5e308, 1.5e308])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clipped, total = clip_gradients(grads, 1.0)
        assert total == math.inf
        np.testing.assert_allclose(clipped["a"], [math.sqrt(0.5)] * 2, rtol=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_gradient_keeps_a_non_finite_norm(self, bad):
        # cap 0: the norm alone, without scaling by a non-finite factor
        _, total = clip_gradients({"a": np.array([1e200, bad])}, 0.0)
        assert not math.isfinite(total)


class TestOptimizerStep:
    def test_constant_gradient_straight_line_oracle(self):
        theta0 = np.array([1.0, -2.0, 0.5, 3.0])  # 1-D: not decayed
        g = np.array([2.0, -1.0, 0.25, -4.0])
        cfg = TrainConfig(learning_rate=0.01)
        state = single_param_state(theta0)
        steps = 100
        for _ in range(steps):
            state = optimizer_step(state, {"w": g}, cfg)
        expected = theta0 - steps * 0.01 * g / (np.abs(g) + ADAM_EPS)
        np.testing.assert_allclose(state.params["w"].data, expected,
                                   atol=1e-12)
        assert state.step == steps

    def test_first_step_is_signed_lr(self):
        theta0 = np.array([5.0, -5.0])  # 1-D: not decayed
        g = np.array([0.3, -70.0])
        cfg = TrainConfig(learning_rate=0.1)
        state = single_param_state(theta0)
        state = optimizer_step(state, {"w": g}, cfg)
        np.testing.assert_allclose(state.params["w"].data,
                                   theta0 - 0.1 * np.sign(g), rtol=1e-6)

    def test_decay_applies_to_weight_matrices_only(self):
        cfg = TrainConfig(learning_rate=0.1)
        mcfg = ModelConfig(vocab_size=12)
        w0 = np.array([[2.0, -4.0]])
        b0 = np.array([2.0, -4.0])
        params = ModelParameters(mcfg, {"w": parameter(w0.copy()),
                                        "b": parameter(b0.copy())})
        state = TrainState.fresh(params)
        zero = {"w": np.zeros_like(w0), "b": np.zeros_like(b0)}
        state = optimizer_step(state, zero, cfg)
        np.testing.assert_array_equal(state.params["w"].data,
                                      w0 - (0.1 * WEIGHT_DECAY) * w0)
        np.testing.assert_array_equal(state.params["b"].data, b0)

    def test_decay_computed_from_original_parameter(self):
        # theta_new = theta - lr*update - lr*wd*theta, with the decay term
        # taken from the pre-step value
        theta0 = np.array([[8.0]])
        g = np.array([[1.0]])
        cfg = TrainConfig(learning_rate=0.1)
        state = single_param_state(theta0)
        state = optimizer_step(state, {"w": g}, cfg)
        update = 1.0 / (1.0 + ADAM_EPS)
        expected = theta0 - 0.1 * update - 0.1 * WEIGHT_DECAY * theta0
        np.testing.assert_allclose(state.params["w"].data, expected,
                                   atol=1e-12)

    def test_zero_gradient_without_decay_is_fixed_point(self):
        theta0 = np.array([1.5])  # 1-D: not decayed
        cfg = TrainConfig(learning_rate=0.1)
        state = single_param_state(theta0)
        state = optimizer_step(state, {"w": np.zeros(1)}, cfg)
        np.testing.assert_array_equal(state.params["w"].data, theta0)

    def test_nonfinite_gradient_skips_step(self, caplog):
        theta0 = np.array([1.0])
        state = single_param_state(theta0)
        cfg = TrainConfig()
        with caplog.at_level(logging.WARNING, logger="pickgen"):
            state = optimizer_step(state, {"w": np.array([np.nan])}, cfg)
        assert state.step == 0
        assert state.skipped_steps == 1
        np.testing.assert_array_equal(state.params["w"].data, theta0)
        assert "non-finite" in caplog.text


    @staticmethod
    def _three_tensor_state():
        # a decayed projection, an undecayed embedding, an undecayed bias
        rng = np.random.default_rng(5)
        values = {"dec0.self.wq": rng.standard_normal((3, 4)),
                  "embedding": rng.standard_normal((5, 4)) * 100.0,
                  "picker.b0": rng.standard_normal(4) * 1e-3}
        params = ModelParameters(ModelConfig(vocab_size=12), {
            n: parameter(a.copy()) for n, a in values.items()})
        return TrainState.fresh(params), values, rng

    def test_updates_arrays_in_place(self):
        state, values, rng = self._three_tensor_state()
        held = [t.data for _, t in state.params.named_tensors()]
        held += [*state.first_moment.values(), *state.second_moment.values()]
        cfg = TrainConfig(learning_rate=0.01)
        for _ in range(2):
            grads = {n: rng.standard_normal(a.shape) for n, a in values.items()}
            state = optimizer_step(state, grads, cfg)
        now = [t.data for _, t in state.params.named_tensors()]
        now += [*state.first_moment.values(), *state.second_moment.values()]
        assert all(a is b for a, b in zip(held, now))
        assert not np.array_equal(now[0], values["dec0.self.wq"])

    def test_bit_equal_to_out_of_place_formula(self):
        state, values, rng = self._three_tensor_state()
        cfg = TrainConfig(learning_rate=0.01)
        theta = dict(values)
        m = {n: np.zeros_like(a) for n, a in values.items()}
        v = {n: np.zeros_like(a) for n, a in values.items()}
        for t in range(1, 4):
            grads = {n: rng.standard_normal(a.shape) * 10.0 ** rng.integers(-6, 3)
                     for n, a in values.items()}
            state = optimizer_step(state, grads, cfg)
            bias1, bias2 = 1.0 - BETA1**t, 1.0 - BETA2**t
            for n, g in grads.items():
                m[n] = BETA1 * m[n] + (1.0 - BETA1) * g
                v[n] = BETA2 * v[n] + (1.0 - BETA2) * (g * g)
                update = (m[n] / bias1) / (np.sqrt(v[n] / bias2) + ADAM_EPS)
                new = theta[n] - cfg.learning_rate * update
                if n == "dec0.self.wq":  # the one decayed tensor
                    new = new - cfg.learning_rate * WEIGHT_DECAY * theta[n]
                theta[n] = new
            for n, tensor in state.params.named_tensors():
                assert tensor.data.tobytes() == theta[n].tobytes(), (t, n)
                assert state.first_moment[n].tobytes() == m[n].tobytes()
                assert state.second_moment[n].tobytes() == v[n].tobytes()

    def test_real_batch_grads_share_no_memory(self):
        # clip_gradients scales each grad in place, so no two may alias
        data, vocab, _ = _tiny_setup()
        mcfg = make_model_config(
            len(vocab), "hard", seed=1, d_model=8, num_layers=2, num_heads=2,
            ffn_dim=16, picker_hidden=(4,))
        params = init_parameters(mcfg)
        batch = collate([encode_sample(item.sample, vocab, ENGLISH, labels=item.labels)
                         for item in data])
        rng = np.random.default_rng(0)
        enc = encode(batch.input_ids, batch.input_mask, params, rng)
        logits = decode_forward(enc, batch.decoder_input, params, rng)
        lg = generator_loss(logits, batch.decoder_target, batch.target_mask)
        lp = picker_loss(picker_forward(enc, params), batch.picker_targets,
                         batch.input_mask)
        grads = list(model_backward(joint_loss(lp, lg, 1.0), params).values())
        assert len(grads) == len(params.tensors)
        for i, g in enumerate(grads):
            assert g.flags.writeable
            for other in grads[i + 1:]:
                assert not np.shares_memory(g, other)
            for _, tensor in params.named_tensors():
                assert not np.shares_memory(g, tensor.data)


class TestSubsample:
    def test_exact_tenth_of_thousand(self):
        out = subsample(list(range(1000)), 0.1, seed=0)
        assert len(out) == 100

    def test_order_preserved(self):
        out = subsample(list(range(1000)), 0.1, seed=0)
        assert out == sorted(out)

    def test_seed_determinism(self):
        a = subsample(list(range(200)), 0.25, seed=3)
        b = subsample(list(range(200)), 0.25, seed=3)
        c = subsample(list(range(200)), 0.25, seed=4)
        assert a == b
        assert a != c

    def test_full_fraction_is_identity(self):
        data = ["a", "b", "c"]
        assert subsample(data, 1.0, seed=0) == data

    def test_at_least_one_survivor(self):
        assert len(subsample(list(range(5)), 0.01, seed=0)) == 1

    def test_ceiling(self):
        assert len(subsample(list(range(10)), 0.25, seed=0)) == 3

    def test_bad_fraction(self):
        with pytest.raises(TrainingError):
            subsample([1], 0.0, seed=0)
        with pytest.raises(TrainingError):
            subsample([1], 1.5, seed=0)

    def test_no_duplicates(self):
        out = subsample(list(range(50)), 0.5, seed=9)
        assert len(out) == len(set(out))


class TestMakeModelConfig:
    def test_soft_mode_gets_arity_one(self):
        cfg = make_model_config(100, "soft")
        assert cfg.picker_arity == 1
        assert cfg.picker_widths[-1] == 1

    def test_hard_mode_gets_arity_three(self):
        for mode in ("hard", "none"):
            cfg = make_model_config(100, mode)
            assert cfg.picker_arity == 3

    def test_picker_hidden_override(self):
        cfg = make_model_config(100, "hard", picker_hidden=(8, 4))
        assert cfg.picker_widths == (8, 4, 3)

    def test_other_overrides_pass_through(self):
        cfg = make_model_config(100, "hard", d_model=16, num_heads=2)
        assert cfg.d_model == 16


def _tiny_setup(mode="hard", size=4, seed=11):
    corpus = generate_corpus(size, seed=seed)
    vocab = build_vocab(corpus, 500, ENGLISH)
    model_cfg = make_model_config(
        len(vocab), mode, seed=1, d_model=8, num_layers=1, num_heads=2,
        ffn_dim=16, picker_hidden=(4,), dropout=0.0)
    if mode in ("hard", "soft"):
        data = label_corpus(corpus, mode, EmbeddingTable(), ENGLISH)
    else:
        data = corpus
    return data, vocab, model_cfg


class TestTrainLoop:
    def test_determinism_same_seed(self, tmp_path):
        data, vocab, mcfg = _tiny_setup()
        cfg = TrainConfig(epochs=2, batch_size=2, seed=7,
                          learning_rate=1e-3)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        d1.mkdir(), d2.mkdir()
        r1 = train(data, cfg, mcfg, vocab, ENGLISH, out_dir=str(d1))
        r2 = train(data, cfg, mcfg, vocab, ENGLISH, out_dir=str(d2))
        assert r1.log_rows == r2.log_rows
        assert (d1 / "checkpoint.bin").read_bytes() == \
               (d2 / "checkpoint.bin").read_bytes()
        assert (d1 / "loss_log.csv").read_bytes() == \
               (d2 / "loss_log.csv").read_bytes()

    def test_bool_mask_dropout_keeps_artifact_bytes(self, tmp_path, monkeypatch):
        # the embedding dropout node holds a bool mask; training with the
        # float mask product it replaced writes the same bytes
        data, vocab, mcfg = _tiny_setup()
        mcfg = dataclasses.replace(mcfg, dropout=0.1)
        cfg = TrainConfig(epochs=2, batch_size=2, seed=7, learning_rate=1e-3)

        def float_mask_dropout(x, rate, rng):
            if rng is None or rate <= 0.0:
                return x
            return x * ((rng.random(x.shape) >= rate) / (1.0 - rate))

        runs = []
        for name in ("bool", "float"):
            if name == "float":
                monkeypatch.setattr(model_module, "_dropout", float_mask_dropout)
            out = tmp_path / name
            out.mkdir()
            train(data, cfg, mcfg, vocab, ENGLISH, out_dir=str(out))
            runs.append([(out / f).read_bytes() for f in ("loss_log.csv", "checkpoint.bin")])
        assert runs[0] == runs[1]

    def test_step_gradients_freed_before_next_step(self, monkeypatch):
        # a step's gradients do not outlive it: when a step starts its
        # forward, every gradient array of the steps before it is freed
        data, vocab, mcfg = _tiny_setup(size=8)
        refs, alive = [], []

        def recording_backward(loss, params):
            grads = model_backward(loss, params)
            refs.extend(weakref.ref(g) for g in grads.values())
            return grads

        def counting_encode(*args):
            alive.append(sum(ref() is not None for ref in refs))
            return encode(*args)

        monkeypatch.setattr(training_module, "backward", recording_backward)
        monkeypatch.setattr(training_module, "encode", counting_encode)
        train(data, TrainConfig(epochs=1, batch_size=2, seed=0), mcfg, vocab, ENGLISH)
        names = list(init_parameters(mcfg).named_tensors())
        assert len(alive) == 4 and len(refs) == 4 * len(names)
        assert alive == [0, 0, 0, 0]

    def test_different_seed_differs(self):
        data, vocab, mcfg = _tiny_setup()
        r1 = train(data, TrainConfig(epochs=1, batch_size=2, seed=1),
                   mcfg, vocab, ENGLISH)
        r2 = train(data, TrainConfig(epochs=1, batch_size=2, seed=2),
                   mcfg, vocab, ENGLISH)
        assert r1.log_rows != r2.log_rows

    def test_loss_decreases(self):
        data, vocab, mcfg = _tiny_setup()
        cfg = TrainConfig(epochs=15, batch_size=4, seed=0,
                          learning_rate=2e-3)
        result = train(data, cfg, mcfg, vocab, ENGLISH)
        first = [r for r in result.log_rows if r[0] == 1]
        last = [r for r in result.log_rows if r[0] == cfg.epochs]
        mean = lambda rows: sum(r[4] for r in rows) / len(rows)
        assert mean(last) < mean(first)

    def test_zero_weight_matches_unlabeled_run_exactly(self):
        labeled, vocab, mcfg = _tiny_setup("hard")
        plain = [item.sample for item in labeled]
        alpha0 = train(labeled,
                       TrainConfig(epochs=2, batch_size=2, seed=5,
                                   picker_weight=0.0, label_mode="hard"),
                       mcfg, vocab, ENGLISH)
        none = train(plain,
                     TrainConfig(epochs=2, batch_size=2, seed=5,
                                 picker_weight=1.0, label_mode="none"),
                     mcfg, vocab, ENGLISH)
        assert alpha0.log_rows == none.log_rows
        assert all(row[2] == 0.0 for row in alpha0.log_rows)
        for name, tensor in alpha0.state.params.named_tensors():
            assert np.array_equal(tensor.data, none.state.params[name].data)

    def test_picker_loss_nonzero_when_enabled(self):
        data, vocab, mcfg = _tiny_setup("hard")
        result = train(data, TrainConfig(epochs=1, batch_size=2, seed=0),
                       mcfg, vocab, ENGLISH)
        assert any(row[2] > 0.0 for row in result.log_rows)

    def test_missing_labels_rejected(self):
        data, vocab, mcfg = _tiny_setup("none")
        with pytest.raises(TrainingError, match="lacks labels"):
            train(data, TrainConfig(label_mode="hard"), mcfg, vocab, ENGLISH)

    def test_mode_mismatch_rejected(self):
        data, vocab, _ = _tiny_setup("soft")
        mcfg = make_model_config(500, "hard", d_model=8, num_layers=1,
                                 num_heads=2, ffn_dim=16, picker_hidden=(4,))
        with pytest.raises(TrainingError, match="soft"):
            train(data, TrainConfig(label_mode="hard"), mcfg, vocab, ENGLISH)

    def test_arity_mismatch_rejected(self):
        data, vocab, _ = _tiny_setup("soft")
        mcfg = make_model_config(500, "hard", d_model=8, num_layers=1,
                                 num_heads=2, ffn_dim=16, picker_hidden=(4,))
        with pytest.raises(TrainingError, match="arity"):
            train(data, TrainConfig(label_mode="soft"), mcfg, vocab, ENGLISH)

    def test_defined_mode_rejected(self):
        with pytest.raises(TrainingError, match="unknown label mode"):
            TrainConfig(label_mode="defined")

    @pytest.mark.parametrize("name,value", [
        ("learning_rate", 0.0), ("learning_rate", -1.0), ("learning_rate", math.nan),
        ("picker_weight", -1.0),
    ])
    def test_unusable_optimizer_setting_rejected(self, name, value):
        with pytest.raises(TrainingError, match=f"^{name} must"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["learning_rate", "picker_weight"])
    def test_infinite_setting_rejected(self, name):
        with pytest.raises(TrainingError, match=f"^{name} must be finite"):
            TrainConfig(**{name: math.inf})

    def test_empty_corpus_rejected(self):
        _, vocab, mcfg = _tiny_setup()
        with pytest.raises(TrainingError, match="empty"):
            train([], TrainConfig(), mcfg, vocab, ENGLISH)

    def test_subsample_applied(self):
        data, vocab, mcfg = _tiny_setup(size=8)
        cfg = TrainConfig(epochs=1, batch_size=8, subsample_fraction=0.5)
        result = train(data, cfg, mcfg, vocab, ENGLISH)
        assert result.trained_samples == 4

    def test_sample_without_reference_refused_though_not_subsampled(self):
        # the reference check covers the whole corpus, not the subsample
        data, vocab, mcfg = _tiny_setup("none", size=8)
        cfg = TrainConfig(epochs=1, batch_size=8, subsample_fraction=0.5,
                          label_mode="none")
        left_out = sorted(set(range(8)) - set(subsample(list(range(8)), 0.5, cfg.seed)))
        data[left_out[0]] = dataclasses.replace(data[left_out[0]], reference=None)
        with pytest.raises(TrainingError,
                           match=rf"sample '{left_out[0]}' has no reference to train on"):
            train(data, cfg, mcfg, vocab, ENGLISH)

    def test_out_dir_created_when_missing(self, tmp_path):
        data, vocab, mcfg = _tiny_setup()
        out = tmp_path / "new" / "run"
        result = train(data, TrainConfig(epochs=1, batch_size=4), mcfg, vocab,
                       ENGLISH, out_dir=str(out))
        assert sorted(os.listdir(out)) == ["checkpoint.bin", "loss_log.csv", "vocab.json"]
        assert result.checkpoint_path == str(out / "checkpoint.bin")



class TestLossLog:
    def test_format_and_round_trip(self, tmp_path):
        rows = [(1, 1, 0.1, 2.5, 2.6), (1, 2, 1 / 3, 0.125, 0.45833333333)]
        path = tmp_path / "loss_log.csv"
        write_loss_log(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == LOSS_LOG_HEADER
        for row, line in zip(rows, lines[1:]):
            fields = line.split(",")
            assert int(fields[0]) == row[0]
            assert int(fields[1]) == row[1]
            assert [float(f) for f in fields[2:]] == list(row[2:])
