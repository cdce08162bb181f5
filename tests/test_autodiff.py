"""Gradient checks for the reverse-mode autodiff core.

Every differentiable op is verified against central finite differences on
random inputs (matmul also on hypothesis-drawn shapes), the fused ones (RMS
norm, attention, cross-entropy, binary cross-entropy with logits) also at
extreme inputs. The fused projections (residual, relu_matmul) must also
equal the primitive ops they replace bit for bit, output and every
gradient, and bce_with_logits the numpy ops of the composition it replaced.
Backward starts at an op's output through weighted_sum, which hands the op
a chosen upstream gradient. Structural behavior (graph recording, lazy
accumulation, toposort on shared subgraphs, no_grad) is tested separately.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import per_head_attention, retained_backward, weighted_sum
from pickgen.autodiff import (
    Tensor,
    _differentiated,
    attention,
    dropout,
    log_softmax,
    no_grad,
    parameter,
    relu_matmul,
    residual,
)
from pickgen.model import MASK_NEG

RNG = np.random.default_rng(1234)
EPS = 1e-6
TOL = 1e-6


def numeric_grad(fn, x: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_unary(build, x: np.ndarray, tol: float = TOL):
    """Compare autodiff grads of sum(build(x)) to finite differences."""
    t = parameter(x.copy())
    weighted_sum(build(t)).backward()
    expected = numeric_grad(lambda v: float(build(Tensor(v)).data.sum()), x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=tol, rtol=tol)


class TestElementwiseGrads:
    def test_add(self):
        a = RNG.standard_normal((3, 4))
        b = RNG.standard_normal((3, 4))
        ta, tb = parameter(a.copy()), parameter(b.copy())
        weighted_sum(ta + tb).backward()
        np.testing.assert_allclose(ta.grad, np.ones((3, 4)))
        np.testing.assert_allclose(tb.grad, np.ones((3, 4)))

    def test_scalar_ops(self):
        a, w = RNG.standard_normal(4), RNG.standard_normal(4)
        check_unary(lambda t: t * 3.0, a)
        check_unary(lambda t: t * w, a)

    def test_mul_takes_no_tensor_operand(self):
        # a graph node times a graph node is no op here
        with pytest.raises(TypeError):
            parameter(np.ones(2)) * parameter(np.ones(2))

    def test_relu(self):
        # keep inputs away from the kink where the derivative jumps
        a = RNG.standard_normal((4, 4))
        a[np.abs(a) < 0.05] = 0.5
        check_unary(lambda t: t.relu(), a)


class TestMatmulAndShapes:
    def test_matmul_2d(self):
        a = RNG.standard_normal((3, 4))
        b = RNG.standard_normal((4, 2))
        ta, tb = parameter(a.copy()), parameter(b.copy())
        weighted_sum(ta @ tb).backward()
        g = np.ones((3, 2))
        np.testing.assert_allclose(ta.grad, g @ b.T)
        np.testing.assert_allclose(tb.grad, a.T @ g)

    def test_matmul_rejects_batched_right_operand(self):
        a = parameter(RNG.standard_normal((2, 3, 4)))
        b = parameter(RNG.standard_normal((2, 4, 5)))
        with pytest.raises(ValueError, match="2-D right operand"):
            a @ b

    def test_matmul_broadcast_weight(self):
        a = RNG.standard_normal((2, 3, 4))
        w = RNG.standard_normal((4, 5))
        ta, tw = parameter(a.copy()), parameter(w.copy())
        weighted_sum(ta @ tw).backward()
        assert tw.grad.shape == (4, 5)
        expected = sum(a[i].T @ np.ones((3, 5)) for i in range(2))
        np.testing.assert_allclose(tw.grad, expected)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matmul_matches_numpy_and_finite_differences(self, data):
        # the 2-D right operand (a projection) runs as one GEMM over the
        # rows of every leading dimension
        sizes = st.integers(1, 4)
        d, e = data.draw(sizes), data.draw(sizes)
        kind = data.draw(st.sampled_from(("decode", "plain", "lead")))
        if kind == "decode":  # one decoder step: (rows, 1, d)
            left, right = (data.draw(st.sampled_from((1, 2, 7))), 1, d), (d, e)
        elif kind == "plain":
            left, right = (data.draw(sizes), d), (d, e)
        else:
            lead = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
            left, right = (*lead, d), (d, e)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a, w = rng.standard_normal(left), rng.standard_normal(right)
        weight = rng.standard_normal(np.matmul(a, w).shape)
        ta, tw = parameter(a.copy()), parameter(w.copy())
        out = ta @ tw
        np.testing.assert_allclose(out.data, np.matmul(a, w), rtol=1e-12, atol=1e-12)
        weighted_sum(out, weight).backward()

        def loss(x, y):
            return float((np.matmul(x, y) * weight).sum())

        np.testing.assert_allclose(
            ta.grad, numeric_grad(lambda v: loss(v, w), a.copy()), atol=TOL, rtol=TOL)
        np.testing.assert_allclose(
            tw.grad, numeric_grad(lambda v: loss(a, v), w.copy()), atol=TOL, rtol=TOL)

    def test_reshape(self):
        a = RNG.standard_normal((2, 6))
        check_unary(lambda t: t.reshape(3, 4) * 2.0, a)


def softmax_of(logits: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """The attention weights of 2-D logits: with zero queries and keys the
    logits are the one head's bias alone, and identity values read the
    weights out."""
    rows, cols = logits.shape
    return attention(Tensor(np.zeros((rows, 1))), Tensor(np.zeros((cols, 1))),
                     Tensor(np.eye(cols)), 1, logits.reshape(rows, cols, 1), mask)


class TestSoftmax:
    """The softmax inside the fused attention node."""

    def test_grad_matches_finite_differences(self):
        a = RNG.standard_normal((3, 5))
        w = RNG.standard_normal((3, 5))
        check_unary(lambda t: softmax_of(t) * w, a)

    def test_rows_sum_to_one(self):
        a = RNG.standard_normal((4, 7)) * 10
        y = softmax_of(Tensor(a)).data
        np.testing.assert_allclose(y.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_shift_invariance(self):
        a = RNG.standard_normal((1, 5))
        y1 = softmax_of(Tensor(a)).data
        y2 = softmax_of(Tensor(a + 1000.0)).data
        np.testing.assert_allclose(y1, y2, atol=1e-12)

    def test_huge_negative_underflows_to_zero(self):
        y = softmax_of(Tensor(np.zeros((1, 2))), np.array([[0.0, -1e9]])).data
        assert y[0, 1] == 0.0
        assert y[0, 0] == 1.0


class TestLogSoftmax:
    def test_equals_log_of_softmax(self):
        a = RNG.standard_normal((4, 7)) * 5
        np.testing.assert_allclose(log_softmax(a),
                                   np.log(softmax_of(Tensor(a)).data),
                                   atol=1e-12)

    def test_extreme_inputs_stay_finite(self):
        y = log_softmax(np.array([[-1000.0, 1000.0, 0.0]]))
        assert y.tolist() == [[-2000.0, 0.0, -1000.0]]


class TestRMSNorm:
    def test_matches_definition(self):
        x = RNG.standard_normal((2, 3, 4))
        scale = RNG.standard_normal(4)
        out = Tensor(x).rmsnorm(Tensor(scale), 1e-6).data
        expected = x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + 1e-6) * scale
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    @pytest.mark.parametrize("magnitude", [1.0, 1000.0])
    def test_grads_match_finite_differences(self, magnitude):
        x = RNG.standard_normal((2, 3, 4)) * magnitude
        scale = RNG.standard_normal(4)
        w = RNG.standard_normal((2, 3, 4))
        check_unary(lambda t: t.rmsnorm(Tensor(scale), 1e-6) * w, x)
        check_unary(lambda t: Tensor(x).rmsnorm(t, 1e-6) * w, scale)

    def test_zero_row_stays_finite(self):
        t = parameter(np.zeros((1, 4)))
        weighted_sum(t.rmsnorm(parameter(np.ones(4)), 1e-6)).backward()
        assert np.isfinite(t.grad).all()


def grads_of(out: Tensor, g: np.ndarray, leaves) -> list[bytes]:
    """Output bytes and every leaf's gradient bytes after backward of
    sum(out * g)."""
    weighted_sum(out, g).backward()
    return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]


class TestFusedProjections:
    """residual and relu_matmul against the primitive compositions they
    stand for: bit-equal forward and backward, and finite differences."""

    def _residual_values(self, scale, rate):
        x = RNG.standard_normal((2, 3, 4)) * scale
        a = RNG.standard_normal((2, 3, 5)) * scale
        w = RNG.standard_normal((5, 4))
        keep = RNG.random(x.shape) >= rate if rate else None
        return x, a, w, keep

    @pytest.mark.parametrize("scale", [1.0, 1000.0])
    @pytest.mark.parametrize("rate", [0.0, 0.1])
    def test_residual_bit_equal_to_composition(self, scale, rate):
        x, a, w, keep = self._residual_values(scale, rate)
        g = RNG.standard_normal(x.shape)
        fused = [parameter(v.copy()) for v in (x, a, w)]
        got = grads_of(residual(*fused, keep, rate), g, fused)
        tx, ta, tw = plain = [parameter(v.copy()) for v in (x, a, w)]
        branch = ta @ tw
        if keep is not None:
            branch = branch * (keep / (1.0 - rate))
        assert got == grads_of(tx + branch, g, plain)

    def test_dropout_bit_equal_to_float_mask_product(self):
        x, g = RNG.standard_normal((2, 3, 4)), RNG.standard_normal((2, 3, 4))
        keep = RNG.random(x.shape) >= 0.1
        fused = parameter(x.copy())
        got = grads_of(dropout(fused, keep, 0.1), g, [fused])
        plain = parameter(x.copy())
        assert got == grads_of(plain * (keep / (1.0 - 0.1)), g, [plain])
        check_unary(lambda t: dropout(t, keep, 0.1) * g, x.copy())

    @pytest.mark.parametrize("scale", [1.0, 1000.0])
    def test_relu_matmul_bit_equal_to_composition(self, scale):
        h = RNG.standard_normal((2, 3, 4)) * scale
        w1, w2 = RNG.standard_normal((4, 6)), RNG.standard_normal((6, 5))
        g = RNG.standard_normal((2, 3, 5))
        for nan in (False, True):
            if nan:
                h[1, 2, 0] = np.nan
            fused = [parameter(v.copy()) for v in (h, w1, w2)]
            got = grads_of(relu_matmul(fused[0], fused[1]) @ fused[2], g, fused)
            th, tw1, tw2 = plain = [parameter(v.copy()) for v in (h, w1, w2)]
            assert got == grads_of((th @ tw1).relu() @ tw2, g, plain), nan

    def test_relu_matmul_nan_row_stays_nan(self):
        h = RNG.standard_normal((2, 4))
        h[0, 1] = np.nan
        out = relu_matmul(Tensor(h), Tensor(RNG.standard_normal((4, 3)))).data
        assert np.isnan(out[0]).all() and (out[1] >= 0.0).all()

    @pytest.mark.parametrize("rate", [0.0, 0.1])
    def test_residual_grads_match_finite_differences(self, rate):
        values = self._residual_values(1.0, rate)
        keep = values[3]
        g = RNG.standard_normal(values[0].shape)
        for i in range(3):
            def build(t, i=i):
                args = [t if j == i else Tensor(v) for j, v in enumerate(values[:3])]
                return residual(*args, keep, rate) * g
            check_unary(build, values[i].copy())

    def test_relu_matmul_grads_match_finite_differences(self):
        h, w = RNG.standard_normal((2, 3, 4)), RNG.standard_normal((4, 6))
        g = RNG.standard_normal((2, 3, 6))
        check_unary(lambda t: relu_matmul(t, Tensor(w)) * g, h.copy())
        check_unary(lambda t: relu_matmul(Tensor(h), t) * g, w.copy())


def padding_mask() -> np.ndarray:
    """(B, 1, 1, Lk) additive mask hiding random keys, never key 0."""
    mask = np.where(RNG.random((2, 1, 1, 5)) < 0.3, -1e9, 0.0)
    mask[..., 0] = 0.0
    return mask


def causal_mask() -> np.ndarray:
    """(1, 1, Lq, Lk): the queries are the last Lq of the Lk positions."""
    return np.triu(np.full((3, 5), -1e9), k=3)[None, None]


class TestAttention:
    """Two heads over (B, L, d) projections: q and k carry 3 features per
    head (so the 1/sqrt(3) scale is inexact), v carries 4; the bias is
    (Lq, Lk, heads)."""

    HEADS = 2
    SHAPES = {"q": (2, 3, 6), "k": (2, 5, 6), "v": (2, 5, 8), "bias": (3, 5, 2)}

    def _values(self, bias_scale=None):
        values = {n: RNG.standard_normal(s) for n, s in self.SHAPES.items()}
        if bias_scale is not None:
            values["bias"] = np.where(RNG.random(self.SHAPES["bias"]) < 0.5,
                                      -bias_scale, bias_scale)
        return values

    def _run(self, values, mask=None, **tensors):
        args = {n: tensors.get(n, Tensor(a)) for n, a in values.items()}
        return attention(args["q"], args["k"], args["v"], self.HEADS, args["bias"],
                         mask)

    def _check(self, values, mask=None):
        weights = RNG.standard_normal((2, 3, 8))
        for name in values:
            check_unary(lambda t, name=name: self._run(values, mask, **{name: t})
                        * weights, values[name].copy())

    def test_grads_match_finite_differences(self):
        # q, k, v and the bias, at scale 1 and with the bias at +-1000,
        # under a padding mask and under a causal one
        for mask in (padding_mask(), causal_mask()):
            for bias_scale in (None, 1000.0):
                self._check(self._values(bias_scale), mask)

    def test_heads_see_their_own_features_and_bias(self):
        # each head equals a one-head attention over its slice of the features
        values = self._values()
        mask = padding_mask()
        out = self._run(values, mask).data
        for h in range(self.HEADS):
            cut = {"q": slice(3 * h, 3 * h + 3), "k": slice(3 * h, 3 * h + 3),
                   "v": slice(4 * h, 4 * h + 4), "bias": slice(h, h + 1)}
            one = attention(*(Tensor(values[n][..., cut[n]]) for n in ("q", "k", "v")),
                            1, Tensor(values["bias"][..., cut["bias"]]), mask)
            np.testing.assert_allclose(out[..., 4 * h:4 * h + 4], one.data, rtol=1e-12)

    @pytest.mark.parametrize("mask_kind", ["padding", "causal"])
    def test_bit_equal_to_per_head_formulation(self, mask_kind):
        values = self._values()
        mask = padding_mask() if mask_kind == "padding" else causal_mask()
        g = RNG.standard_normal((2, 3, 8))
        tensors = {n: parameter(a.copy()) for n, a in values.items()}
        out = self._run(values, mask, **tensors)
        weighted_sum(out, g).backward()
        want_out, want_grads = per_head_attention(
            *(values[n] for n in ("q", "k", "v")), self.HEADS, values["bias"], mask, g)
        assert out.data.tobytes() == want_out.tobytes()
        for name, want in zip(("q", "k", "v", "bias"), want_grads):
            assert tensors[name].grad.shape == want.shape
            assert tensors[name].grad.tobytes() == want.tobytes(), name

    def test_fully_masked_key_row(self):
        values = self._values()
        mask = np.zeros((1, 1, 1, 5))
        mask[..., 2] = -1e9  # no query sees key 2
        self._check(values, mask)
        k, v = parameter(values["k"]), parameter(values["v"])
        weighted_sum(self._run(values, mask, k=k, v=v)).backward()
        assert not k.grad[:, 2].any() and not v.grad[:, 2].any()
        assert k.grad[:, 1].any() and v.grad[:, 1].any()

    def test_query_seeing_no_key_stays_finite(self):
        values = self._values()
        mask = np.zeros((1, 1, 3, 5))
        mask[..., 1, :] = -1e9
        q = parameter(values["q"])
        out = self._run(values, mask, q=q)
        weighted_sum(out).backward()
        assert np.isfinite(out.data).all() and np.isfinite(q.grad).all()

    def test_extreme_logits_stay_finite(self):
        values = self._values(bias_scale=1000.0)
        self._check(values)
        t = parameter(values["bias"])
        weighted_sum(self._run(values, bias=t)).backward()
        assert np.isfinite(t.grad).all()


class TestRowMaximum:
    """attention shifts each row by its maximum, which it takes from a
    transposed copy when there are many short rows; outputs and gradients
    equal those of numpy's plain last-axis maximum bit for bit, on values
    with ties, both zeros, masked rows, NaN and infinities."""

    SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, MASK_NEG, np.nan, np.inf, -np.inf])
    # (B, Lq, Lk): one query and one key (few rows, then many), one query
    # (decoder self attention, at 128 rows), one key, decoder cross
    # attention, a training encoder, and rows too long for the copy
    ATTENTION_SHAPES = [(2, 1, 1), (128, 1, 1), (128, 1, 8), (3, 5, 1), (16, 8, 15),
                        (12, 23, 23), (4, 4, 40)]
    HEADS = 4

    @classmethod
    def draw(cls, rng, shape, share):
        # values rounded to one decimal tie often; `share` of them are special
        x = rng.standard_normal(shape).round(1)
        pick = rng.random(shape) < share
        x[pick] = rng.choice(cls.SPECIAL, size=int(pick.sum()))
        return x

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from(ATTENTION_SHAPES), seed=st.integers(0, 2**32 - 1),
           share=st.sampled_from([0.0, 0.1, 0.6, 1.0]), masked=st.booleans())
    def test_attention_and_its_gradients(self, shape, seed, share, masked):
        rng = np.random.default_rng(seed)
        b, lq, lk = shape
        values = {"q": self.draw(rng, (b, lq, 8), share / 4),
                  "k": self.draw(rng, (b, lk, 8), share / 4),
                  "v": rng.standard_normal((b, lk, 8)),
                  "bias": self.draw(rng, (lq, lk, self.HEADS), share)}
        mask = self.draw(rng, (b, self.HEADS, lq, lk), share)
        if masked:  # whole rows of MASK_NEG
            mask[rng.random((b, self.HEADS, lq)) < 0.3] = MASK_NEG
        g = rng.standard_normal((b, lq, 8))
        tensors = {n: parameter(a.copy()) for n, a in values.items()}
        with np.errstate(all="ignore"):
            out = attention(tensors["q"], tensors["k"], tensors["v"], self.HEADS,
                            tensors["bias"], mask)
            weighted_sum(out, g).backward()
            want_out, want_grads = per_head_attention(
                *(values[n] for n in ("q", "k", "v")), self.HEADS, values["bias"], mask, g)
        assert np.array_equal(out.data, want_out, equal_nan=True)
        for name, want in zip(("q", "k", "v", "bias"), want_grads):
            assert np.array_equal(tensors[name].grad, want, equal_nan=True), name


class TestCrossEntropy:
    def test_equals_weighted_negative_log_softmax(self):
        a = RNG.standard_normal((2, 3, 5))
        targets = RNG.integers(0, 5, size=(2, 3))
        w = RNG.random((2, 3))
        out = Tensor(a).cross_entropy(targets, w)
        picked = np.take_along_axis(log_softmax(a), targets[..., None], -1)[..., 0]
        assert out.shape == ()
        np.testing.assert_allclose(out.item(), -(picked * w).sum(), rtol=1e-12)

    @pytest.mark.parametrize("magnitude", [1.0, 1000.0])
    def test_grad_matches_finite_differences(self, magnitude):
        a = RNG.standard_normal((3, 5)) * magnitude
        targets = np.array([0, 4, 2])
        w = np.array([1.0, 0.5, 2.0])
        check_unary(lambda t: t.cross_entropy(targets, w), a)

    def test_confident_miss_keeps_full_gradient(self):
        t = parameter(np.array([[-1000.0, 1000.0, 0.0]]))
        out = t.cross_entropy(np.array([0]), np.array([1.0]))
        out.backward()
        assert out.item() == 2000.0
        np.testing.assert_allclose(t.grad, [[-1.0, 1.0, 0.0]], atol=1e-12)

    def test_zero_weights_get_zero_gradient(self):
        t = parameter(RNG.standard_normal((2, 3, 4)))
        w = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        t.cross_entropy(np.zeros((2, 3), dtype=np.int64), w).backward()
        assert not t.grad[w == 0.0].any()
        assert t.grad[w == 1.0].any()
        check_unary(lambda v: v.cross_entropy(np.zeros((2, 3), dtype=np.int64), w),
                    t.data.copy())


class TestBCEWithLogits:
    """The soft picker loss's one node against the numpy ops of the seven
    node composition it replaced: softplus(x), q * x, neg, add, * weights,
    sum, under an upstream scale."""

    @staticmethod
    def composition(x, q, w, scale):
        """Loss and gradient bytes of scale * sum(w * (softplus(x) + -(q *
        x))), the composition's ops in its order."""
        e = np.exp(-np.abs(x))
        per_pos = (np.maximum(x, 0.0) + np.log1p(e)) + -(q * x)
        loss = (per_pos * w).sum() * scale
        g = np.broadcast_to(np.ones(()) * scale, x.shape).copy() * w
        sig = np.where(x >= 0.0, 1.0, e) / (1.0 + e)
        grad = g * sig + (-g) * q
        return loss.tobytes(), grad.tobytes()

    @staticmethod
    def values(scale):
        x = RNG.standard_normal((3, 5)) * scale
        q = np.where(RNG.random((3, 5)) < 0.3, RNG.integers(0, 2, (3, 5)),
                     RNG.random((3, 5)))
        w = (RNG.random((3, 5)) < 0.8).astype(float)
        return x, q, w

    @pytest.mark.parametrize("scale", [1.0, 1000.0, -1000.0])
    def test_bit_equal_to_composition(self, scale):
        x, q, w = self.values(scale)
        t = parameter(x.copy())
        loss = t.bce_with_logits(q, w) * 0.37
        got = loss.data.tobytes()
        loss.backward()
        assert (got, t.grad.tobytes()) == self.composition(x, q, w, 0.37)

    def test_grad_matches_finite_differences(self):
        x, q, w = self.values(1.0)
        check_unary(lambda t: t.bce_with_logits(q, w), x)
        check_unary(lambda t: t.bce_with_logits(q, w * 2.5), x)

    def test_confidently_wrong_logit_gets_full_gradient(self):
        # x = +1000 against q = 0, and x = -1000 against q = 1
        t = parameter(np.array([1000.0, -1000.0]))
        w = np.array([0.5, 2.0])
        loss = t.bce_with_logits(np.array([0.0, 1.0]), w)
        loss.backward()
        assert loss.item() == 0.5 * 1000.0 + 2.0 * 1000.0
        assert t.grad.tolist() == [0.5, -2.0]

    def test_confident_hit_gets_no_gradient(self):
        t = parameter(np.array([1000.0, -1000.0]))
        loss = t.bce_with_logits(np.array([1.0, 0.0]), np.ones(2))
        loss.backward()
        assert loss.item() == 0.0
        assert t.grad.tolist() == [0.0, 0.0]

    def test_zero_weights_get_zero_gradient(self):
        x, q, _ = self.values(1.0)
        w = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        t = parameter(x)
        t.bce_with_logits(q, w).backward()
        assert not t.grad[:, w == 0.0].any() and t.grad[:, w == 1.0].all()


class TestIndexing:
    def test_lookup_scatters_gradient(self):
        ids = np.array([[0, 2], [2, 4]])
        # rows of a matrix (embedding), then (2, 3) blocks (the decoder's
        # cross-attention gathers)
        for table in (parameter(RNG.standard_normal((5, 3))),
                      parameter(np.zeros((5, 2, 3)))):
            out = table.lookup(ids)
            assert out.shape == (2, 2, *table.shape[1:])
            weighted_sum(out * 2.0).backward()
            expected = np.zeros(table.shape)
            for i in ids.reshape(-1):
                expected[i] += 2.0
            np.testing.assert_allclose(table.grad, expected)

    @pytest.mark.parametrize("ids_shape", [(9,), (3, 4), (2, 3, 4), (0,), (2, 0)],
                             ids=["1d", "2d", "3d", "empty", "empty-2d"])
    @pytest.mark.parametrize("row_shape", [(3,), (2, 3)], ids=["rows", "blocks"])
    def test_lookup_grad_bit_equal_to_add_at(self, ids_shape, row_shape):
        # few rows, many ids: most rows collect several contributions, and
        # the sums must add in the same order as np.add.at's
        table = parameter(RNG.standard_normal((4, *row_shape)))
        ids = RNG.integers(0, 4, size=ids_shape)
        g = RNG.standard_normal((*ids_shape, *row_shape)) * 10.0 ** RNG.integers(
            -8, 8, size=(*ids_shape, *row_shape))
        weighted_sum(table.lookup(ids), g).backward()
        expected = np.zeros(table.shape)
        np.add.at(expected, ids.reshape(-1), g.reshape(-1, *row_shape))
        assert table.grad.shape == table.shape
        assert table.grad.tobytes() == expected.tobytes()

    def test_lookup_repeated_ids_accumulate(self):
        table = parameter(np.zeros((2, 1)))
        weighted_sum(table.lookup(np.array([0, 0, 0]))).backward()
        assert table.grad[0, 0] == 3.0


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        t = parameter(np.ones(3))
        out = t * 2.0
        with pytest.raises(ValueError, match="scalar"):
            out.backward()

    def test_backward_requires_graph(self):
        t = Tensor(np.array(1.0))
        with pytest.raises(ValueError, match="recorded forward"):
            t.backward()

    def test_diamond_graph_accumulates_once_per_path(self):
        x = parameter(np.array(3.0))
        y = x * 2.0
        z = y + y  # two paths through y
        z.backward()
        assert x.grad.item() == 4.0

    def test_one_node_twice_a_parent(self):
        x = parameter(np.array(2.0))
        y = x + x  # dy/dx = 2
        y.backward()
        assert x.grad.item() == 2.0

    def test_repeated_backward_resets_grads(self):
        # a graph is differentiated once; a new forward starts from zero
        x = parameter(np.array(1.0))
        y = x * 3.0
        y.backward()
        with pytest.raises(ValueError, match="already differentiated"):
            y.backward()
        (x * 3.0).backward()
        assert x.grad.item() == 3.0  # not 6.0

    def test_repeated_backward_gives_equal_grads(self):
        a = parameter(RNG.standard_normal((2, 3)))
        w = parameter(RNG.standard_normal((3, 4)))

        def forward():
            return weighted_sum((a @ w).relu() + (a @ w), w.data[0, :])

        forward().backward()
        first = (a.grad.copy(), w.grad.copy())
        forward().backward()
        np.testing.assert_array_equal(a.grad, first[0])
        np.testing.assert_array_equal(w.grad, first[1])

    def test_backward_uses_up_the_graph(self):
        a = parameter(RNG.standard_normal((2, 3)))
        w = parameter(RNG.standard_normal((3, 4)))
        offset = Tensor(RNG.standard_normal((2, 4)))
        mask = RNG.integers(0, 2, (2, 4)).astype(float)
        h = a @ w
        r = h.relu()
        total = r + h + offset
        masked = total * mask
        loss = weighted_sum(masked)
        retained_backward(loss)
        expected = (a.grad.copy(), w.grad.copy())
        loss.backward()
        interior = [h, r, total, masked, loss]
        for node in interior:
            assert node.grad is None and node._parents == ()
            assert node._backward_fn is _differentiated
            assert node.requires_grad  # a used-up node still routes gradients
        # leaves keep their (bit-equal) gradients, nodes keep their data
        np.testing.assert_array_equal(a.grad, expected[0])
        np.testing.assert_array_equal(w.grad, expected[1])
        assert offset.grad is None
        np.testing.assert_array_equal(h.data, a.data @ w.data)

    def test_second_loss_over_used_up_subgraph_raises(self):
        # the first backward used the shared nodes up, so the second cannot
        # reach x through them; it must raise, not drop x's gradient
        x = parameter(RNG.standard_normal(3))
        shared = (x * 2.0).relu()
        first, second = weighted_sum(shared), weighted_sum(shared + shared)
        first.backward()
        with pytest.raises(ValueError, match="already differentiated"):
            second.backward()

    @pytest.mark.parametrize("build", [
        lambda a, b, c: weighted_sum((a + b) + b * c, c),
        lambda a, b, c: weighted_sum(a + b, c) + weighted_sum(a * 3.0, c),
        lambda a, b, c: weighted_sum(a * 3.0, c) + weighted_sum(a + b, c),
    ], ids=["through-y", "y-branch-first", "a-branch-first"])
    def test_shared_grad_is_never_mutated(self, build):
        # add hands one g to both parents; a later contribution to one of
        # them must not write into the other's grad
        a0, b0, c = RNG.standard_normal(3), RNG.standard_normal(3), RNG.standard_normal(3)
        a, b = parameter(a0.copy()), parameter(b0.copy())
        build(a, b, c).backward()
        a_fd = numeric_grad(lambda v: build(Tensor(v), Tensor(b0), c).item(), a0.copy())
        b_fd = numeric_grad(lambda v: build(Tensor(a0), Tensor(v), c).item(), b0.copy())
        np.testing.assert_allclose(a.grad, a_fd, atol=TOL)
        np.testing.assert_allclose(b.grad, b_fd, atol=TOL)

    def test_constant_operands_get_no_grad(self):
        x = parameter(RNG.standard_normal((2, 3)))
        mask = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        offset = Tensor(np.ones(3))
        weighted_sum(x * mask + offset).backward()
        assert offset.grad is None
        np.testing.assert_array_equal(x.grad, mask)
        # an array factor, such as a dropout mask, is no node at all
        assert (x * mask)._parents == (x,)
        assert (x * mask).requires_grad and not (offset * mask).requires_grad

    def test_deep_chain_does_not_overflow_stack(self):
        x = parameter(np.array(1.0))
        y = x
        for _ in range(5000):
            y = y * 1.0
        y.backward()
        assert x.grad.item() == 1.0

    def test_no_grad_disables_recording(self):
        x = parameter(np.array(1.0))
        with no_grad():
            y = x * 2.0
        assert y._parents == () and not y.requires_grad
        with pytest.raises(ValueError):
            y.backward()

    def test_no_grad_nests_and_restores(self):
        x = parameter(np.array(1.0))
        with no_grad():
            with no_grad():
                pass
            y = x * 2.0
        assert y._parents == ()
        z = x * 2.0
        z.backward()
        assert x.grad.item() == 2.0

    def test_constant_does_not_require_grad(self):
        c = Tensor([1.0, 2.0])
        assert not c.requires_grad
        out = c * 2.0
        assert out._parents == () and not out.requires_grad


class TestBroadcasting:
    def test_add_row_vector(self):
        a = parameter(RNG.standard_normal((3, 4)))
        b = parameter(RNG.standard_normal(4))
        weighted_sum(a + b).backward()
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_add_column_vector(self):
        a = parameter(RNG.standard_normal((3, 4)))
        b = parameter(RNG.standard_normal((3, 1)))
        weighted_sum(a + b).backward()
        np.testing.assert_allclose(b.grad, np.full((3, 1), 4.0))


class TestCompositeExpressions:
    def test_mlp_like_chain(self):
        x = RNG.standard_normal((2, 3))
        w1 = RNG.standard_normal((3, 4))
        w2 = RNG.standard_normal((4, 1))
        q, weights = np.array([[0.3], [1.0]]), np.array([[1.0], [0.5]])

        def run(v):
            h = (v @ Tensor(w1)).relu()
            return (h @ Tensor(w2)).bce_with_logits(q, weights)

        t = parameter(x.copy())
        run(t).backward()
        expected = numeric_grad(lambda v: run(Tensor(v)).item(), x.copy())
        np.testing.assert_allclose(t.grad, expected, atol=1e-6)

    def test_attention_like_chain(self):
        q = RNG.standard_normal((2, 4))
        k = RNG.standard_normal((3, 4))
        v = RNG.standard_normal((3, 2))

        def run(qv):
            return attention(Tensor(qv), Tensor(k), Tensor(v), 2) * 3.0

        t = parameter(q.copy())
        weighted_sum(attention(t, Tensor(k), Tensor(v), 2) * 3.0).backward()
        expected = numeric_grad(lambda x: float(run(x).data.sum()), q.copy())
        np.testing.assert_allclose(t.grad, expected, atol=1e-6)
