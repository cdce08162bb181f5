"""Gradient checks for the reverse-mode autodiff core.

Every differentiable op is verified against central finite differences on
random inputs. Structural behavior (graph recording, accumulation, toposort
on shared subgraphs, no_grad) is tested separately.
"""

import numpy as np
import pytest

from pickgen.autodiff import Tensor, constant, no_grad, parameter

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
    out = build(t).sum()
    out.backward()
    expected = numeric_grad(lambda v: build(Tensor(v)).sum().item(), x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=tol, rtol=tol)


class TestElementwiseGrads:
    def test_add(self):
        a = RNG.standard_normal((3, 4))
        b = RNG.standard_normal((3, 4))
        ta, tb = parameter(a.copy()), parameter(b.copy())
        (ta + tb).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones((3, 4)))
        np.testing.assert_allclose(tb.grad, np.ones((3, 4)))

    def test_mul(self):
        a = RNG.standard_normal((2, 3))
        b = RNG.standard_normal((2, 3))
        ta, tb = parameter(a.copy()), parameter(b.copy())
        (ta * tb).sum().backward()
        np.testing.assert_allclose(ta.grad, b)
        np.testing.assert_allclose(tb.grad, a)

    def test_sub_and_neg(self):
        a = RNG.standard_normal(5)
        check_unary(lambda t: (1.0 - t) - t, a)

    def test_scalar_ops(self):
        a = RNG.standard_normal(4)
        check_unary(lambda t: t * 3.0 + 2.0, a)

    def test_pow_const(self):
        a = RNG.uniform(0.5, 2.0, size=6)
        check_unary(lambda t: t.pow_const(3.0), a)

    def test_softplus(self):
        check_unary(lambda t: t.softplus(), RNG.standard_normal((3, 3)) * 3)

    def test_softplus_extreme_inputs_stable(self):
        t = parameter(np.array([-1000.0, 1000.0]))
        y = t.softplus()
        y.sum().backward()
        assert y.data.tolist() == [0.0, 1000.0]
        assert t.grad.tolist() == [0.0, 1.0]

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
        (ta @ tb).sum().backward()
        g = np.ones((3, 2))
        np.testing.assert_allclose(ta.grad, g @ b.T)
        np.testing.assert_allclose(tb.grad, a.T @ g)

    def test_matmul_batched(self):
        a = RNG.standard_normal((2, 3, 4))
        b = RNG.standard_normal((2, 4, 5))
        ta, tb = parameter(a.copy()), parameter(b.copy())
        (ta @ tb).sum().backward()
        g = np.ones((2, 3, 5))
        np.testing.assert_allclose(ta.grad, g @ np.swapaxes(b, -1, -2))
        np.testing.assert_allclose(tb.grad, np.swapaxes(a, -1, -2) @ g)

    def test_matmul_broadcast_weight(self):
        a = RNG.standard_normal((2, 3, 4))
        w = RNG.standard_normal((4, 5))
        ta, tw = parameter(a.copy()), parameter(w.copy())
        (ta @ tw).sum().backward()
        assert tw.grad.shape == (4, 5)
        expected = sum(a[i].T @ np.ones((3, 5)) for i in range(2))
        np.testing.assert_allclose(tw.grad, expected)

    def test_reshape(self):
        a = RNG.standard_normal((2, 6))
        check_unary(lambda t: t.reshape(3, 4) * 2.0, a)

    def test_permute(self):
        a = RNG.standard_normal((2, 3, 4))
        t = parameter(a.copy())
        (t.permute(2, 0, 1) * Tensor(RNG.standard_normal((4, 2, 3)))).sum().backward()
        assert t.grad.shape == (2, 3, 4)

    def test_swap_last(self):
        a = RNG.standard_normal((2, 3, 4))
        t = parameter(a.copy())
        out = t.swap_last()
        assert out.shape == (2, 4, 3)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3, 4)))


class TestReductions:
    def test_sum_all(self):
        check_unary(lambda t: t.sum() * 2.0, RNG.standard_normal((3, 2)))

    def test_sum_axis(self):
        a = RNG.standard_normal((3, 4))
        check_unary(lambda t: (t.sum(axis=1) * Tensor(np.arange(3.0))).sum(),
                    a)

    def test_sum_keepdims(self):
        a = RNG.standard_normal((2, 3))
        t = parameter(a.copy())
        out = t.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3)))

    def test_mean(self):
        a = RNG.standard_normal(8)
        t = parameter(a.copy())
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full(8, 1 / 8))


class TestSoftmax:
    def test_grad_matches_finite_differences(self):
        a = RNG.standard_normal((3, 5))
        w = RNG.standard_normal((3, 5))
        check_unary(lambda t: t.softmax() * Tensor(w), a)

    def test_rows_sum_to_one(self):
        a = RNG.standard_normal((4, 7)) * 10
        y = Tensor(a).softmax().data
        np.testing.assert_allclose(y.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_shift_invariance(self):
        a = RNG.standard_normal(5)
        y1 = Tensor(a).softmax().data
        y2 = Tensor(a + 1000.0).softmax().data
        np.testing.assert_allclose(y1, y2, atol=1e-12)

    def test_huge_negative_underflows_to_zero(self):
        y = Tensor(np.array([0.0, -1e9])).softmax().data
        assert y[1] == 0.0
        assert y[0] == 1.0


class TestLogSoftmax:
    def test_grad_matches_finite_differences(self):
        a = RNG.standard_normal((3, 5))
        w = RNG.standard_normal((3, 5))
        check_unary(lambda t: t.log_softmax() * Tensor(w), a)

    def test_equals_log_of_softmax(self):
        a = RNG.standard_normal((4, 7)) * 5
        np.testing.assert_allclose(Tensor(a).log_softmax().data,
                                   np.log(Tensor(a).softmax().data),
                                   atol=1e-12)

    def test_extreme_inputs_stay_finite(self):
        t = parameter(np.array([[-1000.0, 1000.0, 0.0]]))
        y = t.log_softmax()
        (y * Tensor(np.array([[1.0, -2.0, 0.5]]))).sum().backward()
        assert y.data.tolist() == [[-2000.0, 0.0, -1000.0]]
        np.testing.assert_allclose(t.grad, [[1.0, -1.5, 0.5]], atol=1e-12)


class TestIndexing:
    def test_lookup_scatters_gradient(self):
        ids = np.array([[0, 2], [2, 4]])
        # rows of a matrix (embedding), then (2, 3) blocks (the decoder's
        # cross-attention gathers)
        for table in (parameter(RNG.standard_normal((5, 3))),
                      parameter(np.zeros((5, 2, 3)))):
            out = table.lookup(ids)
            assert out.shape == (2, 2, *table.shape[1:])
            (out * 2.0).sum().backward()
            expected = np.zeros(table.shape)
            for i in ids.reshape(-1):
                expected[i] += 2.0
            np.testing.assert_allclose(table.grad, expected)

    def test_lookup_repeated_ids_accumulate(self):
        table = parameter(np.zeros((2, 1)))
        out = table.lookup(np.array([0, 0, 0]))
        out.sum().backward()
        assert table.grad[0, 0] == 3.0

    def test_gather_index(self):
        probs = parameter(RNG.uniform(0.1, 1.0, size=(2, 3, 4)))
        idx = np.array([[0, 3, 1], [2, 2, 0]])
        out = probs.gather_index(idx)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data,
                                   np.take_along_axis(probs.data,
                                                      idx[..., None], -1)[..., 0])
        out.sum().backward()
        assert probs.grad.sum() == 6.0
        assert probs.grad[0, 1, 3] == 1.0
        assert probs.grad[0, 1, 0] == 0.0


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

    def test_shared_subexpression(self):
        x = parameter(np.array(2.0))
        y = x * x  # dy/dx = 2x
        y.backward()
        assert x.grad.item() == 4.0

    def test_repeated_backward_resets_grads(self):
        x = parameter(np.array(1.0))
        y = x * 3.0
        y.backward()
        y.backward()
        assert x.grad.item() == 3.0  # not 6.0

    def test_deep_chain_does_not_overflow_stack(self):
        x = parameter(np.array(1.0))
        y = x
        for _ in range(5000):
            y = y + 0.0
        y.backward()
        assert x.grad.item() == 1.0

    def test_no_grad_disables_recording(self):
        x = parameter(np.array(1.0))
        with no_grad():
            y = x * 2.0
        assert y._parents == ()
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
        c = constant([1.0, 2.0])
        assert not c.requires_grad
        out = c * 2.0
        assert out._parents == ()


class TestBroadcasting:
    def test_add_row_vector(self):
        a = parameter(RNG.standard_normal((3, 4)))
        b = parameter(RNG.standard_normal(4))
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_mul_scalar_tensor(self):
        a = parameter(RNG.standard_normal((2, 3)))
        s = parameter(np.array(2.0))
        (a * s).sum().backward()
        assert s.grad.shape == ()
        np.testing.assert_allclose(s.grad, a.data.sum())

    def test_add_column_vector(self):
        a = parameter(RNG.standard_normal((3, 4)))
        b = parameter(RNG.standard_normal((3, 1)))
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full((3, 1), 4.0))


class TestCompositeExpressions:
    def test_mlp_like_chain(self):
        x = RNG.standard_normal((2, 3))
        w1 = RNG.standard_normal((3, 4))
        w2 = RNG.standard_normal((4, 1))

        def run(v):
            h = (Tensor(v) @ Tensor(w1)).relu()
            return (h @ Tensor(w2)).softplus()

        t = parameter(x.copy())
        h = (t @ Tensor(w1)).relu()
        out = (h @ Tensor(w2)).softplus().sum()
        out.backward()
        expected = numeric_grad(lambda v: run(v).sum().item(), x.copy())
        np.testing.assert_allclose(t.grad, expected, atol=1e-6)

    def test_attention_like_chain(self):
        q = RNG.standard_normal((2, 4))
        k = RNG.standard_normal((3, 4))
        v = RNG.standard_normal((3, 2))

        def run(qv):
            scores = Tensor(qv) @ Tensor(k).swap_last() * (1 / 2.0)
            return scores.softmax() @ Tensor(v)

        t = parameter(q.copy())
        out = (t @ Tensor(k).swap_last() * (1 / 2.0)).softmax() @ Tensor(v)
        out.sum().backward()
        expected = numeric_grad(lambda x: run(x).sum().item(), q.copy())
        np.testing.assert_allclose(t.grad, expected, atol=1e-6)
