"""Autodiff engine edge cases beyond the primary op tests."""

import numpy as np

from repro.tensor import Tensor, check_gradients
from repro.tensor import functional as F


class TestPowAndRoots:
    def test_negative_exponent(self):
        x = np.array([[2.0, 4.0]])
        check_gradients(lambda a: (a**-0.5).sum(), [x])

    def test_integer_exponent_matches_repeated_mul(self):
        x = Tensor([3.0], requires_grad=True)
        (x**3).sum().backward()
        np.testing.assert_allclose(x.grad, [27.0])

    def test_sqrt_equals_pow_half(self):
        data = np.array([1.0, 4.0, 9.0])
        a = Tensor(data, requires_grad=True)
        b = Tensor(data, requires_grad=True)
        a.sqrt().sum().backward()
        (b**0.5).sum().backward()
        np.testing.assert_allclose(a.grad, b.grad, atol=1e-10)


class TestReductions:
    def test_sum_tuple_axes(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        t = Tensor(x, requires_grad=True)
        t.sum(axis=(0, 2)).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(x))

    def test_mean_tuple_axes_scaling(self):
        x = np.ones((2, 3, 4))
        t = Tensor(x, requires_grad=True)
        out = t.mean(axis=(0, 2))
        assert out.shape == (3,)
        np.testing.assert_allclose(out.data, np.ones(3))
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.full_like(x, 1.0 / 8.0))

    def test_sum_keepdims_shape(self):
        t = Tensor(np.ones((3, 4)))
        assert t.sum(axis=1, keepdims=True).shape == (3, 1)
        assert t.sum(axis=1).shape == (3,)


class TestMaximumTies:
    def test_tie_sends_gradient_to_first_operand(self):
        # Convention: a >= b routes gradient to a on ties.
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([1.0], requires_grad=True)
        a.maximum(b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])
        np.testing.assert_allclose(b.grad, [0.0])


class TestReshape:
    def test_round_trip(self):
        x = np.arange(12.0)
        t = Tensor(x, requires_grad=True)
        out = t.reshape(3, 4).reshape(-1)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(t.grad, np.full(12, 2.0))

    def test_tuple_argument(self):
        t = Tensor(np.arange(6.0))
        assert t.reshape((2, 3)).shape == (2, 3)


class TestRowGatherFastPath:
    def test_matches_slow_path_with_duplicates(self):
        # The sparse-scatter fast path must agree with np.add.at.
        data = np.random.default_rng(0).normal(size=(6, 5))
        index = np.array([0, 3, 3, 5, 0, 0])

        fast = Tensor(data, requires_grad=True)
        fast[index].sum().backward()

        expected = np.zeros_like(data)
        np.add.at(expected, index, np.ones((len(index), 5)))
        np.testing.assert_allclose(fast.grad, expected)

    def test_1d_tensor_uses_slow_path(self):
        t = Tensor(np.arange(4.0), requires_grad=True)
        t[np.array([1, 1])].sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 2.0, 0.0, 0.0])

    def test_boolean_mask_indexing(self):
        t = Tensor(np.arange(4.0), requires_grad=True)
        mask = np.array([True, False, True, False])
        t[mask].sum().backward()
        np.testing.assert_allclose(t.grad, [1.0, 0.0, 1.0, 0.0])


class TestNumericalStability:
    def test_softmax_uniform_on_equal_logits(self):
        probs = F.softmax(Tensor(np.zeros((2, 5)))).data
        np.testing.assert_allclose(probs, np.full((2, 5), 0.2))

    def test_cross_entropy_finite_on_confident_wrong(self):
        logits = np.array([[100.0, -100.0]])
        loss = F.cross_entropy(Tensor(logits, requires_grad=True), np.array([1]))
        assert np.isfinite(loss.item())
        loss.backward()

    def test_row_pnorm_large_values(self):
        x = Tensor(np.full((2, 3), 1e6), requires_grad=True)
        out = F.row_pnorm(x, 2).sum()
        assert np.isfinite(out.item())
        out.backward()
        assert np.isfinite(x.grad).all()


class TestGraphIsolation:
    def test_backward_twice_on_same_graph(self):
        # Re-running backward on an already-consumed graph accumulates again
        # (grads dict is rebuilt per call, .grad adds).
        x = Tensor([1.0], requires_grad=True)
        y = (x * 4.0).sum()
        y.backward()
        y.backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_independent_graphs_do_not_interact(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 2).sum().backward()
        first = x.grad.copy()
        x.zero_grad()
        (x * 5).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])
        np.testing.assert_allclose(first, [2.0])
