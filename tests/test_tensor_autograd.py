"""Engine mechanics of the autodiff Tensor: graph construction, gradient
accumulation, grad modes, and error handling."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import Tensor, as_tensor, is_grad_enabled, no_grad, stack


class TestConstruction:
    def test_wraps_numpy(self):
        t = Tensor([[1.0, 2.0]])
        assert t.shape == (1, 2)
        assert t.data.dtype == np.float64

    def test_wraps_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert b.data is a.data

    def test_as_tensor_passthrough(self):
        a = Tensor([1.0])
        assert as_tensor(a) is a
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_repr_mentions_grad_flag(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_item_scalar_only(self):
        assert Tensor([3.5]).item() == 3.5
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_len_and_size(self):
        t = Tensor(np.zeros((3, 2)))
        assert len(t) == 3
        assert t.size == 6
        assert t.ndim == 2


class TestBackward:
    def test_scalar_backward_default_seed(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0, 6.0])

    def test_nonscalar_backward_requires_grad_argument(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2
        with pytest.raises(ShapeError):
            y.backward()
        y.backward(np.array([1.0, 1.0]))
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_wrong_gradient_shape_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2).backward(np.ones(3))

    def test_gradient_accumulates_across_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 3).sum().backward()
        (x * 3).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_zero_grad_resets(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 3).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_reused_node_accumulates_once_per_path(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x  # two paths into x through the same op
        z = y + x
        z.sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])  # 2x + 1

    def test_diamond_graph(self):
        x = Tensor([1.0], requires_grad=True)
        a = x * 2
        b = x * 3
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_no_grad_tensor_gets_no_gradient(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([10.0])
        (x * c).sum().backward()
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [10.0])

    def test_constant_operand_partial_never_computed(self):
        """``X @ W`` with constant ``X``: the backward forms no ``g @ Wᵀ``,
        and ``W``'s partial is the same ``Xᵀ @ g`` bits as before."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 3)))
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        g = rng.normal(size=(5, 2))
        out = x @ w
        partials = out._backward(g)
        assert partials[0] is None
        assert np.array_equal(partials[1], x.data.T @ g)
        out.backward(g)
        assert np.array_equal(w.grad, x.data.T @ g)
        assert x.grad is None

    @pytest.mark.parametrize(
        "op, partials",
        [
            ("sub", lambda g, a, b: (g, -g)),
            ("mul", lambda g, a, b: (g * b, g * a)),
            ("truediv", lambda g, a, b: (g / b, -g * a / (b * b))),
        ],
    )
    def test_elementwise_skips_constant_partials(self, op, partials):
        rng = np.random.default_rng(1)
        a_data, b_data = rng.normal(size=(4, 3)), rng.normal(size=(4, 3)) + 3.0
        g = rng.normal(size=(4, 3))
        apply = getattr(Tensor, f"__{op}__")
        for grad_a, grad_b in ((True, False), (False, True), (True, True)):
            a = Tensor(a_data, requires_grad=grad_a)
            b = Tensor(b_data, requires_grad=grad_b)
            expected = partials(g, a_data, b_data)
            got = apply(a, b)._backward(g)
            for flag, value, oracle in zip((grad_a, grad_b), got, expected):
                if flag:
                    assert np.array_equal(value, oracle)
                else:  # skipped, or the upstream passed through at no cost
                    assert value is None or value is g

    def test_deep_chain_does_not_overflow(self):
        # Iterative topological sort must handle long chains.
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])


class TestGradMode:
    def test_no_grad_blocks_tracking(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert y._backward is None

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_detach_cuts_graph(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad
        (y * 3).sum().backward() if y.requires_grad else None
        assert x.grad is None

    def test_copy_preserves_flag_and_copies_data(self):
        x = Tensor([1.0], requires_grad=True)
        y = x.copy()
        assert y.requires_grad
        y.data[0] = 99.0
        assert x.data[0] == 1.0


class TestBroadcasting:
    def test_row_broadcast_add(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, [3.0, 3.0])
        np.testing.assert_allclose(x.grad, np.ones((3, 2)))

    def test_column_broadcast_mul(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        c = Tensor(np.array([[2.0], [3.0]]), requires_grad=True)
        (x * c).sum().backward()
        np.testing.assert_allclose(c.grad, [[3.0], [3.0]])

    def test_scalar_broadcast(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        (x * 5.0).sum().backward()
        np.testing.assert_allclose(x.grad, 5.0 * np.ones((2, 2)))


class TestIndexing:
    def test_row_indexing_gradient(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        x[np.array([0, 2])].sum().backward()
        expected = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(x.grad, expected)

    def test_duplicate_indices_accumulate(self):
        x = Tensor(np.ones(3), requires_grad=True)
        x[np.array([1, 1, 1])].sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 3.0, 0.0])

    def test_fancy_pair_indexing(self):
        x = Tensor(np.eye(3), requires_grad=True)
        picked = x[np.arange(3), np.array([0, 1, 2])]
        picked.sum().backward()
        np.testing.assert_allclose(x.grad, np.eye(3))


class TestStack:
    def test_stack_forward_and_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        s = stack([a, b])
        assert s.shape == (2, 2)
        (s * Tensor([[1.0, 1.0], [2.0, 2.0]])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [2.0, 2.0])
