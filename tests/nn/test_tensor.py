"""Tests of the autograd tensor: values and gradients of every primitive.

The whole module runs under the float64 escape-hatch policy: central finite
differences (epsilon 1e-6) are meaningless in float32, and these tests are
the numerical oracle for every primitive.  Float32 behaviour of the default
policy is covered by tests/nn/test_dtype.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.tensor import (
    FLOAT64_POLICY,
    Tensor,
    dtype_policy,
    is_grad_enabled,
    no_grad,
)


@pytest.fixture(autouse=True)
def _float64_oracle():
    with dtype_policy(FLOAT64_POLICY):
        yield


def numerical_gradient(function, array: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued function of ``array``."""
    gradient = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function(array)
        flat[index] = original - epsilon
        lower = function(array)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * epsilon)
    return gradient


def check_gradient(build_loss, shape, seed=0, atol=1e-5):
    """Compare autograd gradients against finite differences."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=shape)
    tensor = Tensor(base.copy(), requires_grad=True)
    loss = build_loss(tensor)
    loss.backward()
    numeric = numerical_gradient(lambda a: float(build_loss(Tensor(a)).data), base.copy())
    np.testing.assert_allclose(tensor.grad, numeric, atol=atol)


class TestTensorBasics:
    def test_construction_from_list(self):
        tensor = Tensor([1.0, 2.0, 3.0])
        assert tensor.shape == (3,)
        assert tensor.data.dtype == np.float64

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_item_returns_float(self):
        assert Tensor([2.5]).item() == pytest.approx(2.5)

    def test_len_and_size(self):
        tensor = Tensor(np.zeros((4, 5)))
        assert len(tensor) == 4
        assert tensor.size == 20
        assert tensor.ndim == 2

    def test_zeros_ones_randn_constructors(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert np.all(Tensor.ones(2, 2).data == 1.0)
        assert Tensor.randn(5, rng=np.random.default_rng(0)).shape == (5,)

    def test_randn_without_rng_is_deterministic(self):
        # Regression test (REP105): randn used to fall back to an unseeded
        # default_rng(), so weight init differed run-to-run.  The fallback
        # is now a fixed seed — two bare calls draw identical values.
        first = Tensor.randn(4, 3)
        second = Tensor.randn(4, 3)
        np.testing.assert_array_equal(first.data, second.data)
        # An explicit generator still overrides the fallback.
        seeded = Tensor.randn(4, 3, rng=np.random.default_rng(7))
        assert not np.array_equal(first.data, seeded.data)

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_non_scalar_requires_grad_argument(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        doubled = tensor * 2
        with pytest.raises(RuntimeError):
            doubled.backward()

    def test_zero_grad_resets(self):
        tensor = Tensor([1.0], requires_grad=True)
        (tensor * 3).sum().backward()
        assert tensor.grad is not None
        tensor.zero_grad()
        assert tensor.grad is None


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        tensor = Tensor([1.0], requires_grad=True)
        with no_grad():
            result = tensor * 2
        assert not result.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_nested(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()

    def test_tensor_created_inside_no_grad_never_requires_grad(self):
        with no_grad():
            tensor = Tensor([1.0], requires_grad=True)
        assert not tensor.requires_grad

    def test_no_grad_is_thread_local(self):
        # A serving thread running inference under no_grad must not turn
        # gradients off for a concurrently training thread: with a
        # process-wide flag, overlapping no_grad blocks on two threads can
        # interleave save/restore and leave gradients disabled for good.
        import threading

        entered = threading.Event()
        release = threading.Event()
        seen: list[bool] = []

        def serve():
            with no_grad():
                entered.set()
                release.wait(timeout=5.0)
                seen.append(is_grad_enabled())

        worker = threading.Thread(target=serve)
        worker.start()
        try:
            assert entered.wait(timeout=5.0)
            # The worker sits inside no_grad; this thread still records.
            assert is_grad_enabled()
            tensor = Tensor([1.0], requires_grad=True)
            (tensor * 2).sum().backward()
            np.testing.assert_allclose(tensor.grad, [2.0])
        finally:
            release.set()
            worker.join(timeout=5.0)
        assert seen == [False]
        assert is_grad_enabled()


class TestArithmetic:
    def test_add_values(self):
        result = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(result.data, [4.0, 6.0])

    def test_add_broadcasting(self):
        result = Tensor(np.ones((2, 3))) + Tensor([1.0, 2.0, 3.0])
        np.testing.assert_allclose(result.data, [[2, 3, 4], [2, 3, 4]])

    def test_radd_with_scalar(self):
        result = 2.0 + Tensor([1.0])
        np.testing.assert_allclose(result.data, [3.0])

    def test_sub_and_rsub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).data, [2.0])
        np.testing.assert_allclose((5.0 - Tensor([3.0])).data, [2.0])

    def test_mul_values(self):
        np.testing.assert_allclose((Tensor([2.0, 3.0]) * Tensor([4.0, 5.0])).data, [8.0, 15.0])

    def test_div_values(self):
        np.testing.assert_allclose((Tensor([8.0]) / 2.0).data, [4.0])
        np.testing.assert_allclose((8.0 / Tensor([2.0])).data, [4.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_pow_scalar_only(self):
        np.testing.assert_allclose((Tensor([2.0]) ** 3).data, [8.0])
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul_values(self):
        left = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        right = Tensor(np.arange(12, dtype=float).reshape(3, 4))
        np.testing.assert_allclose((left @ right).data, left.data @ right.data)

    def test_add_gradient(self):
        check_gradient(lambda t: (t + t * 2).sum(), (3, 4))

    def test_mul_gradient(self):
        check_gradient(lambda t: (t * t).sum(), (2, 5))

    def test_div_gradient(self):
        check_gradient(lambda t: (t / 3.0 + 1.0 / (t + 10.0)).sum(), (4,))

    def test_pow_gradient(self):
        check_gradient(lambda t: (t ** 3).sum(), (3, 3))

    def test_matmul_gradient_left(self):
        rng = np.random.default_rng(1)
        right = rng.normal(size=(4, 2))
        check_gradient(lambda t: (t @ Tensor(right)).sum(), (3, 4))

    def test_matmul_gradient_right(self):
        rng = np.random.default_rng(2)
        left = rng.normal(size=(3, 4))
        check_gradient(lambda t: (Tensor(left) @ t).sum(), (4, 2))

    def test_broadcast_add_gradient(self):
        check_gradient(lambda t: (Tensor(np.ones((5, 3))) + t).sum(), (3,))

    def test_broadcast_mul_gradient(self):
        check_gradient(lambda t: (Tensor(np.full((4, 3), 2.0)) * t).sum(), (1, 3))

    def test_batched_matmul_gradient(self):
        rng = np.random.default_rng(3)
        other = rng.normal(size=(2, 4, 3))
        check_gradient(lambda t: (t @ Tensor(other)).sum(), (2, 5, 4))


class TestReductionsAndShape:
    def test_sum_all(self):
        assert Tensor(np.arange(6.0)).sum().item() == pytest.approx(15.0)

    def test_sum_axis_keepdims(self):
        result = Tensor(np.ones((2, 3))).sum(axis=1, keepdims=True)
        assert result.shape == (2, 1)

    def test_mean(self):
        assert Tensor([1.0, 2.0, 3.0]).mean().item() == pytest.approx(2.0)

    def test_mean_axis(self):
        result = Tensor(np.arange(6.0).reshape(2, 3)).mean(axis=0)
        np.testing.assert_allclose(result.data, [1.5, 2.5, 3.5])

    def test_max_value(self):
        assert Tensor([1.0, 5.0, 3.0]).max().item() == pytest.approx(5.0)

    def test_reshape_roundtrip(self):
        tensor = Tensor(np.arange(6.0))
        assert tensor.reshape(2, 3).shape == (2, 3)
        assert tensor.reshape((3, 2)).shape == (3, 2)

    def test_transpose_default_reverses(self):
        tensor = Tensor(np.zeros((2, 3, 4)))
        assert tensor.transpose().shape == (4, 3, 2)

    def test_transpose_with_axes(self):
        tensor = Tensor(np.zeros((2, 3, 4)))
        assert tensor.transpose(0, 2, 1).shape == (2, 4, 3)

    def test_swapaxes(self):
        tensor = Tensor(np.zeros((2, 3, 4)))
        assert tensor.swapaxes(0, 2).shape == (4, 3, 2)

    def test_getitem_slice(self):
        tensor = Tensor(np.arange(10.0))
        np.testing.assert_allclose(tensor[2:5].data, [2.0, 3.0, 4.0])

    def test_getitem_fancy(self):
        tensor = Tensor(np.arange(12.0).reshape(3, 4))
        picked = tensor[np.array([0, 2]), np.array([1, 3])]
        np.testing.assert_allclose(picked.data, [1.0, 11.0])

    def test_sum_gradient(self):
        check_gradient(lambda t: (t.sum(axis=1) ** 2).sum(), (3, 4))

    def test_mean_gradient(self):
        check_gradient(lambda t: (t.mean(axis=0) ** 2).sum(), (4, 2))

    def test_max_gradient(self):
        check_gradient(lambda t: t.max(axis=1).sum(), (3, 5), seed=7)

    def test_reshape_gradient(self):
        check_gradient(lambda t: (t.reshape(6) ** 2).sum(), (2, 3))

    def test_transpose_gradient(self):
        check_gradient(lambda t: (t.transpose(1, 0) ** 2).sum(), (2, 3))

    def test_getitem_gradient_with_duplicates(self):
        index = np.array([0, 0, 1])

        def loss(t):
            return (t[index] ** 2).sum()

        check_gradient(loss, (3, 2))


class TestNonLinearities:
    def test_exp_log_roundtrip(self):
        tensor = Tensor([1.0, 2.0])
        np.testing.assert_allclose(tensor.exp().log().data, tensor.data, atol=1e-12)

    def test_sqrt(self):
        np.testing.assert_allclose(Tensor([4.0, 9.0]).sqrt().data, [2.0, 3.0])

    def test_tanh_range(self):
        values = Tensor(np.linspace(-5, 5, 11)).tanh().data
        assert np.all(values > -1.0) and np.all(values < 1.0)

    def test_relu_clamps_negatives(self):
        np.testing.assert_allclose(Tensor([-1.0, 0.0, 2.0]).relu().data, [0.0, 0.0, 2.0])

    def test_exp_gradient(self):
        check_gradient(lambda t: t.exp().sum(), (3, 2))

    def test_log_gradient(self):
        check_gradient(lambda t: (t + 5.0).log().sum(), (4,))

    def test_tanh_gradient(self):
        check_gradient(lambda t: t.tanh().sum(), (3, 3))

    def test_relu_gradient(self):
        check_gradient(lambda t: (t.relu() ** 2).sum(), (4, 4), seed=5)


class TestConcatStack:
    def test_stack_values(self):
        result = Tensor.stack([Tensor([1.0, 2.0]), Tensor([3.0, 4.0])], axis=0)
        assert result.shape == (2, 2)

    def test_stack_gradient(self):
        parts = [Tensor(np.full((2,), float(i)), requires_grad=True) for i in range(3)]
        (Tensor.stack(parts, axis=0) * 2).sum().backward()
        for part in parts:
            np.testing.assert_allclose(part.grad, [2.0, 2.0])


class TestGraphMechanics:
    def test_gradient_accumulates_across_uses(self):
        tensor = Tensor([1.0], requires_grad=True)
        loss = (tensor * 2 + tensor * 3).sum()
        loss.backward()
        np.testing.assert_allclose(tensor.grad, [5.0])

    def test_deep_chain_backward(self):
        tensor = Tensor([1.0], requires_grad=True)
        value = tensor
        for _ in range(300):
            value = value * 1.01
        value.sum().backward()
        assert tensor.grad is not None and tensor.grad[0] == pytest.approx(1.01 ** 300, rel=1e-6)

    def test_diamond_graph(self):
        tensor = Tensor([2.0], requires_grad=True)
        left = tensor * 3
        right = tensor * 4
        (left * right).sum().backward()
        # d/dx (3x * 4x) = 24x = 48
        np.testing.assert_allclose(tensor.grad, [48.0])

    def test_backward_with_explicit_gradient(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        (tensor * 3).backward(np.array([1.0, 0.5]))
        np.testing.assert_allclose(tensor.grad, [3.0, 1.5])
