"""Gradient correctness of the autodiff primitives against central differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from facevit.autograd import Tensor, concat, ensure_tensor, log_softmax, softmax


def numeric_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def check_op(op, x, tol=1e-6):
    t = Tensor(x, requires_grad=True)
    out = op(t)
    loss = (out * out).sum()
    loss.backward()
    num = numeric_grad(lambda v: float((op(Tensor(v)).value ** 2).sum()), x)
    np.testing.assert_allclose(t.grad, num, rtol=tol, atol=tol)


UNARY_OPS = [
    lambda t: t + 2.0,
    lambda t: 3.0 - t,
    lambda t: t * t,
    lambda t: t / 2.5,
    lambda t: 1.0 / (t + 5.0),
    lambda t: t.exp(),
    lambda t: (t + 5.0).log(),
    lambda t: (t + 5.0).sqrt(),
    lambda t: t.gelu(),
    lambda t: t.sum(axis=0),
    lambda t: t.mean(axis=1, keepdims=True),
    lambda t: t.reshape(6),
    lambda t: t.swapaxes(0, 1),
    lambda t: softmax(t, axis=1),
    lambda t: log_softmax(t, axis=0),
]


@pytest.mark.parametrize("op", UNARY_OPS)
def test_unary_op_gradients(op):
    rng = np.random.default_rng(0)
    check_op(op, rng.standard_normal((2, 3)))


@pytest.mark.parametrize("op", UNARY_OPS)
def test_unary_op_keeps_f32_without_grad(op):
    # Python-scalar operands must not promote an f32 forward to f64 (NEP 50)
    x = np.random.default_rng(0).standard_normal((2, 3)).astype(np.float32)
    assert op(Tensor(x)).value.dtype == np.float32


def test_matmul_gradients():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    y = a @ b
    (y * y).sum().backward()
    na = numeric_grad(lambda v: float(((v @ b.value) ** 2).sum()), a.value.copy())
    nb = numeric_grad(lambda v: float(((a.value @ v) ** 2).sum()), b.value.copy())
    np.testing.assert_allclose(a.grad, na, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(b.grad, nb, rtol=1e-6, atol=1e-6)


def test_matmul_batched_and_vector_cases():
    rng = np.random.default_rng(2)
    a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    y = a @ b
    (y * y).sum().backward()
    nb = numeric_grad(lambda v: float(((a.value @ v) ** 2).sum()), b.value.copy())
    np.testing.assert_allclose(b.grad, nb, rtol=1e-6, atol=1e-6)

    v = Tensor(rng.standard_normal(4), requires_grad=True)
    m = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    y = v @ m
    (y * y).sum().backward()
    nv = numeric_grad(lambda x: float(((x @ m.value) ** 2).sum()), v.value.copy())
    np.testing.assert_allclose(v.grad, nv, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("make_a", [
    lambda rng: rng.standard_normal((5, 13, 8)),
    lambda rng: rng.standard_normal((1, 13, 8)),
    lambda rng: rng.standard_normal((3, 5, 8, 13)).swapaxes(-1, -2),
    lambda rng: rng.standard_normal((0, 13, 8)),
], ids=["stack", "batch-1", "swapaxes-view", "empty"])
def test_matmul_stack_times_matrix_equals_numpy_bit_for_bit(make_a, dtype):
    # a stack of matrices times one matrix runs as one 2-D GEMM
    rng = np.random.default_rng(3)
    a, w = make_a(rng).astype(dtype), rng.standard_normal((8, 6)).astype(dtype)
    y = (Tensor(a) @ Tensor(w)).value
    assert y.dtype == dtype and y.shape == a.shape[:-1] + (6,)
    np.testing.assert_array_equal(y, np.matmul(a, w))


def test_broadcasting_accumulates_grad():
    a = Tensor(np.ones((3, 1)), requires_grad=True)
    b = Tensor(np.ones((1, 4)), requires_grad=True)
    (a * b).sum().backward()
    np.testing.assert_array_equal(a.grad, np.full((3, 1), 4.0))
    np.testing.assert_array_equal(b.grad, np.full((1, 4), 3.0))


def test_getitem_scatter_with_repeated_indices():
    t = Tensor(np.arange(5, dtype=float), requires_grad=True)
    idx = np.array([0, 0, 3])
    t[idx].sum().backward()
    np.testing.assert_array_equal(t.grad, [2.0, 0.0, 0.0, 1.0, 0.0])


def test_reused_node_accumulates_both_paths():
    t = Tensor(np.array([2.0]), requires_grad=True)
    y = t * t + t * 3.0
    y.sum().backward()
    np.testing.assert_allclose(t.grad, [2 * 2.0 + 3.0])


def test_clip_gradient_zero_outside_interval():
    t = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
    t.clip(-1.0, 1.0).sum().backward()
    np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0])


def test_concat_splits_gradient():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((3, 2)), requires_grad=True)
    out = concat([a, b], axis=0)
    (out * np.arange(10.0).reshape(5, 2)).sum().backward()
    np.testing.assert_array_equal(a.grad, np.arange(4.0).reshape(2, 2))
    np.testing.assert_array_equal(b.grad, np.arange(4.0, 10.0).reshape(3, 2))


def test_concat_broadcasts_batch_one_operand():
    # a (1, 2, 3) block joined to a (4, 5, 3) one along the token axis is
    # repeated for the whole batch; its gradient sums over the batch
    rng = np.random.default_rng(4)
    a0, b0 = rng.standard_normal((1, 2, 3)), rng.standard_normal((4, 5, 3))
    weight = rng.standard_normal((4, 7, 3))
    a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
    out = concat([a, b], axis=1)
    assert out.shape == (4, 7, 3)
    np.testing.assert_array_equal(out.value[:, :2], np.broadcast_to(a0, (4, 2, 3)))
    np.testing.assert_array_equal(out.value[:, 2:], b0)
    y = out * weight
    (y * y).sum().backward()
    na = numeric_grad(lambda v: float(((concat([v, b0], axis=1).value * weight) ** 2).sum()), a0.copy())
    nb = numeric_grad(lambda v: float(((concat([a0, v], axis=1).value * weight) ** 2).sum()), b0.copy())
    assert a.grad.shape == (1, 2, 3)
    np.testing.assert_allclose(a.grad, na, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(b.grad, nb, rtol=1e-6, atol=1e-6)


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        t.backward()


def test_ensure_tensor_passthrough():
    t = Tensor(np.ones(2))
    assert ensure_tensor(t) is t
    assert isinstance(ensure_tensor([1.0, 2.0]), Tensor)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_are_distributions(vals):
    out = softmax(Tensor(np.array(vals)), axis=0).value
    assert np.all(out >= 0)
    assert abs(out.sum() - 1.0) < 1e-12


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
       st.floats(-100, 100))
@settings(max_examples=50, deadline=None)
def test_softmax_shift_invariance(vals, shift):
    x = np.array(vals)
    a = softmax(Tensor(x)).value
    b = softmax(Tensor(x + shift)).value
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 6))
    np.testing.assert_allclose(log_softmax(Tensor(x), axis=1).value,
                               np.log(softmax(Tensor(x), axis=1).value), atol=1e-12)


def test_gelu_reference_values():
    # x * Phi(x) at a few points
    x = np.array([0.0, 1.0, -1.0])
    out = Tensor(x).gelu().value
    np.testing.assert_allclose(out, [0.0, 0.8413447460685429, -0.15865525393145707],
                               atol=1e-12)


def gelu_f64_reference(x):
    return x * (0.5 * (1.0 + erf(x / np.sqrt(2.0))))


def test_gelu_f64_is_scipy_erf_bit_for_bit():
    x = np.linspace(-10.0, 10.0, 200_001)
    np.testing.assert_array_equal(Tensor(x).gelu().value, gelu_f64_reference(x))


def test_gelu_f32_close_to_f64():
    big = float(np.finfo(np.float32).max)
    x = np.concatenate([np.linspace(-10.0, 10.0, 2_000_001),
                        [0.0, -0.0, big, -big, np.inf, -np.inf, np.nan]]).astype(np.float32)
    with np.errstate(invalid="ignore"):  # -inf * Phi(-inf) = -inf * 0
        out = Tensor(x).gelu().value
        ref = gelu_f64_reference(x.astype(np.float64))
    assert out.dtype == np.float32
    finite = np.isfinite(x)
    assert np.abs(out[finite].astype(np.float64) - ref[finite]).max() <= 2e-6
    # non-finite input gives what float64 gives: nan -> nan, inf -> inf, -inf -> nan
    np.testing.assert_array_equal(out[~finite], ref[~finite])
    np.testing.assert_array_equal(out[-3:], [np.inf, np.nan, np.nan])


def test_gelu_f32_with_grad_uses_phi():
    x = np.linspace(-6.0, 6.0, 1201).astype(np.float32)
    t = Tensor(x, requires_grad=True)
    out = t.gelu()
    out.sum().backward()
    # the same float32 values as without a gradient, and a Phi-based gradient
    np.testing.assert_array_equal(out.value, Tensor(x).gelu().value)
    assert t.grad.dtype == np.float32
    x64 = x.astype(np.float64)
    dgelu = 0.5 * (1.0 + erf(x64 / np.sqrt(2.0))) + x64 * np.exp(-0.5 * x64 * x64) / np.sqrt(2.0 * np.pi)
    np.testing.assert_allclose(t.grad, dgelu, rtol=0, atol=5e-6)
