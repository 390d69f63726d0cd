"""Minimal reverse-mode autodiff on numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; calling
backward() on a scalar Tensor fills .grad on every reachable leaf. No graph
reuse: build, backward, throw away. A Tensor keeps a floating input's dtype
and a Python-scalar operand takes its Tensor's dtype, so a float32 forward
stays float32; training feeds float64 and runs in float64.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

# Python floats: a numpy float64 scalar would promote float32 operands (NEP 50)
_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# float32 erf(t) = t * P(t^2) / Q(t^2) on t clamped to [-4, 4], outside of
# which float32 erf is +-1 (the rational form Eigen uses; at most 4.5e-7 from
# float64 erf). scipy's erf evaluates float32 input in double, as slowly as
# float64. Coefficients from the lowest power up.
_ERF32_P = (-1.60960333262415e-2, -2.95459980854025e-3, -7.34990630326855e-4,
            -5.69250639462346e-5, -2.10102402082508e-6, 2.77068142495902e-8,
            -2.72614225801306e-10)
_ERF32_Q = (-1.42647390514189e-2, -7.37332916720468e-3, -1.68282697438203e-3,
            -2.13374055278905e-4, -1.45660718464996e-5)
_ERF32_CHUNK = 1 << 16  # elements per pass, so the temporaries stay in cache


def _horner(u: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    acc = u * coeffs[-1]
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= u
    acc += coeffs[0]
    return acc


def _phi_f32(x: np.ndarray, times_x: bool) -> np.ndarray:
    """Standard normal CDF of a float32 array, or x * Phi(x) when `times_x`,
    computed in float32 a chunk at a time."""
    out = np.empty(x.shape, dtype=np.float32)
    xs, outs = x.reshape(-1), out.reshape(-1)
    for start in range(0, xs.size, _ERF32_CHUNK):
        xc, oc = xs[start:start + _ERF32_CHUNK], outs[start:start + _ERF32_CHUNK]
        t = xc * _INV_SQRT2
        np.maximum(np.minimum(t, 4.0, out=t), -4.0, out=t)
        u = t * t
        num = _horner(u, _ERF32_P)
        num *= t
        np.divide(num, _horner(u, _ERF32_Q), out=oc)
        oc += 1.0
        oc *= 0.5
        if times_x:
            oc *= xc
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, with a stack of matrices times one matrix as one GEMM over all
    the rows, where numpy calls BLAS once per matrix; the result is the same."""
    if a.ndim > 2 and b.ndim == 2:
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[1:])
    return a @ b


class Tensor:
    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad: bool = False):
        value = np.asarray(value)
        self.value = value if value.dtype.kind == "f" else value.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _make(value, parents, backward):
        out = Tensor(value)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=self.value.dtype), self.value.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self) -> None:
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar Tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- helpers ------------------------------------------------------------

    @property
    def shape(self):
        return self.value.shape

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = ensure_tensor(other, self)
        def bwd(g, a=self, b=other):
            if a.requires_grad:
                a._accumulate(g)
            if b.requires_grad:
                b._accumulate(g)
        return Tensor._make(self.value + other.value, (self, other), bwd)

    __radd__ = __add__

    def __neg__(self):
        def bwd(g, a=self):
            a._accumulate(-g)
        return Tensor._make(-self.value, (self,), bwd)

    def __sub__(self, other):
        return self + (-ensure_tensor(other, self))

    def __rsub__(self, other):
        return ensure_tensor(other, self) + (-self)

    def __mul__(self, other):
        other = ensure_tensor(other, self)
        def bwd(g, a=self, b=other):
            if a.requires_grad:
                a._accumulate(g * b.value)
            if b.requires_grad:
                b._accumulate(g * a.value)
        return Tensor._make(self.value * other.value, (self, other), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ensure_tensor(other, self)
        def bwd(g, a=self, b=other):
            if a.requires_grad:
                a._accumulate(g / b.value)
            if b.requires_grad:
                b._accumulate(-g * a.value / (b.value * b.value))
        return Tensor._make(self.value / other.value, (self, other), bwd)

    def __rtruediv__(self, other):
        return ensure_tensor(other, self) / self

    def __matmul__(self, other):
        other = ensure_tensor(other, self)
        def bwd(g, a=self, b=other):
            av, bv = a.value, b.value
            if a.requires_grad:
                if bv.ndim == 1:
                    a._accumulate(np.multiply.outer(g, bv) if g.ndim else g * bv)
                else:
                    a._accumulate(_unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape))
            if b.requires_grad:
                if av.ndim == 1:
                    b._accumulate(np.multiply.outer(av, g) if g.ndim else av * g)
                else:
                    b._accumulate(_unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape))
        return Tensor._make(_matmul(self.value, other.value), (self, other), bwd)

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        def bwd(g, a=self):
            a._accumulate(g.reshape(a.value.shape))
        return Tensor._make(self.value.reshape(shape), (self,), bwd)

    def swapaxes(self, ax1: int, ax2: int):
        def bwd(g, a=self):
            a._accumulate(np.swapaxes(g, ax1, ax2))
        return Tensor._make(np.swapaxes(self.value, ax1, ax2), (self,), bwd)

    def __getitem__(self, key):
        def bwd(g, a=self, k=key):
            full = np.zeros_like(a.value)
            np.add.at(full, k, g)
            a._accumulate(full)
        return Tensor._make(self.value[key], (self,), bwd)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        def bwd(g, a=self):
            if axis is None:
                a._accumulate(np.broadcast_to(g, a.value.shape))
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(gg, a.value.shape))
        return Tensor._make(self.value.sum(axis=axis, keepdims=keepdims), (self,), bwd)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.value.size
        else:
            n = self.value.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- elementwise --------------------------------------------------------

    def exp(self):
        out_val = np.exp(self.value)
        def bwd(g, a=self, ov=out_val):
            a._accumulate(g * ov)
        return Tensor._make(out_val, (self,), bwd)

    def log(self):
        def bwd(g, a=self):
            a._accumulate(g / a.value)
        return Tensor._make(np.log(self.value), (self,), bwd)

    def sqrt(self):
        out_val = np.sqrt(self.value)
        def bwd(g, a=self, ov=out_val):
            a._accumulate(g * 0.5 / ov)
        return Tensor._make(out_val, (self,), bwd)

    def clip(self, lo: float, hi: float):
        """Clamp to [lo, hi]; gradient is zero outside the interval."""
        mask = (self.value >= lo) & (self.value <= hi)
        def bwd(g, a=self, m=mask):
            a._accumulate(g * m)
        return Tensor._make(np.clip(self.value, lo, hi), (self,), bwd)

    def gelu(self):
        """x * Phi(x). float32 input takes the float32 erf above, and without a
        gradient to keep Phi for, writes the product directly; float64 input
        takes scipy's erf."""
        x = self.value
        if x.dtype == np.float32:
            if not self.requires_grad:
                return Tensor(_phi_f32(x, times_x=True))
            phi = _phi_f32(x, times_x=False)
        else:
            phi = 0.5 * (1.0 + erf(x / _SQRT2))
        def bwd(g, a=self, p=phi):
            xv = a.value
            a._accumulate(g * (p + xv * _INV_SQRT_2PI * np.exp(-0.5 * xv * xv)))
        return Tensor._make(x * phi, (self,), bwd)


def ensure_tensor(x, like: Tensor | None = None) -> Tensor:
    """`x` as a Tensor. A Python scalar meeting `like` takes its dtype: as a
    0-d float64 array it would promote a float32 graph to float64."""
    if isinstance(x, Tensor):
        return x
    if like is not None and isinstance(x, (int, float)):
        return Tensor(np.asarray(x, dtype=like.value.dtype))
    return Tensor(x)


def concat(tensors, axis: int = 0) -> Tensor:
    """Join along `axis`. The other axes broadcast, so a block shared by a
    whole batch can be held once; its gradient is summed back to its shape."""
    tensors = [ensure_tensor(t) for t in tensors]
    if len(tensors) == 1:
        return tensors[0]
    sizes = [t.value.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    ax = axis % tensors[0].value.ndim
    rest = np.broadcast_shapes(*(t.value.shape[:ax] + t.value.shape[ax + 1:] for t in tensors))
    values = [np.broadcast_to(t.value, rest[:ax] + (size,) + rest[ax:])
              for t, size in zip(tensors, sizes)]
    def bwd(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(start, stop)
                t._accumulate(g[tuple(idx)])
    return Tensor._make(np.concatenate(values, axis=axis), tensors, bwd)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Row-stable softmax; the max shift is detached (shift invariance)."""
    t = ensure_tensor(t)
    shift = Tensor(t.value.max(axis=axis, keepdims=True))
    e = (t - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    t = ensure_tensor(t)
    shift = Tensor(t.value.max(axis=axis, keepdims=True))
    z = t - shift
    return z - z.exp().sum(axis=axis, keepdims=True).log()
