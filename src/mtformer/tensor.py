"""numpy-backed tensors with reverse-mode automatic differentiation.

Ops executed while a Tape is active append one record each (output tensor,
parent tensors, backward closure).  Records are appended in execution
order, so walking them in reverse is a valid topological order and visits
every recorded op exactly once.  Backward frees each gradient once its
record has consumed it and writes ``.grad`` only to leaves (tensors no
record produced, such as parameters) and to the loss; intermediate tensors
keep ``.grad is None``.  Gradients accumulate additively into ``.grad``;
call :func:`zero_grad` between optimizer steps.

Everything here is single threaded.  Tensors are treated as immutable once
created; the finite-difference checker perturbs its probe tensor in place,
which is the one sanctioned exception.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, expit

from .errors import ConfigurationError, DataError, DimensionError, OracleError

__all__ = [
    "Tensor", "Tape", "add", "sub", "mul", "div", "neg", "pow_", "matmul",
    "reshape", "transpose", "swapaxes", "roll", "sum_", "mean", "exp", "log", "sqrt",
    "abs_", "sigmoid", "softmax_lastdim", "layer_norm", "gelu", "take_rows",
    "gather_lastdim", "grad_check", "zero_grad",
]


class Tape:
    """Execution-ordered record of differentiable ops.

    Use as a context manager; ops run outside any tape compute values only,
    which is how inference paths avoid graph bookkeeping.
    """

    current: "Tape | None" = None

    def __init__(self) -> None:
        self._records: list = []

    def __enter__(self) -> "Tape":
        self._outer = Tape.current
        Tape.current = self
        return self

    def __exit__(self, exc_type, exc, tb):
        Tape.current = self._outer
        return False

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: "Tensor") -> int:
        """Reverse replay from ``loss``; returns the number of records visited.

        Each output's gradient is dropped as soon as its record has consumed
        it, so only the frontier of the sweep stays alive.  What remains at
        the end belongs to tensors no record on this tape produced (the
        leaves); those, and ``loss`` with its seed of ones, accumulate into
        ``.grad``.  Intermediate tensors' ``.grad`` is never written.
        """
        if loss.data.size != 1:
            raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not loss.requires_grad:
            raise ValueError("loss does not depend on any tensor that requires grad")
        seed = np.ones_like(loss.data)
        grads = {id(loss): (loss, seed)}
        for out, parents, backward in reversed(self._records):
            entry = grads.pop(id(out), None)
            if entry is None:
                continue  # op does not feed this loss
            for parent, pg in zip(parents, backward(entry[1])):
                if pg is None or not parent.requires_grad:
                    continue
                prev = grads.get(id(parent))
                # never mutate a stored array in place; closures may alias them
                grads[id(parent)] = (parent, pg if prev is None else prev[1] + pg)
        grads[id(loss)] = (loss, seed)  # popped above if an op produced the loss
        for tensor, g in grads.values():
            tensor.grad = g.astype(tensor.data.dtype, copy=True) if tensor.grad is None \
                else tensor.grad + g
        return len(self._records)


class Tensor:
    """A dense float array plus an optional gradient buffer of the same shape."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(()))

    def backward(self) -> int:
        if Tape.current is None:
            raise ValueError("backward() needs an active Tape")
        return Tape.current.backward(self)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    # operator sugar; all arithmetic goes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_ensure(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_ensure(other, self), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return pow_(self, p)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis, keepdims)


def _ensure(x, like: Tensor | None = None) -> Tensor:
    """Wrap scalars/arrays as constant tensors, matching ``like``'s dtype."""
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else np.float64
    return Tensor(np.asarray(x, dtype=dtype))


def _from_op(data, parents, backward) -> Tensor:
    req = any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req)
    tape = Tape.current
    if req and tape is not None:
        tape._records.append((out, parents, backward))
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _broadcasts_to(shape, target) -> bool:
    try:
        return np.broadcast_shapes(shape, target) == tuple(target)
    except ValueError:
        return False


def add(a, b) -> Tensor:
    a = _ensure(a, b if isinstance(b, Tensor) else None)
    b = _ensure(b, a)
    data = a.data + b.data

    def backward(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _from_op(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a = _ensure(a, b if isinstance(b, Tensor) else None)
    b = _ensure(b, a)
    data = a.data - b.data

    def backward(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.data.shape) if b.requires_grad else None)

    return _from_op(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a = _ensure(a, b if isinstance(b, Tensor) else None)
    b = _ensure(b, a)
    data = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _from_op(data, (a, b), backward)


def div(a, b) -> Tensor:
    a = _ensure(a, b if isinstance(b, Tensor) else None)
    b = _ensure(b, a)
    data = a.data / b.data

    def backward(g):
        ga = _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape) if b.requires_grad else None
        return ga, gb

    return _from_op(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        return (-g,)

    return _from_op(-a.data, (a,), backward)


def pow_(a: Tensor, p) -> Tensor:
    """Elementwise power with a python-number exponent."""
    if isinstance(p, Tensor):
        raise DimensionError("pow_ exponent must be a plain number, not a Tensor")
    p = float(p)
    data = a.data ** p

    def backward(g):
        return (g * p * a.data ** (p - 1.0),)

    return _from_op(data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; leading axes broadcast, both operands rank >= 2."""
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise DimensionError("matmul operands must be Tensors")
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape)
        if b.requires_grad:
            gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape)
        return ga, gb

    return _from_op(data, (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return _from_op(data, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    data = a.data.transpose(axes)

    def backward(g):
        return (g.transpose(inverse),)

    return _from_op(data, (a,), backward)


def swapaxes(a: Tensor, i: int, j: int) -> Tensor:
    """Exchange two axes (negative indices count from the end); a transpose."""
    axes = list(range(a.data.ndim))
    axes[i], axes[j] = axes[j], axes[i]
    return transpose(a, axes)


def roll(a: Tensor, shift, axis) -> Tensor:
    """Circular shift along the given axes; gradient rolls back the other way."""
    data = np.roll(a.data, shift, axis=axis)
    rollback = tuple(-s for s in shift) if isinstance(shift, tuple) else -shift

    def backward(g):
        return (np.roll(g, rollback, axis=axis),)

    return _from_op(data, (a,), backward)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape),)

    return _from_op(data, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = 1
        for ax in axes:
            n *= a.data.shape[ax]
    return mul(sum_(a, axis, keepdims), 1.0 / n)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        return (g * data,)

    return _from_op(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def backward(g):
        return (g / a.data,)

    return _from_op(data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / data,)

    return _from_op(data, (a,), backward)


def abs_(a: Tensor) -> Tensor:
    data = np.abs(a.data)

    def backward(g):
        return (g * np.sign(a.data),)

    return _from_op(data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    data = expit(a.data)

    def backward(g):
        return (g * data * (1.0 - data),)

    return _from_op(data, (a,), backward)


def softmax_lastdim(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis; rows sum to one."""
    if a.data.ndim == 0 or a.data.shape[-1] == 0:
        raise DimensionError(f"softmax needs a non-empty last axis, got shape {a.shape}")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) * y,)

    return _from_op(y, (a,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (population), then scale and shift.

    ``gamma`` and ``beta`` are [C] or carry leading axes that broadcast
    against ``x`` (a stack of per-slice parameters, such as [K, 1, C]).
    """
    if eps < 0:
        raise ConfigurationError(f"layer_norm eps must be >= 0, got {eps}")
    width = x.data.shape[-1]
    for p in (gamma, beta):
        if p.data.shape[-1:] != (width,) or not _broadcasts_to(p.data.shape, x.data.shape):
            raise DimensionError(
                f"layer_norm gamma/beta shapes {gamma.shape}/{beta.shape} do not "
                f"match last axis {width} of {x.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    data = xhat * gamma.data + beta.data

    def backward(g):
        gx = ggamma = gbeta = None
        if gamma.requires_grad:
            ggamma = _unbroadcast(g * xhat, gamma.data.shape)
        if beta.requires_grad:
            gbeta = _unbroadcast(g, beta.data.shape)
        if x.requires_grad:
            dxhat = g * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            gx = inv * (dxhat - m1 - xhat * m2)
        return gx, ggamma, gbeta

    return _from_op(data, (x, gamma, beta), backward)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian error linear unit, x * Phi(x) with the erf form."""
    x = a.data
    phi = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    data = x * phi

    def backward(g):
        density = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        return (g * (phi + x * density),)

    return _from_op(data, (a,), backward)


def take_rows(table: Tensor, idx) -> Tensor:
    """Row gather ``table[idx]``; the gradient scatter-adds duplicate rows."""
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu":
        raise DimensionError(f"take_rows index must be integer, got dtype {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise DataError(
            f"take_rows index out of range [0, {table.data.shape[0]}): "
            f"min {idx.min()}, max {idx.max()}")
    data = table.data[idx]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _from_op(data, (table,), backward)


def gather_lastdim(x: Tensor, labels) -> Tensor:
    """Pick ``x[..., labels[...]]`` per position; labels index the last axis."""
    labels = np.asarray(labels)
    if labels.shape != x.data.shape[:-1]:
        raise DimensionError(
            f"gather_lastdim labels shape {labels.shape} must equal {x.data.shape[:-1]}")
    if labels.size and (labels.min() < 0 or labels.max() >= x.data.shape[-1]):
        raise DataError(
            f"labels out of range [0, {x.data.shape[-1]}): min {labels.min()}, max {labels.max()}")
    data = np.take_along_axis(x.data, labels[..., None], axis=-1)[..., 0]

    def backward(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, labels[..., None], g[..., None], axis=-1)
        return (gx,)

    return _from_op(data, (x,), backward)


def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Compare the taped gradient of scalar ``f(x)`` against central differences.

    Returns the max over elements of |analytic - numeric| / max(|analytic|,
    |numeric|, 1e-8).  Exhaustive over every element of ``x``, so keep the
    probe small.
    """
    if not isinstance(x, Tensor) or not x.requires_grad:
        raise OracleError("grad_check probe must be a Tensor with requires_grad=True")
    x.grad = None
    with Tape() as tape:
        y = f(x)
    if not isinstance(y, Tensor) or y.data.size != 1:
        raise OracleError("grad_check needs f to return a scalar Tensor")
    if not np.isfinite(y.data).all():
        raise OracleError("f(x) is not finite at the probe point")
    tape.backward(y)
    if x.grad is None:
        raise OracleError("f(x) does not depend on the probe tensor")
    analytic = x.grad.copy()
    numeric = np.zeros_like(analytic)
    for idx in np.ndindex(x.data.shape):
        original = x.data[idx]
        x.data[idx] = original + eps
        hi = float(f(x).data)
        x.data[idx] = original - eps
        lo = float(f(x).data)
        x.data[idx] = original
        numeric[idx] = (hi - lo) / (2.0 * eps)
    if not np.isfinite(numeric).all():
        raise OracleError("central differences produced non-finite values")
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())


def zero_grad(tensors) -> None:
    for t in tensors:
        t.grad = None
