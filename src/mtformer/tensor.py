"""numpy-backed tensors with reverse-mode automatic differentiation: the
tape, the ops' value and gradient rules, and the gradient oracles.  The
float kernels the rules call, the normal distribution function and the
short-row reductions, live in ``kernels.py``.

Ops executed while a Tape is active append one record each, in execution
order, so walking them in reverse is a valid topological order and visits
every recorded op exactly once.  A record keeps only what its backward
reads (see :class:`Tape`): a tape pins no output and no operand a later
gradient does not need, so an activation dies as soon as neither the
caller nor a backward closure holds it.  Backward sweeps a tape once: it
frees each record and each gradient as soon as it has consumed them, and
writes ``.grad`` only to leaves (tensors no record on the tape produced,
such as parameters) and to the loss; intermediate tensors keep ``.grad is
None``.  ``.grad`` is an accumulator: the first write is a private copy,
later writes add into that same array in place, from this tape or from the
next, so call :func:`zero_grad` between optimizer steps.

A tape belongs to the thread that opened it: each thread records on its own
innermost open tape, so two threads can tape two forwards at once.  A tape
may be swept on another thread once its forward has returned; backward
closures run no ops, so a sweep records nothing.  Tensors are treated as
immutable once created; the finite-difference probe perturbs one element in
place and restores it, which is the one sanctioned exception.  Kernels
write in place only into arrays they allocated themselves, never into an
input or an incoming gradient, which other records may share.
"""

from __future__ import annotations

import itertools
import math
import threading

import numpy as np

from .errors import DataError, DimensionError, OracleError
from .kernels import ndtr, row_max, row_mean, row_sum

__all__ = [
    "Tensor", "Tape", "add", "sub", "mul", "div", "neg", "matmul", "linear",
    "reshape", "transpose", "swapaxes", "permute_tokens", "sum_", "mean",
    "log", "sqrt", "abs_", "sigmoid", "softmax_lastdim", "layer_norm", "gelu",
    "take_rows", "gather_lastdim", "central_difference", "grad_check", "zero_grad",
]

NORM_EPS = 1e-5  # added to the variance in layer_norm


_open = threading.local()  # .tape: this thread's innermost open Tape


class Tape:
    """Execution-ordered record of differentiable ops.

    Use as a context manager; ops run outside any tape compute values only,
    which is how inference paths avoid graph bookkeeping.  Ops record on the
    innermost tape their own thread has open.

    A record is ``(parents, backward)``.  ``parents`` has one entry per
    operand: the index on this tape of the record that produced it, the
    operand itself when it is a leaf that requires grad (its ``.grad`` is
    written), or None for a constant, which the record does not hold.
    ``backward`` maps the output's gradient to one gradient per operand (None
    where none is needed) and captures only the arrays it reads, plus shapes,
    dtypes and ``requires_grad`` flags; it never captures a Tensor.  An
    output produced on a tape carries ``(tape serial, record index)``, an
    integer pair rather than the tape or the record, so nothing refers back
    from a Tensor to the tape and a dropped tape is freed by reference
    counting alone.  A serial is never reused, so an output of one tape is a
    leaf on any other.
    """

    _serials = itertools.count()

    def __init__(self) -> None:
        self._records: list = []
        self._serial = next(Tape._serials)
        self._swept = False

    def __enter__(self) -> "Tape":
        self._outer = getattr(_open, "tape", None)
        _open.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _open.tape = self._outer
        return False

    def __len__(self) -> int:
        """The number of records made, also after a sweep has freed them."""
        return len(self._records)

    def backward(self, loss: "Tensor") -> int:
        """Reverse replay from ``loss``; returns the number of records visited.

        The sweep is one-shot: each record is freed (its slot set to None)
        as soon as the sweep has passed it, and each output's gradient as
        soon as its record has consumed it, so only the frontier of the
        sweep stays alive and a second ``backward`` on this tape raises
        ``DataError``.  A gradient for a tensor no record on this tape
        produced (a leaf) goes into its ``.grad`` at once, and ``loss`` gets
        its seed of ones: a first write stores a copy (one gradient array
        may reach several leaves), later writes add into it in place.
        Intermediate tensors' ``.grad`` is never written.
        """
        if self._swept:
            raise DataError("this tape was already swept; a tape can be swept once")
        if loss.data.size != 1:
            raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not loss.requires_grad:
            raise DataError("loss does not depend on any tensor that requires grad")
        self._swept = True
        records = self._records
        seed = np.ones_like(loss.data)
        grads = {}  # record index -> gradient of that record's output
        node = loss._node
        if node is not None and node[0] == self._serial:
            grads[node[1]] = seed
        for index in reversed(range(len(records))):
            record, records[index] = records[index], None
            g = grads.pop(index, None)
            if g is None:
                continue  # op does not feed this loss
            parents, backward = record
            for parent, pg in zip(parents, backward(g)):
                if parent is None or pg is None:
                    continue
                if isinstance(parent, Tensor):
                    _accumulate(parent, pg)
                    continue
                prev = grads.get(parent)
                # never mutate a stored array in place; closures may alias them
                grads[parent] = pg if prev is None else prev + pg
        _accumulate(loss, seed)
        return len(records)

    def _parent(self, t: "Tensor"):
        """How a record names operand ``t``: see the class docstring."""
        if not t.requires_grad:
            return None
        node = t._node
        return node[1] if node is not None and node[0] == self._serial else t


def _accumulate(t: "Tensor", g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``; a first write stores a private copy."""
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad += g


class Tensor:
    """A dense float array plus an optional gradient buffer of the same shape.

    ``_node`` is ``(tape serial, record index)`` for an op output recorded on
    a tape, else None."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: tuple | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _ensure(x, like: Tensor | None = None) -> Tensor:
    """Wrap scalars/arrays as constant tensors, matching ``like``'s dtype."""
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else np.float64
    return Tensor(np.asarray(x, dtype=dtype))


def _from_op(data, parents, backward) -> Tensor:
    req = any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req)
    tape = getattr(_open, "tape", None)
    if req and tape is not None:
        out._node = (tape._serial, len(tape._records))
        tape._records.append((tuple(tape._parent(p) for p in parents), backward))
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape``: the leading axes it lacks, then its size-1
    axes.  numpy adds, not BLAS, so no BLAS thread count changes the bytes."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _into(buf: np.ndarray, *others):
    """``buf`` as the ``out=`` of a ufunc over ``buf`` and ``others`` when the
    result keeps ``buf``'s dtype, else None: a wider operand then gets a new,
    wider array, as the plain expression would.  Shapes must already agree."""
    return buf if np.result_type(buf, *others) == buf.dtype else None


def _broadcasts_to(shape, target) -> bool:
    """Whether ``shape`` broadcasts to exactly ``target``."""
    if len(shape) > len(target):
        return False
    return all(s == 1 or s == t for s, t in zip(shape[::-1], target[::-1]))


def add(a, b) -> Tensor:
    a = _ensure(a, b if isinstance(b, Tensor) else None)
    b = _ensure(b, a)
    data = a.data + b.data
    a_shape, b_shape, a_req, b_req = a.data.shape, b.data.shape, a.requires_grad, b.requires_grad

    def backward(g):
        return (_unbroadcast(g, a_shape) if a_req else None,
                _unbroadcast(g, b_shape) if b_req else None)

    return _from_op(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a = _ensure(a, b if isinstance(b, Tensor) else None)
    b = _ensure(b, a)
    data = a.data - b.data
    a_shape, b_shape, a_req, b_req = a.data.shape, b.data.shape, a.requires_grad, b.requires_grad

    def backward(g):
        return (_unbroadcast(g, a_shape) if a_req else None,
                _unbroadcast(-g, b_shape) if b_req else None)

    return _from_op(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a = _ensure(a, b if isinstance(b, Tensor) else None)
    b = _ensure(b, a)
    data = a.data * b.data
    a_shape, b_shape = a.data.shape, b.data.shape
    a_data = a.data if b.requires_grad else None  # each gradient reads the other operand
    b_data = b.data if a.requires_grad else None

    def backward(g):
        return (None if b_data is None else _unbroadcast(g * b_data, a_shape),
                None if a_data is None else _unbroadcast(g * a_data, b_shape))

    return _from_op(data, (a, b), backward)


def div(a, b) -> Tensor:
    a = _ensure(a, b if isinstance(b, Tensor) else None)
    b = _ensure(b, a)
    data = a.data / b.data
    a_shape, b_shape, a_req, b_data = a.data.shape, b.data.shape, a.requires_grad, b.data
    a_data = a.data if b.requires_grad else None

    def backward(g):
        ga = _unbroadcast(g / b_data, a_shape) if a_req else None
        gb = None if a_data is None else _unbroadcast(-g * a_data / (b_data * b_data), b_shape)
        return ga, gb

    return _from_op(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        return (-g,)

    return _from_op(-a.data, (a,), backward)


def _check_matmul(a, b) -> None:
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise DimensionError("matmul operands must be Tensors")
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")


def _matmul_backward(a: Tensor, b: Tensor):
    """Gradient closure of ``a @ b``; it keeps an operand's data only when
    the other operand's gradient reads it."""
    a_shape, b_shape = a.data.shape, b.data.shape
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(g):
        ga = None if b_data is None else _unbroadcast(g @ b_data.swapaxes(-1, -2), a_shape)
        gb = None if a_data is None else _unbroadcast(a_data.swapaxes(-1, -2) @ g, b_shape)
        return ga, gb

    return backward


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; leading axes broadcast, both operands rank >= 2."""
    _check_matmul(a, b)
    return _from_op(a.data @ b.data, (a, b), _matmul_backward(a, b))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one op; ``b`` broadcasts as in ``add``.

    The bias is added in place on the product unless that would change the
    result's shape or dtype.  The gradients are exactly those of ``matmul``
    followed by ``add``.
    """
    _check_matmul(x, w)
    data = x.data @ w.data
    product_shape = data.shape
    out = _into(data, b.data) if _broadcasts_to(b.data.shape, product_shape) else None
    data = np.add(data, b.data, out=out)
    product_backward = _matmul_backward(x, w)
    b_shape, b_req = b.data.shape, b.requires_grad

    def backward(g):
        gx, gw = product_backward(_unbroadcast(g, product_shape))
        return gx, gw, _unbroadcast(g, b_shape) if b_req else None

    return _from_op(data, (x, w, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)
    a_shape = a.data.shape

    def backward(g):
        return (g.reshape(a_shape),)

    return _from_op(data, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    data = a.data.transpose(axes)

    def backward(g):
        return (g.transpose(inverse),)

    return _from_op(data, (a,), backward)


def swapaxes(a: Tensor, i: int, j: int) -> Tensor:
    """Exchange two axes (negative indices count from the end); a transpose."""
    axes = list(range(a.data.ndim))
    axes[i], axes[j] = axes[j], axes[i]
    return transpose(a, axes)


def permute_tokens(a: Tensor, order, inverse) -> Tensor:
    """Reorder the tokens (axis -2): ``out[..., k, :] = a[..., order[k], :]``.
    ``inverse`` is the inverse permutation; each token is read exactly once,
    so the gradient is the inverse gather, with no scatter-add."""
    data = np.take(a.data, order, axis=-2)

    def backward(g):
        return (np.take(g, inverse, axis=-2),)

    return _from_op(data, (a,), backward)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis in (-1, a.data.ndim - 1):  # the last axis: one matrix-vector product
        data = row_sum(a.data)
        if not keepdims:
            data = data.reshape(a.data.shape[:-1])
    else:
        data = a.data.sum(axis=axis, keepdims=keepdims)
    a_shape = a.data.shape

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a_shape),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a_shape),)

    return _from_op(data, (a,), backward)


def mean(a: Tensor) -> Tensor:
    """Mean over every element, a scalar."""
    return mul(sum_(a), 1.0 / a.data.size)


def log(a: Tensor) -> Tensor:
    x = a.data
    data = np.log(x)

    def backward(g):
        return (g / x,)

    return _from_op(data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / data,)

    return _from_op(data, (a,), backward)


def abs_(a: Tensor) -> Tensor:
    x = a.data
    data = np.abs(x)

    def backward(g):
        return (g * np.sign(x),)

    return _from_op(data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    """1 / (1 + exp(-a)): exactly 0 where exp(-a) overflows, 1 where it underflows."""
    data = np.negative(a.data)
    with np.errstate(over="ignore", under="ignore"):
        np.exp(data, out=data)
    data += 1.0
    np.divide(1.0, data, out=data)

    def backward(g):
        return (g * data * (1.0 - data),)

    return _from_op(data, (a,), backward)


def softmax_lastdim(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis; rows sum to one."""
    if a.data.ndim == 0 or a.data.shape[-1] == 0:
        raise DimensionError(f"softmax needs a non-empty last axis, got shape {a.shape}")
    y = a.data - row_max(a.data)
    np.exp(y, out=y)
    y /= row_sum(y)

    def backward(g):
        gx = g * y
        dot = row_sum(gx)
        np.subtract(g, dot, out=gx)
        gx *= y
        return (gx,)

    return _from_op(y, (a,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (population,
    plus ``NORM_EPS``), then scale and shift.

    ``gamma`` and ``beta`` are [C] or carry leading axes that broadcast
    against ``x`` (a stack of per-slice parameters, such as [K, 1, C]).
    """
    width = x.data.shape[-1]
    for p in (gamma, beta):
        if p.data.shape[-1:] != (width,) or not _broadcasts_to(p.data.shape, x.data.shape):
            raise DimensionError(
                f"layer_norm gamma/beta shapes {gamma.shape}/{beta.shape} do not "
                f"match last axis {width} of {x.shape}")
    xhat = x.data - row_mean(x.data)  # centered until scaled by inv
    data = xhat * xhat
    inv = row_mean(data)
    inv += NORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    data = np.multiply(xhat, gamma.data, out=_into(data, gamma.data))
    data = np.add(data, beta.data, out=_into(data, beta.data))
    # backward reads xhat and inv, never x itself
    gamma_shape, beta_shape = gamma.data.shape, beta.data.shape
    gamma_req, beta_req = gamma.requires_grad, beta.requires_grad
    gamma_data = gamma.data if x.requires_grad else None

    def backward(g):
        gx = ggamma = gbeta = None
        if gamma_req:
            ggamma = _unbroadcast(g * xhat, gamma_shape)
        if beta_req:
            gbeta = _unbroadcast(g, beta_shape)
        if gamma_data is not None:
            gx = g * gamma_data  # d loss / d xhat
            t = gx * xhat
            m2 = row_mean(t)
            gx -= row_mean(gx)
            np.multiply(xhat, m2, out=t)
            gx -= t  # g is at least as wide as x, so gx already has the widest dtype
            gx *= inv
        return gx, ggamma, gbeta

    return _from_op(data, (x, gamma, beta), backward)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian error linear unit, x * Phi(x) with Phi the standard
    normal distribution function (1 + erf(x / sqrt 2)) / 2."""
    x = a.data
    phi = ndtr(x)

    def backward(g):
        d = -0.5 * x
        d *= x
        np.exp(d, out=d)
        d *= 1.0 / math.sqrt(2.0 * math.pi)  # standard normal density
        d *= x
        d += phi
        return (np.multiply(d, g, out=_into(d, g)),)

    return _from_op(x * phi, (a,), backward)


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
    shape, dtype = table.data.shape, table.data.dtype

    def backward(g):
        gt = np.zeros(shape, dtype)
        if idx.ndim:
            np.add.at(gt, idx, g)
        else:  # one row: 0 + g, exactly what np.add.at computes
            row = gt[int(idx)]
            row += g
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
    shape, dtype = x.data.shape, x.data.dtype

    def backward(g):
        gx = np.zeros(shape, dtype)
        np.put_along_axis(gx, labels[..., None], g[..., None], axis=-1)
        return (gx,)

    return _from_op(data, (x,), backward)


def central_difference(f, arr: np.ndarray, idx, eps: float) -> float:
    """(f() at arr[idx] + eps - f() at arr[idx] - eps) / (2 eps) for a
    zero-argument ``f`` returning a float.  ``arr`` is perturbed in place;
    its element is restored even when ``f`` raises."""
    original = arr[idx]
    try:
        arr[idx] = original + eps
        hi = f()
        arr[idx] = original - eps
        lo = f()
    finally:
        arr[idx] = original
    return (hi - lo) / (2.0 * eps)


def grad_check(f, x: Tensor) -> float:
    """Compare the taped gradient of scalar ``f(x)`` against finite differences.

    Each numeric derivative is the Richardson extrapolation ``(4 D(h) -
    D(2h)) / 3`` of two central differences ``D`` at ``h = 1e-3``.  It
    cancels their ``h^2`` error term and leaves an ``h^4`` one, so the step
    can be large enough that the rounding of ``f`` (about 1e-16 / h of its
    magnitude) stays far below the gradient even where an entry is many
    orders smaller than its tensor's largest.  Returns the max over elements
    of |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).  Exhaustive
    over every element of ``x`` at four evaluations of ``f`` each, so keep
    the probe small and ``f`` smooth within 2e-3 of the probe point.
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
    h = 1e-3

    def value() -> float:
        return float(f(x).data)

    for idx in np.ndindex(x.data.shape):
        near = central_difference(value, x.data, idx, h)
        far = central_difference(value, x.data, idx, 2.0 * h)
        numeric[idx] = (4.0 * near - far) / 3.0
    if not np.isfinite(numeric).all():
        raise OracleError("central differences produced non-finite values")
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())


def zero_grad(tensors) -> None:
    for t in tensors:
        t.grad = None
