"""Decoupled-weight-decay Adam.

The warmup-cosine learning rate schedule that sets its rate lives in
``training.py``, next to the ``RunOptions`` that hold its numbers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericsError

B1, B2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator guard
WEIGHT_DECAY = 0.05  # default decoupled weight decay of a run and of a fresh state


@dataclass
class OptimState:
    """Moment buffers keyed like the parameter dict, plus the step counter."""

    weight_decay: float = WEIGHT_DECAY
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


# elements per pass of the update: every operand of a pass stays in cache,
# and the work buffers stay small whatever the largest parameter
CHUNK = 1 << 15


def adamw_step(params: dict, grads: dict, state: OptimState, lr: float) -> None:
    """One bias-corrected Adam update, in place.

    Weight decay is decoupled: theta <- theta * (1 - lr * wd) happens
    independently of the gradient term, so a zero gradient with wd > 0
    still shrinks the parameter by exactly that factor.  The update is

        m <- b1 m + (1 - b1) g;  v <- b2 v + (1 - b2) g g
        theta <- theta (1 - lr wd) - lr m_hat / (sqrt(v_hat) + eps)

    with m_hat = m / (1 - b1^t), v_hat = v / (1 - b2^t), evaluated in that
    operation order in the parameter's dtype, CHUNK elements at a time.
    Parameters and moments must be C-contiguous, as every array the package
    builds is.  Every gradient and array is checked before anything
    changes.  The parameters are then cut in two halves of about equal
    size, and a helper thread updates one half while the caller updates
    the other; the update is elementwise, so the split changes no value.
    """
    if lr < 0:
        raise ConfigurationError(f"learning rate must be >= 0, got {lr}")
    t = state.step + 1
    work, fresh = [], {}  # (theta, m, v, g) per tensor; moments made by this call
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=p.data.dtype)
        if not (np.isfinite(g.min()) and np.isfinite(g.max())):  # finite exactly when all are
            raise NumericsError(f"non-finite gradient in {name} at optimizer step {t}")
        if name in state.m:
            m, v = state.m[name], state.v[name]
        else:
            m, v = fresh[name] = np.zeros_like(p.data), np.zeros_like(p.data)
        if not all(x.flags.c_contiguous for x in (p.data, m, v)):
            raise ConfigurationError(f"adamw_step needs C-contiguous arrays for {name}")
        work.append((p.data, m, v, g))
    for name, (m, v) in fresh.items():
        state.m[name], state.v[name] = m, v
    state.step = t
    lr = float(lr)
    hyper = (lr, 1.0 - B1 ** t, 1.0 - B2 ** t, 1.0 - lr * float(state.weight_decay))
    prefix = np.cumsum([0] + [theta.size for theta, *_ in work])
    cut = int(np.abs(2 * prefix - prefix[-1]).argmin())  # the prefix nearest half
    with ThreadPoolExecutor(max_workers=1) as helper:
        other = helper.submit(_update, work[cut:], *hyper)
        _update(work[:cut], *hyper)
        other.result()


def _update(work: list, lr: float, bias1: float, bias2: float, decay: float) -> None:
    """The update of ``adamw_step`` on each (theta, m, v, g) of ``work``,
    through two CHUNK-sized buffers per dtype."""
    buffers: dict = {}  # dtype -> two CHUNK-sized buffers
    for arrays in work:
        dtype = arrays[0].dtype
        if dtype not in buffers:
            buffers[dtype] = (np.empty(CHUNK, dtype), np.empty(CHUNK, dtype))
        buf_a, buf_b = buffers[dtype]
        flat = [x.reshape(-1) for x in arrays]
        for start in range(0, arrays[0].size, CHUNK):
            theta, m, v, gc = (x[start:start + CHUNK] for x in flat)
            a, b = buf_a[:theta.size], buf_b[:theta.size]
            m *= B1
            m += np.multiply(1.0 - B1, gc, out=a)
            v *= B2
            np.multiply(1.0 - B2, gc, out=a)
            a *= gc
            v += a
            np.divide(m, bias1, out=a)  # m_hat
            np.multiply(lr, a, out=a)
            np.divide(v, bias2, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += EPS
            a /= b
            theta *= decay
            theta -= a
