"""Decoupled-weight-decay Adam.

The warmup-cosine learning rate schedule that sets its rate lives in
``training.py``, next to the ``RunOptions`` that hold its numbers.
"""

from __future__ import annotations

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
    operation order in the parameter's dtype, CHUNK elements at a time
    through two reused work buffers.  Parameters and moments must be
    C-contiguous, as every array the package builds is.
    """
    if lr < 0:
        raise ConfigurationError(f"learning rate must be >= 0, got {lr}")
    t = state.step + 1
    gs = [np.asarray(grads[name], dtype=p.data.dtype) for name, p in params.items()]
    for name, g in zip(params, gs):  # every gradient is checked before anything changes
        if not (np.isfinite(g.min()) and np.isfinite(g.max())):  # finite exactly when all are
            raise NumericsError(f"non-finite gradient in {name} at optimizer step {t}")
    state.step = t
    lr = float(lr)
    bias1, bias2 = 1.0 - B1 ** t, 1.0 - B2 ** t
    decay = 1.0 - lr * float(state.weight_decay)
    work: dict = {}  # dtype -> two CHUNK-sized buffers
    for (name, p), g in zip(params.items(), gs):
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        arrays = (p.data, state.m[name], state.v[name])
        if not all(x.flags.c_contiguous for x in arrays):
            raise ConfigurationError(f"adamw_step needs C-contiguous arrays for {name}")
        if p.data.dtype not in work:
            work[p.data.dtype] = (np.empty(CHUNK, p.data.dtype), np.empty(CHUNK, p.data.dtype))
        buf_a, buf_b = work[p.data.dtype]
        flat = [x.reshape(-1) for x in arrays + (g,)]
        for start in range(0, p.data.size, CHUNK):
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
