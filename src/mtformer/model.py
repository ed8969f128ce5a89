"""Parameter construction and the end to end forward pass.

Parameters live once, in one flat name -> Tensor dict whose names, order,
shapes and initial values ``config.param_layout`` declares.  Checkpoints,
optimizers and the layer code all read that dict; a layer reads its tensors
by name prefix.  Task-owned decoder parameters are stored once per name
with a leading task axis K = len(cfg.tasks) (slice k belongs to
``cfg.tasks[k]``); their names are listed in ``Model.stacked``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NORMAL, ArchConfig, param_layout
from .decoder import decode, task_head
from .encoder import encode
from .errors import ConfigurationError
from .tensor import Tensor, take_rows

INIT_STD = 0.02


@dataclass
class Model:
    cfg: ArchConfig
    flat: dict  # name -> Tensor, declaration order
    stacked: frozenset  # names of the tensors with a leading task axis

    @property
    def dtype(self):
        """The one dtype every parameter, and so every forward, computes in."""
        return next(iter(self.flat.values())).data.dtype


def _initial(shape: tuple, init, rng: np.random.Generator | None, dtype) -> np.ndarray:
    if init != NORMAL:
        return np.full(shape, init, dtype=dtype)
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    # clipped normal, the usual transformer table/projection init
    vals = rng.normal(0.0, INIT_STD, size=shape)
    return np.clip(vals, -2 * INIT_STD, 2 * INIT_STD).astype(dtype, copy=False)


def build_params(layout, num_tasks: int, rng: np.random.Generator | None, dtype) -> tuple:
    """Tensors for ``layout`` entries ``(name, shape, init, task, stacked)``,
    drawn from ``rng`` in entry order; returns (flat dict, stacked names).

    A stacked entry fills slice ``task`` of a [num_tasks, ...] tensor, its
    vectors as [1, C] so they broadcast over tokens.  With ``rng`` None
    nothing is drawn and every weight is zero.  A name, or a slice of one,
    given twice is a ``ConfigurationError``.
    """
    flat, stacked, filled = {}, set(), set()
    for name, shape, init, k, is_stacked in layout:
        value = _initial(shape, init, rng, dtype)
        if not is_stacked:
            if name in flat:
                raise ConfigurationError(f"duplicate parameter {name}")
            flat[name] = Tensor(value, requires_grad=True)
            continue
        if name not in flat:
            full = (num_tasks,) + (shape if len(shape) > 1 else (1,) + shape)
            flat[name] = Tensor(np.zeros(full, dtype=dtype), requires_grad=True)
            stacked.add(name)
        elif name not in stacked or (name, k) in filled:
            raise ConfigurationError(f"duplicate parameter {name}")
        filled.add((name, k))
        flat[name].data[k] = value
    return flat, frozenset(stacked)


def init_params(cfg: ArchConfig, seed: int = 0, dtype=np.float64) -> Model:
    """Build all parameters for ``cfg``; same seed and dtype gives bitwise
    identical tensors."""
    if seed < 0:
        raise ConfigurationError(f"init seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return Model(cfg, *build_params(param_layout(cfg), len(cfg.tasks), rng, dtype))


def empty_params(cfg: ArchConfig, dtype=np.float64) -> Model:
    """The names, order and shapes of ``init_params(cfg)`` without drawing
    any random number: weights are zero.  For loaders that overwrite every
    tensor."""
    return Model(cfg, *build_params(param_layout(cfg), len(cfg.tasks), None, dtype))


def forward(model: Model, img: Tensor) -> dict:
    """Image [H, W, 3] to per-task predictions [H, W, task_channels]."""
    pyramid = encode(img, model.cfg, model.flat)
    streams = decode(pyramid, model.cfg, model.flat)
    return {t: task_head(take_rows(streams, k), t, model.cfg, model.flat)
            for k, t in enumerate(model.cfg.tasks)}
