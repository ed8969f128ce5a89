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


def _initial(shape: tuple, init, rng: np.random.Generator, dtype) -> np.ndarray:
    if init != NORMAL:
        return np.full(shape, init, dtype=dtype)
    # clipped normal, the usual transformer table/projection init
    vals = rng.normal(0.0, INIT_STD, size=shape)
    return np.clip(vals, -2 * INIT_STD, 2 * INIT_STD).astype(dtype, copy=False)


def param_shapes(layout, num_tasks: int) -> tuple:
    """The tensors of ``layout`` entries ``(name, shape, init, task, stacked)``
    from their shapes alone: returns (name -> shape dict in storage order,
    stacked names), and allocates no tensor.

    A stacked entry is slice ``task`` of a [num_tasks, ...] tensor, its
    vectors as [1, C] so they broadcast over tokens.  A name, or a slice of
    one, given twice is a ``ConfigurationError``.
    """
    shapes, stacked, filled = {}, set(), set()
    for name, shape, _, k, is_stacked in layout:
        if not is_stacked:
            if name in shapes:
                raise ConfigurationError(f"duplicate parameter {name}")
            shapes[name] = shape
            continue
        if name not in shapes:
            shapes[name] = (num_tasks,) + (shape if len(shape) > 1 else (1,) + shape)
            stacked.add(name)
        elif name not in stacked or (name, k) in filled:
            raise ConfigurationError(f"duplicate parameter {name}")
        filled.add((name, k))
    return shapes, frozenset(stacked)


def init_params(cfg: ArchConfig, seed: int = 0, dtype=np.float64) -> Model:
    """Build all parameters for ``cfg``, shaped as ``param_shapes`` says and
    drawn in layout entry order; same seed and dtype gives bitwise
    identical tensors."""
    if seed < 0:
        raise ConfigurationError(f"init seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    layout = list(param_layout(cfg))
    shapes, stacked = param_shapes(layout, len(cfg.tasks))
    values = {name: np.zeros(shapes[name], dtype=dtype) for name in stacked}
    for name, shape, init, k, _ in layout:
        value = _initial(shape, init, rng, dtype)
        if name in stacked:
            values[name][k] = value
        else:
            values[name] = value
    return Model(cfg, {name: Tensor(values[name], requires_grad=True) for name in shapes},
                 stacked)


def forward(model: Model, img: Tensor) -> dict:
    """Image [H, W, 3] to per-task predictions [H, W, task_channels]."""
    pyramid = encode(img, model.cfg, model.flat)
    streams = decode(pyramid, model.cfg, model.flat)
    return {t: task_head(take_rows(streams, k), t, model.cfg, model.flat)
            for k, t in enumerate(model.cfg.tasks)}
