"""Mirrored per-task decoders coupled by shared cross-task attention.

Every task runs its own four stage decoder over the encoder pyramid, deepest
skip first.  The K = len(cfg.tasks) decoders run as one stacked stream: token
maps are [K, N, C] and every task-owned parameter carries a leading task
axis, slice k belonging to ``cfg.tasks[k]``.  A stage fuses the skip
additively, then runs two attention blocks of the one block type: a
self-attention block on regular windows and a block on shifted windows.
With shared attention on, the second block takes its probabilities from
outside: they are computed once from the skip feature using the reference
task's query/key projections (one unstacked bundle) and applied to every
task's values.
Three patch expansions restore the grid to 1/4 resolution; per-task heads
upsample twice more and map to task channels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import (PATCH, ArchConfig, decoder_channels, task_channels,
                     window_shift)
from .errors import ConfigurationError, DimensionError
from .layers import (BlockP, LinearP, attention_block, attention_weights, linear,
                     shifted_windows)
from .tensor import (Tensor, add, div, matmul, mul, reshape, sigmoid,
                     softmax_lastdim, sqrt, sum_, swapaxes)
from .windowing import WindowGrid


@dataclass
class SharedP:
    """The reference task's query/key projections and bias table of one
    shared-attention stage; no task axis, every stream uses them."""

    q: LinearP
    k: LinearP
    table: Tensor


@dataclass
class StageP:
    fuse: LinearP
    block1: BlockP
    block2: BlockP  # q, k and table None when sharing
    shared: SharedP | None  # set exactly when sharing
    expand: Tensor | None  # bias-free [K, C, 2C]; None after the last stage


@dataclass
class DecoderParams:
    init: LinearP
    stages: list  # four StageP


@dataclass
class HeadP:
    expand1: Tensor
    expand2: Tensor
    out: LinearP


def patch_expand(x: Tensor, side: int, w: Tensor) -> Tensor:
    """Double the grid side and halve the channels of tokens [..., N, C].

    Bias-free projection C -> 2C, then each token's 2C channels fill its
    2x2 output block row major: chunk 0 -> (0,0), 1 -> (0,1), 2 -> (1,0),
    3 -> (1,1), each chunk C/2 wide.  Exact inverse layout of patch_merge.
    """
    *lead, n, c = x.shape
    if n != side * side:
        raise DimensionError(f"{n} tokens do not fill grid {side}x{side}")
    if w.shape[-2:] != (c, 2 * c):
        raise DimensionError(f"patch_expand weight {w.shape} must be ({c}, {2 * c})")
    lead = tuple(lead)
    t = reshape(matmul(x, w), lead + (side, side, 2, 2, c // 2))
    return reshape(swapaxes(t, -4, -3), lead + (4 * n, c // 2))


def shared_attention(x: Tensor, skip: Tensor, shared: SharedP, block: BlockP,
                     grid: WindowGrid) -> Tensor:
    """Shared-attention block on shifted windows for a stack x [K, N, C].

    One probability map A comes from the raw skip [N, C] through the
    reference q/k and bias table; ``block`` then runs on every stream k with
    that A in place of its own q/k map.
    """
    # passed without a local name, so the block can free A before its MLP
    return attention_block(x, block, grid, shifted=True, weights=attention_weights(
        shifted_windows(skip, grid, grid.shift), shared.q, shared.k, shared.table,
        grid, grid.shift))


def decoder_stage(x: Tensor, skip: Tensor, stage: StageP, grid: WindowGrid) -> Tensor:
    """Skip fusion, self attention, then the cross-task block, on [K, N, C]."""
    x = add(x, linear(skip, stage.fuse))
    x = attention_block(x, stage.block1, grid, shifted=False)
    if stage.shared is None:
        return attention_block(x, stage.block2, grid, shifted=True)
    return shared_attention(x, skip, stage.shared, stage.block2, grid)


def decode(pyramid, cfg: ArchConfig, params: DecoderParams) -> Tensor:
    """Run every task decoder over skips F4, F3, F2, F1; returns the stacked
    token maps [K, N, C] at 1/4 resolution, slice k for ``cfg.tasks[k]``."""
    skips = tuple(pyramid)[::-1]
    sides = pyramid.sides[::-1]
    widths = decoder_channels(cfg)
    for i in range(4):
        if skips[i].shape != (sides[i] * sides[i], widths[i]):
            raise DimensionError(
                f"skip {i} has shape {skips[i].shape}, expected ({sides[i] * sides[i]}, {widths[i]})")
    x = linear(skips[0], params.init)
    for i, stage in enumerate(params.stages):
        grid = WindowGrid(sides[i], sides[i], cfg.window, window_shift(cfg))
        x = decoder_stage(x, skips[i], stage, grid)
        if stage.expand is not None:
            x = patch_expand(x, sides[i], stage.expand)
    return x


def task_head(y: Tensor, task: str, cfg: ArchConfig, p: HeadP) -> Tensor:
    """Two patch expansions to full resolution, a linear map to task channels,
    and the task's output activation (softmax / sigmoid / unit normals)."""
    side = cfg.img_size // PATCH
    x = patch_expand(y, side, p.expand1)
    x = patch_expand(x, 2 * side, p.expand2)
    x = linear(x, p.out)
    x = reshape(x, (cfg.img_size, cfg.img_size, task_channels(task)))
    if task == "S":
        return softmax_lastdim(x)
    if task == "N":
        # 1e-24 keeps the gradient finite for a zero vector without moving
        # any realistic output off unit length
        nrm = sqrt(add(sum_(mul(x, x), axis=-1, keepdims=True), 1e-24))
        return div(x, nrm)
    if task in ("D", "K", "E", "R"):
        return sigmoid(x)
    raise ConfigurationError(f"unknown task id {task!r}")
