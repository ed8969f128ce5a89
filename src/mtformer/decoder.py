"""Mirrored per-task decoders coupled by shared cross-task attention.

Every task runs its own four stage decoder over the encoder pyramid, deepest
skip first.  The K = len(cfg.tasks) decoders run as one stacked stream: token
maps are [K, N, C] and every task-owned parameter carries a leading task
axis, slice k belonging to ``cfg.tasks[k]``.  A stage fuses the skip
additively, then runs two attention blocks of the one block type: a
self-attention block on regular windows and a block on shifted windows.
With shared attention on, the second block takes its probabilities from
outside: they are computed once from the skip feature using the reference
task's query/key projections and bias table (the unstacked
``decoder.s{i}.shared.*`` tensors) and applied to every task's values.
Three patch expansions restore the grid to 1/4 resolution; per-task heads
upsample twice more and map to task channels.
"""

from __future__ import annotations

from .config import (PATCH, ArchConfig, decoder_channels, stage_grids,
                     task_channels, window_shift)
from .errors import DimensionError
from .layers import (attention_block, attention_weights, linear, shifted_windows,
                     window_order)
from .tensor import (Tensor, add, div, matmul, mul, permute_tokens, reshape,
                     sigmoid, softmax_lastdim, sqrt, sum_)
from .windowing import WindowGrid


def patch_expand(x: Tensor, side: int, w: Tensor) -> Tensor:
    """Double the grid side and halve the channels of tokens [..., N, C].

    Bias-free projection C -> 2C, then each token's 2C channels fill its
    2x2 output block row major: chunk 0 -> (0,0), 1 -> (0,1), 2 -> (1,0),
    3 -> (1,1), each chunk C/2 wide: the window-2 windows of the doubled
    grid, gathered back to map order, so the inverse of patch_merge's layout.
    """
    *lead, n, c = x.shape
    if n != side * side:
        raise DimensionError(f"{n} tokens do not fill grid {side}x{side}")
    if w.shape[-2:] != (c, 2 * c):
        raise DimensionError(f"patch_expand weight {w.shape} must be ({c}, {2 * c})")
    t = reshape(matmul(x, w), tuple(lead) + (4 * n, c // 2))
    return permute_tokens(t, *window_order(WindowGrid(2 * side, 2 * side, 2))[::-1])


def shared_attention(x: Tensor, skip: Tensor, p: dict, name: str,
                     grid: WindowGrid) -> Tensor:
    """Stage ``name``'s shared-attention block on shifted windows for a stack
    x [K, N, C].

    One probability map A comes from the raw skip [N, C] through the
    reference q/k and bias table ``name.shared``; block ``name.b2`` then
    runs on every stream k with that A in place of its own q/k map.
    """
    # passed without a local name, so the block can free A before its MLP
    return attention_block(x, p, f"{name}.b2", grid, weights=attention_weights(
        shifted_windows(skip, grid), p, f"{name}.shared", grid))


def decoder_stage(x: Tensor, skip: Tensor, p: dict, name: str, regular: WindowGrid,
                  shifted: WindowGrid, shared: bool) -> Tensor:
    """Skip fusion, self attention on ``regular`` windows, then block ``b2``
    on ``shifted`` ones, on [K, N, C]; with ``shared`` on, ``b2`` takes the
    stage's shared attention map."""
    x = add(x, linear(skip, p, f"{name}.fuse"))
    x = attention_block(x, p, f"{name}.b1", regular)
    if not shared:
        return attention_block(x, p, f"{name}.b2", shifted)
    return shared_attention(x, skip, p, name, shifted)


def decode(pyramid: tuple, cfg: ArchConfig, p: dict) -> Tensor:
    """Run every task decoder on ``decoder.*`` of the flat parameters ``p``
    over skips F4, F3, F2, F1 (``encode``'s stage outputs, reversed); returns
    the stacked token maps [K, N, C] at 1/4 resolution, slice k for
    ``cfg.tasks[k]``."""
    if len(pyramid) != 4:
        raise DimensionError(f"decode needs the 4 encoder stage outputs, got {len(pyramid)}")
    skips = pyramid[::-1]
    sides = stage_grids(cfg)[::-1]
    widths = decoder_channels(cfg)
    for i in range(4):
        if skips[i].shape != (sides[i] * sides[i], widths[i]):
            raise DimensionError(
                f"skip {i} has shape {skips[i].shape}, expected ({sides[i] * sides[i]}, {widths[i]})")
    x = linear(skips[0], p, "decoder.init")
    for i, side in enumerate(sides):
        regular = WindowGrid(side, side, cfg.window)
        shifted = WindowGrid(side, side, cfg.window, window_shift(cfg))
        x = decoder_stage(x, skips[i], p, f"decoder.s{i}", regular, shifted,
                          cfg.shared_attention)
        if i < 3:
            x = patch_expand(x, side, p[f"decoder.expand{i}.weight"])
    return x


def task_head(y: Tensor, task: str, cfg: ArchConfig, p: dict) -> Tensor:
    """Two patch expansions to full resolution, a linear map to task channels,
    and the task's output activation (softmax / sigmoid / unit normals), on
    ``head.<task>.*`` of the flat parameters ``p``."""
    side = cfg.img_size // PATCH
    x = patch_expand(y, side, p[f"head.{task}.expand1.weight"])
    x = patch_expand(x, 2 * side, p[f"head.{task}.expand2.weight"])
    x = linear(x, p, f"head.{task}.out")
    x = reshape(x, (cfg.img_size, cfg.img_size, task_channels(task)))
    if task == "S":
        return softmax_lastdim(x)
    if task == "N":
        # 1e-24 keeps the gradient finite for a zero vector without moving
        # any realistic output off unit length
        nrm = sqrt(add(sum_(mul(x, x), axis=-1, keepdims=True), 1e-24))
        return div(x, nrm)
    return sigmoid(x)  # D, K, E, R
