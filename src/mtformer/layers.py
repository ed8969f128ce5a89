"""Parameter bundles and the windowed attention building blocks.

Blocks run on flat token sequences [N, C]; the window geometry reshapes to
[H, W, C] internally.  Attention weights and attention application are kept
separate so the shared attention block can compute one probability map from
the reference projections and apply it to every task's values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionError
from .tensor import (Tensor, add, gelu, matmul, mul, reshape, softmax_lastdim,
                     transpose)
from .tensor import layer_norm as _layer_norm
from .windowing import (WindowGrid, cyclic_shift, cyclic_unshift, rel_pos_bias,
                        shift_mask, window_partition, window_reverse)

NORM_EPS = 1e-5


@dataclass
class LinearP:
    w: Tensor
    b: Tensor | None = None


@dataclass
class NormP:
    gamma: Tensor
    beta: Tensor


@dataclass
class BlockP:
    """Pre-norm attention block: LN, windowed MHA, LN, two layer MLP."""

    ln1: NormP
    q: LinearP
    k: LinearP
    v: LinearP
    out: LinearP
    table: Tensor  # relative position bias table [(2*win-1)^2, heads]
    ln2: NormP
    fc1: LinearP
    fc2: LinearP


def linear(x: Tensor, p: LinearP) -> Tensor:
    y = matmul(x, p.w)
    return add(y, p.b) if p.b is not None else y


def norm(x: Tensor, p: NormP) -> Tensor:
    return _layer_norm(x, p.gamma, p.beta, NORM_EPS)


def mlp(x: Tensor, fc1: LinearP, fc2: LinearP) -> Tensor:
    return linear(gelu(linear(x, fc1)), fc2)


def _split_heads(x: Tensor, heads: int) -> Tensor:
    nw, t, c = x.shape
    if c % heads:
        raise DimensionError(f"{heads} heads do not divide {c} channels")
    return transpose(reshape(x, (nw, t, heads, c // heads)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    nw, m, t, hd = x.shape
    return reshape(transpose(x, (0, 2, 1, 3)), (nw, t, m * hd))


def attention_weights(x2d: Tensor, q: LinearP, k: LinearP, table: Tensor,
                      grid: WindowGrid, shift: int) -> Tensor:
    """Per-window attention probabilities [nW, heads, T, T] from one source map.

    logits = q k^T / sqrt(head_dim) + relative position bias, plus the wrap
    mask when the map was cyclically shifted.  Rows sum to one.
    """
    heads = table.shape[1]
    if shift:
        x2d = cyclic_shift(x2d, shift)
    wins = window_partition(x2d, grid.win)
    qh = _split_heads(linear(wins, q), heads)
    kh = _split_heads(linear(wins, k), heads)
    scale = 1.0 / math.sqrt(qh.shape[-1])
    logits = mul(matmul(qh, transpose(kh, (0, 1, 3, 2))), scale)
    logits = add(logits, rel_pos_bias(table, grid.win))
    if shift:
        mask = shift_mask(grid, logits.dtype)
        logits = add(logits, reshape(mask, (mask.shape[0], 1, grid.tokens_per_window,
                                            grid.tokens_per_window)))
    return softmax_lastdim(logits)


def apply_attention(weights: Tensor, x2d: Tensor, v: LinearP, out: LinearP,
                    grid: WindowGrid, shift: int) -> Tensor:
    """Apply precomputed window attention to this map's values; returns [H, W, C]."""
    heads = weights.shape[1]
    if shift:
        x2d = cyclic_shift(x2d, shift)
    wins = window_partition(x2d, grid.win)
    vh = _split_heads(linear(wins, v), heads)
    ctx = linear(_merge_heads(matmul(weights, vh)), out)
    y = window_reverse(ctx, grid.h, grid.w)
    return cyclic_unshift(y, shift) if shift else y


def attention_block(x: Tensor, p: BlockP, grid: WindowGrid, shifted: bool) -> Tensor:
    """y = x + WMSA(LN(x)); y = y + MLP(LN(y)).  Shifted blocks roll and mask."""
    n, c = x.shape
    if n != grid.h * grid.w:
        raise DimensionError(f"{n} tokens do not fill grid {grid.h}x{grid.w}")
    shift = grid.shift if shifted else 0
    h2 = reshape(norm(x, p.ln1), (grid.h, grid.w, c))
    weights = attention_weights(h2, p.q, p.k, p.table, grid, shift)
    ctx = apply_attention(weights, h2, p.v, p.out, grid, shift)
    x = add(x, reshape(ctx, (n, c)))
    return add(x, mlp(norm(x, p.ln2), p.fc1, p.fc2))
