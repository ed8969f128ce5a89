"""Parameter bundles and the windowed attention building blocks.

Blocks run on flat token sequences [..., N, C]; the window geometry reshapes
to [..., H, W, C] internally.  Leading axes carry independent streams (the
decoders' task axis); a parameter either has no leading axes and is shared
by every stream, or carries the same leading axes and holds one slice per
stream: weights [..., C, C'], vectors [..., 1, C].  There is one block
type, ``BlockP``, and one block function, ``attention_block``.  Attention
weights and their application are separate steps so that a block can take
its probability map from outside: the decoders' shared attention computes
one map from the reference projections and hands it to every task's block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionError
from .tensor import (Tensor, add, gelu, matmul, mul, reshape, softmax_lastdim,
                     swapaxes)
from .tensor import layer_norm as _layer_norm
from .tensor import linear as _linear
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
    """Pre-norm attention block: LN, windowed MHA, LN, two layer MLP.

    ``q``, ``k`` and ``table`` are None in a block whose attention map is
    always supplied from outside (a shared-attention block)."""

    ln1: NormP
    q: LinearP | None
    k: LinearP | None
    v: LinearP
    out: LinearP
    table: Tensor | None  # relative position bias table [..., (2*win-1)^2, heads]
    ln2: NormP
    fc1: LinearP
    fc2: LinearP


def linear(x: Tensor, p: LinearP) -> Tensor:
    return _linear(x, p.w, p.b)


def norm(x: Tensor, p: NormP) -> Tensor:
    return _layer_norm(x, p.gamma, p.beta, NORM_EPS)


def mlp(x: Tensor, fc1: LinearP, fc2: LinearP) -> Tensor:
    return linear(gelu(linear(x, fc1)), fc2)


def shifted_windows(x: Tensor, grid: WindowGrid, shift: int) -> Tensor:
    """Tokens [..., N, C] of the grid, cyclically shifted by ``shift`` and cut
    into windows [..., nW, T, C]."""
    *lead, n, c = x.shape
    if n != grid.h * grid.w:
        raise DimensionError(f"{n} tokens do not fill grid {grid.h}x{grid.w}")
    x2d = reshape(x, tuple(lead) + (grid.h, grid.w, c))
    if shift:
        x2d = cyclic_shift(x2d, shift)
    return window_partition(x2d, grid.win)


def _project(wins: Tensor, p: LinearP) -> Tensor:
    """Per-token projection of windows [..., nW, T, C], one matrix product
    over all windows' tokens at once; returns [..., nW*T, C']."""
    return linear(reshape(wins, wins.shape[:-3] + (-1, wins.shape[-1])), p)


def _split_heads(x: Tensor, nw: int, heads: int) -> Tensor:
    """[..., nW*T, C] -> [..., nW, heads, T, C/heads]."""
    *lead, n, c = x.shape
    if c % heads:
        raise DimensionError(f"{heads} heads do not divide {c} channels")
    return swapaxes(reshape(x, tuple(lead) + (nw, n // nw, heads, c // heads)), -3, -2)


def _merge_heads(x: Tensor) -> Tensor:
    """[..., nW, heads, T, hd] -> [..., nW*T, heads*hd]."""
    *lead, nw, m, t, hd = x.shape
    return reshape(swapaxes(x, -3, -2), tuple(lead) + (nw * t, m * hd))


def attention_weights(wins: Tensor, q: LinearP, k: LinearP, table: Tensor,
                      grid: WindowGrid, shift: int) -> Tensor:
    """Per-window attention probabilities [..., nW, heads, T, T] from the
    windows [..., nW, T, C] of one source map.

    logits = q k^T / sqrt(head_dim) + relative position bias, plus the wrap
    mask when the map was cyclically shifted by ``shift``.  Rows sum to one.
    """
    heads = table.shape[-1]
    nw = wins.shape[-3]
    qh = _split_heads(_project(wins, q), nw, heads)
    kh = _split_heads(_project(wins, k), nw, heads)
    scale = 1.0 / math.sqrt(qh.shape[-1])
    logits = mul(matmul(qh, swapaxes(kh, -2, -1)), scale)
    bias = rel_pos_bias(table, grid.win)
    # one bias per head, shared by every window: [..., 1, heads, T, T]
    logits = add(logits, reshape(bias, bias.shape[:-3] + (1,) + bias.shape[-3:]))
    if shift:
        mask = shift_mask(grid, logits.dtype)
        logits = add(logits, reshape(mask, (mask.shape[0], 1, grid.tokens_per_window,
                                            grid.tokens_per_window)))
    return softmax_lastdim(logits)


def apply_attention(weights: Tensor, wins: Tensor, v: LinearP, out: LinearP,
                    grid: WindowGrid, shift: int) -> Tensor:
    """Apply precomputed window attention to the values of windows
    [..., nW, T, C]; undoes the windowing and the shift and returns tokens
    [..., N, C] in map order.  ``weights`` broadcast over leading axes, so
    one map can serve a whole stack of value streams."""
    heads = weights.shape[-3]
    *lead, nw, t, c = wins.shape
    vh = _split_heads(_project(wins, v), nw, heads)
    ctx = linear(_merge_heads(matmul(weights, vh)), out)
    y = window_reverse(reshape(ctx, tuple(lead) + (nw, t, c)), grid.h, grid.w)
    if shift:
        y = cyclic_unshift(y, shift)
    return reshape(y, tuple(lead) + (grid.h * grid.w, c))


def attention_block(x: Tensor, p: BlockP, grid: WindowGrid, shifted: bool,
                    weights: Tensor | None = None) -> Tensor:
    """y = x + WMSA(LN(x)); y = y + MLP(LN(y)).  Shifted blocks roll and mask.

    The normalized map is shifted and windowed once; the attention weights
    and their application share those windows.  ``weights`` [..., nW, heads,
    T, T], computed on the same window layout, replace the block's own q/k
    map.
    """
    shift = grid.shift if shifted else 0
    wins = shifted_windows(norm(x, p.ln1), grid, shift)
    if weights is None:
        weights = attention_weights(wins, p.q, p.k, p.table, grid, shift)
    x = add(x, apply_attention(weights, wins, p.v, p.out, grid, shift))
    del wins, weights  # untaped, this frees them before the MLP's wide hidden layer
    return add(x, mlp(norm(x, p.ln2), p.fc1, p.fc2))
