"""The windowed attention building blocks, reading parameters by name.

Every layer takes the model's flat name -> Tensor dict and a name prefix:
``linear(x, p, "encoder.s0.b0.q")`` reads ``encoder.s0.b0.q.weight`` and
``.bias``.  ``config.param_layout`` declares every name.  Blocks run on flat
token sequences [..., N, C]; a window layout is one cached token gather
(``window_order``).  Leading axes carry independent streams (the decoders'
task axis); a parameter either has no leading axes and is shared by every
stream, or carries the same leading axes and holds one slice per stream:
weights [..., C, C'], vectors [..., 1, C].  There is one block function,
``attention_block``; its grid's shift decides regular or shifted windows.
Attention weights and their application are separate steps so that a
block can take its probability map from outside: the decoders' shared
attention computes one map from the reference projections and hands it to
every task's block.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DimensionError
from .tensor import (Tensor, add, gelu, matmul, mul, permute_tokens, reshape,
                     softmax_lastdim, swapaxes)
from .tensor import layer_norm as _layer_norm
from .tensor import linear as _linear
from .windowing import (WindowGrid, cyclic_shift, rel_pos_bias, shift_mask,
                        window_partition)


def linear(x: Tensor, p: dict, name: str) -> Tensor:
    return _linear(x, p[f"{name}.weight"], p[f"{name}.bias"])


def norm(x: Tensor, p: dict, name: str) -> Tensor:
    return _layer_norm(x, p[f"{name}.gamma"], p[f"{name}.beta"])


def mlp(x: Tensor, p: dict, name: str) -> Tensor:
    return linear(gelu(linear(x, p, f"{name}.fc1")), p, f"{name}.fc2")


@lru_cache(maxsize=None)
def window_order(grid: WindowGrid) -> tuple:
    """(order, inverse), read-only: the grid's map-order tokens gathered at
    ``order`` are its shifted windows, token k of window j at j*T + k, and
    gathered back at ``inverse`` they are in map order again."""
    ids = Tensor(np.arange(grid.h * grid.w, dtype=float).reshape(grid.h, grid.w, 1))
    wins = window_partition(cyclic_shift(ids, grid.shift), grid.win)
    order = wins.data.reshape(-1).astype(np.intp)
    inverse = np.argsort(order)
    order.flags.writeable = inverse.flags.writeable = False
    return order, inverse


def shifted_windows(x: Tensor, grid: WindowGrid) -> Tensor:
    """Tokens [..., N, C] of the grid, cyclically shifted by ``grid.shift``
    and cut into windows [..., nW, T, C]."""
    *lead, n, c = x.shape
    if n != grid.h * grid.w:
        raise DimensionError(f"{n} tokens do not fill grid {grid.h}x{grid.w}")
    t = grid.tokens_per_window
    return reshape(permute_tokens(x, *window_order(grid)), tuple(lead) + (n // t, t, c))


def _project(wins: Tensor, p: dict, name: str) -> Tensor:
    """Per-token projection of windows [..., nW, T, C], one matrix product
    over all windows' tokens at once; returns [..., nW*T, C']."""
    return linear(reshape(wins, wins.shape[:-3] + (-1, wins.shape[-1])), p, name)


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


def attention_weights(wins: Tensor, p: dict, name: str, grid: WindowGrid) -> Tensor:
    """Per-window attention probabilities [..., nW, heads, T, T] from the
    windows [..., nW, T, C] of one source map, through ``name``'s q, k and
    bias_table.

    logits = q k^T / sqrt(head_dim) + relative position bias, plus the wrap
    mask when the map was cyclically shifted by ``grid.shift``.  Rows sum
    to one.
    """
    table = p[f"{name}.bias_table"]
    heads = table.shape[-1]
    nw = wins.shape[-3]
    qh = _split_heads(_project(wins, p, f"{name}.q"), nw, heads)
    kh = _split_heads(_project(wins, p, f"{name}.k"), nw, heads)
    scale = 1.0 / math.sqrt(qh.shape[-1])
    logits = mul(matmul(qh, swapaxes(kh, -2, -1)), scale)
    bias = rel_pos_bias(table, grid.win)
    # one bias per head, shared by every window: [..., 1, heads, T, T]
    logits = add(logits, reshape(bias, bias.shape[:-3] + (1,) + bias.shape[-3:]))
    if grid.shift:
        mask = shift_mask(grid, logits.dtype)
        logits = add(logits, reshape(mask, (mask.shape[0], 1, grid.tokens_per_window,
                                            grid.tokens_per_window)))
    return softmax_lastdim(logits)


def apply_attention(weights: Tensor, wins: Tensor, p: dict, name: str,
                    grid: WindowGrid) -> Tensor:
    """Apply precomputed window attention to the values of windows
    [..., nW, T, C] through ``name``'s v and out projections; undoes the
    windowing and the shift and returns tokens [..., N, C] in map order.
    ``weights`` broadcast over leading axes, so one map can serve a whole
    stack of value streams."""
    vh = _split_heads(_project(wins, p, f"{name}.v"), wins.shape[-3], weights.shape[-3])
    ctx = linear(_merge_heads(matmul(weights, vh)), p, f"{name}.out")
    return permute_tokens(ctx, *window_order(grid)[::-1])


def attention_block(x: Tensor, p: dict, name: str, grid: WindowGrid,
                    weights: Tensor | None = None) -> Tensor:
    """y = x + WMSA(LN(x)); y = y + MLP(LN(y)).  On a grid with a shift the
    windows are gathered from the cyclically shifted map and masked.

    The normalized map is shifted and windowed once; the attention weights
    and their application share those windows.  ``weights`` [..., nW, heads,
    T, T], computed on the same window layout, replace the block's own q/k
    map, and the block then reads no q, k or bias_table.
    """
    wins = shifted_windows(norm(x, p, f"{name}.ln1"), grid)
    if weights is None:
        weights = attention_weights(wins, p, name, grid)
    x = add(x, apply_attention(weights, wins, p, name, grid))
    del wins, weights  # untaped, this frees them before the MLP's wide hidden layer
    return add(x, mlp(norm(x, p, f"{name}.ln2"), p, name))
