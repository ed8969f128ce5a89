"""Window geometry: partitioning, cyclic shifts, attention masks, position bias.

All functions act on token maps laid out [..., H, W, C] (row major), where
any leading axes (such as the decoders' task axis) are carried through
untouched; the geometry always sits on the trailing axes.  Windows are
enumerated row major over the window grid and tokens row major inside each
window, so window k of a [H, W, C] map covers rows [win*(k // (W//win)) ...]
and never mixes rows from two window bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DimensionError
from .tensor import Tensor, permute_tokens, reshape, swapaxes, take_rows, transpose

MASK_VALUE = -1e9


@dataclass(frozen=True)
class WindowGrid:
    """Token grid extent plus the window/shift geometry used on it."""

    h: int
    w: int
    win: int
    shift: int = 0

    def __post_init__(self):
        if self.win < 1:
            raise ConfigurationError(f"window must be >= 1, got {self.win}")
        if self.h % self.win or self.w % self.win:
            raise ConfigurationError(
                f"window {self.win} must divide grid {self.h}x{self.w}")
        if not 0 <= self.shift < self.win:
            raise ConfigurationError(
                f"shift must satisfy 0 <= shift < window, got shift {self.shift} window {self.win}")

    @property
    def tokens_per_window(self) -> int:
        return self.win * self.win


def window_partition(x: Tensor, win: int) -> Tensor:
    """[..., H, W, C] -> [..., num_windows, win*win, C], windows and tokens row major."""
    *lead, h, w, c = x.shape
    if h % win or w % win:
        raise DimensionError(f"window {win} does not divide map {h}x{w}")
    lead = tuple(lead)
    t = reshape(x, lead + (h // win, win, w // win, win, c))
    return reshape(swapaxes(t, -4, -3), lead + ((h // win) * (w // win), win * win, c))


def window_reverse(wins: Tensor, h: int, w: int) -> Tensor:
    """Inverse of :func:`window_partition` back to [..., H, W, C]."""
    *lead, nw, t, c = wins.shape
    win = int(round(t ** 0.5))
    if win * win != t or nw * t != h * w or h % win or w % win:
        raise DimensionError(
            f"cannot reassemble {nw} windows of {t} tokens into {h}x{w}")
    lead = tuple(lead)
    x = reshape(wins, lead + (h // win, w // win, win, win, c))
    return reshape(swapaxes(x, -4, -3), lead + (h, w, c))


def cyclic_shift(x: Tensor, shift: int) -> Tensor:
    """Roll the map up and left: output[..., i, j, :] = input[..., (i+shift) % H, (j+shift) % W, :]."""
    *lead, h, w, c = x.shape
    ids = np.arange(h * w).reshape(h, w)
    order, inverse = (np.roll(ids, (-s, -s), (0, 1)).reshape(-1) for s in (shift, -shift))
    return reshape(permute_tokens(reshape(x, tuple(lead) + (h * w, c)), order, inverse), x.shape)


def cyclic_unshift(x: Tensor, shift: int) -> Tensor:
    return cyclic_shift(x, -shift)


@lru_cache(maxsize=None)
def _mask_array(h: int, w: int, win: int, shift: int, dtype: np.dtype):
    # label contiguous pre-shift regions; pairs with different labels may not attend
    labels = np.zeros((h, w))
    spans = (slice(0, -win), slice(-win, -shift), slice(-shift, None))
    region = 0
    for hs in spans:
        for ws in spans:
            labels[hs, ws] = region
            region += 1
    windowed = window_partition(Tensor(labels[..., None]), win).data[..., 0]  # [nW, T]
    diff = windowed[:, :, None] - windowed[:, None, :]
    mask = np.where(diff != 0, MASK_VALUE, 0.0).astype(dtype)
    mask.flags.writeable = False
    return mask


def shift_mask(grid: WindowGrid, dtype=np.float64) -> Tensor:
    """Additive attention mask [num_windows, T, T]; 0 allowed, -1e9 masked.

    Built in ``dtype`` so that adding it to the logits does not promote them.
    With shift 0 the mask is identically zero.
    """
    return Tensor(_mask_array(grid.h, grid.w, grid.win, grid.shift, np.dtype(dtype)))


@lru_cache(maxsize=None)
def rel_pos_index(win: int):
    """[T, T] table rows keyed by token displacement (dy, dx), T = win*win."""
    coords = np.stack(np.meshgrid(np.arange(win), np.arange(win), indexing="ij"))
    coords = coords.reshape(2, -1)
    delta = coords[:, :, None] - coords[:, None, :]
    idx = (delta[0] + win - 1) * (2 * win - 1) + (delta[1] + win - 1)
    idx.flags.writeable = False
    return idx


def rel_pos_bias(table: Tensor, win: int) -> Tensor:
    """Expand a [..., (2*win-1)^2, heads] table into an additive [..., heads, T, T] bias."""
    *lead, rows, heads = table.shape
    if rows != (2 * win - 1) ** 2:
        raise DimensionError(
            f"bias table has {rows} rows, window {win} needs {(2 * win - 1) ** 2}")
    lead = tuple(lead)
    n = len(lead)
    t = win * win
    if n:  # take_rows gathers along axis 0, so bring the table rows there
        table = transpose(table, (n,) + tuple(range(n)) + (n + 1,))
    gathered = take_rows(table, np.asarray(rel_pos_index(win)).reshape(-1))
    bias = reshape(gathered, (t, t) + lead + (heads,))
    return transpose(bias, tuple(range(2, n + 2)) + (n + 2, 0, 1))
