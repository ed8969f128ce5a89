"""Hierarchical windowed encoder: patch embedding, four stages, patch merging.

Stage s runs depths[s] pre-norm attention blocks alternating regular and
shifted windows (regular first), then halves the grid and doubles the
channels by merging 2x2 token neighborhoods.  The four stage outputs form
the skip pyramid the decoders consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import PATCH, ArchConfig, stage_grids, window_shift
from .errors import DimensionError
from .layers import LinearP, NormP, attention_block, linear, norm
from .tensor import Tensor, matmul, reshape, transpose
from .windowing import WindowGrid


@dataclass
class MergeP:
    norm: NormP
    w: Tensor  # bias free, 4C -> 2C


@dataclass
class EncoderParams:
    embed: LinearP
    stages: list  # stages[s] is a list of BlockP
    merges: list  # three MergeP


@dataclass(frozen=True)
class FeaturePyramid:
    """Stage outputs f1..f4, shallow to deep, each [side*side, channels]."""

    features: tuple
    sides: tuple

    def __iter__(self):
        return iter(self.features)


def patch_embed(img: Tensor, p: LinearP, patch: int) -> Tensor:
    """[H, W, 3] image to [H*W/patch^2, C] tokens.

    Each non-overlapping patch is flattened row major, channels last, then
    linearly projected; token order is row major over the patch grid.
    """
    if img.data.ndim != 3 or img.shape[-1] != 3:
        raise DimensionError(f"patch_embed expects [H, W, 3], got {img.shape}")
    h, w, _ = img.shape
    if h % patch or w % patch:
        raise DimensionError(f"patch {patch} does not divide image {h}x{w}")
    t = reshape(img, (h // patch, patch, w // patch, patch, 3))
    t = transpose(t, (0, 2, 1, 3, 4))
    t = reshape(t, ((h // patch) * (w // patch), patch * patch * 3))
    return linear(t, p)


def patch_merge(x: Tensor, side: int, p: MergeP) -> Tensor:
    """Concatenate each 2x2 neighborhood (order (0,0),(0,1),(1,0),(1,1)) to 4C,
    layer-norm, and project bias free to 2C.  Token count drops 4x."""
    n, c = x.shape
    if n != side * side:
        raise DimensionError(f"{n} tokens do not fill grid {side}x{side}")
    if side % 2:
        raise DimensionError(f"patch_merge needs an even grid side, got {side}")
    t = reshape(x, (side // 2, 2, side // 2, 2, c))
    t = transpose(t, (0, 2, 1, 3, 4))
    t = reshape(t, ((side // 2) ** 2, 4 * c))
    return matmul(norm(t, p.norm), p.w)


def block_shift_flags(depth: int) -> list:
    """Regular/shifted alternation inside a stage, regular first."""
    return [d % 2 == 1 for d in range(depth)]


def encode(img: Tensor, cfg: ArchConfig, params: EncoderParams) -> FeaturePyramid:
    if img.shape[:2] != (cfg.img_size, cfg.img_size):
        raise DimensionError(
            f"image {img.shape[:2]} does not match configured size {cfg.img_size}")
    x = patch_embed(img, params.embed, PATCH)
    sides = stage_grids(cfg)
    feats = []
    for s in range(4):
        grid = WindowGrid(sides[s], sides[s], cfg.window, window_shift(cfg))
        flags = block_shift_flags(cfg.stage_depths[s])
        for block, shifted in zip(params.stages[s], flags):
            x = attention_block(x, block, grid, shifted)
        feats.append(x)
        if s < 3:
            x = patch_merge(x, sides[s], params.merges[s])
    return FeaturePyramid(tuple(feats), sides)
