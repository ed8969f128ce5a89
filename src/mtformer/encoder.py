"""Hierarchical windowed encoder: patch embedding, four stages, patch merging.

Stage s runs depths[s] pre-norm attention blocks alternating regular and
shifted windows (regular first), then halves the grid and doubles the
channels by merging 2x2 token neighborhoods.  The four stage outputs form
the skip pyramid the decoders consume.
"""

from __future__ import annotations

from .config import PATCH, ArchConfig, stage_grids, window_shift
from .errors import DimensionError
from .layers import attention_block, linear, norm, window_order
from .tensor import Tensor, matmul, permute_tokens, reshape
from .windowing import WindowGrid


def patch_embed(img: Tensor, p: dict, name: str, patch: int) -> Tensor:
    """[H, W, 3] image to [H*W/patch^2, C] tokens.

    Each non-overlapping patch is flattened row major, channels last, then
    projected by ``name``; token order is row major over the patch grid.
    """
    if img.data.ndim != 3 or img.shape[-1] != 3:
        raise DimensionError(f"patch_embed expects [H, W, 3], got {img.shape}")
    h, w, _ = img.shape
    if h % patch or w % patch:
        raise DimensionError(f"patch {patch} does not divide image {h}x{w}")
    t = permute_tokens(reshape(img, (h * w, 3)), *window_order(WindowGrid(h, w, patch)))
    return linear(reshape(t, ((h // patch) * (w // patch), patch * patch * 3)), p, name)


def patch_merge(x: Tensor, side: int, p: dict, name: str) -> Tensor:
    """Concatenate each 2x2 neighborhood (order (0,0),(0,1),(1,0),(1,1)) to 4C,
    layer-norm (``name.ln``), and project bias free (``name.weight``) to 2C.
    Token count drops 4x."""
    n, c = x.shape
    if n != side * side:
        raise DimensionError(f"{n} tokens do not fill grid {side}x{side}")
    if side % 2:
        raise DimensionError(f"patch_merge needs an even grid side, got {side}")
    t = permute_tokens(x, *window_order(WindowGrid(side, side, 2)))
    t = reshape(t, ((side // 2) ** 2, 4 * c))
    return matmul(norm(t, p, f"{name}.ln"), p[f"{name}.weight"])


def block_shift_flags(depth: int) -> list:
    """Regular/shifted alternation inside a stage, regular first."""
    return [d % 2 == 1 for d in range(depth)]


def encode(img: Tensor, cfg: ArchConfig, p: dict) -> tuple:
    """Run the encoder on ``patch_embed.*`` and ``encoder.*`` of the flat
    parameters ``p``; returns the stage outputs f1..f4, shallow to deep,
    stage s shaped [side*side, channels] with side ``stage_grids(cfg)[s]``."""
    if img.shape[:2] != (cfg.img_size, cfg.img_size):
        raise DimensionError(
            f"image {img.shape[:2]} does not match configured size {cfg.img_size}")
    x = patch_embed(img, p, "patch_embed", PATCH)
    feats = []
    for s, side in enumerate(stage_grids(cfg)):
        regular = WindowGrid(side, side, cfg.window)
        shifted = WindowGrid(side, side, cfg.window, window_shift(cfg))
        for d, shift in enumerate(block_shift_flags(cfg.stage_depths[s])):
            x = attention_block(x, p, f"encoder.s{s}.b{d}", shifted if shift else regular)
        feats.append(x)
        if s < 3:
            x = patch_merge(x, side, p, f"encoder.merge{s}")
    return tuple(feats)
