"""Parameter construction and the end to end forward pass.

Parameters live twice: structured bundles the layer code consumes, and one
flat name -> Tensor dict in declaration order.  The flat view is the single
source of truth for checkpoints, optimizers, and parameter counting; both
views reference the same Tensor objects.  Task-owned decoder parameters are
stored once per stage with a leading task axis K = len(cfg.tasks) (slice k
belongs to ``cfg.tasks[k]``); their names are listed in ``Model.stacked``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .config import (PATCH, ArchConfig, count_parameters, decoder_channels,
                     require_valid, stage_channels, task_channels)
from .decoder import DecoderParams, HeadP, SharedP, StageP, decode, task_head
from .encoder import EncoderParams, MergeP, encode
from .errors import ConfigurationError
from .layers import BlockP, LinearP, NormP
from .tensor import Tensor, take_rows

INIT_STD = 0.02


@dataclass
class Model:
    cfg: ArchConfig
    flat: dict  # name -> Tensor, declaration order
    encoder: EncoderParams
    decoder: DecoderParams
    heads: dict  # task -> HeadP
    stacked: frozenset  # names of the tensors with a leading task axis

    @property
    def dtype(self):
        """The one dtype every parameter, and so every forward, computes in."""
        return next(iter(self.flat.values())).data.dtype

    def parameter_count(self) -> int:
        return sum(t.data.size for t in self.flat.values())


class _Builder:
    """Registers parameters in declaration order.  While ``slot`` is (k, K),
    each tensor is slice k of a stacked [K, ...] tensor (vectors become
    [K, 1, C] so they broadcast over tokens); slice 0 registers it.  With
    ``rng`` None nothing is drawn and every weight is zero.  Every attention
    block is a ``BlockP``; the shared-attention bundles its owner registers
    are collected in ``shared``, keyed by name prefix."""

    def __init__(self, rng: np.random.Generator | None, dtype):
        self.rng = rng
        self.dtype = dtype
        self.flat: dict = {}
        self.stacked: set = set()
        self.shared: dict = {}
        self.slot = None

    def _new(self, name: str, arr: np.ndarray) -> Tensor:
        if name in self.flat:
            raise ConfigurationError(f"duplicate parameter {name}")
        self.flat[name] = Tensor(arr, requires_grad=True)
        return self.flat[name]

    def _register(self, name: str, arr: np.ndarray) -> Tensor:
        if self.slot is not None:
            k, K = self.slot
            if arr.ndim == 1:
                arr = arr[None]
            if k == 0:
                self._new(name, np.zeros((K,) + arr.shape, dtype=self.dtype))
                self.stacked.add(name)
            t = self.flat[name]
            t.data[k] = arr
            return t
        return self._new(name, arr.astype(self.dtype, copy=False))

    @contextmanager
    def unstacked(self):
        """Register plain tensors inside the block, whatever the slot."""
        slot, self.slot = self.slot, None
        try:
            yield
        finally:
            self.slot = slot

    def weight(self, name: str, shape) -> Tensor:
        if self.rng is None:
            return self._register(name, np.zeros(shape, dtype=self.dtype))
        # clipped normal, the usual transformer table/projection init
        vals = self.rng.normal(0.0, INIT_STD, size=shape)
        return self._register(name, np.clip(vals, -2 * INIT_STD, 2 * INIT_STD))

    def linear(self, name: str, c_in: int, c_out: int, bias: bool = True) -> LinearP:
        w = self.weight(f"{name}.weight", (c_in, c_out))
        b = self._register(f"{name}.bias", np.zeros(c_out)) if bias else None
        return LinearP(w, b)

    def norm(self, name: str, c: int) -> NormP:
        return NormP(self._register(f"{name}.gamma", np.ones(c)),
                     self._register(f"{name}.beta", np.zeros(c)))

    def table(self, name: str, window: int, heads: int) -> Tensor:
        return self.weight(name, ((2 * window - 1) ** 2, heads))

    def block(self, name: str, c: int, heads: int, window: int, ratio: int,
              shared: str | None = None, owner: bool = False) -> BlockP:
        """A full block, or with ``shared`` set a block whose attention map
        comes from the ``SharedP`` bundle at that prefix: the block leaves q,
        k and table None, and the ``owner`` registers the bundle unstacked
        in the slots where a full block draws its own."""

        def attn(make, part: str, *shape):
            if shared is None:
                return make(f"{name}.{part}", *shape)
            if owner:
                with self.unstacked():
                    return make(f"{shared}.{part}", *shape)
            return None

        ln1 = self.norm(f"{name}.ln1", c)
        q, k = attn(self.linear, "q", c, c), attn(self.linear, "k", c, c)
        v, out = self.linear(f"{name}.v", c, c), self.linear(f"{name}.out", c, c)
        table = attn(self.table, "bias_table", window, heads)
        if shared is not None:
            if owner:
                self.shared[shared] = SharedP(q, k, table)
            q = k = table = None
        return BlockP(ln1, q, k, v, out, table,
                      ln2=self.norm(f"{name}.ln2", c),
                      fc1=self.linear(f"{name}.fc1", c, ratio * c),
                      fc2=self.linear(f"{name}.fc2", ratio * c, c))


def init_params(cfg: ArchConfig, seed: int = 0, dtype=np.float64) -> Model:
    """Build all parameters for ``cfg``; same seed and dtype gives bitwise
    identical tensors.  Instantiated sizes always match count_parameters."""
    return _build(cfg, _Builder(np.random.default_rng(seed), dtype))


def empty_params(cfg: ArchConfig, dtype=np.float64) -> Model:
    """The names, order and shapes of ``init_params(cfg)`` without drawing
    any random number: weights are zero.  For loaders that overwrite every
    tensor."""
    return _build(cfg, _Builder(None, dtype))


def _build(cfg: ArchConfig, b: _Builder) -> Model:
    require_valid(cfg)
    enc_ch = stage_channels(cfg)

    embed = b.linear("patch_embed", 3 * PATCH ** 2, cfg.base_channels)
    stages, merges = [], []
    for s in range(4):
        stages.append([
            b.block(f"encoder.s{s}.b{d}", enc_ch[s], cfg.encoder_heads[s],
                    cfg.window, cfg.mlp_ratio)
            for d in range(cfg.stage_depths[s])
        ])
        if s < 3:
            merges.append(MergeP(
                norm=b.norm(f"encoder.merge{s}.ln", 4 * enc_ch[s]),
                w=b.weight(f"encoder.merge{s}.weight", (4 * enc_ch[s], 2 * enc_ch[s]))))
    encoder = EncoderParams(embed, stages, merges)

    # random draws keep the per-task order (task outer), each into its slice
    dec_ch = decoder_channels(cfg)
    ratio = cfg.decoder_mlp_ratio
    for k, t in enumerate(cfg.tasks):
        b.slot = (k, len(cfg.tasks))
        init = b.linear("decoder.init", dec_ch[0], dec_ch[0])
        dec_stages = []
        for i in range(4):
            ci = dec_ch[i]
            base = f"decoder.s{i}"
            fuse = b.linear(f"{base}.fuse", ci, ci)
            block1 = b.block(f"{base}.b1", ci, cfg.decoder_heads[i], cfg.window, ratio)
            block2 = b.block(f"{base}.b2", ci, cfg.decoder_heads[i], cfg.window, ratio,
                             shared=f"{base}.shared" if cfg.shared_attention else None,
                             owner=t == cfg.reference_task)
            expand = b.weight(f"decoder.expand{i}.weight", (ci, 2 * ci)) if i < 3 else None
            dec_stages.append(StageP(fuse, block1, block2, None, expand))
        if k == 0:
            decoder = DecoderParams(init, dec_stages)
    b.slot = None
    for i, stage in enumerate(decoder.stages):
        stage.shared = b.shared.get(f"decoder.s{i}.shared")

    heads = {}
    c = cfg.base_channels
    for t in cfg.tasks:
        heads[t] = HeadP(
            expand1=b.weight(f"head.{t}.expand1.weight", (c, 2 * c)),
            expand2=b.weight(f"head.{t}.expand2.weight", (c // 2, c)),
            out=b.linear(f"head.{t}.out", c // 4, task_channels(t)))
    if "N" in cfg.tasks:
        # start the normals stream at a fixed, slightly tilted unit normal.
        # Unit normalization divides by the output norm, and the stacked
        # small-std head projections leave that norm near zero otherwise,
        # making the early gradients arbitrarily steep; the tilt keeps the
        # start from tying exactly with the upright background normal, an
        # L1 subgradient degeneracy
        heads["N"].out.b.data[:] = (0.06, 0.08, 1.0)

    model = Model(cfg, b.flat, encoder, decoder, heads, frozenset(b.stacked))
    expected = count_parameters(cfg).total
    actual = model.parameter_count()
    if actual != expected:
        raise ConfigurationError(f"built {actual} parameters, accounting says {expected}")
    return model


def forward(model: Model, img: Tensor) -> dict:
    """Image [H, W, 3] to per-task predictions [H, W, task_channels]."""
    pyramid = encode(img, model.cfg, model.encoder)
    streams = decode(pyramid, model.cfg, model.decoder)
    return {t: task_head(take_rows(streams, k), t, model.cfg, model.heads[t])
            for k, t in enumerate(model.cfg.tasks)}
