"""Encoder: patch embedding, merging, stage alternation, and the pyramid."""

import numpy as np
import pytest

from mtformer import config
from mtformer.encoder import (block_shift_flags, encode, patch_embed,
                              patch_merge)
from mtformer.errors import DimensionError
from mtformer.model import init_params
from mtformer.tensor import Tape, Tensor, grad_check, mean, mul

RNG = np.random.default_rng(2024)


def _linear(name, c_in, c_out, rng):
    """Flat parameters of one projection ``name``."""
    return {f"{name}.weight": Tensor(rng.standard_normal((c_in, c_out)), requires_grad=True),
            f"{name}.bias": Tensor(rng.standard_normal(c_out), requires_grad=True)}


def _norm(name, gamma, beta):
    return {f"{name}.gamma": Tensor(gamma, requires_grad=True),
            f"{name}.beta": Tensor(beta, requires_grad=True)}


def _merge(gamma, beta, w):
    """Flat parameters of one patch merge ``m``."""
    return {**_norm("m.ln", gamma, beta), "m.weight": Tensor(w, requires_grad=True)}


def test_patch_embed_token_layout():
    # patch (i, j) becomes token i * (W/p) + j; pixels flatten row major with
    # the channel fastest
    h = w = 6
    p = 2
    img = RNG.uniform(-1, 1, (h, w, 3))
    proj = _linear("e", p * p * 3, 5, RNG)
    out = patch_embed(Tensor(img), proj, "e", p).data
    assert out.shape == (9, 5)
    for pi in range(h // p):
        for pj in range(w // p):
            flat = img[pi * p:(pi + 1) * p, pj * p:(pj + 1) * p, :].reshape(-1)
            want = flat @ proj["e.weight"].data + proj["e.bias"].data
            np.testing.assert_allclose(out[pi * (w // p) + pj], want, rtol=1e-12)


def test_patch_embed_rejects_bad_images():
    proj = _linear("e", 12, 4, RNG)
    with pytest.raises(DimensionError):
        patch_embed(Tensor(np.zeros((8, 8))), proj, "e", 2)
    with pytest.raises(DimensionError):
        patch_embed(Tensor(np.zeros((8, 8, 4))), proj, "e", 2)
    with pytest.raises(DimensionError):
        patch_embed(Tensor(np.zeros((9, 8, 3))), proj, "e", 2)


def test_patch_merge_neighborhood_order():
    side, c = 4, 3
    x = RNG.uniform(-1, 1, (side * side, c))
    p = _merge(RNG.uniform(0.5, 1.5, 4 * c), RNG.uniform(-0.5, 0.5, 4 * c),
               RNG.standard_normal((4 * c, 2 * c)))
    got = patch_merge(Tensor(x), side, p, "m").data

    grid = x.reshape(side, side, c)
    for i in range(side // 2):
        for j in range(side // 2):
            cat = np.concatenate([grid[2 * i, 2 * j], grid[2 * i, 2 * j + 1],
                                  grid[2 * i + 1, 2 * j], grid[2 * i + 1, 2 * j + 1]])
            mu, var = cat.mean(), cat.var()
            normed = (cat - mu) / np.sqrt(var + 1e-5)
            want = (normed * p["m.ln.gamma"].data + p["m.ln.beta"].data) @ p["m.weight"].data
            np.testing.assert_allclose(got[i * (side // 2) + j], want, rtol=1e-9,
                                       atol=1e-12)


def test_patch_merge_rejects_odd_or_mismatched_grid():
    p = _merge(np.ones(8), np.zeros(8), np.zeros((8, 4)))
    with pytest.raises(DimensionError):
        patch_merge(Tensor(np.zeros((9, 2))), 3, p, "m")
    with pytest.raises(DimensionError):
        patch_merge(Tensor(np.zeros((8, 2))), 4, p, "m")


def test_shift_alternation_regular_first():
    assert block_shift_flags(1) == [False]
    assert block_shift_flags(2) == [False, True]
    assert block_shift_flags(5) == [False, True, False, True, False]


def test_pyramid_shapes_and_sides():
    cfg = config.preset("desk-nano")
    m = init_params(cfg, seed=3)
    img = Tensor(RNG.uniform(0, 1, (cfg.img_size, cfg.img_size, 3)))
    pyr = encode(img, cfg, m.flat)
    sides = config.stage_grids(cfg)
    assert type(pyr) is tuple and len(pyr) == 4 and sides == (32, 16, 8, 4)
    chans = config.stage_channels(cfg)
    for f, side, c in zip(pyr, sides, chans):
        assert f.shape == (side * side, c)


def test_encode_rejects_wrong_image_size():
    cfg = config.preset("desk-nano")
    m = init_params(cfg, seed=3)
    with pytest.raises(DimensionError):
        encode(Tensor(np.zeros((64, 64, 3))), cfg, m.flat)


def test_encode_deterministic_given_seed():
    cfg = config.preset("desk-nano")
    img = RNG.uniform(0, 1, (cfg.img_size, cfg.img_size, 3))
    outs = []
    for _ in range(2):
        m = init_params(cfg, seed=11)
        pyr = encode(Tensor(img.copy()), cfg, m.flat)
        outs.append([f.data.copy() for f in pyr])
    for a, b in zip(*outs):
        assert np.array_equal(a, b)


def test_patch_embed_and_merge_gradients():
    img = RNG.uniform(-1, 1, (4, 4, 3))
    proj = _linear("e", 12, 4, RNG)
    w_img = RNG.standard_normal((4, 4))

    def embed_loss(x):
        return mean(mul(patch_embed(x, proj, "e", 2), Tensor(w_img)))

    assert grad_check(embed_loss, Tensor(img.copy(), requires_grad=True)) < 1e-4
    assert grad_check(lambda _: embed_loss(Tensor(img)), proj["e.weight"]) < 1e-4

    p = _merge(RNG.uniform(0.5, 1.5, 8), np.zeros(8), RNG.standard_normal((8, 4)))
    x0 = RNG.uniform(-1, 1, (16, 2))
    w_m = RNG.standard_normal((4, 4))

    def merge_loss(x):
        return mean(mul(patch_merge(x, 4, p, "m"), Tensor(w_m)))

    assert grad_check(merge_loss, Tensor(x0.copy(), requires_grad=True)) < 1e-4
    for param in (p["m.ln.gamma"], p["m.weight"]):
        assert grad_check(lambda _: merge_loss(Tensor(x0)), param) < 1e-4


def test_full_block_gradients_through_shifted_windows():
    # pre-norm block on an 8x8 grid, window 4, shift 2: covers the LN + attn +
    # residual + MLP composition end to end
    from mtformer.layers import attention_block
    from mtformer.windowing import WindowGrid
    rng = np.random.default_rng(5)
    blk = {**_norm("b.ln1", rng.uniform(0.5, 1.5, 4), rng.uniform(-0.2, 0.2, 4)),
           **_linear("b.q", 4, 4, rng), **_linear("b.k", 4, 4, rng),
           **_linear("b.v", 4, 4, rng), **_linear("b.out", 4, 4, rng),
           "b.bias_table": Tensor(0.05 * rng.standard_normal((49, 2)), requires_grad=True),
           **_norm("b.ln2", rng.uniform(0.5, 1.5, 4), np.zeros(4)),
           **_linear("b.fc1", 4, 8, rng), **_linear("b.fc2", 8, 4, rng)}
    grid = WindowGrid(8, 8, 4, 2)
    x0 = RNG.uniform(-1, 1, (64, 4))
    w_out = RNG.standard_normal((64, 4))

    def loss(x):
        return mean(mul(attention_block(x, blk, "b", grid), Tensor(w_out)))

    assert grad_check(loss, Tensor(x0.copy(), requires_grad=True)) < 1e-4
    for name in ("b.q.weight", "b.bias_table", "b.fc2.bias", "b.ln1.gamma"):
        param = blk[name]
        assert grad_check(lambda _: loss(Tensor(x0)), param) < 1e-4


def test_zeroed_projections_make_block_identity():
    # both residual branches end in a projection; zeroing out and fc2 must
    # reduce the block to an exact identity map
    from mtformer.layers import attention_block
    from mtformer.windowing import WindowGrid
    rng = np.random.default_rng(11)
    blk = {**_norm("b.ln1", rng.uniform(0.5, 1.5, 4), rng.standard_normal(4)),
           **_linear("b.q", 4, 4, rng), **_linear("b.k", 4, 4, rng), **_linear("b.v", 4, 4, rng),
           "b.out.weight": Tensor(np.zeros((4, 4))), "b.out.bias": Tensor(np.zeros(4)),
           "b.bias_table": Tensor(rng.standard_normal((49, 2))),
           **_norm("b.ln2", rng.uniform(0.5, 1.5, 4), rng.standard_normal(4)),
           **_linear("b.fc1", 4, 8, rng),
           "b.fc2.weight": Tensor(np.zeros((8, 4))), "b.fc2.bias": Tensor(np.zeros(4))}
    x = RNG.uniform(-1, 1, (64, 4))
    for shift in (0, 2):
        y = attention_block(Tensor(x.copy()), blk, "b", WindowGrid(8, 8, 4, shift))
        assert np.array_equal(y.data, x)
