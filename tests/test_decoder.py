"""Decoders: patch expansion, the shared cross-task attention, task heads."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mtformer import config
from mtformer.decoder import decode, patch_expand, shared_attention, task_head
from mtformer.encoder import encode
from mtformer.errors import DimensionError
from mtformer.model import forward, init_params
from mtformer.synthetic import NUM_CLASSES
from mtformer.tensor import Tape, Tensor, grad_check, mean, mul, take_rows
from mtformer.windowing import WindowGrid

RNG = np.random.default_rng(77)


def _linear(name, c_in, c_out, rng, scale=1.0):
    """Flat parameters of one projection ``name``."""
    return {f"{name}.weight": Tensor(scale * rng.standard_normal((c_in, c_out)),
                                     requires_grad=True),
            f"{name}.bias": Tensor(0.1 * rng.standard_normal(c_out), requires_grad=True)}


def _small_cfg(**over):
    base = dict(img_size=64, base_channels=8,
                stage_depths=(1, 1, 2, 1), heads=1, window=2,
                tasks=("S", "D", "N"), reference_task="N")
    base.update(over)
    return config.ArchConfig(**base)


# ---------------------------------------------------------------- expansion

def test_patch_expand_block_layout():
    # token (i, j) spreads its projected 2C channels over the 2x2 output
    # block row major, chunk 2r + c of width C/2 landing at (2i+r, 2j+c)
    side, c = 3, 4
    x = RNG.uniform(-1, 1, (side * side, c))
    w = RNG.standard_normal((c, 2 * c))
    out = patch_expand(Tensor(x), side, Tensor(w)).data
    assert out.shape == (4 * side * side, c // 2)

    t = x @ w
    half = c // 2
    for i in range(side):
        for j in range(side):
            for r in range(2):
                for col in range(2):
                    chunk = t[i * side + j, (2 * r + col) * half:(2 * r + col + 1) * half]
                    row = (2 * i + r) * (2 * side) + (2 * j + col)
                    np.testing.assert_allclose(out[row], chunk, rtol=1e-12)


def test_patch_expand_inverts_merge_layout():
    # regrouping each output 2x2 neighborhood in merge order (0,0),(0,1),
    # (1,0),(1,1) recovers the projected rows exactly
    side, c = 4, 6
    x = RNG.uniform(-1, 1, (side * side, c))
    w = RNG.standard_normal((c, 2 * c))
    out = patch_expand(Tensor(x), side, Tensor(w)).data
    grid = out.reshape(2 * side, 2 * side, c // 2)
    regrouped = np.concatenate([
        grid[0::2, 0::2], grid[0::2, 1::2], grid[1::2, 0::2], grid[1::2, 1::2],
    ], axis=-1).reshape(side * side, 2 * c)
    np.testing.assert_allclose(regrouped, x @ w, rtol=1e-12)


def test_patch_expand_rejects_mismatches():
    with pytest.raises(DimensionError):
        patch_expand(Tensor(np.zeros((5, 4))), 2, Tensor(np.zeros((4, 8))))
    with pytest.raises(DimensionError):
        patch_expand(Tensor(np.zeros((4, 4))), 2, Tensor(np.zeros((4, 6))))


def test_patch_expand_gradients():
    x0 = RNG.uniform(-1, 1, (4, 4))
    w0 = RNG.standard_normal((4, 8))
    coef = RNG.standard_normal((16, 2))

    def loss(x):
        return mean(mul(patch_expand(x, 2, Tensor(w0)), Tensor(coef)))

    assert grad_check(loss, Tensor(x0.copy(), requires_grad=True)) < 1e-6


# ------------------------------------------------------- shared attention op

def _stacked_linear(name, k, c_in, c_out, rng):
    """One [c_in, c_out] projection per stream: weights [K, c_in, c_out],
    biases [K, 1, c_out]."""
    return {f"{name}.weight": Tensor(rng.standard_normal((k, c_in, c_out)), requires_grad=True),
            f"{name}.bias": Tensor(0.1 * rng.standard_normal((k, 1, c_out)), requires_grad=True)}


def _stacked_norm(name, k, c, rng):
    return {f"{name}.gamma": Tensor(rng.uniform(0.5, 1.5, (k, 1, c)), requires_grad=True),
            f"{name}.beta": Tensor(0.1 * rng.standard_normal((k, 1, c)), requires_grad=True)}


def _block2(k, c, rng):
    """Stage ``st``'s shared-attention block: no q/k or bias table of its own."""
    return {**_stacked_norm("st.b2.ln1", k, c, rng), **_stacked_linear("st.b2.v", k, c, c, rng),
            **_stacked_linear("st.b2.out", k, c, c, rng), **_stacked_norm("st.b2.ln2", k, c, rng),
            **_stacked_linear("st.b2.fc1", k, c, 2 * c, rng),
            **_stacked_linear("st.b2.fc2", k, 2 * c, c, rng)}


def _shared_p(c, heads, win, rng, scale=1.0):
    """Stage ``st``'s shared q/k projections and bias table."""
    return {**_linear("st.shared.q", c, c, rng, scale), **_linear("st.shared.k", c, c, rng, scale),
            "st.shared.bias_table": Tensor(0.3 * rng.standard_normal(((2 * win - 1) ** 2, heads)),
                                           requires_grad=True)}


def _rel_bias_oracle(table, win):
    t = win * win
    coords = [(i, j) for i in range(win) for j in range(win)]
    bias = np.zeros((table.shape[1], t, t))
    for a, (yi, xi) in enumerate(coords):
        for b, (yj, xj) in enumerate(coords):
            idx = (yi - yj + win - 1) * (2 * win - 1) + (xi - xj + win - 1)
            bias[:, a, b] = table[idx]
    return bias


def _lin(x, p, name, k=None):
    w, b = p[f"{name}.weight"].data, p[f"{name}.bias"].data
    return x @ w + b if k is None else x @ w[k] + b[k]


def _ln(x, p, name, k):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * p[f"{name}.gamma"].data[k] + p[f"{name}.beta"].data[k]


_erf = np.vectorize(math.erf, otypes=[float])


def _mlp(x, p, k):
    h = _lin(x, p, "st.b2.fc1", k)
    return _lin(h * 0.5 * (1.0 + _erf(h / math.sqrt(2.0))), p, "st.b2.fc2", k)


def _shared_oracle(x_sa, xs, p, att=None, win=None):
    """Single-window numpy recomputation, one head: A from the skip, then
    per stream y = x + Out(A V(LN x)), y + MLP(LN y)."""
    if att is None:
        q, k = _lin(x_sa, p, "st.shared.q"), _lin(x_sa, p, "st.shared.k")
        table = p["st.shared.bias_table"].data
        logits = q @ k.T / math.sqrt(q.shape[-1]) + _rel_bias_oracle(table, win)[0]
        e = np.exp(logits - logits.max(-1, keepdims=True))
        att = e / e.sum(-1, keepdims=True)
    out = []
    for s, x in enumerate(xs):
        y = x + _lin(att @ _lin(_ln(x, p, "st.b2.ln1", s), p, "st.b2.v", s), p, "st.b2.out", s)
        out.append(y + _mlp(_ln(y, p, "st.b2.ln2", s), p, s))
    return np.stack(out)


def test_shared_attention_matches_hand_computation():
    # 2x2 grid, window 2, one head: the whole grid is a single window, so the
    # oracle is a direct softmax(q k^T / sqrt(2) + bias), reused by both streams
    c = 2
    grid = WindowGrid(2, 2, 2, 0)
    p = {**_shared_p(c, 1, 2, RNG), **_block2(2, c, RNG)}
    x_sa = RNG.uniform(-1, 1, (4, c))
    xs = RNG.uniform(-1, 1, (2, 4, c))

    got = shared_attention(Tensor(xs), Tensor(x_sa), p, "st", grid)
    want = _shared_oracle(x_sa, xs, p, win=2)
    np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)


def test_shared_attention_single_token_windows():
    # window 1 collapses attention to the identity map over values:
    # y = x + Out(V(LN x)) (then the MLP) exactly, independent of q, k, and
    # the bias table
    c = 3
    grid = WindowGrid(2, 2, 1, 0)
    p = {**_shared_p(c, 1, 1, RNG), **_block2(1, c, RNG)}
    x_sa = RNG.uniform(-1, 1, (4, c))
    x = RNG.uniform(-1, 1, (1, 4, c))
    got = shared_attention(Tensor(x), Tensor(x_sa), p, "st", grid)
    want = _shared_oracle(None, x, p, att=np.eye(4))
    np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)


def test_shared_attention_identical_tasks_stay_identical():
    c = 4
    grid = WindowGrid(4, 4, 2, 0)
    shared, blk = _shared_p(c, 2, 2, RNG), _block2(2, c, RNG)
    for t in blk.values():  # stream 1 gets stream 0's parameters
        t.data[1] = t.data[0]
    x_sa = RNG.uniform(-1, 1, (16, c))
    x = RNG.uniform(-1, 1, (16, c))
    got = shared_attention(Tensor(np.stack([x, x])), Tensor(x_sa), {**shared, **blk}, "st", grid)
    assert np.max(np.abs(got.data[0] - got.data[1])) <= 1e-12


def test_shared_attention_gradients_flow_to_reference_projections():
    # a loss on any single stream must reach the shared q/k and bias table;
    # 4x4 grid so shifted windows keep unmasked cross-token pairs
    c = 2
    grid = WindowGrid(4, 4, 2, 1)
    for probe in (0, 1):
        shared, blk = _shared_p(c, 1, 2, RNG), _block2(2, c, RNG)
        x_sa = Tensor(RNG.uniform(-1, 1, (16, c)))
        xs = Tensor(RNG.uniform(-1, 1, (2, 16, c)))
        with Tape() as tape:
            y = shared_attention(xs, x_sa, {**shared, **blk}, "st", grid)
            tape.backward(mean(take_rows(y, probe)))
        for name in ("st.shared.q.weight", "st.shared.k.weight", "st.shared.bias_table"):
            param = shared[name]
            assert param.grad is not None and np.abs(param.grad).max() > 0
        other = 1 - probe
        v = blk["st.b2.v.weight"]
        assert np.abs(v.grad[probe]).max() > 0
        assert not v.grad[other].any(), "other stream's values must stay untouched"


def test_shared_attention_op_gradient_check():
    # four channels: over two, LN maps every token to +-gamma + beta, so the
    # values of a window nearly coincide and the skip's gradient entries fall
    # to ~1e-8, where central differences are noise
    c = 4
    grid = WindowGrid(4, 4, 2, 1)
    p = {**_shared_p(c, 1, 2, RNG, 0.5), **_block2(2, c, RNG)}
    sa0 = RNG.uniform(-1, 1, (16, c))
    xs0 = RNG.uniform(-1, 1, (2, 16, c))
    coef = RNG.standard_normal((2, 16, c))

    def loss_from_sa(x_sa):
        ys = shared_attention(Tensor(xs0), x_sa, p, "st", grid)
        return mean(mul(ys, Tensor(coef)))

    assert grad_check(loss_from_sa, Tensor(sa0.copy(), requires_grad=True)) < 1e-5
    for name in ("st.shared.q.weight", "st.shared.bias_table", "st.b2.v.weight",
                 "st.b2.out.bias", "st.b2.ln1.gamma"):
        assert grad_check(lambda _: loss_from_sa(Tensor(sa0)), p[name]) < 1e-5


# ------------------------------------------------------------- full decoder

def test_decode_produces_full_width_token_maps():
    cfg = _small_cfg()
    m = init_params(cfg, seed=9)
    img = Tensor(RNG.uniform(0, 1, (64, 64, 3)))
    pyr = encode(img, cfg, m.flat)
    ys = decode(pyr, cfg, m.flat)
    assert ys.shape == (len(cfg.tasks), 16 * 16, cfg.base_channels)


def test_decode_rejects_malformed_pyramid():
    cfg = _small_cfg()
    m = init_params(cfg, seed=9)
    img = Tensor(RNG.uniform(0, 1, (64, 64, 3)))
    pyr = encode(img, cfg, m.flat)
    with pytest.raises(DimensionError):
        decode(pyr[:3] + (Tensor(np.zeros((9, 64))),), cfg, m.flat)
    with pytest.raises(DimensionError):
        decode(pyr[:3], cfg, m.flat)


def test_reference_projections_learn_from_every_task_loss():
    # desk-nano geometry: even the deepest 4x4 stage keeps unmasked pairs
    # inside shifted windows, so shared q/k see gradient from everywhere
    cfg = replace(config.preset("desk-nano"), tasks=("S", "D", "N"))
    img = Tensor(RNG.uniform(0, 1, (cfg.img_size, cfg.img_size, 3)))
    for probed in cfg.tasks:
        m = init_params(cfg, seed=9)
        with Tape() as tape:
            preds = forward(m, img)
            tape.backward(mean(preds[probed]))
        for stage in range(4):
            for part in ("q.weight", "k.weight", "bias_table"):
                param = m.flat[f"decoder.s{stage}.shared.{part}"]
                assert param.grad is not None and np.abs(param.grad).max() > 0, (
                    f"stage {stage} shared projections untouched by task {probed}")


def test_independent_mode_has_no_cross_parameters():
    cfg = _small_cfg(shared_attention=False)
    m = init_params(cfg, seed=9)
    assert not any(".shared." in name for name in m.flat)
    # every task owns a full second block: one q slice per task
    q = m.flat["decoder.s0.b2.q.weight"]
    assert "decoder.s0.b2.q.weight" in m.stacked
    assert q.shape == (len(cfg.tasks), 8 * cfg.base_channels, 8 * cfg.base_channels)


def test_shared_mode_stores_qk_only_under_reference():
    # one unstacked q/k/table bundle per stage; no task slice holds a q
    cfg = _small_cfg()
    m = init_params(cfg, seed=9)
    c0 = 8 * cfg.base_channels
    assert "decoder.s0.b2.q.weight" not in m.flat
    assert m.flat["decoder.s0.shared.q.weight"].shape == (c0, c0)
    assert m.flat["decoder.s0.shared.bias_table"].shape == ((2 * cfg.window - 1) ** 2,
                                                           config.stage_heads(cfg)[-1])
    assert not any(".shared." in name for name in m.stacked)
    k = len(cfg.tasks)
    assert m.flat["decoder.s0.b1.q.weight"].shape == (k, c0, c0)
    assert m.flat["decoder.s0.b1.q.bias"].shape == (k, 1, c0)
    assert m.flat["decoder.s0.b2.ln1.gamma"].shape == (k, 1, c0)
    assert m.flat["decoder.s0.b1.bias_table"].shape == (k, (2 * cfg.window - 1) ** 2,
                                                        config.stage_heads(cfg)[-1])
    assert m.flat["decoder.expand0.weight"].shape == (k, c0, 2 * c0)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
def test_task_slice_matches_single_task_model(shared):
    # isolation oracle: task t's slice of a six-task model predicts what a
    # one-task model holding that slice (and the shared q/k/table) predicts
    six = replace(config.preset("desk-nano"), shared_attention=shared)
    m6 = init_params(six, seed=3)
    img = Tensor(RNG.uniform(0, 1, (six.img_size, six.img_size, 3)))
    preds6 = forward(m6, img)
    for k, t in enumerate(six.tasks):
        m1 = init_params(replace(six, tasks=(t,), reference_task=t), seed=11)
        for name, p in m1.flat.items():
            p.data = (m6.flat[name].data[k:k + 1] if name in m1.stacked
                      else m6.flat[name].data).copy()
        got = forward(m1, img)[t].data
        assert np.abs(got - preds6[t].data).max() <= 1e-12, t


# ------------------------------------------------------------------- heads

def test_task_head_shapes_and_activations():
    cfg = _small_cfg(tasks=("S", "D", "N", "K", "E", "R"))
    m = init_params(cfg, seed=1)
    side = cfg.img_size // config.PATCH
    y = Tensor(RNG.uniform(-1, 1, (side * side, cfg.base_channels)))

    s = task_head(y, "S", cfg, m.flat).data
    assert s.shape == (64, 64, NUM_CLASSES)
    np.testing.assert_allclose(s.sum(-1), 1.0, atol=1e-9)
    assert (s > 0).all()

    n = task_head(y, "N", cfg, m.flat).data
    assert n.shape == (64, 64, 3)
    np.testing.assert_allclose((n ** 2).sum(-1), 1.0, atol=1e-9)

    for t in ("D", "K", "E", "R"):
        v = task_head(y, t, cfg, m.flat).data
        assert v.shape == (64, 64, 1)
        assert (v > 0).all() and (v < 1).all()
