"""Acceptance gate: one test per shipped guarantee, one pass/fail line each.

1. whole-model gradient fidelity on desk-nano in 64-bit
2. window geometry invariants (roundtrip, shift mask, bias index)
3. shared-attention semantics (identical streams, hand oracle, grad flow)
4. parameter accounting (frozen closed-form totals, sharing monotonicity)
5. optimization pipeline (schedule pins, overfit run, determinism)
6. ablation protocol (full sweep structure, matched budgets, soft direction)
7. dataset integrity (roundtrip, edge/shading oracles, bitwise generation)

Each test prints a single summary line; details live in the asserts.
"""

import math
import time
from dataclasses import replace

import numpy as np

from mtformer.ablation import ablate, shared_comparison
from mtformer.config import TASKS, ArchConfig, count_parameters, preset
from mtformer.layers import attention_weights
from mtformer.losses import per_task_loss
from mtformer.model import forward, init_params
from mtformer.synthetic import (generate_sample, read_dataset, scene_light,
                                write_dataset)
from mtformer.tensor import (Tape, Tensor, add, matmul, mul, softmax_lastdim,
                             transpose, zero_grad)
from mtformer.training import RunOptions, check_model_gradients, lr_schedule, train
from mtformer.windowing import (MASK_VALUE, WindowGrid, cyclic_shift,
                                rel_pos_index, shift_mask, window_partition,
                                window_reverse)

from test_synthetic import _sobel_oracle


def _report(n: int, text: str) -> None:
    print(f"[criterion {n}] PASS: {text}", flush=True)


# ------------------------------------------------- 1. gradient fidelity

def test_criterion_1_gradient_fidelity_desk_nano():
    model = init_params(preset("desk-nano"), seed=0, dtype=np.float64)
    sample = generate_sample(0, 128)
    started = time.perf_counter()
    report = check_model_gradients(model, sample, samples_per_tensor=1, seed=0)
    elapsed = time.perf_counter() - started
    assert report["probes"] >= len(model.flat)
    # one probe per task slice of every stacked decoder tensor: as many as
    # the 914 separate tensors of the per-task layout
    assert report["probes"] >= 914
    assert report["max_rel_err"] <= 1e-3, report
    assert elapsed <= 300.0, f"gradient check took {elapsed:.0f}s"
    _report(1, f"max rel err {report['max_rel_err']:.2e} over "
               f"{report['probes']} probes (one per tensor or task slice) in {elapsed:.0f}s "
               f"(worst: {report['worst_tensor']})")


# ---------------------------------------------- 2. geometric invariants

def _mask_oracle(h: int, w: int, win: int, shift: int) -> np.ndarray:
    """First principles: a pair may attend iff the cyclic roll preserved
    their true relative offset, i.e. no wrap seam lies between them."""
    t = win * win
    allowed = np.zeros(((h // win) * (w // win), t, t), dtype=bool)
    for wy in range(h // win):
        for wx in range(w // win):
            widx = wy * (w // win) + wx
            for a in range(t):
                for b in range(t):
                    ya, xa = wy * win + a // win, wx * win + a % win
                    yb, xb = wy * win + b // win, wx * win + b % win
                    oya, oxa = (ya + shift) % h, (xa + shift) % w
                    oyb, oxb = (yb + shift) % h, (xb + shift) % w
                    allowed[widx, a, b] = (oya - oyb == ya - yb
                                           and oxa - oxb == xa - xb)
    return allowed


def test_criterion_2_window_geometry_invariants():
    rng = np.random.default_rng(0)

    x = Tensor(rng.normal(size=(8, 8, 5)))
    back = window_reverse(window_partition(x, 4), 8, 8)
    np.testing.assert_array_equal(back.data, x.data)

    grid = WindowGrid(4, 4, 2, 1)
    allowed = _mask_oracle(4, 4, 2, 1)
    mask = shift_mask(grid).data
    np.testing.assert_array_equal(mask == 0.0, allowed)
    assert np.all(mask[~allowed] <= -1e8)

    c, heads = 4, 2
    p = {name: Tensor(rng.normal(size=shape)) for name, shape in (
        ("a.q.weight", (c, c)), ("a.q.bias", c), ("a.k.weight", (c, c)), ("a.k.bias", c),
        ("a.bias_table", (9, heads)))}
    wins = window_partition(cyclic_shift(Tensor(rng.normal(size=(4, 4, c))), 1), grid.win)
    probs = attention_weights(wins, p, "a", grid).data
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=0, atol=1e-9)
    masked_pairs = np.broadcast_to(~allowed[:, None], probs.shape)
    assert probs[masked_pairs].max() <= 1e-6

    win = 3
    idx = np.asarray(rel_pos_index(win)).reshape(win * win, win * win)
    seen = {}
    for a in range(win * win):
        for b in range(win * win):
            disp = (a // win - b // win, a % win - b % win)
            seen.setdefault(disp, set()).add(int(idx[a, b]))
    assert all(len(v) == 1 for v in seen.values())
    assert len({next(iter(v)) for v in seen.values()}) == len(seen) == (2 * win - 1) ** 2
    assert idx.min() >= 0 and idx.max() < (2 * win - 1) ** 2

    _report(2, "partition roundtrip exact, shift mask matches seam oracle, "
               "rows sum to 1 within 1e-9, masked prob <= 1e-6, "
               "bias index is a bijection of displacements at window 3")


# ------------------------------------------ 3. shared-attention semantics

def _small_shared_cfg(tasks):
    return ArchConfig(img_size=64, base_channels=8,
                      stage_depths=(1, 1, 2, 1), heads=1, window=2,
                      tasks=tasks, reference_task=tasks[0],
                      mlp_ratio=2, shared_attention=True)


def test_criterion_3_shared_attention_semantics():
    # identical per-task parameters give identical task outputs: copy task
    # D's slice of every stacked decoder tensor, and its head, to K and E
    cfg = _small_shared_cfg(("D", "K", "E"))
    model = init_params(cfg, seed=0)
    for clone in ("K", "E"):
        k = cfg.tasks.index(clone)
        for name, p in model.flat.items():
            if name in model.stacked:
                p.data[k] = p.data[cfg.tasks.index("D")]
            elif name.startswith(f"head.{clone}."):
                p.data = model.flat[name.replace(f"head.{clone}.", "head.D.", 1)].data.copy()
    rng = np.random.default_rng(1)
    preds = forward(model, Tensor(rng.uniform(size=(64, 64, 3))))
    assert np.abs(preds["D"].data - preds["K"].data).max() <= 1e-12
    assert np.abs(preds["D"].data - preds["E"].data).max() <= 1e-12

    # two-token hand oracle of the sharing rule: one attention pattern from
    # the reference stream, reused by every task's value stream
    s = [0.3, -0.2]                       # reference feature, one channel
    wq, bq, wk, bk = 2.0, 0.1, 1.5, -0.05
    bias = [[0.0, 0.2], [-0.1, 0.3]]
    logits = [[(s[i] * wq + bq) * (s[j] * wk + bk) + bias[i][j]
               for j in range(2)] for i in range(2)]
    a_hand = [[math.exp(l - max(row)) for l in row] for row in logits]
    a_hand = [[v / sum(row) for v in row] for row in a_hand]
    streams = {"D": ([0.5, -0.4], 0.8, 0.0, 1.2, 0.05),
               "E": ([1.0, 0.25], -0.6, 0.2, 0.9, -0.3)}
    expected = {}
    for t, (x, wv, bv, wo, bo) in streams.items():
        v = [x[j] * wv + bv for j in range(2)]
        expected[t] = [x[i] + (sum(a_hand[i][j] * v[j] for j in range(2))) * wo + bo
                       for i in range(2)]

    st = Tensor(np.array(s).reshape(2, 1))
    q_col = add(mul(st, wq), bq)
    k_col = add(mul(st, wk), bk)
    logits_t = add(matmul(q_col, transpose(k_col, (1, 0))), Tensor(np.array(bias)))
    a_ops = softmax_lastdim(logits_t)  # head dim 1, so the 1/sqrt(d) scale is 1
    for t, (x, wv, bv, wo, bo) in streams.items():
        xt = Tensor(np.array(x).reshape(2, 1))
        vt = add(mul(xt, wv), bv)
        yt = add(xt, add(mul(matmul(a_ops, vt), wo), bo))
        assert np.abs(yt.data.reshape(-1) - np.array(expected[t])).max() <= 1e-12
    assert np.abs(a_ops.data - np.array(a_hand)).max() <= 1e-12

    # the reference projections learn from every single task's loss
    nano = preset("desk-nano")
    model = init_params(nano, seed=0)
    sample = generate_sample(3, 128)
    img = Tensor(np.asarray(sample.rgb, dtype=np.float64))
    for t in nano.tasks:
        zero_grad(model.flat.values())
        with Tape() as tape:
            tape.backward(per_task_loss(t, forward(model, img)[t], sample.target(t)))
        for i in range(4):
            for label in ("q.weight", "k.weight", "bias_table"):
                param = model.flat[f"decoder.s{i}.shared.{label}"]
                assert param.grad is not None and np.abs(param.grad).max() > 0, \
                    f"stage {i} shared {label} got no gradient from task {t}"
    zero_grad(model.flat.values())

    _report(3, "identical streams agree to 1e-12, two-token hand oracle "
               "matches to 1e-12, shared q/k/table receive gradient from "
               "all six task losses at every stage")


# ------------------------------------------------ 4. parameter accounting

def test_criterion_4_parameter_accounting():
    # frozen closed-form totals, derived by hand before the model existed
    nano = count_parameters(preset("desk-nano"))
    assert nano.total == 2_758_663
    off = count_parameters(replace(preset("desk-nano"), shared_attention=False))
    assert off.total == 2_982_338

    large = count_parameters(preset("mult-large"))
    rel = abs(large.total - 545_000_000) / 545_000_000
    assert rel <= 0.20, f"mult-large total {large.total} is {rel:.1%} from 545M"

    for tasks in (("S", "D"), ("D", "N", "R"), TASKS):
        on = count_parameters(replace(preset("desk-nano"), tasks=tasks,
                                      reference_task=tasks[0]))
        off = count_parameters(replace(preset("desk-nano"), tasks=tasks,
                                       reference_task=tasks[0],
                                       shared_attention=False))
        assert on.total < off.total

    _report(4, f"desk-nano {nano.total:,} matches the hand total exactly, "
               f"mult-large {large.total:,} is {rel:.1%} from 545M, "
               "sharing is strictly lighter for every multi-task subset")


# ----------------------------------------------- 5. optimization pipeline

OVERFIT_OPTIONS = RunOptions(steps=240, batch_size=2, seed=0, peak_lr=1e-3,
                             warmup_steps=20, weight_decay=0.0)


def test_criterion_5_optimization_pipeline():
    paper = RunOptions(steps=40_000, peak_lr=5e-5, warmup_steps=2000, floor_lr=0.0)
    assert abs(lr_schedule(2000, paper) - 5e-5) <= 1e-12 * 5e-5
    assert lr_schedule(40_000, paper) == 0.0
    floored = RunOptions(steps=100, peak_lr=5e-5, warmup_steps=10, floor_lr=1e-6)
    assert abs(lr_schedule(100, floored) - 1e-6) <= 1e-12 * 1e-6

    nano = preset("desk-nano")
    data = [generate_sample(s, 128) for s in range(8)]
    started = time.perf_counter()
    result = train(nano, data, OVERFIT_OPTIONS)
    elapsed = time.perf_counter() - started
    steps = [r for r in result.metrics if "total" in r]
    first, best = steps[0]["total"], min(r["total"] for r in steps)
    assert len(steps) <= 500
    assert best <= 0.5 * first, f"loss only fell {first:.4f} -> {best:.4f}"
    assert elapsed <= 600.0, f"overfit run took {elapsed:.0f}s"

    short = RunOptions(steps=5, batch_size=2, seed=11, peak_lr=1e-3, warmup_steps=2)
    a = train(nano, data, short)
    b = train(nano, data, short)
    for ra, rb in zip(a.metrics[:-1], b.metrics[:-1]):
        assert abs(ra["total"] - rb["total"]) <= 1e-6
        assert ra["total"] == rb["total"]

    _report(5, f"schedule pins hold to 1e-12, 8-sample overfit fell "
               f"{first:.3f} -> {best:.3f} ({1 - best / first:.0%}) in "
               f"{len(steps)} steps / {elapsed:.0f}s, same-seed runs bitwise equal")


# -------------------------------------------------- 6. ablation protocol

def test_criterion_6_ablation_protocol():
    cfg = ArchConfig(img_size=32, base_channels=8,
                     stage_depths=(1, 1, 1, 1), heads=1, window=1,
                     tasks=TASKS, reference_task="N",
                     mlp_ratio=2)
    data = [generate_sample(s, 32) for s in range(4)]
    options = RunOptions(steps=30, batch_size=2, seed=0, peak_lr=2e-3,
                         warmup_steps=5)
    rows = ablate(cfg, data, options)

    cells = {(r.tasks, r.shared_attention) for r in rows}
    wanted = {((t,), f) for t in TASKS for f in (True, False)}
    wanted |= {(TASKS, True), (TASKS, False)}
    assert cells == wanted and len(rows) == 14
    assert len({r.budget_hash for r in rows}) == 1
    for row in rows:
        assert tuple(row.losses) == TASKS and tuple(row.relative) == TASKS
        for t in TASKS:
            assert (row.losses[t] is None) == (t not in row.tasks)
            assert (row.relative[t] is None) == (t not in row.tasks)
        if len(row.tasks) == 1:
            assert row.relative[row.tasks[0]] == 0.0

    direction = shared_comparison(rows)
    assert direction["tasks"] == TASKS
    verdict = "matches" if direction["better_or_equal"] >= 3 else "does not match"
    _report(6, f"14-cell sweep complete, six-column rows, one budget hash; "
               f"soft non-gating direction check: sharing helped or tied on "
               f"{direction['better_or_equal']}/6 tasks ({verdict} the expected "
               f"direction at this scale)")


# --------------------------------------------------- 7. dataset integrity

def test_criterion_7_dataset_integrity(tmp_path):
    seeds = (0, 7, 123)
    samples = [generate_sample(s, 32) for s in seeds]
    path = tmp_path / "acceptance.mtds"
    write_dataset(samples, path, seeds=seeds)
    back = read_dataset(path)
    assert len(back) == len(samples)
    for orig, loaded in zip(samples, back):
        for field_name in ("rgb", "S", "D", "N", "K", "E", "R"):
            np.testing.assert_array_equal(getattr(orig, field_name),
                                          getattr(loaded, field_name))

    for seed, loaded in zip(seeds, back):
        gray = (0.299 * loaded.rgb[..., 0] + 0.587 * loaded.rgb[..., 1]
                + 0.114 * loaded.rgb[..., 2])
        assert np.abs(loaded.E - _sobel_oracle(gray)).max() <= 1e-6
        light = scene_light(seed)
        relit = np.maximum(loaded.N.astype(np.float64) @ light, 0.0)
        assert np.abs(loaded.R - relit.astype(np.float32)).max() <= 1e-6

    for seed in seeds:
        a, b = generate_sample(seed, 32), generate_sample(seed, 32)
        for field_name in ("rgb", "S", "D", "N", "K", "E", "R"):
            np.testing.assert_array_equal(getattr(a, field_name),
                                          getattr(b, field_name))

    _report(7, "write/read roundtrip exact, stored edges match the Sobel "
               "oracle and shading matches the Lambertian recomputation to "
               "1e-6, same-seed generation is bitwise reproducible")
