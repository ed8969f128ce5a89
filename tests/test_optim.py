"""Optimizer update math and the schedule's pinned values."""

import numpy as np
import pytest

from mtformer.errors import ConfigurationError, NumericsError
from mtformer.optim import CHUNK, WEIGHT_DECAY, OptimState, adamw_step
from mtformer.training import RunOptions, lr_schedule
from mtformer.tensor import Tensor


def _params(**arrs):
    return {k: Tensor(np.asarray(v, dtype=np.float64), requires_grad=True)
            for k, v in arrs.items()}


def test_zero_grad_zero_wd_is_identity():
    p = _params(w=[1.0, -2.0, 3.0])
    before = p["w"].data.copy()
    state = OptimState(weight_decay=0.0)
    adamw_step(p, {"w": np.zeros(3)}, state, lr=0.1)
    assert np.array_equal(p["w"].data, before)


def test_run_and_fresh_state_share_the_weight_decay_default():
    assert RunOptions().weight_decay == OptimState().weight_decay == WEIGHT_DECAY == 0.05


def test_zero_grad_decay_shrinks_exactly():
    p = _params(w=[1.0, -2.0, 4.0])
    before = p["w"].data.copy()
    state = OptimState(weight_decay=0.05)
    adamw_step(p, {"w": np.zeros(3)}, state, lr=0.1)
    np.testing.assert_allclose(p["w"].data, before * (1 - 0.1 * 0.05), rtol=0, atol=0)


def test_first_step_unit_gradient_pinned():
    # m_hat = v_hat = 1 on the first step, so theta moves by lr/(1+eps)
    p = _params(w=[0.7])
    state = OptimState(weight_decay=0.0)
    adamw_step(p, {"w": np.ones(1)}, state, lr=0.01)
    want = 0.7 - 0.01 / (1.0 + 1e-8)
    assert abs(p["w"].data[0] - want) < 1e-15


def test_sign_flip_symmetry_without_decay():
    rng = np.random.default_rng(3)
    w0 = rng.standard_normal(5)
    grads = [rng.standard_normal(5) for _ in range(4)]

    pos = _params(w=w0.copy())
    neg = _params(w=-w0.copy())
    sp, sn = OptimState(weight_decay=0.0), OptimState(weight_decay=0.0)
    for g in grads:
        adamw_step(pos, {"w": g}, sp, lr=0.02)
        adamw_step(neg, {"w": -g}, sn, lr=0.02)
    np.testing.assert_allclose(neg["w"].data, -pos["w"].data, atol=1e-15)


def test_moments_track_shapes_and_step():
    p = _params(a=np.zeros((2, 3)), b=np.zeros(4))
    state = OptimState()
    grads = {"a": np.ones((2, 3)), "b": np.ones(4)}
    adamw_step(p, grads, state, lr=0.0)
    adamw_step(p, grads, state, lr=0.0)
    assert state.step == 2
    assert state.m["a"].shape == (2, 3) and state.v["b"].shape == (4,)


def test_nonfinite_gradient_names_parameter():
    p = _params(fine=[1.0], broken=[1.0])
    grads = {"fine": np.ones(1), "broken": np.array([np.nan])}
    with pytest.raises(NumericsError, match="broken"):
        adamw_step(p, grads, OptimState(), lr=0.1)
    with pytest.raises(ConfigurationError):
        adamw_step(p, {"fine": np.ones(1), "broken": np.ones(1)}, OptimState(), lr=-1.0)


def test_nonfinite_gradient_changes_nothing():
    # the bad tensor comes second: the first must not have been updated yet
    p = _params(fine=[1.0, 2.0], broken=[1.0])
    state = OptimState()
    adamw_step(p, {"fine": np.ones(2), "broken": np.ones(1)}, state, lr=0.1)
    before = [x.copy() for x in (p["fine"].data, p["broken"].data, *state.m.values(), *state.v.values())]
    with pytest.raises(NumericsError, match="broken at optimizer step 2"):
        adamw_step(p, {"fine": np.ones(2), "broken": np.array([np.inf])}, state, lr=0.1)
    after = (p["fine"].data, p["broken"].data, *state.m.values(), *state.v.values())
    assert state.step == 1
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_adam_converges_on_quadratic():
    p = _params(w=[5.0])
    state = OptimState(weight_decay=0.0)
    for _ in range(400):
        g = 2.0 * p["w"].data  # d/dw of w^2
        adamw_step(p, {"w": g}, state, lr=0.05)
    assert abs(p["w"].data[0]) < 1e-2


def test_schedule_paper_settings_pinned():
    opts = RunOptions(steps=40000, peak_lr=5e-5, warmup_steps=2000)
    assert abs(lr_schedule(2000, opts) - 5e-5) <= 1e-12 * 5e-5
    assert lr_schedule(40000, opts) == 0.0
    floored = RunOptions(steps=1000, peak_lr=1e-3, warmup_steps=100, floor_lr=1e-5)
    assert abs(lr_schedule(1000, floored) - 1e-5) <= 1e-12 * 1e-5


def test_schedule_shape():
    opts = RunOptions(steps=100, peak_lr=1e-3, warmup_steps=10)
    assert lr_schedule(0, opts) == 0.0
    assert abs(lr_schedule(5, opts) - 5e-4) < 1e-18
    # continuous at the warmup boundary
    assert abs(lr_schedule(10, opts) - 1e-3) < 1e-18
    # halfway through the cosine phase sits at the midpoint
    assert abs(lr_schedule(55, opts) - 5e-4) < 1e-12
    vals = [lr_schedule(s, opts) for s in range(10, 101)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_schedule_validation():
    with pytest.raises(ConfigurationError, match=r"^warmup_steps must be >= 0, got -1$"):
        RunOptions(steps=10, warmup_steps=-1)
    with pytest.raises(ConfigurationError, match=r"^need 0 <= floor \(0.001\) <= peak \(0.0001\)$"):
        RunOptions(steps=10, warmup_steps=2, peak_lr=1e-4, floor_lr=1e-3)
    opts = RunOptions(steps=10, warmup_steps=2)
    with pytest.raises(ConfigurationError, match=r"^step 11 outside \[0, 10\]$"):
        lr_schedule(11, opts)
    with pytest.raises(ConfigurationError, match=r"^step -1 outside \[0, 10\]$"):
        lr_schedule(-1, opts)


def test_degenerate_all_warmup_schedule():
    opts = RunOptions(steps=5, warmup_steps=5, peak_lr=1e-3)
    assert lr_schedule(5, opts) == 1e-3
    # a warmup longer than the run is clipped to its steps
    longer = RunOptions(steps=5, warmup_steps=50, peak_lr=1e-3)
    assert [lr_schedule(s, longer) for s in range(6)] == [lr_schedule(s, opts) for s in range(6)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adamw_matches_reference_formula_bitwise(dtype):
    # the update written out with fresh temporaries, as plain numpy
    rng = np.random.default_rng(11)
    # "long" spans more than one CHUNK, so the update runs in several passes
    shapes = {"w": (3, 4), "stack": (2, 1, 4), "b": (4,), "long": (2, CHUNK // 2 + 3)}
    init = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
    params = {k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
    state = OptimState(weight_decay=0.05)
    ref = {k: v.copy() for k, v in init.items()}
    m = {k: np.zeros_like(v) for k, v in init.items()}
    v2 = {k: np.zeros_like(v) for k, v in init.items()}
    b1, b2, eps, wd = 0.9, 0.999, 1e-8, 0.05
    for t in range(1, 6):
        lr = 0.01 * t
        grads = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
        adamw_step(params, grads, state, lr)
        for k, g in grads.items():
            m[k] = m[k] * b1 + (1.0 - b1) * g
            v2[k] = v2[k] * b2 + (1.0 - b2) * g * g
            m_hat = m[k] / (1.0 - b1 ** t)
            v_hat = v2[k] / (1.0 - b2 ** t)
            ref[k] = ref[k] * (1.0 - lr * wd) - lr * m_hat / (np.sqrt(v_hat) + eps)
    for k in shapes:
        assert params[k].data.dtype == dtype
        assert params[k].data.tobytes() == ref[k].tobytes(), k
        assert state.m[k].tobytes() == m[k].tobytes(), k
        assert state.v[k].tobytes() == v2[k].tobytes(), k


def test_non_contiguous_array_changes_nothing():
    # every array is checked before the first update: a bad second tensor
    # leaves the first one, its moments and the step count as they were
    p = _params(a=np.ones(3))
    state = OptimState()
    adamw_step(p, {"a": np.ones(3)}, state, lr=0.1)
    p["b"] = Tensor(np.ones((3, 4)).T, requires_grad=True)
    before = [x.copy() for x in (p["a"].data, state.m["a"], state.v["a"])]
    with pytest.raises(ConfigurationError, match="C-contiguous arrays for b"):
        adamw_step(p, {"a": np.ones(3), "b": np.ones((4, 3))}, state, lr=0.1)
    assert state.step == 1
    assert set(state.m) == set(state.v) == {"a"}
    after = (p["a"].data, state.m["a"], state.v["a"])
    assert all(x.tobytes() == y.tobytes() for x, y in zip(before, after))


def test_adamw_rejects_non_contiguous_parameters():
    # a flat view of a transposed array would be a copy and drop the update
    p = {"w": Tensor(np.arange(6.0).reshape(2, 3).T, requires_grad=True)}
    with pytest.raises(ConfigurationError, match="C-contiguous"):
        adamw_step(p, {"w": np.ones((3, 2))}, OptimState(), lr=0.1)
