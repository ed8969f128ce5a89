"""Loss values against hand-computed oracles, weighting rules, the metric."""

import math

import numpy as np
import pytest

from mtformer.errors import ConfigurationError, DataError, DimensionError
from mtformer.losses import (EMA_BETA, combine_losses, per_task_loss,
                             relative_performance, task_weights, update_ema)
from mtformer.tensor import Tape, Tensor, grad_check, softmax_lastdim

RNG = np.random.default_rng(404)


# -------------------------------------------------------------- per-task

def test_cross_entropy_uniform_is_log_k():
    pred = Tensor(np.full((3, 3, 4), 0.25))
    labels = RNG.integers(0, 4, (3, 3))
    loss = per_task_loss("S", pred, labels)
    assert abs(float(loss.data) - math.log(4)) < 1e-9


def test_cross_entropy_hand_oracle():
    probs = np.array([[[0.7, 0.2, 0.1],
                       [0.1, 0.6, 0.3]]])
    labels = np.array([[0, 2]])
    loss = per_task_loss("S", Tensor(probs), labels)
    want = -(math.log(0.7 + 1e-12) + math.log(0.3 + 1e-12)) / 2
    assert abs(float(loss.data) - want) < 1e-12


def test_cross_entropy_rejects_bad_labels():
    pred = Tensor(np.full((2, 2, 4), 0.25))
    with pytest.raises(DataError):
        per_task_loss("S", pred, np.array([[0, 1], [2, 4]]))
    with pytest.raises(DataError):
        per_task_loss("S", pred, np.array([[0, -1], [2, 3]]))
    with pytest.raises(DimensionError):
        per_task_loss("S", pred, np.zeros((3, 2), dtype=int))


def test_l1_zero_iff_equal_and_depth_example():
    x = RNG.uniform(0, 1, (4, 4, 3))
    assert float(per_task_loss("N", Tensor(x), x.copy()).data) == 0.0
    assert float(per_task_loss("N", Tensor(x), x + 0.1).data) > 0.0

    pred = Tensor(np.full((8, 8, 1), 0.5))
    target = np.full((8, 8, 1), 0.25)
    assert abs(float(per_task_loss("D", pred, target).data) - 0.25) < 1e-12


def test_l1_matches_mean_abs():
    p = RNG.uniform(0, 1, (5, 5, 1))
    t = RNG.uniform(0, 1, (5, 5, 1))
    got = float(per_task_loss("E", Tensor(p), t).data)
    assert abs(got - np.abs(p - t).mean()) < 1e-12


def test_per_task_loss_rejects_unknown_task_and_shape():
    with pytest.raises(ConfigurationError):
        per_task_loss("Z", Tensor(np.zeros((2, 2, 1))), np.zeros((2, 2, 1)))
    with pytest.raises(DimensionError):
        per_task_loss("D", Tensor(np.zeros((2, 2, 1))), np.zeros((2, 2)))


def test_loss_gradients_flow():
    logits = RNG.standard_normal((2, 2, 3))
    labels = np.array([[0, 2], [1, 1]])

    def ce(x):
        return per_task_loss("S", softmax_lastdim(x), labels)

    assert grad_check(ce, Tensor(logits.copy(), requires_grad=True)) < 1e-5

    target = RNG.uniform(0, 1, (3, 3, 1))
    start = RNG.uniform(0, 1, (3, 3, 1))

    def l1(x):
        return per_task_loss("K", x, target)

    assert grad_check(l1, Tensor(start.copy(), requires_grad=True)) < 1e-5


# ------------------------------------------------------------- combination

def _scalars(**vals):
    return {t: Tensor(np.asarray(float(v))) for t, v in vals.items()}


def test_static_uniform_weights_average():
    total = combine_losses(_scalars(D=1.0, N=3.0))
    assert abs(float(total.data) - 2.0) < 1e-12
    assert task_weights(("D", "N")) == task_weights(("D", "N"), {}) == {"D": 1.0, "N": 1.0}


def test_static_combination_is_homogeneous():
    base = _scalars(S=0.3, D=1.2, N=0.7)
    scaled = _scalars(S=1.5, D=6.0, N=3.5)
    t1 = combine_losses(base)
    t2 = combine_losses(scaled)
    assert abs(float(t2.data) - 5.0 * float(t1.data)) < 1e-12


def test_combination_errors():
    with pytest.raises(ConfigurationError):
        combine_losses({})
    with pytest.raises(ConfigurationError):
        combine_losses({}, weights={})


def test_combination_leaves_the_weights_alone():
    weights = {"D": 1.6, "N": 0.4}
    total = combine_losses(_scalars(D=1.0, N=4.0), weights)
    assert abs(float(total.data) - 1.6) < 1e-12
    assert weights == {"D": 1.6, "N": 0.4}


def test_inverse_ema_steady_state_weights():
    ema = {}
    for _ in range(40):
        update_ema(ema, {"D": 1.0, "N": 4.0})
    w = task_weights(("D", "N"), ema)
    assert abs(w["D"] - 1.6) < 1e-12
    assert abs(w["N"] - 0.4) < 1e-12
    assert abs(float(combine_losses(_scalars(D=1.0, N=4.0), w).data) - 1.6) < 1e-12
    assert abs(sum(w.values()) - 2.0) < 1e-12


def test_inverse_ema_rebalances_toward_smaller_scale():
    # when one loss grows it gets downweighted so raw scale differences do
    # not dominate the sum; the small-loss task's weight climbs toward its
    # steady-state value 2 * (1/1) / (1/1 + 1/5) = 5/3
    ema = update_ema({}, {"D": 1.0, "N": 1.0})
    history = []
    for _ in range(30):
        update_ema(ema, {"D": 1.0, "N": 5.0})
        history.append(task_weights(("D", "N"), ema)["D"])
    assert all(b > a for a, b in zip(history, history[1:]))
    assert 1.0 < history[-1] < 5.0 / 3.0


def test_ema_recursion_pinned():
    ema = update_ema({}, {"D": 1.0})
    assert ema["D"] == 1.0
    update_ema(ema, {"D": 0.0})
    assert abs(ema["D"] - EMA_BETA) < 1e-15


def test_combined_total_backpropagates():
    x = Tensor(np.array([0.4, 0.6]), requires_grad=True)
    with Tape() as tape:
        losses = {"D": per_task_loss("D", x, np.array([0.0, 0.0])),
                  "N": per_task_loss("N", x, np.array([1.0, 1.0]))}
        tape.backward(combine_losses(losses))
    # D pulls toward 0 (+sign), N pulls toward 1 (-sign); each mean has 1/2,
    # each task weight 1/2 -> |grad| = 0 elementwise
    np.testing.assert_allclose(x.grad, np.zeros(2), atol=1e-15)

    x = Tensor(np.array([0.4, 0.6]), requires_grad=True)
    with Tape() as tape:
        tape.backward(combine_losses({"D": per_task_loss("D", x, np.array([0.0, 0.0]))}))
    np.testing.assert_allclose(x.grad, np.full(2, 0.5), atol=1e-15)


# ------------------------------------------------------------------ metric

def test_relative_performance_examples():
    assert relative_performance(1.0, 1.0) == 0.0
    assert abs(relative_performance(0.8, 1.0) - 20.0) < 1e-12
    assert relative_performance(1.2, 1.0) < 0  # multitask lost
    with pytest.raises(DataError):
        relative_performance(0.5, 0.0)
