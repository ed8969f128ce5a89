"""Per-task losses, their combination, and the relative metric.

Segmentation uses mean per-pixel cross-entropy over the already-softmaxed
head output; every other task uses mean L1 (depth against targets
normalized to [0, 1]).  The combination weighs the tasks equally or by
given weights; ``task_weights`` derives inverse-EMA weights, proportional
to 1 / EMA(loss), from an EMA the caller keeps and updates.
"""

from __future__ import annotations

import numpy as np

from .config import TASKS
from .errors import ConfigurationError, DataError, DimensionError
from .tensor import (Tensor, abs_, add, gather_lastdim, log, mean, mul, neg,
                     sub)

EMA_BETA = 0.99
LOG_GUARD = 1e-12


def per_task_loss(task: str, pred: Tensor, target) -> Tensor:
    """Scalar loss for one task's dense prediction against a target array:
    integer labels for segmentation, else ``pred``'s shape."""
    if task not in TASKS:
        raise ConfigurationError(f"unknown task id {task!r}")
    if task == "S":
        # gather_lastdim checks the labels' shape and range
        picked = gather_lastdim(pred, np.asarray(target).astype(np.int64))
        return mean(neg(log(add(picked, LOG_GUARD))))
    t = Tensor(np.asarray(target, dtype=pred.data.dtype))
    if t.shape != pred.shape:
        raise DimensionError(f"target {t.shape} does not match prediction {pred.shape}")
    return mean(abs_(sub(pred, t)))


def update_ema(ema: dict, losses: dict) -> dict:
    """In place: ema[t] = loss on first sight, else
    EMA_BETA*old + (1-EMA_BETA)*new, for float losses."""
    for t, v in losses.items():
        v = float(v)
        ema[t] = v if t not in ema else EMA_BETA * ema[t] + (1.0 - EMA_BETA) * v
    return ema


def task_weights(tasks, ema: dict | None = None) -> dict:
    """Weight per task: 1 each without an EMA (or before its first update),
    else 1/EMA(L_t) renormalized to sum to the task count."""
    if not ema:
        return dict.fromkeys(tasks, 1.0)
    # a perfectly solved task would otherwise get infinite weight
    inv = {t: 1.0 / max(ema[t], 1e-12) for t in tasks}
    scale = len(inv) / sum(inv.values())
    return {t: w * scale for t, w in inv.items()}


def combine_losses(losses: dict, weights: dict | None = None) -> Tensor:
    """Weighted mean sum(w_t L_t) / sum(w_t) of the task losses, summed in
    the order of ``losses``; ``weights`` None weighs every task 1.  Weights
    enter as constants, so gradients reach the parameters only through the
    losses themselves.
    """
    if not losses:
        raise ConfigurationError("no task losses to combine")
    if weights is None:
        weights = task_weights(losses)
    denom = sum(weights[t] for t in losses)
    total = None
    for t, loss in losses.items():
        term = mul(loss, weights[t] / denom)
        total = term if total is None else add(total, term)
    return total


def relative_performance(multi: float, single: float) -> float:
    """Percentage change of a loss vs its single-task baseline; positive
    means the multitask loss is lower."""
    single = float(single)
    multi = float(multi)
    if single == 0:
        raise DataError("baseline value is zero, relative change is undefined")
    return 100.0 * (single - multi) / single
