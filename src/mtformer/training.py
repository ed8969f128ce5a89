"""Training loop, evaluation, checkpoints, and whole-model gradient checks.

A step draws a batch (with replacement, seeded), runs one forward/backward
per sample with the loss scaled by 1/batch so gradients accumulate into a
true batch mean, then applies one optimizer update at the scheduled rate.
The samples of a step run as a two-stage pipeline: a worker thread tapes
the next sample's forward while the calling thread sweeps this sample's
tape, and the sweeps run in pick order, so ``.grad`` adds up exactly as a
serial loop adds it.
Every step appends one metrics record; after the last step a final record
holds per-task means over the whole training split under the final
parameters, which ``evaluate`` reproduces exactly.  ``RunOptions`` holds a
run's budget and optimizer numbers, checked when built, and
``lr_schedule`` turns them into each step's rate; ``optim.py`` holds the
AdamW update alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields
from functools import lru_cache
from itertools import zip_longest
from types import MappingProxyType

import numpy as np

from . import config as cfgmod
from .config import ArchConfig, is_int
from .errors import (ConfigurationError, DataError, DimensionError,
                     FormatError, NumericsError)
from .files import Reader, Writer, raw, replace_on_success
from .losses import combine_losses, per_task_loss, task_weights, update_ema
from .model import Model, forward, init_params, param_shapes
from .optim import WEIGHT_DECAY, OptimState, adamw_step
from .synthetic import dataset_chunks, read_dataset
from .tensor import Tape, Tensor, central_difference, mul, zero_grad

CKPT_MAGIC = b"MTCK"
CKPT_VERSION = 5  # 5: every array payload starts at a multiple of files.ALIGN
_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))  # indexed by the stored code
DTYPE_NAMES = tuple(dt.name for dt in _DTYPES)
BALANCE_MODES = ("static", "inverse-ema")


@dataclass(frozen=True)
class RunOptions:
    """Budget and optimizer knobs for one run; defaults fit a desk CPU.

    Every field is checked when the bundle is built, so an invalid one
    raises ``ConfigurationError`` here, also through ``dataclasses.replace``.
    A warmup longer than the run is allowed: ``lr_schedule`` clips it."""

    steps: int = 2000
    batch_size: int = 4
    seed: int = 0
    peak_lr: float = 5e-5
    warmup_steps: int = 200
    floor_lr: float = 0.0
    weight_decay: float = WEIGHT_DECAY
    dtype: str = "float64"  # one of DTYPE_NAMES
    balance: str = "static"  # one of BALANCE_MODES

    def __post_init__(self):
        for f in fields(self):  # an int field holds an integer, a float one a finite number
            value = getattr(self, f.name)
            if f.type == "int" and not is_int(value):
                raise ConfigurationError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                                          and math.isfinite(value)):
                raise ConfigurationError(f"{f.name} must be a finite number, got {value!r}")
        if self.balance not in BALANCE_MODES:
            raise ConfigurationError(f"unknown balancing mode {self.balance!r}")
        if self.steps < 0:
            raise ConfigurationError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.dtype not in DTYPE_NAMES:
            raise ConfigurationError(
                f"dtype must be {' or '.join(DTYPE_NAMES)}, got {self.dtype!r}")
        if self.warmup_steps < 0:
            raise ConfigurationError(
                f"need 0 <= warmup ({self.warmup_steps}) <= total ({self.steps})")
        if not 0 <= self.floor_lr <= self.peak_lr:
            raise ConfigurationError(
                f"need 0 <= floor ({self.floor_lr}) <= peak ({self.peak_lr})")
        if self.weight_decay < 0:
            raise ConfigurationError(f"weight decay must be >= 0, got {self.weight_decay}")


def lr_schedule(step: int, options: RunOptions) -> float:
    """Linear 0 -> peak over the warmup, then cosine decay peak -> floor at
    step ``options.steps``; the warmup is clipped to the run's steps."""
    total = options.steps
    if not 0 <= step <= total:
        raise ConfigurationError(f"step {step} outside [0, {total}]")
    warmup = min(options.warmup_steps, total)
    if step < warmup:
        return options.peak_lr * step / warmup
    span = total - warmup
    if span == 0:
        return options.peak_lr
    frac = (step - warmup) / span
    return options.floor_lr + (options.peak_lr - options.floor_lr) * 0.5 * (1.0 + math.cos(math.pi * frac))


@dataclass
class TrainResult:
    model: Model
    optim: OptimState
    metrics: list
    config_hash: str
    budget_hash: str
    wall_time: float


def _load_samples(data, img_size: int) -> list:
    """The samples of a dataset path or an in-memory sample list, checked
    to be non-empty and ``img_size`` px."""
    if isinstance(data, str) or hasattr(data, "__fspath__"):
        samples = read_dataset(data)
    else:
        samples = list(data)
    if not samples:
        raise DataError("dataset is empty")
    if samples[0].size != img_size:
        raise DimensionError(f"dataset images are {samples[0].size}px, "
                             f"config wants {img_size}px")
    return samples


def config_hash(cfg: ArchConfig) -> str:
    return hashlib.sha256(cfgmod.to_text(cfg).encode()).hexdigest()


def budget_hash(cfg: ArchConfig, options: RunOptions, samples) -> str:
    """Digest of everything that must match for two runs to be comparable:
    every config field but the ablation axes, the full training budget, and
    the data.  Task subset, reference task and attention sharing are
    deliberately excluded, they are the quantities ablations vary."""
    h = hashlib.sha256()
    scale = tuple((f.name, getattr(cfg, f.name)) for f in fields(cfg)
                  if f.name not in cfgmod.ABLATION_AXES)
    h.update(repr(scale).encode())
    h.update(repr(astuple(options)).encode())
    for chunk in dataset_chunks(samples):
        h.update(chunk)
    return h.hexdigest()


def sample_losses(model: Model, sample) -> dict:
    """Forward one sample in the model's dtype, then each task's loss in
    ``cfg.tasks`` order.  Training, evaluation and both passes of the
    gradient checker score a sample here; ``forward`` and ``per_task_loss``
    are looked up in this module, so wrapping them here reaches all four."""
    preds = forward(model, Tensor(np.asarray(sample.rgb, dtype=model.dtype)))
    return {t: per_task_loss(t, preds[t], sample.target(t)) for t in model.cfg.tasks}


def _taped_forward(model: Model, sample, weights: dict, batch_scale: float):
    """Taped forward of one sample, up to its loss scaled by ``batch_scale``;
    returns the tape, that loss, the float task losses and their total."""
    with Tape() as tape:
        losses = sample_losses(model, sample)
        total = combine_losses(losses, weights)
        scaled = mul(total, batch_scale)
    return tape, scaled, {t: float(v.data) for t, v in losses.items()}, float(total.data)


def train(cfg: ArchConfig, data, options: RunOptions,
          ckpt_path=None, log_path=None) -> TrainResult:
    """Run the full budget; returns the trained model plus per-step metrics.

    ``data`` is a dataset path or an in-memory sample list.  When paths are
    given, the checkpoint holds parameters, optimizer state, step, and the
    config/budget hashes; the metrics log is line-delimited JSON.
    """
    samples = _load_samples(data, cfg.img_size)
    model = init_params(cfg, seed=options.seed, dtype=options.dtype)
    opt = OptimState(weight_decay=options.weight_decay)
    ema = {} if options.balance == "inverse-ema" else None
    rng = np.random.default_rng(options.seed)
    chash = config_hash(cfg)
    bhash = budget_hash(cfg, options, samples)

    metrics = []
    started = time.perf_counter()
    # one worker tapes forwards: the parameters change only in adamw_step,
    # after the step's last forward has returned
    with ThreadPoolExecutor(max_workers=1) as worker:
        for step in range(options.steps):
            lr = lr_schedule(step, options)
            zero_grad(model.flat.values())
            picks = rng.integers(0, len(samples), options.batch_size)
            weights = task_weights(cfg.tasks, ema)
            scale = 1.0 / options.batch_size
            sums = {t: 0.0 for t in cfg.tasks}
            total_sum = 0.0
            pending = worker.submit(_taped_forward, model, samples[picks[0]], weights, scale)
            for j in range(options.batch_size):
                tape, scaled, per_task, total = pending.result()
                if j + 1 < options.batch_size:  # the next forward runs beside this sweep
                    pending = worker.submit(_taped_forward, model, samples[picks[j + 1]],
                                            weights, scale)
                tape.backward(scaled)
                for t, v in per_task.items():
                    sums[t] += v
                total_sum += total
            mean_total = total_sum / options.batch_size
            means = {t: sums[t] / options.batch_size for t in cfg.tasks}
            if not np.isfinite(mean_total):
                bad = [t for t in cfg.tasks if not np.isfinite(means[t])]
                raise NumericsError(f"non-finite loss at step {step}"
                                    + (f" in task {bad[0]}" if bad else ""))
            if ema is not None:
                update_ema(ema, means)
            grads = {name: p.grad if p.grad is not None else np.zeros_like(p.data)
                     for name, p in model.flat.items()}
            adamw_step(model.flat, grads, opt, lr)
            metrics.append({
                "step": step, "lr": lr, "total": mean_total,
                "losses": means,
                "weights": weights,
            })
    zero_grad(model.flat.values())  # the last step's gradients are spent

    final = evaluate(model, samples)
    metrics.append({"final_eval": True, "step": options.steps, "losses": final})
    wall = time.perf_counter() - started

    if ckpt_path:
        save_checkpoint(ckpt_path, model, opt, options.steps, bhash)
    if log_path:
        with replace_on_success(log_path) as f:
            f.write("".join(json.dumps(rec) + "\n" for rec in metrics).encode())
    return TrainResult(model, opt, metrics, chash, bhash, wall)


def evaluate(model: Model, data) -> dict:
    """Per-task mean losses over a split, tape-free and deterministic."""
    samples = _load_samples(data, model.cfg.img_size)
    sums = {t: 0.0 for t in model.cfg.tasks}
    for s in samples:
        for t, loss in sample_losses(model, s).items():
            sums[t] += float(loss.data)
    return {t: sums[t] / len(samples) for t in model.cfg.tasks}


# -------------------------------------------------------------- checkpoints

@lru_cache(maxsize=8)
def _layout_shapes(cfg: ArchConfig) -> tuple:
    """(read-only name -> shape in storage order, stacked names) of
    ``cfg``'s tensors, walked once per config: saving and loading again
    allocate nothing for them."""
    shapes, stacked = param_shapes(cfgmod.param_layout(cfg), len(cfg.tasks))
    return MappingProxyType(shapes), stacked


def _check_savable(model: Model, opt: OptimState | None) -> None:
    """Raise unless every parameter and moment is what ``load_checkpoint``
    reads back: the layout's names, in its order, with its shapes, all in
    one stored dtype."""
    if model.dtype not in _DTYPES:
        raise DataError(f"cannot store {model.dtype} parameters, only "
                        f"{' or '.join(DTYPE_NAMES)}")
    shapes, _ = _layout_shapes(model.cfg)
    for have, want in zip_longest(model.flat, shapes):
        if have != want:
            raise ConfigurationError(f"model has tensor {have!r} where its config's "
                                     f"layout has {want!r}")
    extra = set() if opt is None else (opt.m.keys() | opt.v.keys()) - shapes.keys()
    if extra:
        raise ConfigurationError(f"optimizer state has moments for {sorted(extra)}, "
                                 "which the model does not have")
    for name, shape in shapes.items():
        arrays = [("parameter", model.flat[name].data)]
        if opt is not None:
            arrays += [(f"{kind} moment", moments[name])
                       for kind, moments in (("first", opt.m), ("second", opt.v))
                       if name in moments]
        for what, a in arrays:
            if a.shape != shape:
                raise DimensionError(f"{name} {what} is {a.shape}, config wants {shape}")
            if a.dtype != model.dtype:
                raise DataError(f"{name} {what} is {a.dtype}, the model is {model.dtype}")


def save_checkpoint(path, model: Model, opt: OptimState | None,
                    step: int, budget: str = "") -> None:
    """Write ``model``, ``opt`` (or none), ``step`` and the budget hash to
    ``path``, replacing it by rename; every array is checked first, so a
    mismatched one raises before any file is made."""
    _check_savable(model, opt)
    code = _DTYPES.index(model.dtype)
    cfg_text = cfgmod.to_text(model.cfg).encode()
    budget_b = budget.encode()
    with replace_on_success(path) as f:
        w = Writer(f)
        w.write(CKPT_MAGIC)
        w.write(struct.pack("<IIQ", CKPT_VERSION, code, step))
        w.write(struct.pack("<I", len(cfg_text)) + cfg_text)
        w.write(struct.pack("<I", len(budget_b)) + budget_b)
        w.write(struct.pack("<I", len(model.flat)))
        for name, p in model.flat.items():
            nb = name.encode()
            w.write(struct.pack("<H", len(nb)) + nb)
            w.write(struct.pack("<B", p.data.ndim))
            w.write(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
            w.aligned(raw(p.data))
        if opt is None:
            w.write(struct.pack("<B", 0))
        else:
            w.write(struct.pack("<BdQ", 1, opt.weight_decay, opt.step))
            for name, p in model.flat.items():
                for moments in (opt.m, opt.v):
                    # a moment not made yet is stored as zeros
                    w.aligned(raw(moments[name]) if name in moments else bytes(p.data.nbytes))


def load_checkpoint(path):
    """Returns (model, optimizer state or None, step, budget hash).

    Every parameter and moment is a view of one private copy-on-write
    mapping of the file (``files.Reader.view``): loading copies no array,
    and the first write to a page copies that page, never reaching the
    file.  Replace the file by rename, as ``save_checkpoint`` does;
    truncating it in place while the model lives ends the process with
    SIGBUS."""
    with open(path, "rb") as f:
        r = Reader(f, "checkpoint")
        if r.take(4) != CKPT_MAGIC:
            raise FormatError(f"bad checkpoint magic at offset 0 in {path}")
        version, code, step = r.unpack("<IIQ")
        if version != CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version} at offset 4")
        if code >= len(_DTYPES):
            raise FormatError(f"unknown dtype code {code} at offset 8")
        dt = _DTYPES[code]
        (cfg_len,) = r.unpack("<I")
        cfg_text = r.text(cfg_len)
        try:
            cfg = cfgmod.from_text(cfg_text)
        except ConfigurationError as exc:
            raise FormatError(f"bad config text at offset {r.off - cfg_len}: {exc}") from exc
        (budget_len,) = r.unpack("<I")
        budget = r.text(budget_len)
        (count,) = r.unpack("<I")

        shapes, stacked = _layout_shapes(cfg)
        if count != len(shapes):
            raise FormatError(f"checkpoint stores {count} tensors, config builds {len(shapes)}")
        flat = {}
        for expected_name, want in shapes.items():
            (nlen,) = r.unpack("<H")
            name = r.text(nlen)
            if name != expected_name:
                raise FormatError(f"tensor order mismatch: file has {name!r} where "
                                  f"{expected_name!r} belongs")
            (ndim,) = r.unpack("<B")
            shape = r.unpack(f"<{ndim}I")
            if shape != want:
                raise FormatError(f"{name} stored as {shape}, config wants {want}")
            flat[name] = Tensor(r.view(shape, dt), requires_grad=True)

        (has_opt,) = r.unpack("<B")
        opt = None
        if has_opt:
            wd, ostep = r.unpack("<dQ")
            opt = OptimState(weight_decay=wd, step=ostep)
            for name, shape in shapes.items():
                opt.m[name] = r.view(shape, dt)
                opt.v[name] = r.view(shape, dt)
        r.end()
    return Model(cfg, flat, stacked), opt, step, budget


# ------------------------------------------------------- gradient checking

PROBE_EPS = 1e-5  # central-difference step of check_model_gradients


def check_model_gradients(model: Model, sample, samples_per_tensor: int = 1,
                          seed: int = 0) -> dict:
    """Compare taped gradients of the combined loss against central
    differences at ``samples_per_tensor`` random elements of every parameter,
    and of every task slice of a parameter stacked along the task axis.

    Relative error uses max(|analytic|, |numeric|, 1e-5) as denominator: the
    floor absorbs finite-difference noise on near-zero gradients while any
    wrong gradient of consequential size still fails loudly.  Returns
    {"max_rel_err", "worst_tensor", "probes"}; a task slice is named
    ``<name>[<task>]``.
    """
    if samples_per_tensor < 1:
        raise ConfigurationError(
            f"samples per tensor must be >= 1, got {samples_per_tensor}")
    if seed < 0:
        raise ConfigurationError(f"probe seed must be >= 0, got {seed}")

    def loss_value() -> float:
        return float(combine_losses(sample_losses(model, sample)).data)

    zero_grad(model.flat.values())
    with Tape() as tape:
        tape.backward(combine_losses(sample_losses(model, sample)))

    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_name = None
    probes = 0
    for name, p in model.flat.items():
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        if name in model.stacked:
            parts = [(f"{name}[{t}]", p.data[k], grad[k])
                     for k, t in enumerate(model.cfg.tasks)]
        else:
            parts = [(name, p.data, grad)]
        for label, data, g in parts:
            flat = data.reshape(-1)  # a view: writes perturb the parameter
            for flat_idx in rng.choice(data.size, size=min(samples_per_tensor, data.size),
                                       replace=False):
                numeric = central_difference(loss_value, flat, flat_idx, PROBE_EPS)
                analytic = g.reshape(-1)[flat_idx]
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-5)
                probes += 1
                if rel > worst:
                    worst, worst_name = rel, label
    zero_grad(model.flat.values())
    return {"max_rel_err": worst, "worst_tensor": worst_name, "probes": probes}
