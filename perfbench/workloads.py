"""The three closed-loop workloads: one caller, and the next operation starts
when the previous one returns.  All run the desk-nano preset on inputs made
only from the workload seed.

A workload's `setup()` can run several times in one process; `run(seconds)`
keeps starting operations while less than `seconds` has passed and returns
a Phase: one duration, time window and output check per op.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from mtformer import config, errors, model, optim, synthetic, training

PRESET = "desk-nano"

# failures the program raises on purpose; anything else is a benchmark bug
TYPED_ERRORS = (errors.DimensionError, errors.ConfigurationError, errors.DataError,
                errors.FormatError, errors.OracleError, errors.NumericsError)

# disjoint scene-seed ranges per workload seed
SEED_STRIDE = 1_000_000
TRAIN_SCENES, EVAL_SCENES, IO_SCENES = 0, 100_000, 200_000


@dataclass
class Phase:
    windows: list = field(default_factory=list)  # (start, end) perf_counter of each op
    ok: list = field(default_factory=list)       # output check of each op
    samples: int = 0
    final_loss: float = float("nan")

    def add(self, start: float, end: float, ok: bool) -> None:
        self.windows.append((start, end))
        self.ok.append(bool(ok))

    @classmethod
    def merge(cls, phases) -> "Phase":
        out = cls()
        for p in phases:
            out.windows += p.windows
            out.ok += p.ok
            out.samples += p.samples
            out.final_loss = p.final_loss
        return out

    @property
    def busy_s(self) -> float:
        return sum(end - start for start, end in self.windows)


def _finite(values) -> bool:
    return all(np.isfinite(v) for v in values)


def _combined(task_losses: dict) -> float:
    """Static equal-weight combination, as `losses.combine_losses` weighs it."""
    return sum(task_losses.values()) / len(task_losses)


def _same_bundle(a, b) -> bool:
    return all(getattr(a, f).dtype == getattr(b, f).dtype
               and getattr(a, f).shape == getattr(b, f).shape
               and getattr(a, f).tobytes() == getattr(b, f).tobytes()
               for f in synthetic.TaskBundle.FIELDS)


class Train:
    """`training.train` with all six tasks, shared attention, float64 and
    the default batch of 4, on an in-memory scene set.  An op is one
    optimizer step.  Each `train` call runs STEPS steps and then its final
    evaluation pass, which lies outside every op."""

    dtype = "float64"
    SCENES = 8
    STEPS = 6

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.cfg = config.preset(PRESET)
        self.options = training.RunOptions(steps=self.STEPS, seed=seed)
        self.samples_per_op = self.options.batch_size

    def setup(self) -> None:
        self.scenes = synthetic.generate_dataset(
            self.SCENES, self.cfg.img_size, base_seed=self.seed * SEED_STRIDE + TRAIN_SCENES)
        # warm-up: one step on one scene, the same shapes as every timed step
        training.train(self.cfg, self.scenes[:1], replace(self.options, steps=1))

    @contextmanager
    def _step_marks(self):
        """Timestamps at each step start and at the final evaluation, from
        the calls `train` makes to `lr_schedule` and `evaluate`."""
        marks = []
        originals = training.lr_schedule, training.evaluate

        def mark(fn):
            def wrapper(*args, **kwargs):
                marks.append(time.perf_counter())
                return fn(*args, **kwargs)
            return wrapper

        training.lr_schedule, training.evaluate = map(mark, originals)
        try:
            yield marks
        finally:
            training.lr_schedule, training.evaluate = originals

    def run(self, seconds: float) -> Phase:
        phase = Phase()
        deadline = time.perf_counter() + seconds
        with self._step_marks() as marks:
            while not phase.windows or time.perf_counter() < deadline:
                marks.clear()
                start = time.perf_counter()
                try:
                    result = training.train(self.cfg, self.scenes, self.options)
                except TYPED_ERRORS:
                    end = time.perf_counter()
                    step = (end - start) / self.STEPS
                    for i in range(self.STEPS):
                        phase.add(start + i * step, start + (i + 1) * step, False)
                    continue
                steps = [r for r in result.metrics if not r.get("final_eval")]
                if len(marks) != len(steps) + 1:
                    raise RuntimeError(f"{len(marks)} step marks for {len(steps)} steps: train "
                                       "no longer calls lr_schedule once per step, then evaluate")
                for i, rec in enumerate(steps):
                    phase.add(marks[i], marks[i + 1],
                              _finite([rec["total"], *rec["losses"].values()]))
                phase.final_loss = steps[-1]["total"]
        phase.samples = len(phase.windows) * self.samples_per_op
        return phase


class Eval:
    """`training.evaluate` of a float32 model without shared attention over
    a held-out split, at least one full pass.  An op is one image: forward
    plus six losses.  The first CHECKED images are also compared against a float64 evaluation of
    the same parameters."""

    dtype = "float32"
    SCENES = 16
    CHECKED = 2
    RTOL, ATOL = 1e-3, 1e-5  # float32 against float64 through the whole model
    samples_per_op = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.cfg = replace(config.preset(PRESET), shared_attention=False)

    def setup(self) -> None:
        self.scenes = synthetic.generate_dataset(
            self.SCENES, self.cfg.img_size, base_seed=self.seed * SEED_STRIDE + EVAL_SCENES)
        self.model = model.init_params(self.cfg, seed=self.seed, dtype=np.float32)
        wide = model.init_params(self.cfg, seed=self.seed, dtype=np.float64)
        for name, p in wide.flat.items():
            p.data = self.model.flat[name].data.astype(np.float64)
        self.reference = [training.evaluate(wide, [s]) for s in self.scenes[:self.CHECKED]]
        training.evaluate(self.model, self.scenes[:1])  # warm-up

    def _check(self, index: int, task_losses: dict) -> bool:
        if not _finite(task_losses.values()):
            return False
        if index >= self.CHECKED:
            return True
        ref = self.reference[index]
        return all(abs(task_losses[t] - ref[t]) <= self.ATOL + self.RTOL * abs(ref[t])
                   for t in ref)

    def run(self, seconds: float) -> Phase:
        phase = Phase()
        first_pass = []
        deadline = time.perf_counter() + seconds
        i = 0
        while i < self.SCENES or time.perf_counter() < deadline:
            index = i % self.SCENES
            start = time.perf_counter()
            try:
                task_losses = training.evaluate(self.model, [self.scenes[index]])
            except TYPED_ERRORS:
                phase.add(start, time.perf_counter(), False)
            else:
                phase.add(start, time.perf_counter(), self._check(index, task_losses))
                if i < self.SCENES:
                    first_pass.append(_combined(task_losses))
            i += 1
        phase.samples = len(phase.windows)
        if first_pass:
            phase.final_loss = sum(first_pass) / len(first_pass)
        return phase


class IO:
    """Rounds of generate_dataset -> write_dataset -> read_dataset, then
    save_checkpoint -> load_checkpoint of a float64 model with optimizer
    state.  An op is one round; no tensor work happens inside it."""

    dtype = "float64"
    SCENES = 4
    samples_per_op = SCENES

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.cfg = config.preset(PRESET)
        self.sizes = {}

    def setup(self) -> None:
        self.model = model.init_params(self.cfg, seed=self.seed)
        self.opt = optim.OptimState()
        rng = np.random.default_rng(self.seed)
        grads = {name: rng.normal(0.0, 1e-3, p.data.shape) for name, p in self.model.flat.items()}
        optim.adamw_step(self.model.flat, grads, self.opt, 1e-4)
        self._round(-1)  # warm-up

    def _round(self, r: int):
        """One op; returns (start, end, ok, loaded model, scenes read back).
        Round -1 is the warm-up and uses its own seeds."""
        base = self.seed * SEED_STRIDE + IO_SCENES + (r + 1) * self.SCENES
        seeds = list(range(base, base + self.SCENES))
        data_path = os.path.join(self.workdir, f"scenes-{r}.mtds")
        ckpt_path = os.path.join(self.workdir, f"model-{r}.ckpt")
        start = time.perf_counter()
        try:
            scenes = synthetic.generate_dataset(self.SCENES, self.cfg.img_size, base_seed=base)
            synthetic.write_dataset(scenes, data_path, seeds)
            back = synthetic.read_dataset(data_path)
            training.save_checkpoint(ckpt_path, self.model, self.opt, self.opt.step)
            loaded, _, step, _ = training.load_checkpoint(ckpt_path)
        except TYPED_ERRORS:
            return start, time.perf_counter(), False, None, None
        end = time.perf_counter()

        self.sizes = {"dataset": os.path.getsize(data_path),
                      "checkpoint": os.path.getsize(ckpt_path)}
        for path in (data_path, f"{data_path}.manifest", ckpt_path):
            os.remove(path)
        k = r % self.SCENES
        ok = (len(back) == len(scenes)
              and all(_same_bundle(a, b) for a, b in zip(scenes, back))
              and _same_bundle(synthetic.generate_sample(seeds[k], self.cfg.img_size), scenes[k])
              and step == self.opt.step
              and all(loaded.flat[n].data.dtype == p.data.dtype
                      and loaded.flat[n].data.tobytes() == p.data.tobytes()
                      for n, p in self.model.flat.items()))
        return start, end, ok, loaded, back

    def run(self, seconds: float) -> Phase:
        phase = Phase()
        deadline = time.perf_counter() + seconds
        while not phase.windows or time.perf_counter() < deadline:
            start, end, ok, loaded, back = self._round(len(phase.windows))
            phase.add(start, end, ok)
            if len(phase.windows) == 1 and loaded is not None:
                # loss of the restored model on the restored scenes of round 0,
                # outside the op; later rounds depend on how many fit
                phase.final_loss = _combined(training.evaluate(loaded, back))
        phase.samples = len(phase.windows) * self.SCENES
        return phase


WORKLOADS = {"train": Train, "eval": Eval, "io": IO}
