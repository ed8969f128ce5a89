"""Check that the working tree computes bitwise what another revision computes.

    python tools/parent_equivalence.py <rev>      # e.g. HEAD~ or main

Extracts ``src/`` of ``<rev>`` with ``git archive`` into a temporary
directory, then runs the same worker twice, in two subprocesses: once
against that copy and once against this checkout's ``src/``.  Each worker
computes, on the desk-nano preset with seed 0 and BLAS pinned to one thread:

* one taped sample (forward, combined loss, backward) in each of the four
  configs float64/float32 x shared/unshared attention, keeping the six task
  predictions and every parameter gradient;
* a 3-step ``train`` run (float64, shared attention, batch 4, two scenes),
  keeping the trained parameters, both AdamW moments, and each step's
  ``lr`` and ``total`` from its metrics;
* the ``generate_dataset`` bundles for seeds 0-3 at 32 and 128 px, every
  field of every scene;
* the bytes of the ``write_dataset`` file of those bundles and of its seed
  manifest, and every field ``read_dataset`` returns from that file;
* the bytes of the ``save_checkpoint`` file of that trained model with its
  optimizer state, and every parameter and moment ``load_checkpoint``
  returns from that file;
* the parameter layout of six desk-nano variants (shared attention on
  and off, the reference task first, last and alone, window 2): the
  tensor names in order and their shapes from ``init_params``, and the
  ``init_params(seed=0)`` bytes; and the
  ``config.count_parameters`` breakdown of every preset with shared
  attention on and off.

On a machine with two CPUs or more it runs this checkout's worker once
more with BLAS on two threads, and prints one ``threads`` line naming every
array that differs from the one-thread run; the BLAS work is in the
gradient, prediction and ``train`` groups, and the checkpoint groups
inherit the trained model.  On one CPU that line says the check proves
nothing.

It prints, per group, how many tensors are bitwise equal and the largest
difference max|a - b| over the group's tensors, relative to the largest
magnitude max|a| of any tensor in the group under ``<rev>``, naming the
tensor where it occurs; then one line per tensor that is not bitwise
equal, relative to the same scale.  Exit status 0 means every tensor is
bitwise equal (same dtype, shape and bytes) to the parent's and to the
two-thread run's.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
CONFIGS = [(dt, shared) for dt in ("float64", "float32") for shared in (True, False)]
TRAIN_STEPS = 3
SCENES, SCENE_SIZES = 4, (32, 128)
LAYOUT_VARIANTS = {
    "desk-nano": {},
    "unshared": {"shared_attention": False},
    "reference-first": {"tasks": ("N", "D")},
    "reference-last": {"tasks": ("S", "D"), "reference_task": "D"},
    "one-task": {"tasks": ("N",)},
    "window-2": {"window": 2},
}


def _worker(out_path: str) -> None:
    """Compute every compared tensor with whichever ``mtformer`` is on the path."""
    from dataclasses import replace

    from mtformer import config, training
    from mtformer.losses import per_task_loss
    from mtformer.model import forward, init_params
    from mtformer.synthetic import (generate_dataset, generate_sample,
                                    read_dataset, write_dataset)
    from mtformer.tensor import Tape, Tensor, add, mul

    arrays = {}
    base = config.preset("desk-nano")
    sample = generate_sample(0, base.img_size)
    for dt, shared in CONFIGS:
        cfg = replace(base, shared_attention=shared)
        tag = f"{dt}-{'shared' if shared else 'unshared'}"
        model = init_params(cfg, seed=0, dtype=np.dtype(dt))
        with Tape() as tape:
            preds = forward(model, Tensor(np.asarray(sample.rgb, dtype=dt)))
            losses = {t: per_task_loss(t, preds[t], sample.target(t)) for t in cfg.tasks}
            # the static equal-weight total, spelled out as the ops
            # `combine_losses` runs: its signature differs between
            # revisions, and this worker runs unchanged against both
            total = None
            for loss in losses.values():
                term = mul(loss, 1.0 / len(losses))
                total = term if total is None else add(total, term)
            tape.backward(total)
        for t, p in preds.items():
            arrays[f"{tag} predictions/{t}"] = p.data
        for name, p in model.flat.items():
            arrays[f"{tag} gradients/{name}"] = p.grad if p.grad is not None else np.zeros_like(p.data)

    scenes = generate_dataset(2, base.img_size, base_seed=0)
    result = training.train(base, scenes, training.RunOptions(steps=TRAIN_STEPS, seed=0))
    for name, p in result.model.flat.items():
        arrays[f"train parameters/{name}"] = p.data
        arrays[f"train first moments/{name}"] = result.optim.m[name]
        arrays[f"train second moments/{name}"] = result.optim.v[name]
    steps = [rec for rec in result.metrics if "final_eval" not in rec]
    for key in ("lr", "total"):
        arrays[f"train metrics/{key}"] = np.array([rec[key] for rec in steps])

    for size in SCENE_SIZES:
        bundles = generate_dataset(SCENES, size, base_seed=0)
        for i, bundle in enumerate(bundles):
            for field in bundle.FIELDS:
                arrays[f"scenes/{size}px seed {i} {field}"] = getattr(bundle, field)
        data = f"{out_path}.mtds"
        write_dataset(bundles, data, seeds=range(SCENES))
        for suffix, label in (("", "bytes"), (".manifest", "manifest")):
            with open(data + suffix, "rb") as f:
                arrays[f"dataset file/{size}px {label}"] = np.frombuffer(f.read(), np.uint8)
        for i, bundle in enumerate(read_dataset(data)):
            for field in bundle.FIELDS:
                arrays[f"dataset file/{size}px read seed {i} {field}"] = getattr(bundle, field)
        os.remove(data)
        os.remove(f"{data}.manifest")

    ckpt = f"{out_path}.mtck"
    training.save_checkpoint(ckpt, result.model, result.optim, TRAIN_STEPS, result.budget_hash)
    with open(ckpt, "rb") as f:
        arrays["checkpoint file/bytes"] = np.frombuffer(f.read(), np.uint8)
    loaded, opt, _, _ = training.load_checkpoint(ckpt)
    os.remove(ckpt)
    for name, p in loaded.flat.items():
        arrays[f"checkpoint load/{name}"] = p.data
        arrays[f"checkpoint load/{name} first moment"] = opt.m[name]
        arrays[f"checkpoint load/{name} second moment"] = opt.v[name]

    for label, over in LAYOUT_VARIANTS.items():
        cfg = replace(base, **over)
        model = init_params(cfg, seed=0)
        arrays[f"layout/{label} init bytes"] = np.frombuffer(
            b"".join(p.data.tobytes() for p in model.flat.values()), np.uint8)
        arrays[f"layout/{label} init names"] = np.frombuffer("\n".join(model.flat).encode(), np.uint8)
        arrays[f"layout/{label} init shapes"] = np.array(
            [d for p in model.flat.values() for d in (p.data.ndim, *p.data.shape)])
    for name in config.PRESETS:
        for shared in (True, False):
            counts = config.count_parameters(replace(config.preset(name), shared_attention=shared))
            arrays[f"layout/{name} {'shared' if shared else 'unshared'} count"] = np.array(
                [counts.encoder, *counts.decoder.values(), *counts.heads.values(), counts.total])
    np.savez(out_path, **arrays)


def _run_worker(src: Path, out: Path, threads: int = 1) -> dict:
    n = str(threads)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=n,
               OMP_NUM_THREADS=n, MKL_NUM_THREADS=n)
    subprocess.run([sys.executable, __file__, "--worker", str(out)], env=env, check=True)
    with np.load(out) as f:
        return {k: f[k] for k in f.files}


def compare_threads(one: dict, two: dict) -> bool:
    """Print the ``threads`` line: every array this checkout computes
    differently at 1 and at 2 BLAS threads."""
    differ = [k for k in sorted(set(one) | set(two))
              if k not in one or k not in two or not _bitwise(one[k], two[k])]
    if differ:
        print(f"threads: {len(differ)} arrays differ between 1 and 2 BLAS threads -> DIFFERENT")
        print("\n".join(f"    {k}" for k in differ))
    else:
        print(f"threads: all {len(one)} arrays bitwise equal at 1 and 2 BLAS threads")
    return not differ


def _bitwise(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - b| in float64; inf when the shapes differ."""
    if a.shape != b.shape:
        return float("inf")
    return float(np.abs(a.astype(np.float64) - b.astype(np.float64)).max()) if a.size else 0.0


def compare(parent: dict, change: dict) -> bool:
    groups: dict = {}
    for key in sorted(set(parent) | set(change)):
        groups.setdefault(key.split("/", 1)[0], []).append(key)
    all_equal = True
    for group, keys in groups.items():
        # one scale per group: a tensor that is only rounding noise, such as
        # an exactly zero key-bias gradient, is then measured against the
        # group's real magnitudes instead of against its own noise
        scale = max((float(np.abs(parent[k].astype(np.float64)).max())
                     for k in keys if k in parent and parent[k].size), default=0.0)
        equal, worst, worst_key, lines = 0, 0.0, None, []
        for key in keys:
            name = key.split("/", 1)[1]
            if key not in parent or key not in change:
                lines.append(f"    {name}: only in "
                             f"{'the parent' if key in parent else 'this checkout'}")
                continue
            a, b = parent[key], change[key]
            if _bitwise(a, b):
                equal += 1
                continue
            diff = _abs_diff(a, b)
            rel = diff / scale if scale else diff
            if worst_key is None or rel > worst:
                worst, worst_key = rel, name
            lines.append(f"    {name}: max difference {rel:.3g} of the group's largest magnitude")
        verdict = "bitwise equal" if equal == len(keys) else "DIFFERENT"
        at = f" at {worst_key}" if worst_key is not None else ""
        print(f"{group}: {equal}/{len(keys)} tensors bitwise equal, max difference {worst:.3g} "
              f"of the group's largest magnitude {scale:.3g}{at} -> {verdict}")
        if lines:
            print("\n".join(lines))
        all_equal &= equal == len(keys)
    return all_equal


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", nargs="?", help="git revision to compare against, e.g. HEAD~")
    ap.add_argument("--worker", metavar="OUT", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        _worker(args.worker)
        return 0
    if not args.rev:
        ap.error("a revision is required")
    with tempfile.TemporaryDirectory(prefix="parent-equivalence-") as tmp:
        tmp = Path(tmp)
        blob = subprocess.run(["git", "-C", str(REPO), "archive", args.rev, "src"],
                              check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            tar.extractall(tmp / "parent", filter="data")
        print(f"parent: {args.rev} ({tmp / 'parent' / 'src'}); change: {REPO / 'src'}")
        parent = _run_worker(tmp / "parent" / "src", tmp / "parent.npz")
        change = _run_worker(REPO / "src", tmp / "change.npz")
        equal = compare(parent, change)
        if (os.cpu_count() or 1) < 2:
            print("threads: one CPU, so 2 BLAS threads run as 1 and this group proves nothing")
        else:
            equal &= compare_threads(change, _run_worker(REPO / "src", tmp / "threads.npz", 2))
        return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
