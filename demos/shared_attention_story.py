"""What attention sharing means, shown on a small multitask model.

Every decoder stage has two blocks.  The second one computes its attention
pattern once, from the encoder skip feature through the reference task's
query/key projections, and every task's value stream reuses that pattern.
Three consequences, each demonstrated below: tasks with identical private
parameters produce identical outputs, the shared projections are trained by
every task's loss, and every non-reference task sheds its own q/k/table.
"""

import numpy as np
from dataclasses import replace

from mtformer.config import ArchConfig, count_parameters
from mtformer.losses import per_task_loss
from mtformer.model import forward, init_params
from mtformer.synthetic import generate_sample
from mtformer.tensor import Tape, Tensor, zero_grad
from mtformer.training import RunOptions, train

cfg = ArchConfig(img_size=64, base_channels=8,
                 stage_depths=(1, 1, 2, 1), heads=1, window=2,
                 tasks=("D", "K", "E"), reference_task="D",
                 mlp_ratio=2)

# 1. one attention pattern: clone D's private parameters into K and E and
# the three outputs collapse onto each other
# (decoder tensors hold one slice per task along their leading axis)
model = init_params(cfg, seed=0)
for name, p in model.flat.items():
    for clone in ("K", "E"):
        if name in model.stacked:
            p.data[cfg.tasks.index(clone)] = p.data[cfg.tasks.index("D")]
        elif name.startswith(f"head.{clone}."):
            p.data = model.flat[name.replace(f"head.{clone}.", "head.D.", 1)].data.copy()
img = Tensor(np.random.default_rng(1).uniform(size=(64, 64, 3)))
preds = forward(model, img)
print("cloned streams agree:",
      f"D vs K {np.abs(preds['D'].data - preds['K'].data).max():.2e},",
      f"D vs E {np.abs(preds['D'].data - preds['E'].data).max():.2e}")

# 2. the shared q/k belong to the reference task but learn from everyone.
# Trained briefly first so attention has left its near-uniform init; the
# magnitudes stay small this early because the logits are still gentle.
# Gradients here are exact, so any nonzero value is structural signal and
# the one exact zero is too: the deepest stage is a lone fully masked
# shifted 2x2 window whose one-hot attention passes nothing


def reach(params, task=None):
    """Largest |grad| over ``params``, or over one task's slice of each."""
    k = None if task is None else cfg.tasks.index(task)
    return max(0.0 if p.grad is None else np.abs(p.grad if k is None else p.grad[k]).max()
               for p in params)


data = [generate_sample(s, 64) for s in range(4)]
options = RunOptions(steps=100, batch_size=2, seed=0, peak_lr=1e-3,
                     warmup_steps=20, weight_decay=0.0)
model = train(cfg, data, options).model
sample = data[0]
img = Tensor(np.asarray(sample.rgb, dtype=np.float64))
for task in cfg.tasks:
    zero_grad(model.flat.values())
    with Tape() as tape:
        tape.backward(per_task_loss(task, forward(model, img)[task],
                                    sample.target(task)))
    per_stage = [reach([model.flat[f"decoder.s{i}.shared.q.weight"]]) for i in range(4)]
    print(f"loss of task {task} reaches the shared q: |grad| up to "
          f"{max(per_stage):.2e} (deep to shallow: "
          + " ".join(f"{g:.1e}" for g in per_stage) + ")")

# without sharing every stream keeps a private q that only its own loss
# can touch
solo = train(replace(cfg, shared_attention=False), data, options).model
zero_grad(solo.flat.values())
with Tape() as tape:
    tape.backward(per_task_loss("K", forward(solo, img)["K"], sample.target("K")))
own_q = [solo.flat[f"decoder.s{i}.b2.q.weight"] for i in range(4)]
own, other = reach(own_q, "K"), reach(own_q, "D")
print(f"unshared: K's loss on its own q {own:.2e}, on D's q {other:.2e}")

# 3. sharing removes per-task q/k/table weight, so more tasks save more
for tasks in (("D", "K"), ("S", "D", "N", "K", "E", "R")):
    on = count_parameters(replace(cfg, tasks=tasks, reference_task=tasks[0]))
    off = count_parameters(replace(cfg, tasks=tasks, reference_task=tasks[0],
                                   shared_attention=False))
    print(f"{len(tasks)} tasks: shared {on.total:,} vs separate {off.total:,} "
          f"({off.total - on.total:,} fewer)")
