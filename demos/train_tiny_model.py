"""Train the smallest legal model for a minute and watch the pieces work.

Covers the full loop: synthetic data, seeded init, warmup-cosine schedule,
decoupled weight decay, per-step metrics, checkpointing, and the guarantee
that evaluation of the saved file reproduces the final training record.
"""

import os
import tempfile

from mtformer.config import ArchConfig, count_parameters
from mtformer.synthetic import generate_sample
from mtformer.training import RunOptions, evaluate, load_checkpoint, train

cfg = ArchConfig(img_size=32, base_channels=8,
                 stage_depths=(1, 1, 1, 1), heads=1, window=1,
                 tasks=("S", "D", "N"), reference_task="N",
                 mlp_ratio=2)
data = [generate_sample(s, 32) for s in range(4)]
options = RunOptions(steps=60, batch_size=2, seed=0, peak_lr=2e-3,
                     warmup_steps=10)

with tempfile.TemporaryDirectory() as tmp:
    ckpt = os.path.join(tmp, "tiny.mtck")
    result = train(cfg, data, options, ckpt_path=ckpt)

    n_params = count_parameters(cfg).total
    print(f"trained {options.steps} steps in {result.wall_time:.1f}s "
          f"({n_params:,} parameters)")
    for record in result.metrics[::12]:
        if "total" in record:
            per_task = "  ".join(f"{t}={v:.3f}"
                                 for t, v in record["losses"].items())
            print(f"  step {record['step']:3d}  lr {record['lr']:.2e}  "
                  f"total {record['total']:.4f}  [{per_task}]")
    final = result.metrics[-1]["losses"]
    print("final per-task means:",
          "  ".join(f"{t}={v:.4f}" for t, v in final.items()))

    model, opt, step, _ = load_checkpoint(ckpt)
    again = evaluate(model, data)
    print(f"\ncheckpoint at step {step}, optimizer step {opt.step}")
    print("evaluate(loaded) == final record:", again == final)
