"""A miniature version of the sweep that answers "does sharing help".

The driver trains every cell of {task subsets} x {sharing on, off} under one
frozen budget, uses the single-task cells as baselines, and reports relative
performance per task.  All rows carry the same budget hash, which is what
makes them comparable; the relative column of a single-task row is 0 by
construction, since it is its own baseline.
"""

from mtformer.ablation import ablate, shared_comparison
from mtformer.config import ArchConfig
from mtformer.synthetic import generate_sample
from mtformer.training import RunOptions

cfg = ArchConfig(img_size=32, base_channels=8,
                 stage_depths=(1, 1, 1, 1), heads=1, window=1,
                 tasks=("D", "E"), reference_task="D",
                 mlp_ratio=2)
data = [generate_sample(s, 32) for s in range(4)]
options = RunOptions(steps=40, batch_size=2, seed=0, peak_lr=2e-3,
                     warmup_steps=8)

rows = ablate(cfg, data, options)

print(f"{len(rows)} runs, budget hash {rows[0].budget_hash[:12]}.. on all:",
      len({r.budget_hash for r in rows}) == 1)
print(f"\n{'run':14} {'shared':6} {'params':>8}  losses (D, E)        relative %")
for r in rows:
    losses = "  ".join("   --" if r.losses[t] is None else f"{r.losses[t]:.3f}"
                       for t in ("D", "E"))
    rel = "  ".join("    --" if r.relative[t] is None else f"{r.relative[t]:+6.1f}"
                    for t in ("D", "E"))
    print(f"{r.run:14} {str(r.shared_attention):6} {r.parameters:>8,}  "
          f"{losses:20} {rel}")

summary = shared_comparison(rows)
print(f"\nsharing on vs off for {'+'.join(summary['tasks'])}: "
      f"helped or tied on {summary['better_or_equal']}"
      f"/{len(summary['tasks'])} tasks")
for t, d in summary["deltas"].items():
    print(f"  {t}: {d:+.2f} percentage points")
