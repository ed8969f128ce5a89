"""Walk through the window machinery: partition, shift, mask, bias.

Attention here never runs over the whole image; tokens are grouped into
non-overlapping square windows, and alternating blocks cyclically roll the
grid so information crosses window borders.  The roll drags distant pixels
next to each other across the wrap seam, and the shift mask forbids exactly
those pairs.  The model never rolls or cuts a map itself: it gathers its
row-major tokens once through the grid's cached ``window_order``.
"""

import numpy as np

from mtformer.layers import attention_weights, window_order
from mtformer.tensor import Tensor
from mtformer.windowing import (WindowGrid, cyclic_shift, shift_mask,
                                window_partition, window_reverse)

rng = np.random.default_rng(7)

# partition and reverse are exact inverses
x = Tensor(rng.normal(size=(8, 8, 3)))
wins = window_partition(x, 4)
print(f"8x8 grid -> {wins.shape[0]} windows of {wins.shape[1]} tokens")
print("reverse is exact:", np.array_equal(window_reverse(wins, 8, 8).data, x.data))

# the shift mask in ASCII: one window of a rolled 4x4 grid, window 2, shift 1.
# rows and columns are tokens; '.' may attend, 'x' is blocked.  Next to it,
# the map positions (row-major token ids 0..15) the gather puts in each window
grid = WindowGrid(4, 4, 2, 1)
mask = shift_mask(grid).data
order, inverse = window_order(grid)
print("\nper-window blocked pairs after the roll, and the tokens gathered:")
for w in range(mask.shape[0]):
    rows = ["".join("." if mask[w, a, b] == 0 else "x" for b in range(4))
            for a in range(4)]
    print(f"  window {w}: " + "  ".join(rows) + f"   tokens {order[4 * w:4 * w + 4].tolist()}")
print(f"inverse gather back to map order: {inverse.tolist()}")

# masked pairs get probability ~0 but rows still sum to one.  Layers read
# their parameters by name from one flat dict; "demo" is this block's prefix
c, heads = 4, 2
params = {"demo.q.weight": Tensor(rng.normal(size=(c, c))), "demo.q.bias": Tensor(np.zeros(c)),
          "demo.k.weight": Tensor(rng.normal(size=(c, c))), "demo.k.bias": Tensor(np.zeros(c)),
          "demo.bias_table": Tensor(rng.normal(size=(9, heads)))}
rolled = cyclic_shift(Tensor(rng.normal(size=(4, 4, c))), grid.shift)
probs = attention_weights(window_partition(rolled, grid.win), params, "demo", grid).data
blocked = np.broadcast_to((mask != 0)[:, None], probs.shape)
print(f"\nmax probability on a blocked pair: {probs[blocked].max():.2e}")
print(f"row sums span {probs.sum(-1).min():.12f}..{probs.sum(-1).max():.12f}")

# the relative position bias is looked up by displacement, not position:
# every token pair with the same offset shares one learned scalar per head
from mtformer.windowing import rel_pos_index

idx = np.asarray(rel_pos_index(3))
pairs = {}
for a in range(9):
    for b in range(9):
        d = (a // 3 - b // 3, a % 3 - b % 3)
        pairs.setdefault(d, set()).add(int(idx[a, b]))
print(f"\nwindow 3: {len(pairs)} distinct displacements, "
      f"each mapping to exactly one table row: "
      f"{all(len(v) == 1 for v in pairs.values())}")
