"""Timing wrappers around mtformer's public functions, and the per-layer
metrics derived from the spans they record.

Each wrapper is installed in the module namespace where the caller looks the
function up, so `mtformer.encoder.attention_block` and
`mtformer.decoder.attention_block` are two sites with two span names.  A span
is (name, start, end, parent); spans stay in memory until the run ends.  A
span's self time is its duration minus the durations of its child spans:
everything runs on one thread, so children never overlap.
"""

from __future__ import annotations

import bisect
import importlib
import json
import time
from collections import defaultdict

# (module, attribute the caller looks up, span name).  The span name is
# "<layer>.<function>", with "@<site>" where one function has two sites.
SITES = (
    ("mtformer.tensor", "Tape.backward", "tensor.backward"),
    ("mtformer.training", "forward", "model.forward"),
    ("mtformer.training", "init_params", "model.init_params"),
    ("mtformer.model", "encode", "encoder.encode"),
    ("mtformer.encoder", "patch_embed", "encoder.patch_embed"),
    ("mtformer.encoder", "patch_merge", "encoder.patch_merge"),
    ("mtformer.encoder", "attention_block", "layers.attention_block@encoder"),
    ("mtformer.decoder", "attention_block", "layers.attention_block@decoder"),
    ("mtformer.layers", "attention_weights", "layers.attention_weights@layers"),
    ("mtformer.decoder", "attention_weights", "layers.attention_weights@decoder"),
    ("mtformer.layers", "apply_attention", "layers.apply_attention@layers"),
    ("mtformer.decoder", "apply_attention", "layers.apply_attention@decoder"),
    ("mtformer.layers", "cyclic_shift", "windowing.cyclic_shift"),
    ("mtformer.layers", "window_partition", "windowing.window_partition"),
    ("mtformer.layers", "shift_mask", "windowing.shift_mask"),
    ("mtformer.model", "decode", "decoder.decode"),
    ("mtformer.decoder", "decoder_stage", "decoder.stage"),
    ("mtformer.decoder", "patch_expand", "decoder.patch_expand"),
    ("mtformer.model", "task_head", "decoder.task_head"),
    ("mtformer.training", "per_task_loss", "losses.per_task_loss"),
    ("mtformer.training", "combine_losses", "losses.combine"),
    ("mtformer.training", "adamw_step", "optim.adamw_step"),
    ("mtformer.training", "evaluate", "training.evaluate"),
    ("mtformer.training", "save_checkpoint", "training.save_checkpoint"),
    ("mtformer.training", "load_checkpoint", "training.load_checkpoint"),
    ("mtformer.synthetic", "generate_sample", "synthetic.generate_sample"),
    ("mtformer.synthetic", "write_dataset", "synthetic.write_dataset"),
    ("mtformer.synthetic", "read_dataset", "synthetic.read_dataset"),
)

# layers whose self time is reported per op
LAYERS = ("tensor", "model", "encoder", "layers", "windowing", "decoder",
          "losses", "optim", "training", "synthetic")

MIB = float(1 << 20)


def _resolve(module: str, attr: str):
    """(owner, leaf attribute) for a dotted attribute, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, leaf) if callable(getattr(owner, leaf, None)) else None


class Tracer:
    """Records spans for every call through the installed wrappers."""

    def __init__(self):
        self.names = [name for _, _, name in SITES]
        self.spans: list = []   # [name index, start, end, parent span index or -1]
        self.absent: set = set()
        self.records: list = []      # Tape.backward return values
        self.mismatches: list = []   # per forward: predictions off the parameter dtype
        self._stack: list = []
        self._undo: list = []

    def install(self) -> None:
        hooks = {"tensor.backward": lambda args, visited: self.records.append(visited),
                 "model.forward": self._count_mismatch}
        for index, (module, attr, name) in enumerate(SITES):
            found = _resolve(module, attr)
            if found is None:
                self.absent.add(name)
                continue
            owner, leaf = found
            original = getattr(owner, leaf)
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, index, hooks.get(name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def _wrap(self, fn, index, on_return):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _count_mismatch(self, args, preds) -> None:
        param_dtype = next(iter(args[0].flat.values())).data.dtype
        self.mismatches.append(sum(p.data.dtype != param_dtype for p in preds.values()))

    # ------------------------------------------------------------ reporting

    def summary(self, windows: list) -> dict:
        """Per span name: calls and inclusive seconds over the whole traced
        phase, plus calls and self seconds inside op windows."""
        starts = [w[0] for w in windows]
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "s": 0.0, "op_calls": 0, "op_self_s": 0.0}
               for name in self.names}
        for i, (index, start, end, _) in enumerate(self.spans):
            row = out[self.names[index]]
            row["calls"] += 1
            row["s"] += end - start
            w = bisect.bisect_right(starts, start) - 1
            if w >= 0 and start < windows[w][1]:
                row["op_calls"] += 1
                row["op_self_s"] += end - start - child[i]
        return out

    def write(self, path, windows: list) -> None:
        with open(path, "w") as f:
            json.dump({"names": self.names, "absent": sorted(self.absent),
                       "ops": windows, "summary": self.summary(windows),
                       "spans": self.spans}, f, separators=(",", ":"))


def per_layer_metrics(tracer: Tracer, windows: list, file_sizes: dict,
                      overhead_ratio: float) -> dict:
    """Every per-layer metric of BENCHMARK.json; None marks a metric whose
    public functions no longer exist.  `_ms` is mean inclusive milliseconds
    per call over the traced phase; `_calls` and `_per_step` count calls
    inside op windows per op."""
    rows = tracer.summary(windows)
    ops = max(len(windows), 1)

    def present(names):
        return [n for n in names if n not in tracer.absent]

    def ms(*names):
        names = present(names)
        if not names:
            return None
        calls = sum(rows[n]["calls"] for n in names)
        return 1e3 * sum(rows[n]["s"] for n in names) / calls if calls else 0.0

    def per_op(*names):
        names = present(names)
        return sum(rows[n]["op_calls"] for n in names) / ops if names else None

    def mean(values, *names):
        if not present(names):
            return None
        return sum(values) / len(values) if values else 0.0

    def shared_ms():
        # shared weights plus their application, per decoder stage
        names = present(("layers.attention_weights@decoder", "layers.apply_attention@decoder"))
        if not names or "decoder.stage" in tracer.absent:
            return None
        stages = rows["decoder.stage"]["calls"]
        return 1e3 * sum(rows[n]["s"] for n in names) / stages if stages else 0.0

    blocks = ("layers.attention_block@encoder", "layers.attention_block@decoder")
    weights = ("layers.attention_weights@layers", "layers.attention_weights@decoder")
    applies = ("layers.apply_attention@layers", "layers.apply_attention@decoder")
    metrics = {
        "tensor.backward_ms": (ms("tensor.backward"), "ms"),
        "tensor.backward_calls_per_step": (per_op("tensor.backward"), "count"),
        "tensor.tape_records_per_sample": (mean(tracer.records, "tensor.backward"), "count"),
        "model.forward_ms": (ms("model.forward"), "ms"),
        "model.init_params_ms": (ms("model.init_params"), "ms"),
        "model.pred_dtype_mismatch": (mean(tracer.mismatches, "model.forward"), "count"),
        "encoder.encode_ms": (ms("encoder.encode"), "ms"),
        "encoder.patch_embed_ms": (ms("encoder.patch_embed"), "ms"),
        "encoder.patch_merge_ms": (ms("encoder.patch_merge"), "ms"),
        "layers.attention_block_ms": (ms(*blocks), "ms"),
        "layers.attention_block_calls": (per_op(*blocks), "count"),
        "layers.attention_weights_ms": (ms(*weights), "ms"),
        "layers.apply_attention_ms": (ms(*applies), "ms"),
        "windowing.cyclic_shift_calls": (per_op("windowing.cyclic_shift"), "count"),
        "windowing.window_partition_calls": (per_op("windowing.window_partition"), "count"),
        "windowing.window_partition_ms": (ms("windowing.window_partition"), "ms"),
        "windowing.shift_mask_ms": (ms("windowing.shift_mask"), "ms"),
        "decoder.decode_ms": (ms("decoder.decode"), "ms"),
        "decoder.stage_ms": (ms("decoder.stage"), "ms"),
        "decoder.self_block_ms": (ms("layers.attention_block@decoder"), "ms"),
        "decoder.shared_ms": (shared_ms(), "ms"),
        "decoder.patch_expand_ms": (ms("decoder.patch_expand"), "ms"),
        "decoder.task_head_ms": (ms("decoder.task_head"), "ms"),
        "losses.per_task_loss_ms": (ms("losses.per_task_loss"), "ms"),
        "losses.combine_ms": (ms("losses.combine"), "ms"),
        "optim.adamw_step_ms": (ms("optim.adamw_step"), "ms"),
        "training.evaluate_ms": (ms("training.evaluate"), "ms"),
        "training.save_checkpoint_ms": (ms("training.save_checkpoint"), "ms"),
        "training.load_checkpoint_ms": (ms("training.load_checkpoint"), "ms"),
        "training.checkpoint_mb": (file_sizes.get("checkpoint", 0) / MIB, "MiB"),
        "synthetic.generate_sample_ms": (ms("synthetic.generate_sample"), "ms"),
        "synthetic.write_dataset_ms": (ms("synthetic.write_dataset"), "ms"),
        "synthetic.read_dataset_ms": (ms("synthetic.read_dataset"), "ms"),
        "synthetic.dataset_mb": (file_sizes.get("dataset", 0) / MIB, "MiB"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    for layer in LAYERS:
        self_s = sum(row["op_self_s"] for name, row in rows.items()
                     if name.split(".")[0] == layer)
        metrics[f"{layer}.self_ms_per_op"] = (1e3 * self_s / ops, "ms")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
