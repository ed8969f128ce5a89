"""What the benchmark under perfbench/ needs from the package.

The benchmark wraps package functions by module and attribute name and
reports one per-layer metric per name in BENCHMARK.json; a rename in the
package would otherwise surface only as a broken traced benchmark run.
"""

import importlib.util
import json
from pathlib import Path

from mtformer import training
from test_training import tiny_cfg, tiny_data, tiny_options

ROOT = Path(__file__).resolve().parents[1]

# sites BENCHMARK.json still lists whose function the package no longer
# looks up there; each metric they feed also reads a site that resolves
STALE_SITES = {"layers.apply_attention@decoder"}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves_and_every_per_layer_metric_is_reported():
    tracing = _tracing()
    tracer = tracing.Tracer()
    before = training.forward
    tracer.install()
    try:
        assert training.forward is not before  # wrapped where train looks it up
        metrics = tracing.per_layer_metrics(tracer, [], {}, 0.0)
    finally:
        tracer.uninstall()
    assert training.forward is before
    assert tracer.absent <= STALE_SITES, sorted(tracer.absent - STALE_SITES)
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert not set(declared) - set(metrics), sorted(set(declared) - set(metrics))
    assert [n for n in declared if metrics[n]["value"] is None] == []


def test_train_calls_lr_schedule_once_per_step_then_evaluate_once(monkeypatch):
    # the train workload times each step between these calls
    calls = []

    def mark(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(training, "lr_schedule", mark("lr", training.lr_schedule))
    monkeypatch.setattr(training, "evaluate", mark("eval", training.evaluate))
    training.train(tiny_cfg(), tiny_data(count=2), tiny_options(steps=3, batch_size=1))
    assert calls == ["lr", "lr", "lr", "eval"]
