"""Training loop, evaluation, checkpoint format, and model-level grad checks."""

import json
import re
import struct
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtformer.config import ABLATION_AXES, TASKS, ArchConfig, from_text
from mtformer.optim import OptimState, adamw_step
from mtformer.errors import (ConfigurationError, DataError, DimensionError,
                             FormatError, NumericsError)
from mtformer.files import ALIGN, padding
from mtformer.synthetic import generate_sample
from mtformer.training import (RunOptions, budget_hash, check_model_gradients,
                               config_hash, evaluate, load_checkpoint,
                               lr_schedule, save_checkpoint, train)


def tiny_cfg(tasks=("S", "D"), shared=True, **overrides):
    """Smallest legal geometry: 32px image, 8 channels, window 1."""
    base = ArchConfig(img_size=32, base_channels=8,
                      stage_depths=(1, 1, 1, 1), heads=1, window=1,
                      tasks=tasks, reference_task=tasks[0],
                      mlp_ratio=2, shared_attention=shared)
    return replace(base, **overrides) if overrides else base


def tiny_data(count=4, size=32, base_seed=0):
    return [generate_sample(base_seed + i, size) for i in range(count)]


def tiny_options(**overrides):
    base = dict(steps=3, batch_size=2, seed=7, peak_lr=1e-3, warmup_steps=1)
    base.update(overrides)
    return RunOptions(**base)


def test_same_seed_runs_match_exactly():
    cfg, data = tiny_cfg(), tiny_data()
    a = train(cfg, data, tiny_options())
    b = train(cfg, data, tiny_options())
    assert a.config_hash == b.config_hash
    assert a.budget_hash == b.budget_hash
    assert len(a.metrics) == len(b.metrics)
    for ra, rb in zip(a.metrics, b.metrics):
        for t, v in ra["losses"].items():
            assert abs(v - rb["losses"][t]) <= 1e-6
            assert v == rb["losses"][t]  # float64 on one machine is bitwise
    for name, p in a.model.flat.items():
        np.testing.assert_array_equal(p.data, b.model.flat[name].data)


def test_train_returns_no_stale_gradients():
    result = train(tiny_cfg(), tiny_data(), tiny_options())
    assert all(p.grad is None for p in result.model.flat.values())


def test_different_seed_changes_trajectory():
    cfg, data = tiny_cfg(), tiny_data()
    a = train(cfg, data, tiny_options(seed=7))
    b = train(cfg, data, tiny_options(seed=8))
    assert any(ra["total"] != rb["total"]
               for ra, rb in zip(a.metrics[:-1], b.metrics[:-1]))


def test_metrics_record_shape_and_schedule():
    cfg, data = tiny_cfg(), tiny_data()
    opts = tiny_options(steps=4)
    res = train(cfg, data, opts)
    assert len(res.metrics) == opts.steps + 1
    for step, rec in enumerate(res.metrics[:-1]):
        assert rec["step"] == step
        assert rec["lr"] == lr_schedule(step, opts)
        assert set(rec["losses"]) == set(cfg.tasks)
        assert set(rec["weights"]) == set(cfg.tasks)
        assert np.isfinite(rec["total"])
    final = res.metrics[-1]
    assert final == {"final_eval": True, "step": opts.steps, "losses": final["losses"]}


def test_final_record_matches_evaluate():
    cfg, data = tiny_cfg(), tiny_data()
    res = train(cfg, data, tiny_options())
    again = evaluate(res.model, data)
    assert again == res.metrics[-1]["losses"]


def test_training_reduces_loss_on_fixed_sample():
    # one sample repeated: pure memorization, loss must head down
    cfg = tiny_cfg()
    data = tiny_data(count=1)
    res = train(cfg, data, tiny_options(steps=30, batch_size=1, peak_lr=3e-3,
                                        warmup_steps=3))
    first = res.metrics[0]["total"]
    last = res.metrics[-2]["total"]
    assert last < first


def test_checkpoint_roundtrip(tmp_path):
    cfg, data = tiny_cfg(), tiny_data()
    ckpt = tmp_path / "run.mtck"
    res = train(cfg, data, tiny_options(), ckpt_path=ckpt)
    model, opt, step, budget = load_checkpoint(ckpt)
    assert step == 3
    assert budget == res.budget_hash
    assert model.cfg == cfg
    for name, p in res.model.flat.items():
        np.testing.assert_array_equal(p.data, model.flat[name].data)
    assert opt.step == res.optim.step
    assert opt.weight_decay == res.optim.weight_decay
    for name in res.model.flat:
        np.testing.assert_array_equal(opt.m[name], res.optim.m[name])
        np.testing.assert_array_equal(opt.v[name], res.optim.v[name])
    assert evaluate(model, data) == res.metrics[-1]["losses"]


def test_checkpoint_load_draws_no_random_numbers(tmp_path, monkeypatch):
    cfg, data = tiny_cfg(), tiny_data()
    ckpt = tmp_path / "run.mtck"
    res = train(cfg, data, tiny_options(), ckpt_path=ckpt)

    def no_draws(*args, **kwargs):
        raise AssertionError("loading a checkpoint must not draw an initialization")

    monkeypatch.setattr("mtformer.model.np.random.default_rng", no_draws)
    model, opt, _, _ = load_checkpoint(ckpt)
    assert list(model.flat) == list(res.model.flat)
    for name, p in res.model.flat.items():
        assert model.flat[name].data.tobytes() == p.data.tobytes(), name
        assert opt.m[name].tobytes() == res.optim.m[name].tobytes(), name
        assert opt.v[name].tobytes() == res.optim.v[name].tobytes(), name


def test_evaluate_of_loaded_checkpoint_reproduces_final_record(tmp_path):
    cfg, data = tiny_cfg(), tiny_data()
    ckpt = tmp_path / "run.mtck"
    res = train(cfg, data, tiny_options(), ckpt_path=ckpt)
    model, _, _, _ = load_checkpoint(ckpt)
    assert evaluate(model, data) == res.metrics[-1]["losses"]


def test_checkpoint_without_optimizer(tmp_path):
    from mtformer.model import init_params
    model = init_params(tiny_cfg(), seed=3)
    path = tmp_path / "bare.mtck"
    save_checkpoint(path, model, None, 5, "abc")
    loaded, opt, step, budget = load_checkpoint(path)
    assert opt is None and step == 5 and budget == "abc"
    for name, p in model.flat.items():
        np.testing.assert_array_equal(p.data, loaded.flat[name].data)


def test_checkpoint_float32_roundtrip(tmp_path):
    from mtformer.model import init_params
    model = init_params(tiny_cfg(), seed=1, dtype=np.float32)
    path = tmp_path / "f32.mtck"
    save_checkpoint(path, model, None, 1)
    loaded, _, _, _ = load_checkpoint(path)
    p = next(iter(loaded.flat.values()))
    assert p.data.dtype == np.float32
    for name, t in model.flat.items():
        np.testing.assert_array_equal(t.data, loaded.flat[name].data)


class _FailingFile:
    """Writes through to ``f`` until the bytes left in ``budget`` (a one-item
    list shared by every file opened under the patch) are spent, then raises."""

    def __init__(self, f, budget):
        self.f, self.budget = f, budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()
        return False

    def write(self, b):
        if len(b) > self.budget[0]:
            self.f.write(b[:self.budget[0]])
            raise OSError("simulated failure halfway through the write")
        self.budget[0] -= len(b)
        return self.f.write(b)


def fail_writes_after(monkeypatch, budget):
    """Make the files the package writes raise once ``budget`` bytes, counted
    across files, have been written."""
    from mtformer import files
    left = [budget]

    def failing_open(file, mode="r", *args, **kwargs):
        return _FailingFile(open(file, mode, *args, **kwargs), left)

    monkeypatch.setattr(files, "open", failing_open, raising=False)


def test_failed_checkpoint_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    from mtformer.model import init_params
    path = tmp_path / "run.mtck"
    old = init_params(tiny_cfg(), seed=1)
    save_checkpoint(path, old, None, 1, "old")
    before = path.read_bytes()

    fail_writes_after(monkeypatch, len(before) // 2)
    with pytest.raises(OSError, match="halfway"):
        save_checkpoint(path, init_params(tiny_cfg(), seed=2), None, 2, "new")
    monkeypatch.undo()

    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.mtck"]
    assert path.read_bytes() == before
    loaded, _, step, budget = load_checkpoint(path)
    assert (step, budget) == (1, "old")
    for name, p in old.flat.items():
        assert loaded.flat[name].data.tobytes() == p.data.tobytes()


def _valid_ckpt_bytes(tmp_path):
    from mtformer.model import init_params
    model = init_params(tiny_cfg(tasks=("S",)), seed=0)
    path = tmp_path / "ok.mtck"
    save_checkpoint(path, model, None, 2)
    return path, path.read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path, blob = _valid_ckpt_bytes(tmp_path)
    path.write_bytes(b"XTCK" + blob[4:])
    with pytest.raises(FormatError, match="offset 0"):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_version(tmp_path):
    path, blob = _valid_ckpt_bytes(tmp_path)
    path.write_bytes(blob[:4] + (99).to_bytes(4, "little") + blob[8:])
    with pytest.raises(FormatError, match="version 99"):
        load_checkpoint(path)


def test_checkpoint_rejects_per_task_layout_version_1(tmp_path):
    # version 1 stored one tensor per task decoder, version 2 the patch size,
    # shift, class count and Adam betas/eps, version 3 two head tuples and
    # the decoder MLP ratio, version 4 its arrays unaligned; those files
    # cannot load
    path, blob = _valid_ckpt_bytes(tmp_path)
    for version in (1, 2, 3, 4):
        path.write_bytes(blob[:4] + version.to_bytes(4, "little") + blob[8:])
        with pytest.raises(FormatError, match=f"version {version}"):
            load_checkpoint(path)


def test_checkpoint_rejects_unknown_dtype_code(tmp_path):
    path, blob = _valid_ckpt_bytes(tmp_path)
    path.write_bytes(blob[:8] + (7).to_bytes(4, "little") + blob[12:])
    with pytest.raises(FormatError, match="dtype code 7"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path, blob = _valid_ckpt_bytes(tmp_path)
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError, match="truncated at offset"):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path, blob = _valid_ckpt_bytes(tmp_path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_rejects_name_mismatch(tmp_path):
    path, blob = _valid_ckpt_bytes(tmp_path)
    marker = b"patch_embed.weight"
    assert marker in blob
    path.write_bytes(blob.replace(marker, b"patch_embed.wEIGHT", 1))
    with pytest.raises(FormatError, match="order mismatch"):
        load_checkpoint(path)


def _payload_spans(blob, model, with_opt):
    """Where the fields of a checkpoint of ``model`` start, walked with the
    padding rule of ``files``: the config text, then per tensor its name,
    the zero run before its data and the data, then the zero run before
    each moment and the moment, in file order."""
    (cfg_len,) = struct.unpack_from("<I", blob, 20)
    at = 24 + cfg_len
    (budget_len,) = struct.unpack_from("<I", blob, at)
    at += 4 + budget_len + 4
    spans = {"config": (24, cfg_len), "names": [], "padding": [], "params": [], "moments": []}

    def payload(key, nbytes):
        nonlocal at
        spans["padding"].append((at, padding(at)))
        at += padding(at)
        spans[key].append((at, nbytes))
        at += nbytes

    for p in model.flat.values():
        (nlen,) = struct.unpack_from("<H", blob, at)
        spans["names"].append((at + 2, nlen))
        at += 2 + nlen + 1 + 4 * p.data.ndim
        payload("params", p.data.nbytes)
    at += 1  # the optimizer flag
    if with_opt:
        at += 16  # weight decay and step
        for p in model.flat.values():
            payload("moments", p.data.nbytes)  # first
            payload("moments", p.data.nbytes)  # second
    assert at == len(blob)
    return spans


def _moved_model(cfg, dtype=np.float64):
    """A model of ``cfg`` after one AdamW step, and its optimizer state."""
    from mtformer.model import init_params
    model = init_params(cfg, seed=0, dtype=dtype)
    opt = OptimState()
    rng = np.random.default_rng(0)
    adamw_step(model.flat, {n: rng.normal(0.0, 1e-3, p.data.shape)
                            for n, p in model.flat.items()}, opt, 1e-4)
    return model, opt


def _ckpt_with_optimizer(tmp_path):
    """A checkpoint with optimizer state, its bytes, and where its fields
    start (``_payload_spans``)."""
    model, opt = _moved_model(tiny_cfg(tasks=("S",)))
    path = tmp_path / "opt.mtck"
    save_checkpoint(path, model, opt, opt.step, "budget")
    blob = path.read_bytes()
    return path, blob, _payload_spans(blob, model, True)


def test_checkpoint_truncation_names_the_field_it_cuts(tmp_path):
    path, blob, spans = _ckpt_with_optimizer(tmp_path)
    runs = [span for span in spans["padding"] if span[1] > 1]
    cuts = [spans["config"], spans["names"][0], spans["names"][-1], runs[0], runs[-1],
            spans["params"][0], spans["params"][-1],
            spans["moments"][0], spans["moments"][1], spans["moments"][-1]]
    for start, n in cuts:
        for cut in (start, start + n // 2, start + n - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError) as err:
                load_checkpoint(path)
            assert str(err.value) == (f"checkpoint truncated at offset {start}, "
                                      f"needed {n} more bytes"), cut


def test_checkpoint_counts_trailing_bytes(tmp_path):
    path, blob, _ = _ckpt_with_optimizer(tmp_path)
    path.write_bytes(blob + b"\x00\x01\x02")
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"3 trailing bytes at offset {len(blob)}"


def test_checkpoint_names_the_offset_of_undecodable_text(tmp_path):
    path, blob, spans = _ckpt_with_optimizer(tmp_path)
    start, _ = spans["names"][1]
    path.write_bytes(blob[:start + 3] + b"\xff" + blob[start + 4:])
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"undecodable text at offset {start + 3}"


@pytest.mark.parametrize("good, bad", [
    (b"img_size=32", b"img_size=3x"),  # not a number
    (b"img_size=32", b"img_size=31"),  # a number no config takes
    (b"window=", b"windoW="),  # no such key
])
def test_checkpoint_names_the_offset_of_a_bad_config_text(tmp_path, good, bad):
    path, blob, spans = _ckpt_with_optimizer(tmp_path)
    start, n = spans["config"]
    text = blob[start:start + n]
    assert good in text
    text = text.replace(good, bad, 1)
    with pytest.raises(ConfigurationError) as parsed:
        from_text(text.decode())
    path.write_bytes(blob[:start] + text + blob[start + n:])
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"bad config text at offset 24: {parsed.value}"


def test_missing_moments_are_saved_as_zeros(tmp_path):
    path, _, _ = _ckpt_with_optimizer(tmp_path)
    model, full, step, _ = load_checkpoint(path)
    names = list(model.flat)
    partial = OptimState(weight_decay=full.weight_decay, step=full.step,
                         m={n: full.m[n] for n in names[::2]},
                         v={n: full.v[n] for n in names[::3]})
    zeroed = OptimState(weight_decay=full.weight_decay, step=full.step,
                        m={n: partial.m.get(n, np.zeros_like(full.m[n])) for n in names},
                        v={n: partial.v.get(n, np.zeros_like(full.v[n])) for n in names})
    save_checkpoint(tmp_path / "partial.mtck", model, partial, step)
    save_checkpoint(tmp_path / "zeroed.mtck", model, zeroed, step)
    assert (tmp_path / "partial.mtck").read_bytes() == (tmp_path / "zeroed.mtck").read_bytes()
    _, back, _, _ = load_checkpoint(tmp_path / "partial.mtck")
    for n in names:
        assert back.m[n].tobytes() == zeroed.m[n].tobytes(), n
        assert back.v[n].tobytes() == zeroed.v[n].tobytes(), n


def test_checkpoint_save_copies_no_tensor(tmp_path):
    path, _, _ = _ckpt_with_optimizer(tmp_path)
    model, opt, step, _ = load_checkpoint(path)
    largest = max(p.data.nbytes for p in model.flat.values())
    tracemalloc.start()
    try:
        save_checkpoint(path, model, opt, step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < largest


def test_checkpoint_load_copies_no_tensor(tmp_path):
    # six tasks, so the largest tensor (a stacked decoder weight) outweighs
    # the view and Tensor objects of every array
    model, opt = _moved_model(tiny_cfg(tasks=TASKS))
    path = tmp_path / "six.mtck"
    save_checkpoint(path, model, opt, opt.step)
    load_checkpoint(path)  # the config's layout is walked once per process
    largest = max(p.data.nbytes for p in model.flat.values())
    tracemalloc.start()
    try:
        loaded, _, _, _ = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(loaded.flat) == list(model.flat)
    assert peak < largest, (peak, largest)


def test_loaded_arrays_are_aligned_private_views(tmp_path):
    path, blob, _ = _ckpt_with_optimizer(tmp_path)
    model, opt, _, _ = load_checkpoint(path)
    arrays = [p.data for p in model.flat.values()] + list(opt.m.values()) + list(opt.v.values())
    for a in arrays:
        assert a.ctypes.data % ALIGN == 0
        assert a.flags.c_contiguous and a.flags.writeable and not a.flags.owndata
    for a in arrays:
        a += 1.0
    assert path.read_bytes() == blob
    again, _, _, _ = load_checkpoint(path)
    for name, p in model.flat.items():
        np.testing.assert_array_equal(p.data, again.flat[name].data + 1.0)


def test_saving_over_a_loaded_checkpoint_keeps_the_loaded_model(tmp_path):
    from mtformer.model import init_params
    path, _, _ = _ckpt_with_optimizer(tmp_path)
    model, opt, _, _ = load_checkpoint(path)
    before = {n: (p.data.tobytes(), opt.m[n].tobytes(), opt.v[n].tobytes())
              for n, p in model.flat.items()}
    other = init_params(model.cfg, seed=5)
    save_checkpoint(path, other, None, 9)
    for name, p in model.flat.items():
        assert (p.data.tobytes(), opt.m[name].tobytes(), opt.v[name].tobytes()) == before[name]
    back, back_opt, step, _ = load_checkpoint(path)
    assert back_opt is None and step == 9
    for name, p in other.flat.items():
        assert back.flat[name].data.tobytes() == p.data.tobytes()


def test_adamw_step_on_a_loaded_model_equals_the_step_in_memory(tmp_path):
    model, opt = _moved_model(tiny_cfg())
    path = tmp_path / "step.mtck"
    save_checkpoint(path, model, opt, opt.step)
    loaded, loaded_opt, _, _ = load_checkpoint(path)
    rng = np.random.default_rng(1)
    grads = {n: rng.normal(0.0, 1e-3, p.data.shape) for n, p in model.flat.items()}
    adamw_step(model.flat, grads, opt, 3e-4)
    adamw_step(loaded.flat, grads, loaded_opt, 3e-4)
    assert loaded_opt.step == opt.step
    for name, p in model.flat.items():
        assert loaded.flat[name].data.tobytes() == p.data.tobytes(), name
        assert loaded_opt.m[name].tobytes() == opt.m[name].tobytes(), name
        assert loaded_opt.v[name].tobytes() == opt.v[name].tobytes(), name


@st.composite
def _small_configs(draw):
    tasks = draw(st.lists(st.sampled_from(TASKS), min_size=1, max_size=3, unique=True))
    return tiny_cfg(tasks=tuple(tasks), shared=draw(st.booleans()),
                    reference_task=draw(st.sampled_from(tasks)))


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(_small_configs(), st.sampled_from([np.float32, np.float64]), st.booleans())
def test_checkpoint_roundtrip_aligns_every_payload(tmp_path_factory, cfg, dtype, with_opt):
    model, opt = _moved_model(cfg, dtype)
    path = tmp_path_factory.mktemp("aligned") / "any.mtck"
    save_checkpoint(path, model, opt if with_opt else None, 4, "b")
    blob = path.read_bytes()
    spans = _payload_spans(blob, model, with_opt)
    arrays = [p.data for p in model.flat.values()]
    moments = [a for n in model.flat for a in (opt.m[n], opt.v[n])] if with_opt else []
    for (start, n), a in zip(spans["params"] + spans["moments"], arrays + moments, strict=True):
        assert start % ALIGN == 0 and n == a.nbytes
        assert blob[start:start + n] == a.tobytes()
    assert all(blob[start:start + n] == bytes(n) for start, n in spans["padding"])
    loaded, back, step, budget = load_checkpoint(path)
    assert (step, budget, loaded.cfg, loaded.stacked) == (4, "b", cfg, model.stacked)
    assert (back is None) == (not with_opt)
    for name, p in model.flat.items():
        got = loaded.flat[name].data
        assert got.dtype == dtype and got.tobytes() == p.data.tobytes(), name
        if with_opt:
            assert back.m[name].tobytes() == opt.m[name].tobytes(), name
            assert back.v[name].tobytes() == opt.v[name].tobytes(), name


def test_checkpoint_rejects_nonzero_padding(tmp_path):
    path, blob, spans = _ckpt_with_optimizer(tmp_path)
    start, n = next(span for span in spans["padding"] if span[1])
    path.write_bytes(blob[:start + n - 1] + b"\x01" + blob[start + n:])
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"nonzero padding at offset {start}"


def test_empty_checkpoint_file_is_truncated_at_offset_0(tmp_path):
    path = tmp_path / "empty.mtck"
    path.write_bytes(b"")
    with pytest.raises(FormatError, match="^checkpoint truncated at offset 0, needed 4 more bytes$"):
        load_checkpoint(path)


def test_save_checkpoint_rejects_what_it_could_not_load_before_writing(tmp_path):
    # a float32 model with float64 moments used to save, and its load then
    # failed with "trailing bytes"
    from mtformer.model import Model
    model, opt = _moved_model(tiny_cfg(tasks=("S",)), np.float32)
    name = next(iter(model.flat))
    wide = {n: m.astype(np.float64) for n, m in opt.m.items()}
    cut = dict(opt.v, **{name: opt.v[name][..., :1]})
    unknown = dict(opt.m, **{"no.such.tensor": opt.m[name]})
    reordered = Model(model.cfg, dict(reversed(model.flat.items())), model.stacked)
    cases = [(model, replace(opt, m=wide), DataError,
              f"{name} first moment is float64, the model is float32"),
             (model, replace(opt, v=cut), DimensionError, f"{name} second moment is"),
             (model, replace(opt, m=unknown), ConfigurationError, "no.such.tensor"),
             (reordered, None, ConfigurationError, f"where its config's layout has {name!r}")]
    for bad_model, bad_opt, error, message in cases:
        with pytest.raises(error, match=re.escape(message)):
            save_checkpoint(tmp_path / "bad.mtck", bad_model, bad_opt, 1)
    model.flat[name].data = model.flat[name].data.astype(np.float64)  # sets the model's dtype
    with pytest.raises(DataError, match="is float32, the model is float64"):
        save_checkpoint(tmp_path / "bad.mtck", model, None, 1)
    assert list(tmp_path.iterdir()) == []


def _serial_train(cfg, samples, options):
    """The training loop written out serially over the public API: one
    sample's forward, then its backward, then the next sample."""
    from mtformer.losses import combine_losses, task_weights, update_ema
    from mtformer.model import init_params
    from mtformer.tensor import Tape, mul, zero_grad
    from mtformer.training import sample_losses
    model = init_params(cfg, seed=options.seed, dtype=options.dtype)
    opt = OptimState(weight_decay=options.weight_decay)
    ema = {} if options.balance == "inverse-ema" else None
    rng = np.random.default_rng(options.seed)
    metrics = []
    for step in range(options.steps):
        lr = lr_schedule(step, options)
        zero_grad(model.flat.values())
        weights = task_weights(cfg.tasks, ema)
        sums, total_sum = {t: 0.0 for t in cfg.tasks}, 0.0
        for idx in rng.integers(0, len(samples), options.batch_size):
            with Tape() as tape:
                losses = sample_losses(model, samples[idx])
                total = combine_losses(losses, weights)
                tape.backward(mul(total, 1.0 / options.batch_size))
            for t, v in losses.items():
                sums[t] += float(v.data)
            total_sum += float(total.data)
        means = {t: sums[t] / options.batch_size for t in cfg.tasks}
        if ema is not None:
            update_ema(ema, means)
        adamw_step(model.flat, {n: p.grad for n, p in model.flat.items()}, opt, lr)
        metrics.append({"step": step, "lr": lr, "total": total_sum / options.batch_size,
                        "losses": means, "weights": weights})
    return model, opt, metrics


@pytest.mark.parametrize("balance", ["static", "inverse-ema"])
def test_pipelined_train_equals_a_serial_loop_bitwise(balance):
    # train tapes the next sample's forward on a worker while it sweeps this
    # one; the sweeps run in pick order, so nothing may differ from a loop
    # that runs each sample's forward and backward in turn
    cfg, data = tiny_cfg(tasks=("S", "D", "N")), tiny_data()
    options = tiny_options(steps=2, batch_size=3, balance=balance)
    result = train(cfg, data, options)
    model, opt, metrics = _serial_train(cfg, data, options)
    assert result.metrics[:-1] == metrics
    assert result.optim.step == opt.step == 2
    for name, p in model.flat.items():
        assert result.model.flat[name].data.tobytes() == p.data.tobytes(), name
        assert result.optim.m[name].tobytes() == opt.m[name].tobytes(), name
        assert result.optim.v[name].tobytes() == opt.v[name].tobytes(), name


def test_a_forward_that_raises_on_the_worker_raises_from_train():
    # only the first sample's image size is checked up front; a later one
    # fails in its own forward, on the worker thread, and no thread
    # outlives train
    data = tiny_data()
    data[1:] = [replace(s, rgb=np.resize(s.rgb, (64, 64, 3))) for s in data[1:]]
    threads = threading.active_count()
    with pytest.raises(DimensionError, match="does not match configured size"):
        train(tiny_cfg(), data, tiny_options(steps=2, batch_size=3))
    assert threading.active_count() == threads


def test_train_rejects_empty_and_mismatched_data():
    cfg = tiny_cfg()
    with pytest.raises(DataError, match="empty"):
        train(cfg, [], tiny_options())
    with pytest.raises(DimensionError, match="64px"):
        train(cfg, tiny_data(count=1, size=64), tiny_options())
    with pytest.raises(ConfigurationError):
        train(replace(cfg, window=3), tiny_data(count=1), tiny_options())


def test_evaluate_rejects_empty_and_mismatched_data():
    from mtformer.model import init_params
    model = init_params(tiny_cfg(), seed=0)
    with pytest.raises(DataError, match="empty"):
        evaluate(model, [])
    with pytest.raises(DimensionError, match="64px"):
        evaluate(model, tiny_data(count=1, size=64))


def test_non_finite_loss_aborts_with_step_number():
    cfg = tiny_cfg()
    sample = generate_sample(0, 32)
    sample.rgb[0, 0, 0] = np.nan
    with pytest.raises(NumericsError, match="step 0"):
        train(cfg, [sample], tiny_options(steps=2, batch_size=1))


def test_non_finite_loss_names_the_first_task_that_went_bad(monkeypatch):
    from mtformer import training
    from mtformer.tensor import mul
    real = training.per_task_loss
    poison = {"K": float("nan"), "D": float("inf")}
    monkeypatch.setattr(training, "per_task_loss", lambda t, pred, target: (
        mul(real(t, pred, target), poison[t]) if t in poison else real(t, pred, target)))
    cfg = tiny_cfg(tasks=("S", "K", "D"))
    with pytest.raises(NumericsError, match="at step 0 in task K$"):
        train(cfg, tiny_data(count=1), tiny_options(steps=1, batch_size=1))


def test_budget_hash_is_unchanged_by_streaming_the_data():
    # recorded from one joined copy of the dataset bytes, with the config
    # fields of one head count and no decoder MLP ratio
    assert budget_hash(tiny_cfg(), tiny_options(), tiny_data()) == (
        "44c20cac3a945dbec20232160a56c9c000b434c37308c3012fbb14f47904223a")
    # first recorded when the run options were a mutable bundle train checked
    every_field = tiny_options(dtype="float32", balance="inverse-ema", warmup_steps=50,
                               floor_lr=1e-4, weight_decay=0.0)
    assert budget_hash(tiny_cfg(), every_field, tiny_data()) == (
        "1060436732ed553218527f765e90de2fe52fda91dd4d125b3dbf50688dc1672e")


def test_budget_hash_ignores_ablation_axes_only():
    data = tiny_data(count=2)
    opts = tiny_options()
    base = budget_hash(tiny_cfg(), opts, data)
    # the quantities ablations sweep do not move the hash
    assert budget_hash(tiny_cfg(tasks=("S",)), opts, data) == base
    assert budget_hash(tiny_cfg(tasks=("S", "D", "N"), shared=False), opts, data) == base
    assert budget_hash(tiny_cfg(reference_task="D"), opts, data) == base
    # every other config field does, and so does the budget and the data
    moved = {"img_size": 64, "base_channels": 16, "stage_depths": (1, 1, 2, 1),
             "heads": 2, "mlp_ratio": 3}
    assert set(moved) | {"window"} == {f.name for f in fields(ArchConfig)} - set(ABLATION_AXES)
    for name, value in moved.items():
        assert budget_hash(tiny_cfg(**{name: value}), opts, data) != base, name
    # window 2 needs a 2x2 deepest grid, so it moves on a 64 px config
    wide = budget_hash(tiny_cfg(img_size=64), opts, data)
    assert budget_hash(tiny_cfg(img_size=64, window=2), opts, data) != wide
    assert budget_hash(tiny_cfg(), tiny_options(steps=4), data) != base
    assert budget_hash(tiny_cfg(), tiny_options(peak_lr=2e-3), data) != base
    assert budget_hash(tiny_cfg(), opts, tiny_data(count=2, base_seed=50)) != base
    assert budget_hash(tiny_cfg(), opts, data[:1]) != base


def test_config_hash_tracks_every_field():
    # recorded when the head tuples became one head count
    assert config_hash(tiny_cfg()) == (
        "3f5a83b348e4c234cc7ae18c1025b1acafa7e1d94a779222cadf76666387774c")
    assert config_hash(tiny_cfg()) != config_hash(tiny_cfg(shared=False))
    assert config_hash(tiny_cfg()) != config_hash(tiny_cfg(tasks=("S",)))
    assert config_hash(tiny_cfg()) == config_hash(tiny_cfg())


def test_inverse_ema_mode_produces_moving_weights():
    cfg, data = tiny_cfg(), tiny_data()
    res = train(cfg, data, tiny_options(steps=3, balance="inverse-ema"))
    for rec in res.metrics[:-1]:
        ws = rec["weights"]
        assert set(ws) == set(cfg.tasks)
        assert all(w > 0 for w in ws.values())
    # after the first update the two tasks are no longer equally weighted
    late = res.metrics[-2]["weights"]
    assert late["S"] != late["D"]


def test_inverse_ema_applies_one_weight_set_per_step(monkeypatch):
    from mtformer import training
    seen, real = [], training.combine_losses

    def spy(losses, weights=None):
        seen.append(dict(weights))
        return real(losses, weights)

    monkeypatch.setattr(training, "combine_losses", spy)
    cfg, data = tiny_cfg(), tiny_data()
    res = train(cfg, data, tiny_options(steps=3, batch_size=4, balance="inverse-ema"))
    steps = res.metrics[:-1]
    assert len(seen) == 4 * len(steps)
    for step, rec in enumerate(steps):
        # every sample of the batch is weighted alike, by the logged weights
        assert seen[4 * step:4 * step + 4] == [rec["weights"]] * 4, step
    assert steps[0]["weights"] == {"S": 1.0, "D": 1.0}
    assert steps[-1]["weights"]["S"] != steps[-1]["weights"]["D"]


def test_inverse_ema_weights_follow_earlier_step_means():
    from mtformer.losses import task_weights, update_ema
    cfg, data = tiny_cfg(), tiny_data()
    res = train(cfg, data, tiny_options(steps=4, batch_size=4, balance="inverse-ema"))
    ema = {}
    for rec in res.metrics[:-1]:
        # the EMA of the earlier steps' batch means, updated once per step
        assert rec["weights"] == task_weights(cfg.tasks, ema), rec["step"]
        update_ema(ema, rec["losses"])


def test_train_rejects_unknown_balance():
    with pytest.raises(ConfigurationError, match="gradnorm"):
        train(tiny_cfg(), tiny_data(count=1), tiny_options(balance="gradnorm"))


def test_float32_training_runs():
    cfg, data = tiny_cfg(tasks=("D",)), tiny_data(count=2)
    res = train(cfg, data, tiny_options(steps=2, dtype="float32"))
    assert next(iter(res.model.flat.values())).data.dtype == np.float32
    assert all(np.isfinite(rec["total"]) for rec in res.metrics[:-1])


def test_bad_dtype_rejected():
    with pytest.raises(ConfigurationError, match="float64 or float32"):
        train(tiny_cfg(), tiny_data(count=1), tiny_options(dtype="float16"))


def test_log_file_is_line_delimited_json(tmp_path):
    cfg, data = tiny_cfg(), tiny_data()
    log = tmp_path / "metrics.jsonl"
    res = train(cfg, data, tiny_options(), log_path=log)
    lines = log.read_text().splitlines()
    assert len(lines) == len(res.metrics)
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["step"] == 0
    assert parsed[-1]["final_eval"] is True
    assert parsed[-1]["losses"] == res.metrics[-1]["losses"]


def test_failed_log_write_keeps_previous_log(tmp_path, monkeypatch):
    cfg, data = tiny_cfg(), tiny_data()
    log = tmp_path / "metrics.jsonl"
    train(cfg, data, tiny_options(steps=2), log_path=log)
    before = log.read_bytes()

    fail_writes_after(monkeypatch, len(before) // 2)
    with pytest.raises(OSError, match="halfway"):
        train(cfg, data, tiny_options(steps=2, seed=8), log_path=log)
    monkeypatch.undo()

    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.jsonl"]
    assert log.read_bytes() == before


def test_check_model_gradients_restores_probe_when_forward_raises(monkeypatch):
    # the first forward is the taped pass, the second the first perturbed one
    from mtformer import training
    from mtformer.model import init_params
    model = init_params(tiny_cfg(), seed=0)
    before = {name: p.data.copy() for name, p in model.flat.items()}
    real_forward, calls = training.forward, []

    def failing_forward(*args):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("probe failed")
        return real_forward(*args)

    monkeypatch.setattr(training, "forward", failing_forward)
    with pytest.raises(RuntimeError, match="probe failed"):
        check_model_gradients(model, generate_sample(0, 32))
    for name, p in model.flat.items():
        assert p.data.tobytes() == before[name].tobytes(), name


def test_check_model_gradients_on_tiny_model():
    from mtformer.model import init_params
    model = init_params(tiny_cfg(), seed=0)
    report = check_model_gradients(model, generate_sample(0, 32),
                                   samples_per_tensor=1, seed=1)
    # every task slice of a stacked tensor is probed on its own
    slices = {name for name in model.flat if name not in model.stacked}
    slices |= {f"{name}[{t}]" for name in model.stacked for t in model.cfg.tasks}
    assert report["probes"] == len(slices)
    assert report["max_rel_err"] <= 1e-4
    assert report["worst_tensor"] in slices
    # probing must not leave stale gradients behind
    assert all(p.grad is None for p in model.flat.values())


def test_negative_init_and_probe_seeds_are_configuration_errors(monkeypatch):
    from mtformer import training
    from mtformer.model import init_params
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        init_params(tiny_cfg(), seed=-1)
    model = init_params(tiny_cfg(), seed=0)

    def no_forward(*args):
        raise AssertionError("a forward ran before the seed was checked")

    monkeypatch.setattr(training, "forward", no_forward)
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        check_model_gradients(model, generate_sample(0, 32), seed=-1)


@pytest.mark.parametrize("field, value, message", [
    ("steps", -1, "steps must be >= 0, got -1"),
    ("batch_size", 0, "batch size must be >= 1, got 0"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("warmup_steps", -1, "warmup_steps must be >= 0, got -1"),
    ("floor_lr", 1e-4, "need 0 <= floor (0.0001) <= peak (5e-05)"),
    ("floor_lr", -1e-6, "need 0 <= floor (-1e-06) <= peak (5e-05)"),
    ("peak_lr", -1e-3, "need 0 <= floor (0.0) <= peak (-0.001)"),
    ("weight_decay", -50.0, "weight decay must be >= 0, got -50.0"),
    # NaN passes every comparison above, and train would die at step 1
    ("weight_decay", float("nan"), "weight_decay must be a finite number, got nan"),
    ("peak_lr", float("inf"), "peak_lr must be a finite number, got inf"),
    ("peak_lr", "1e-3", "peak_lr must be a finite number, got '1e-3'"),
    ("floor_lr", -float("inf"), "floor_lr must be a finite number, got -inf"),
    ("floor_lr", False, "floor_lr must be a finite number, got False"),
    ("dtype", "float16", "dtype must be float64 or float32, got 'float16'"),
    ("dtype", 32, "dtype must be a str, got 32"),
    ("balance", "gradnorm", "unknown balancing mode 'gradnorm'"),
])
def test_invalid_run_options_cannot_be_built(field, value, message):
    # directly and through replace, with the text train used to raise
    exact = "^" + re.escape(message) + "$"
    with pytest.raises(ConfigurationError, match=exact):
        RunOptions(**{field: value})
    with pytest.raises(ConfigurationError, match=exact):
        replace(RunOptions(), **{field: value})


def test_run_options_are_frozen():
    opts = RunOptions()
    with pytest.raises(FrozenInstanceError):
        opts.steps = -1
    assert opts.steps == 2000


def test_negative_steps_are_a_configuration_error_naming_the_steps():
    # the default warmup (200) is clipped to the steps; a negative count must
    # be reported as such, before any sample is loaded
    with pytest.raises(ConfigurationError, match=r"steps must be >= 0, got -1$"):
        train(tiny_cfg(), "/nonexistent.mtds", RunOptions(steps=-1))
    result = train(tiny_cfg(), tiny_data(2), tiny_options(steps=0))
    assert [m for m in result.metrics if "final_eval" in m][0]["step"] == 0
