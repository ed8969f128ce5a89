"""Model assembly: parameter registry, initialization, end to end forward."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mtformer import config, tensor
from mtformer.losses import combine_losses, per_task_loss
from mtformer.model import INIT_STD, Model, forward, init_params, param_shapes
from mtformer.synthetic import generate_sample
from mtformer.tensor import Tape, Tensor

RNG = np.random.default_rng(31)
SRC = Path(__file__).resolve().parents[1] / "src"


def test_desk_nano_parameter_total_is_pinned():
    nano = config.preset("desk-nano")
    assert config.count_parameters(nano).total == 2758663
    assert config.count_parameters(replace(nano, shared_attention=False)).total == 2982338


def test_per_module_sizes_match_accounting():
    cfg = config.preset("desk-nano")
    m = init_params(cfg, seed=0)
    want = config.count_parameters(cfg)

    def total(prefix):
        return sum(t.data.size for k, t in m.flat.items() if k.startswith(prefix))

    assert total("patch_embed") + total("encoder.") == want.encoder
    # each task owns one slice of every stacked decoder tensor; the shared
    # q/k/table bundle is accounted to the reference task
    stacked = sum(m.flat[n].data.size for n in m.stacked)
    shared = total("decoder.") - stacked
    for t in cfg.tasks:
        own = stacked // len(cfg.tasks) + (shared if t == cfg.reference_task else 0)
        assert own == want.decoder[t]
        assert total(f"head.{t}.") == want.heads[t]


def test_registry_names_are_unique_and_ordered():
    cfg = config.preset("desk-nano")
    m = init_params(cfg, seed=0)
    names = list(m.flat)
    assert names[0] == "patch_embed.weight"
    assert names[1] == "patch_embed.bias"
    assert "encoder.s0.b0.ln1.gamma" in names
    assert "encoder.merge2.weight" in names
    assert "decoder.s3.shared.bias_table" in names
    assert "decoder.s3.b1.bias_table" in names
    assert "head.S.out.bias" in names
    # encoder parameters come before any decoder parameter
    assert max(i for i, n in enumerate(names) if n.startswith("encoder.")) \
        < min(i for i, n in enumerate(names) if n.startswith("decoder."))


def test_init_statistics_and_determinism():
    cfg = config.preset("desk-nano")
    a = init_params(cfg, seed=4)
    b = init_params(cfg, seed=4)
    c = init_params(cfg, seed=5)
    for k in a.flat:
        assert np.array_equal(a.flat[k].data, b.flat[k].data)
    assert any(not np.array_equal(a.flat[k].data, c.flat[k].data) for k in a.flat)

    w = a.flat["encoder.s0.b0.q.weight"].data
    assert np.abs(w).max() <= 2 * INIT_STD + 1e-12
    assert 0.5 * INIT_STD < w.std() < 1.5 * INIT_STD
    assert np.array_equal(a.flat["encoder.s0.b0.q.bias"].data, np.zeros(16))
    assert np.array_equal(a.flat["encoder.s0.b0.ln1.gamma"].data, np.ones(16))
    assert np.array_equal(a.flat["encoder.s0.b0.ln1.beta"].data, np.zeros(16))


def test_init_dtype_control():
    cfg = config.preset("desk-nano")
    m32 = init_params(cfg, seed=0, dtype=np.float32)
    assert all(t.data.dtype == np.float32 for t in m32.flat.values())
    m64 = init_params(cfg, seed=0)
    assert all(t.data.dtype == np.float64 for t in m64.flat.values())


def test_float32_model_computes_in_float32(monkeypatch):
    # a float64 constant such as the shift mask would promote every op after it
    taped = []

    def recording(data, parents, backward, _from_op=tensor._from_op):
        out = _from_op(data, parents, backward)
        if out._node is not None:
            taped.append(out.dtype)
        return out

    monkeypatch.setattr(tensor, "_from_op", recording)
    cfg = config.preset("desk-nano")
    m = init_params(cfg, seed=0, dtype=np.float32)
    sample = generate_sample(0, cfg.img_size)
    with Tape() as tape:
        preds = forward(m, Tensor(np.asarray(sample.rgb, dtype=np.float32)))
        losses = {t: per_task_loss(t, preds[t], sample.target(t)) for t in cfg.tasks}
        tape.backward(combine_losses(losses))
    assert len(taped) == len(tape), "every taped output was seen"
    assert set(taped) == {np.dtype(np.float32)}
    assert all(p.dtype == np.float32 for p in preds.values())


def _taped_loss(cfg, m, sample):
    with Tape() as tape:
        preds = forward(m, Tensor(np.asarray(sample.rgb, dtype=np.float64)))
        losses = {t: per_task_loss(t, preds[t], sample.target(t)) for t in cfg.tasks}
        total = combine_losses(losses)
    return tape, total


def test_taped_sample_records_at_most_610_ops():
    # the six decoders run as one stacked stream (a per-task loop would tape
    # 2355 ops for one desk-nano sample), every projection is one fused
    # linear op (matmul then add would tape 812), and every window or patch
    # layout is one token gather (reshape/transpose/roll chains taped 722)
    cfg = config.preset("desk-nano")
    tape, _ = _taped_loss(cfg, init_params(cfg, seed=0), generate_sample(0, cfg.img_size))
    assert len(tape) <= 610, len(tape)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
def test_each_parameter_is_read_by_exactly_one_record(shared):
    # a sweep adds a leaf's gradient into .grad as soon as it has it; with
    # one gradient per parameter per tape, that is one add per sample, in
    # the order a sum over the tape's gradients would add them
    cfg = replace(config.preset("desk-nano"), shared_attention=shared)
    m = init_params(cfg, seed=0)
    tape, _ = _taped_loss(cfg, m, generate_sample(0, cfg.img_size))
    reads = {}
    for parents, _ in tape._records:
        for parent in parents:
            if isinstance(parent, Tensor):
                reads[id(parent)] = reads.get(id(parent), 0) + 1
    assert len(reads) == len(m.flat)
    assert [reads.get(id(p)) for p in m.flat.values()] == [1] * len(m.flat)


def test_one_taped_sample_pins_at_most_60_mib():
    # a tape keeps only what its backward closures read: 55 MiB for one
    # desk-nano sample, against 98 MiB when every record held its output
    # and operands
    cfg = config.preset("desk-nano")
    m = init_params(cfg, seed=0)
    sample = generate_sample(0, cfg.img_size)
    _taped_loss(cfg, m, sample)  # build the cached masks and index tables first
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape, total = _taped_loss(cfg, m, sample)
        pinned = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(tape) > 580 and total.requires_grad
    assert pinned < 60 * 2**20, pinned / 2**20


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
def test_key_biases_get_exactly_zero_gradient(shared):
    # q . b_k adds one constant to a whole softmax row, and softmax is shift
    # invariant: every *.k.bias gradient is zero up to rounding
    cfg = replace(config.preset("desk-nano"), tasks=("D", "N"), reference_task="D",
                  shared_attention=shared)
    m = init_params(cfg, seed=2)
    tape, total = _taped_loss(cfg, m, generate_sample(3, cfg.img_size))
    tape.backward(total)
    largest = max(float(np.abs(p.grad).max()) for p in m.flat.values() if p.grad is not None)
    key_biases = [n for n in m.flat if n.endswith(".k.bias")]
    assert any(n.startswith("decoder.") for n in key_biases)
    assert any(".shared." in n for n in key_biases) == shared
    for name in key_biases:
        assert np.abs(m.flat[name].grad).max() <= 1e-20 * largest, name


# one float64 desk-nano sample (forward, combine_losses, backward); prints a
# digest of each prediction and of each parameter's gradient
_SAMPLE_DIGESTS = """
import hashlib
import numpy as np
from mtformer import config
from mtformer.losses import combine_losses, per_task_loss
from mtformer.model import forward, init_params
from mtformer.synthetic import generate_sample
from mtformer.tensor import Tape, Tensor

cfg = config.preset("desk-nano")
m = init_params(cfg, seed=0)
sample = generate_sample(0, cfg.img_size)
with Tape() as tape:
    preds = forward(m, Tensor(np.asarray(sample.rgb, dtype=np.float64)))
    tape.backward(combine_losses({t: per_task_loss(t, preds[t], sample.target(t)) for t in cfg.tasks}))
arrays = {**{"prediction " + t: p.data for t, p in preds.items()},
          **{"gradient " + n: p.grad for n, p in m.flat.items()}}
for name, a in arrays.items():
    print(name, hashlib.sha256(a.tobytes()).hexdigest())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="one CPU: BLAS runs one thread either way, so the comparison proves nothing")
def test_float64_sample_is_bitwise_equal_at_1_and_2_blas_threads():
    # a sum that BLAS splits across threads adds in an order the thread
    # count picks (the 16,384-pixel head bias sums did); no gradient and no
    # prediction may depend on it
    def digests(threads):
        env = {**os.environ, "PYTHONPATH": str(SRC),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", _SAMPLE_DIGESTS], env=env, capture_output=True,
                             text=True, check=True, timeout=300)
        return dict(line.rsplit(" ", 1) for line in out.stdout.splitlines())

    one, two = digests("1"), digests("2")
    assert set(one) == set(two) and len(one) == 6 + 269, (len(one), len(two))
    differ = sorted(name for name in one if one[name] != two[name])
    assert not differ, differ


def test_forward_output_contract():
    cfg = config.preset("desk-nano")
    m = init_params(cfg, seed=0)
    img = Tensor(RNG.uniform(0, 1, (128, 128, 3)))
    preds = forward(m, img)
    assert set(preds) == set(config.TASKS)
    assert preds["S"].shape == (128, 128, 8)
    assert preds["N"].shape == (128, 128, 3)
    for t in ("D", "K", "E", "R"):
        assert preds[t].shape == (128, 128, 1)
    np.testing.assert_allclose(preds["S"].data.sum(-1), 1.0, atol=1e-9)
    np.testing.assert_allclose((preds["N"].data ** 2).sum(-1), 1.0, atol=1e-6)


def test_forward_deterministic_without_tape():
    cfg = replace(config.preset("desk-nano"), tasks=("D", "N"))
    m = init_params(cfg, seed=8)
    img = RNG.uniform(0, 1, (128, 128, 3))
    a = forward(m, Tensor(img.copy()))
    b = forward(m, Tensor(img.copy()))
    for t in cfg.tasks:
        assert np.array_equal(a[t].data, b[t].data)


def test_init_rejects_invalid_config():
    # no invalid config reaches init_params: building one raises
    from mtformer.errors import ConfigurationError
    with pytest.raises(ConfigurationError, match="^invalid config: window 3 must divide"):
        replace(config.preset("desk-nano"), window=3)


def test_duplicate_parameter_name_is_a_configuration_error():
    from mtformer.errors import ConfigurationError
    plain = ("x.weight", (2, 2), "normal", None, False)
    with pytest.raises(ConfigurationError, match="duplicate parameter x.weight"):
        param_shapes([plain, plain], 2)
    # slice 0 of a stacked tensor registers it and slice 1 fills it; either
    # slice again, or the name unstacked, is a duplicate
    sliced = [("y", (2, 2), "normal", k, True) for k in (0, 1)]
    shapes, stacked = param_shapes(sliced, 2)
    assert shapes == {"y": (2, 2, 2)} and stacked == {"y"}
    unstacked = ("y", (2, 2), "normal", None, False)
    for layout in (sliced + sliced[:1], sliced + [unstacked], [unstacked] + sliced):
        with pytest.raises(ConfigurationError, match="duplicate parameter y"):
            param_shapes(layout, 2)


@pytest.mark.parametrize("shared", [True, False])
def test_shared_block_borrows_the_stage_bundle(shared):
    # with sharing, b2 of every stage has no q, k or bias table of its own:
    # the stage holds one unstacked shared bundle instead
    cfg = replace(config.preset("desk-nano"), shared_attention=shared)
    m = init_params(cfg, seed=0)
    parts = ("q.weight", "q.bias", "k.weight", "k.bias", "bias_table")
    for i in range(4):
        own = {f"decoder.s{i}.b2.{part}" for part in parts}
        bundle = {f"decoder.s{i}.shared.{part}" for part in parts}
        if shared:
            assert not own & m.flat.keys()
            assert bundle <= m.flat.keys() - m.stacked
        else:
            assert not bundle & m.flat.keys()
            assert own <= m.stacked


# sha256 of (name, shape) in flat order, and of the init_params(seed=0)
# bytes, pinned before the layout became one declaration: the order is the
# checkpoint order, and the bytes are what a seed draws
_NANO = config.preset("desk-nano")
LAYOUT_VARIANTS = {
    "desk-nano": (_NANO,
                  "db9af540c1bf3d80052dd4a2e38dbdbb075ca9324d00742b25884d34f1811f42",
                  "ee657af1b5ebd0eb83c620632deeec53dcf7d27d6f8af9af842662aa5cbc132a"),
    "unshared": (replace(_NANO, shared_attention=False),
                 "587a228e07ccf39d40b90f5ea935fe5fc6dcadfef340591a0c9e9fb0e292ca1c",
                 "3473c262e85ba4b3546737673e747f86076f2ab2c3d68f71b35953d5debd6cf5"),
    "reference-first": (replace(_NANO, tasks=("N", "D")),
                        "d958049203194491280cfb499e591c3a8f0b218233a0d67f7958bcfec1e811df",
                        "409f98729f076d87b6c5ccefd7891c825cf588b276b62c4d2bd202c77f2c9687"),
    "reference-last": (replace(_NANO, tasks=("S", "D"), reference_task="D"),
                       "b580071b719b0ed0db51e0da891de38b29f4e69a4e60eb5bf0ccb2f7021cabf2",
                       "9ca6bf4c7d09d8f4d81cedf880f8d010f2842651857a194a430cb3966db4cfa6"),
    "one-task": (replace(_NANO, tasks=("N",)),
                 "f8e76b529f3d8c4365b733f31201338f33ee9601ad5e1ce6a2a79240b0fdce00",
                 "ebd678943c6032319b77b570f9ee3bef41dd5923b36eda76b51248da4572a114"),
    "window-2": (replace(_NANO, window=2),
                 "dc7f152d3d15865b73796e66465a3086af9fe6012a13d32fd03064856358d4a6",
                 "fdae52a3383a3ca6096a3286efa1c680893ad2f0e8e2a04f7c6e24143428a1a1"),
}


@pytest.mark.parametrize("variant", LAYOUT_VARIANTS)
def test_layout_and_init_bytes_are_pinned(variant):
    cfg, names_digest, bytes_digest = LAYOUT_VARIANTS[variant]
    m = init_params(cfg, seed=0)
    names, data = hashlib.sha256(), hashlib.sha256()
    for name, p in m.flat.items():
        names.update(f"{name} {p.data.shape}\n".encode())
        data.update(p.data.tobytes())
    assert names.hexdigest() == names_digest
    assert data.hexdigest() == bytes_digest
    shapes, stacked = param_shapes(config.param_layout(cfg), len(cfg.tasks))
    assert list(shapes.items()) == [(n, p.shape) for n, p in m.flat.items()]
    assert stacked == m.stacked


def test_shared_bundle_sits_where_the_reference_task_first_declares_it():
    # the reference task's pass declares the shared bundle inside b2, so it
    # follows every stacked decoder tensor unless the reference task is first
    first = list(init_params(replace(_NANO, tasks=("N", "D")), seed=0).flat)
    last = list(init_params(replace(_NANO, tasks=("D", "N")), seed=0).flat)
    assert first.index("decoder.s0.shared.q.weight") == first.index("decoder.s0.b2.ln1.beta") + 1
    assert last.index("decoder.s0.shared.q.weight") > last.index("decoder.expand2.weight")

