"""Config tests: presets, validation, parameter accounting, serialization."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mtformer.config import (PRESETS, TASKS, ArchConfig, count_parameters,
                             from_text, load, preset, resolve, save,
                             stage_channels, stage_grids, stage_heads,
                             task_channels, to_text, validate, window_shift)
from mtformer.errors import ConfigurationError
from mtformer.synthetic import NUM_CLASSES
from mtformer.training import RunOptions


def test_presets_are_valid():
    assert list(PRESETS) == ["mult-large", "mult-tiny", "desk-nano"]
    for name in PRESETS:
        assert validate(preset(name)) == []


def test_preset_values_pinned():
    large = preset("mult-large")
    assert large.base_channels == 192
    assert large.stage_depths == (2, 2, 18, 2)
    assert large.heads == 6 and stage_heads(large) == (6, 12, 24, 48)
    assert large.window == 7 and window_shift(large) == 3
    assert large.reference_task == "N"
    assert large.shared_attention

    tiny = preset("mult-tiny")
    assert tiny.stage_depths == (2, 2, 6, 2) and tiny.base_channels == 96
    assert stage_heads(tiny) == (6, 12, 24, 48)

    nano = preset("desk-nano")
    assert nano.img_size == 128 and nano.base_channels == 16
    assert nano.stage_depths == (1, 1, 2, 1)
    assert nano.heads == 1 and stage_heads(nano) == (1, 2, 4, 8)
    assert nano.window == 4 and window_shift(nano) == 2
    assert stage_grids(nano) == (32, 16, 8, 4)
    assert stage_channels(nano) == (16, 32, 64, 128)


def test_unknown_preset_lists_valid_names():
    with pytest.raises(ConfigurationError) as err:
        preset("mult-giant")
    msg = str(err.value)
    assert "mult-large" in msg and "desk-nano" in msg


def _rejection(**over) -> str:
    """The message building desk-nano with ``over`` raises, checked to be
    the same directly and through ``replace``."""
    with pytest.raises(ConfigurationError, match="^invalid config: ") as direct:
        ArchConfig(**over)
    with pytest.raises(ConfigurationError) as replaced:
        replace(preset("desk-nano"), **over)
    assert str(replaced.value) == str(direct.value)
    return str(direct.value)


def test_validation_catches_geometry_violations():
    assert "divide" in _rejection(window=3)
    for size in (16, 130, 0, -32):
        assert "img_size must be a positive multiple of 32" in _rejection(img_size=size), size
    assert "window must be >= 1" in _rejection(window=0)
    # heads and channels double together, so stage 0 decides divisibility
    assert "heads must be >= 1 and divide base_channels, got 3" in _rejection(heads=3)
    assert "heads must be >= 1 and divide base_channels, got 0" in _rejection(heads=0)
    assert "reference_task" in _rejection(tasks=("S", "D"))
    assert "unknown task" in _rejection(tasks=("S", "X", "N"))
    assert "duplicate" in _rejection(tasks=("S", "S", "N"))
    assert "tasks" in _rejection(tasks=())
    assert "base_channels" in _rejection(base_channels=18)
    assert "mlp_ratio must be >= 1, got 0" in _rejection(mlp_ratio=0)
    # every violated rule is listed, in validate's order
    assert _rejection(window=0, base_channels=18) == (
        "invalid config: window must be >= 1, got 0; "
        "base_channels must be a positive multiple of 4 for the head upsampling, got 18")


@pytest.mark.parametrize("build, field, value", [
    (ArchConfig, "window", 4.0),
    (ArchConfig, "heads", True),
    (ArchConfig, "base_channels", 16.0),
    (ArchConfig, "mlp_ratio", 2.5),
    (ArchConfig, "stage_depths", (1, 1, 2.5, 1)),
    (ArchConfig, "img_size", 128.0),
    (RunOptions, "steps", 2.5),
    (RunOptions, "steps", True),
    (RunOptions, "batch_size", 1.5),
    (RunOptions, "seed", 0.5),
])
def test_integer_fields_hold_integers(build, field, value):
    # a float or bool in an integer field is refused when built, numpy
    # integers are integers
    with pytest.raises(ConfigurationError,
                       match=f"{field} must be (an integer|a tuple of integers), got {re.escape(repr(value))}$"):
        build(**{field: value})
    numpy_value = (tuple(map(np.int64, value)) if isinstance(value, tuple)
                   else np.int64(value))
    build(**{field: numpy_value})


@pytest.mark.parametrize("field, value, what", [
    ("shared_attention", "no", "a bool"),  # to_text would write it as true
    ("tasks", "SDN", "a tuple of strings"),
    ("tasks", ("S", 1), "a tuple of strings"),
    ("reference_task", 1, "a str"),
    ("stage_depths", [1, 1, 2, 1], "a tuple of integers"),  # a frozen config must hash
    ("stage_depths", 4, "a tuple of integers"),
])
def test_fields_hold_their_kind(field, value, what):
    assert _rejection(**{field: value}) == f"invalid config: {field} must be {what}, got {value!r}"


def test_task_channels():
    assert task_channels("S") == NUM_CLASSES == 8
    assert task_channels("N") == 3
    for t in "DKER":
        assert task_channels(t) == 1
    with pytest.raises(ConfigurationError):
        task_channels("Q")


# ------------------------------------------------------------ parameter count

def test_breakdown_sums_to_total():
    for name in ("desk-nano", "mult-tiny"):
        pc = count_parameters(preset(name))
        assert pc.encoder + sum(pc.decoder.values()) + sum(pc.heads.values()) == pc.total


def test_shared_attention_strictly_cheaper_for_two_plus_tasks():
    nano = preset("desk-nano")
    for tasks in (("S", "N"), ("S", "D", "N"), TASKS):
        on = count_parameters(replace(nano, tasks=tasks, shared_attention=True)).total
        off = count_parameters(replace(nano, tasks=tasks, shared_attention=False)).total
        assert on < off


def test_shared_attention_equal_cost_for_single_task():
    nano = preset("desk-nano")
    single = replace(nano, tasks=("N",), reference_task="N")
    on = count_parameters(replace(single, shared_attention=True)).total
    off = count_parameters(replace(single, shared_attention=False)).total
    assert on == off


def test_non_reference_decoders_are_lighter_when_shared():
    pc = count_parameters(preset("desk-nano"))
    assert pc.decoder["N"] > pc.decoder["S"]  # reference owns q/k and the bias table
    off = count_parameters(replace(preset("desk-nano"), shared_attention=False))
    assert off.decoder["N"] == off.decoder["S"] == off.decoder["D"]


def test_parameter_count_monotone_in_tasks():
    nano = preset("desk-nano")
    totals = []
    for k in range(1, 7):
        cfg = replace(nano, tasks=TASKS[:k], reference_task="S")
        totals.append(count_parameters(cfg).total)
    assert all(a < b for a, b in zip(totals, totals[1:]))


def _closed_form(window=4, mlp_ratio=4, tasks=TASKS, reference_task="N",
                 shared_attention=True):
    """Spreadsheet oracle, derived by hand from the layer inventory, of the
    desk-nano layout (C=16, depths 1-1-2-1, heads 1-2-4-8 and 8-4-2-1,
    decoder MLP ratio 2) with the fields that change the count left free;
    returns the encoder, the per-task decoders, the per-task heads and the
    total."""
    rows = (2 * window - 1) ** 2                               # bias-table rows
    # 2 norms (4C) + q/k/v/out (4C^2+4C) + table + r-x MLP (2rC^2+rC+C)
    block = lambda C, M, r: (4 + 2 * r) * C * C + (9 + r) * C + rows * M
    merge = lambda C: 8 * C * C + 8 * C
    embed = 3 * 16 * 16 + 16
    encoder = (embed + block(16, 1, mlp_ratio) + block(32, 2, mlp_ratio)
               + 2 * block(64, 4, mlp_ratio) + block(128, 8, mlp_ratio)
               + merge(16) + merge(32) + merge(64))
    # per task and stage: block1, block2 less its q/k/table, fuse C^2+C
    cross = lambda C, M: 2 * (C * C + C) + rows * M            # q/k + table
    stage = lambda C, M: (2 * block(C, M, 2) - cross(C, M) + C * C + C)
    per_task = (stage(128, 8) + stage(64, 4) + stage(32, 2) + stage(16, 1)
                + (128 * 128 + 128)                            # stream init
                + 2 * 128 * 128 + 2 * 64 * 64 + 2 * 32 * 32)   # three patch expands
    shared = cross(128, 8) + cross(64, 4) + cross(32, 2) + cross(16, 1)
    decoder = {t: per_task + (shared if not shared_attention or t == reference_task else 0)
               for t in tasks}
    out = {"S": 8, "N": 3, "D": 1, "K": 1, "E": 1, "R": 1}
    heads = {t: 512 + 128 + 4 * out[t] + out[t] for t in tasks}  # two expands, 1x1 out
    total = encoder + sum(decoder.values()) + sum(heads.values())
    return encoder, decoder, heads, total


def test_desk_nano_count_matches_independent_closed_form():
    encoder, decoder, heads, total = _closed_form()
    assert encoder == 359843
    # decoder blocks use 2x MLPs: 15 C^2 + 21 C + 49 M per task and stage
    assert decoder["S"] == 391695
    assert decoder["N"] - decoder["S"] == 44735                # the shared bundle, once
    assert total == 2758663
    assert _closed_form(shared_attention=False)[3] == 2982338

    pc = count_parameters(preset("desk-nano"))
    assert (pc.encoder, pc.decoder, pc.heads, pc.total) == (encoder, decoder, heads, total)
    off = replace(preset("desk-nano"), shared_attention=False)
    assert count_parameters(off).total == 2982338


COUNT_VARIANTS = {
    "unshared": {"shared_attention": False},
    "one-task": {"tasks": ("N",)},
    "reference-last": {"tasks": ("S", "D"), "reference_task": "D"},
    "reference-first": {"tasks": ("N", "D")},
    "window-2": {"window": 2},
    "mlp-2-three-tasks": {"mlp_ratio": 2, "tasks": ("E", "S", "R"), "reference_task": "R"},
}


@pytest.mark.parametrize("variant", sorted(COUNT_VARIANTS))
def test_variant_counts_match_independent_closed_form(variant):
    # counted from the layout alone; no model is built
    fields = COUNT_VARIANTS[variant]
    encoder, decoder, heads, total = _closed_form(**fields)
    pc = count_parameters(replace(preset("desk-nano"), **fields))
    assert (pc.encoder, pc.decoder, pc.heads, pc.total) == (encoder, decoder, heads, total)


def test_mult_large_lands_near_published_total():
    total = count_parameters(preset("mult-large")).total
    assert total == 535621209  # frozen from the same closed form at C=192
    assert abs(total - 545_000_000) / 545_000_000 <= 0.20


@pytest.mark.parametrize("name, shared, unshared", [
    ("mult-large", 535621209, 567060459),
    ("mult-tiny", 112872753, 120796803),
    ("desk-nano", 2758663, 2982338),
])
def test_preset_totals_are_pinned(name, shared, unshared):
    # recorded when every stage's head count was a settable field
    cfg = preset(name)
    assert count_parameters(cfg).total == shared
    assert count_parameters(replace(cfg, shared_attention=False)).total == unshared


def test_mult_large_counts_without_allocating():
    # 535,621,209 float64 parameters would take 4 GiB; counting reads the layout only
    tracemalloc.start()
    try:
        total = count_parameters(preset("mult-large")).total
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == 535621209
    assert peak < 2**20, peak


# ------------------------------------------------------------- serialization

def test_desk_nano_text_is_pinned():
    assert to_text(preset("desk-nano")) == (
        "img_size=128\nbase_channels=16\nstage_depths=1,1,2,1\nheads=1\nwindow=4\n"
        "tasks=S,D,N,K,E,R\nreference_task=N\nshared_attention=true\nmlp_ratio=4\n")


def test_text_roundtrip_identity():
    cfg = preset("desk-nano")
    assert from_text(to_text(cfg)) == cfg
    custom = replace(cfg, tasks=("S", "N"), reference_task="S", shared_attention=False)
    assert from_text(to_text(custom)) == custom


def test_file_roundtrip(tmp_path):
    path = tmp_path / "cfg.txt"
    cfg = preset("mult-tiny")
    save(cfg, path)
    assert load(path) == cfg


def test_failed_save_keeps_previous_config(tmp_path, monkeypatch):
    from test_training import fail_writes_after
    path = tmp_path / "cfg.txt"
    save(preset("mult-tiny"), path)
    before = path.read_bytes()

    fail_writes_after(monkeypatch, len(before) // 2)
    with pytest.raises(OSError, match="halfway"):
        save(preset("desk-nano"), path)
    monkeypatch.undo()

    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt"]
    assert path.read_bytes() == before


def test_unknown_key_is_an_error():
    with pytest.raises(ConfigurationError) as err:
        from_text("img_size=128\nwidht=7\n")
    assert "widht" in str(err.value)
    # patch size, shift and class count are fixed, not configured
    for key in ("patch_size", "shift", "seg_classes"):
        with pytest.raises(ConfigurationError) as err:
            from_text(f"{key}=4\n")
        assert key in str(err.value)
    # nor are per-stage head counts: one count doubles per stage
    with pytest.raises(ConfigurationError, match="unknown config key 'encoder_heads'"):
        from_text("encoder_heads=1,2,4,8\n")


def test_malformed_and_duplicate_lines_rejected():
    with pytest.raises(ConfigurationError):
        from_text("img_size\n")
    with pytest.raises(ConfigurationError):
        from_text("img_size=128\nimg_size=64\n")
    with pytest.raises(ConfigurationError):
        from_text("window=seven\n")
    with pytest.raises(ConfigurationError):
        from_text("shared_attention=maybe\n")


def test_comments_and_partial_files_allowed():
    cfg = from_text("# tiny tweak\nwindow=2\nmlp_ratio=3\n\n")
    assert cfg.window == 2 and cfg.mlp_ratio == 3
    assert cfg.img_size == ArchConfig().img_size


def test_resolve_requires_exactly_one_source(tmp_path):
    with pytest.raises(ConfigurationError):
        resolve(None, None)
    with pytest.raises(ConfigurationError):
        resolve("x", "y")
    assert resolve(None, "desk-nano") == preset("desk-nano")
    path = tmp_path / "c.txt"
    save(preset("desk-nano"), path)
    assert resolve(path, None) == preset("desk-nano")
