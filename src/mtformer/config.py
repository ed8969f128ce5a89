"""Architecture configuration: presets, validation, the parameter layout.

A config fully determines the model: a four stage windowed encoder whose
channel widths double per stage, mirrored per task decoders coupled by a
shared attention block, and per task output heads; as in Swin, the heads
double with the channels.  Task ids are single letters: S segmentation, D
depth, N surface normals, K keypoints, E edges, R reshading.  Patch size,
window shift, class count and the decoder MLP ratio are fixed, not set.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigurationError
from .files import replace_on_success
from .synthetic import NUM_CLASSES

TASKS = ("S", "D", "N", "K", "E", "R")

# pixels per patch side; the task heads upsample exactly 4x back to pixels
PATCH = 4

# hidden width of every decoder MLP, in multiples of the block's channels
DECODER_MLP_RATIO = 2

# fields an ablation varies between rows that must stay comparable
ABLATION_AXES = ("tasks", "reference_task", "shared_attention")


@dataclass(frozen=True)
class ArchConfig:
    """One architecture.  Building a config that breaks a ``validate`` rule,
    also through ``dataclasses.replace``, raises ``ConfigurationError``."""

    img_size: int = 128
    base_channels: int = 16
    stage_depths: tuple = (1, 1, 2, 1)
    heads: int = 1  # attention heads of encoder stage 0; see stage_heads
    window: int = 4
    tasks: tuple = TASKS
    reference_task: str = "N"
    shared_attention: bool = True
    mlp_ratio: int = 4

    def __post_init__(self):
        problems = validate(self)
        if problems:
            raise ConfigurationError("invalid config: " + "; ".join(problems))


# each field's kind, which decides how validate checks it and how to_text
# and from_text write and read it
_KINDS = {"img_size": "int", "base_channels": "int", "stage_depths": "ints", "heads": "int",
          "window": "int", "tasks": "tasks", "reference_task": "str",
          "shared_attention": "bool", "mlp_ratio": "int"}


def is_int(value) -> bool:
    """Whether ``value`` is an integer: a Python or numpy int, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# what a field of each kind must hold, and how validate names it
_HOLDS = {
    "int": (is_int, "an integer"),
    "ints": (lambda v: isinstance(v, tuple) and all(map(is_int, v)), "a tuple of integers"),
    "tasks": (lambda v: isinstance(v, tuple) and all(isinstance(t, str) for t in v), "a tuple of strings"),
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "str": (lambda v: isinstance(v, str), "a str"),
}


def window_shift(cfg: ArchConfig) -> int:
    """Cyclic shift of the shifted-window blocks: half a window, rounded down."""
    return cfg.window // 2


def stage_channels(cfg: ArchConfig) -> tuple:
    """Encoder channel widths per stage: C, 2C, 4C, 8C."""
    return tuple(cfg.base_channels << s for s in range(4))


def stage_heads(cfg: ArchConfig) -> tuple:
    """Attention heads per encoder stage: h, 2h, 4h, 8h; the decoder mirrors them."""
    return tuple(cfg.heads << s for s in range(4))


def decoder_channels(cfg: ArchConfig) -> tuple:
    """Decoder widths deepest first: 8C, 4C, 2C, C."""
    return stage_channels(cfg)[::-1]


def stage_grids(cfg: ArchConfig) -> tuple:
    """Square token grid side per encoder stage."""
    g = cfg.img_size // PATCH
    return tuple(g >> s for s in range(4))


def task_channels(task: str) -> int:
    """Output channels of each task head."""
    if task == "S":
        return NUM_CLASSES
    if task == "N":
        return 3
    if task in ("D", "K", "E", "R"):
        return 1
    raise ConfigurationError(f"unknown task id {task!r}, valid ids are {', '.join(TASKS)}")


def validate(cfg: ArchConfig) -> list:
    """Return every violated constraint as a message; empty list means
    valid.  ``ArchConfig`` runs it on every config it builds."""
    problems = []
    for name, kind in _KINDS.items():  # the rules below rely on each field's kind
        holds, what = _HOLDS[kind]
        if not holds(getattr(cfg, name)):
            problems.append(f"{name} must be {what}, got {getattr(cfg, name)!r}")
    if problems:
        return problems
    if cfg.img_size < 8 * PATCH or cfg.img_size % (8 * PATCH):  # four integer stage grids
        problems.append(f"img_size must be a positive multiple of {8 * PATCH}, got {cfg.img_size}")
    if cfg.window < 1:
        problems.append(f"window must be >= 1, got {cfg.window}")
    elif not problems:  # the stage grids are integers
        for side in stage_grids(cfg):
            if side % cfg.window:
                problems.append(f"window {cfg.window} must divide stage grid side {side}")
    if cfg.base_channels < 4 or cfg.base_channels % 4:
        problems.append(
            f"base_channels must be a positive multiple of 4 for the head upsampling, got {cfg.base_channels}")
    if len(cfg.stage_depths) != 4 or any(v < 1 for v in cfg.stage_depths):
        problems.append(f"stage_depths must be 4 positive ints, got {cfg.stage_depths}")
    # heads and channels both double per stage, so stage 0 decides every stage
    if cfg.heads < 1 or cfg.base_channels % cfg.heads:
        problems.append(f"heads must be >= 1 and divide base_channels, got {cfg.heads}")
    if not cfg.tasks:
        problems.append("tasks must be a non-empty subset of " + ",".join(TASKS))
    else:
        unknown = [t for t in cfg.tasks if t not in TASKS]
        if unknown:
            problems.append(f"unknown task ids {unknown}, valid ids are {', '.join(TASKS)}")
        if len(set(cfg.tasks)) != len(cfg.tasks):
            problems.append(f"duplicate task ids in {cfg.tasks}")
        if cfg.reference_task not in cfg.tasks:
            problems.append(
                f"reference_task {cfg.reference_task!r} must be one of the active tasks {cfg.tasks}")
    if cfg.mlp_ratio < 1:
        problems.append(f"mlp_ratio must be >= 1, got {cfg.mlp_ratio}")
    return problems


# named architectures: the published large/tiny pair and the desk scale defaults
PRESETS = {
    "mult-large": ArchConfig(img_size=224, base_channels=192, stage_depths=(2, 2, 18, 2), heads=6, window=7),
    "mult-tiny": ArchConfig(img_size=224, base_channels=96, stage_depths=(2, 2, 6, 2), heads=6, window=7),
    "desk-nano": ArchConfig(),
}


def preset(name: str) -> ArchConfig:
    if name not in PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}, valid presets: {', '.join(PRESETS)}")
    return PRESETS[name]


# ----------------------------------------------------------- parameter layout

NORMAL = "normal"  # init kind: clipped normal draw; any other init is a fill value

# start of the normals head bias: a fixed, slightly tilted unit normal.
# Unit normalization divides by the output norm, and the stacked small-std
# head projections leave that norm near zero otherwise, making the early
# gradients arbitrarily steep; the tilt keeps the start from tying exactly
# with the upright background normal, an L1 subgradient degeneracy
NORMALS_BIAS = (0.06, 0.08, 1.0)


def _linear(name: str, c_in: int, c_out: int):
    yield f"{name}.weight", (c_in, c_out), NORMAL
    yield f"{name}.bias", (c_out,), 0.0


def _norm(name: str, c: int):
    yield f"{name}.gamma", (c,), 1.0
    yield f"{name}.beta", (c,), 0.0


def _block(name: str, c: int, heads: int, window: int, ratio: int, attn: str = ""):
    """One pre-norm attention block: LN, q/k/v/out, bias table, LN, MLP.
    ``attn`` renames the prefix of q, k and the table (the shared bundle)."""
    attn = attn or name
    yield from _norm(f"{name}.ln1", c)
    yield from _linear(f"{attn}.q", c, c)
    yield from _linear(f"{attn}.k", c, c)
    yield from _linear(f"{name}.v", c, c)
    yield from _linear(f"{name}.out", c, c)
    yield f"{attn}.bias_table", ((2 * window - 1) ** 2, heads), NORMAL
    yield from _norm(f"{name}.ln2", c)
    yield from _linear(f"{name}.fc1", c, ratio * c)
    yield from _linear(f"{name}.fc2", ratio * c, c)


def _encoder(cfg: ArchConfig):
    yield from _linear("patch_embed", 3 * PATCH ** 2, cfg.base_channels)
    for s, (c, heads) in enumerate(zip(stage_channels(cfg), stage_heads(cfg))):
        for d in range(cfg.stage_depths[s]):
            yield from _block(f"encoder.s{s}.b{d}", c, heads, cfg.window, cfg.mlp_ratio)
        if s < 3:  # patch merge, 4C -> 2C bias free
            yield from _norm(f"encoder.merge{s}.ln", 4 * c)
            yield f"encoder.merge{s}.weight", (4 * c, 2 * c), NORMAL


def _decoder(cfg: ArchConfig):
    """One task's decoder, the shared bundle declared inside ``b2``."""
    dec_ch = decoder_channels(cfg)
    yield from _linear("decoder.init", dec_ch[0], dec_ch[0])  # stream init from the deepest feature
    for i, (c, heads) in enumerate(zip(dec_ch, stage_heads(cfg)[::-1])):
        base = f"decoder.s{i}"
        yield from _linear(f"{base}.fuse", c, c)  # additive skip fusion
        yield from _block(f"{base}.b1", c, heads, cfg.window, DECODER_MLP_RATIO)
        yield from _block(f"{base}.b2", c, heads, cfg.window, DECODER_MLP_RATIO,
                          attn=f"{base}.shared" if cfg.shared_attention else "")
        if i < 3:  # patch expand, bias free
            yield f"decoder.expand{i}.weight", (c, 2 * c), NORMAL


def _head(cfg: ArchConfig, task: str):
    c, out = cfg.base_channels, task_channels(task)
    yield f"head.{task}.expand1.weight", (c, 2 * c), NORMAL
    yield f"head.{task}.expand2.weight", (c // 2, c), NORMAL
    yield f"head.{task}.out.weight", (c // 4, out), NORMAL
    yield f"head.{task}.out.bias", (out,), NORMALS_BIAS if task == "N" else 0.0


def param_layout(cfg: ArchConfig):
    """Every parameter as ``(name, shape, init, task index or None, stacked)``,
    in the order its initial values are drawn.

    The encoder comes first, then each task's decoder in ``cfg.tasks``
    order, then the heads.  A stacked entry is slice ``task`` of a tensor
    with a leading task axis, so its name appears once per task.  The
    shared q/k/table bundle of a stage appears only in the reference
    task's pass, unstacked and owned by that task.  Tensors are stored in
    the order their names first appear.
    """
    for name, shape, init in _encoder(cfg):
        yield name, shape, init, None, False
    for k, t in enumerate(cfg.tasks):
        for name, shape, init in _decoder(cfg):
            shared = ".shared." in name
            if not shared or t == cfg.reference_task:
                yield name, shape, init, k, not shared
    for k, t in enumerate(cfg.tasks):
        for name, shape, init in _head(cfg, t):
            yield name, shape, init, k, False


@dataclass(frozen=True)
class ParamCount:
    encoder: int
    decoder: dict
    heads: dict
    total: int


def count_parameters(cfg: ArchConfig) -> ParamCount:
    """Exact learnable scalar count of ``param_layout``; no tensors built.

    The breakdown components always sum to the total.  The shared q/k
    projections and their bias table are owned by the reference task's
    decoder, so with shared attention on every other task is strictly
    lighter than with it off.
    """
    encoder = 0
    decoder = dict.fromkeys(cfg.tasks, 0)
    heads = dict.fromkeys(cfg.tasks, 0)
    for name, shape, _, k, _ in param_layout(cfg):
        n = math.prod(shape)
        if k is None:
            encoder += n
        else:
            (heads if name.startswith("head.") else decoder)[cfg.tasks[k]] += n
    total = encoder + sum(decoder.values()) + sum(heads.values())
    return ParamCount(encoder=encoder, decoder=decoder, heads=heads, total=total)


# ------------------------------------------------------------- serialization

def _read_bool(text: str) -> bool:
    if text.lower() not in ("true", "false", "0", "1", "on", "off"):
        raise ValueError(text)
    return text.lower() in ("true", "1", "on")


# (write, read) of each kind's text form; read raises ValueError on a bad value
_TEXT = {
    "int": (str, int),
    "ints": (lambda v: ",".join(map(str, v)), lambda text: tuple(int(x) for x in text.split(","))),
    "tasks": (",".join, lambda text: tuple(x.strip().upper() for x in text.split(",") if x.strip())),
    "bool": (lambda v: "true" if v else "false", _read_bool),
    "str": (str, str.upper),
}


def to_text(cfg: ArchConfig) -> str:
    """Flat key=value form, one field per line, declaration order."""
    return "".join(f"{f.name}={_TEXT[_KINDS[f.name]][0](getattr(cfg, f.name))}\n"
                   for f in fields(cfg))


def from_text(text: str) -> ArchConfig:
    """Parse key=value lines; unknown keys are errors, missing keys keep defaults."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KINDS:
            raise ConfigurationError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigurationError(f"line {lineno}: duplicate config key {key!r}")
        try:
            values[key] = _TEXT[_KINDS[key]][1](val)
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    return ArchConfig(**values)


def save(cfg: ArchConfig, path) -> None:
    with replace_on_success(path) as f:
        f.write(to_text(cfg).encode())


def load(path) -> ArchConfig:
    try:
        return from_text(Path(path).read_bytes().decode())
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not UTF-8 text: {exc}") from exc


def resolve(config_path=None, preset_name=None) -> ArchConfig:
    """One of --config / --preset, used by every CLI entry point."""
    if (config_path is None) == (preset_name is None):
        raise ConfigurationError("give exactly one of a config path or a preset name")
    return load(config_path) if config_path else preset(preset_name)
