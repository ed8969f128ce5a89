"""Fixed-budget sweeps over task combinations and attention sharing.

Every run in a sweep shares one training budget, seed policy, and dataset.
A cell changes only the ablation axes, which the budget hash leaves out, so
every row of a sweep records one budget hash by construction.  Single-task
runs double as the baselines the relative columns divide by, so a size-one
subset always reports relative 0 against itself.  Baselines are kept per
sharing flag: a lone task wired through the sharing path reads its
attention pattern off the raw encoder skip, which is a slightly different
network than the self-contained one, and mixing the two would skew the
comparison.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace

from .config import PRESETS, TASKS, ArchConfig, count_parameters
from .errors import ConfigurationError
from .files import replace_on_success
from .losses import relative_performance
from .training import RunOptions, _load_samples, train

@dataclass(frozen=True)
class AblationReport:
    """One run of a sweep.  ``losses`` and ``relative`` always carry all six
    task columns, None where the task was not trained."""

    run: str
    preset: str
    tasks: tuple
    shared_attention: bool
    parameters: int
    losses: dict
    relative: dict
    wall_time: float
    budget_hash: str
    config_hash: str

    def to_record(self) -> dict:
        return {**asdict(self), "tasks": list(self.tasks)}


REPORT_FIELDS = tuple(f.name for f in fields(AblationReport))


def normalize_subset(subset) -> tuple:
    """Task letters in canonical S,D,N,K,E,R order, case-insensitive."""
    tokens = {str(t).strip().upper() for t in subset if str(t).strip()}
    unknown = tokens - set(TASKS)
    if unknown:
        raise ConfigurationError(
            f"unknown task ids {sorted(unknown)}, valid ids are {', '.join(TASKS)}")
    if not tokens:
        raise ConfigurationError("empty task subset")
    return tuple(t for t in TASKS if t in tokens)


def _cell_config(scale: ArchConfig, subset: tuple, shared: bool) -> ArchConfig:
    ref = scale.reference_task if scale.reference_task in subset else subset[0]
    return replace(scale, tasks=subset, reference_task=ref, shared_attention=shared)


def _six_columns(values: dict) -> dict:
    return {t: values.get(t) for t in TASKS}


def ablate(cfg: ArchConfig, data, options: RunOptions, subsets=None,
           shared_flags=(True, False), report_path=None) -> list:
    """Train every (subset, sharing flag) cell under one budget.

    ``subsets`` defaults to the protocol the architecture claims live on:
    each single task plus the full task set.  Under each flag, the single
    task of every task a subset holds runs first, as the baseline of the
    relative columns.  Returns the rows in run order and, when
    ``report_path`` is set, writes them as line-delimited JSON.  Each row's ``preset`` is
    the name of the preset equal to ``cfg``, or "custom" when none is.
    """
    samples = _load_samples(data, cfg.img_size)
    if subsets is None:
        subsets = [cfg.tasks]  # the singles run anyway, as baselines
    subsets = list(dict.fromkeys(normalize_subset(s) for s in subsets))
    flags = list(dict.fromkeys(bool(f) for f in shared_flags))
    if not flags:
        raise ConfigurationError("no sharing flags requested")
    label = next((name for name, known in PRESETS.items() if known == cfg), "custom")

    needed = sorted({t for s in subsets for t in s}, key=TASKS.index)
    rows = []
    for shared in flags:
        baselines = {}
        ordered = [(t,) for t in needed] + [s for s in subsets if len(s) > 1]
        for subset in ordered:
            cell = _cell_config(cfg, subset, shared)
            result = train(cell, samples, options)
            finals = result.metrics[-1]["losses"]
            if len(subset) == 1:
                baselines[subset[0]] = finals[subset[0]]
            relative = {t: relative_performance(finals[t], baselines[t]) for t in subset}
            rows.append(AblationReport(
                run=f"r{len(rows):02d}-{''.join(subset)}-{'on' if shared else 'off'}",
                preset=label,
                tasks=subset,
                shared_attention=shared,
                parameters=count_parameters(cell).total,
                losses=_six_columns(finals),
                relative=_six_columns(relative),
                wall_time=result.wall_time,
                budget_hash=result.budget_hash,
                config_hash=result.config_hash,
            ))
    if report_path:
        write_report(rows, report_path)
    return rows


def write_report(rows, path) -> None:
    """One JSON object per line, fields in REPORT_FIELDS order."""
    with replace_on_success(path) as f:
        f.write("".join(json.dumps(row.to_record()) + "\n" for row in rows).encode())


def shared_comparison(rows) -> dict:
    """Per-task relative-performance deltas, sharing on minus off, on the
    largest subset present under both flags.

    Positive delta means the shared-attention run relatively outperformed;
    ``better_or_equal`` counts tasks with delta >= 0.  The direction is
    informational at small scale, not a gate.
    """
    by_key = {}
    for row in rows:
        by_key.setdefault((row.tasks, row.shared_attention), row)
    candidates = sorted({tasks for tasks, _ in by_key
                         if (tasks, True) in by_key and (tasks, False) in by_key},
                        key=lambda s: (len(s), s))
    if not candidates:
        raise ConfigurationError("no subset was run under both sharing flags")
    subset = candidates[-1]
    on, off = by_key[(subset, True)], by_key[(subset, False)]
    deltas = {t: on.relative[t] - off.relative[t] for t in subset}
    return {"tasks": subset,
            "deltas": deltas,
            "better_or_equal": sum(1 for d in deltas.values() if d >= 0)}
