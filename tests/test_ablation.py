"""Ablation driver: fixed-budget sweeps, baselines, report structure."""

import json

import pytest

from mtformer.ablation import (REPORT_FIELDS, ablate, normalize_subset,
                               shared_comparison, write_report)
from mtformer.config import TASKS
from mtformer.errors import ConfigurationError
from mtformer.losses import relative_performance

from test_training import tiny_cfg, tiny_data, tiny_options


def quick_sweep(**kwargs):
    cfg = tiny_cfg(tasks=("S", "D"))
    data = tiny_data(count=2)
    opts = tiny_options(steps=2, batch_size=1)
    return ablate(cfg, data, opts, **kwargs)


def test_normalize_subset_orders_and_validates():
    assert normalize_subset(["d", "s"]) == ("S", "D")
    assert normalize_subset("rk") == ("K", "R")
    assert normalize_subset(("N",)) == ("N",)
    with pytest.raises(ConfigurationError, match="unknown task"):
        normalize_subset(["S", "X"])
    with pytest.raises(ConfigurationError, match="empty"):
        normalize_subset([])


def test_default_protocol_covers_singles_and_full_set():
    rows = quick_sweep()
    cells = [(r.tasks, r.shared_attention) for r in rows]
    for flag in (True, False):
        assert (("S",), flag) in cells
        assert (("D",), flag) in cells
        assert (("S", "D"), flag) in cells
    assert len(rows) == 6
    assert [r.run for r in rows] == [f"r{i:02d}-{''.join(r.tasks)}-"
                                     f"{'on' if r.shared_attention else 'off'}"
                                     for i, r in enumerate(rows)]


def test_rows_always_carry_all_six_task_columns():
    rows = quick_sweep()
    for row in rows:
        assert tuple(row.losses) == TASKS
        assert tuple(row.relative) == TASKS
        for t in TASKS:
            present = t in row.tasks
            assert (row.losses[t] is not None) == present
            assert (row.relative[t] is not None) == present


def test_single_task_rows_are_their_own_baseline():
    rows = quick_sweep()
    for row in rows:
        if len(row.tasks) == 1:
            assert row.relative[row.tasks[0]] == 0.0


def test_multitask_relative_is_measured_against_the_baseline():
    # positive relative means the multitask loss is below the baseline
    rows = quick_sweep()
    baselines = {(r.tasks[0], r.shared_attention): r
                 for r in rows if len(r.tasks) == 1}
    multi = [r for r in rows if len(r.tasks) > 1]
    assert multi
    for row in multi:
        for t in row.tasks:
            base = baselines[(t, row.shared_attention)].losses[t]
            assert row.relative[t] == relative_performance(row.losses[t], base)
            assert row.losses[t] != base
            assert (row.relative[t] > 0) == (row.losses[t] < base)


def test_all_rows_share_one_budget_hash():
    rows = quick_sweep()
    assert len({r.budget_hash for r in rows}) == 1
    # config hashes differ whenever tasks or the sharing flag differ
    assert len({r.config_hash for r in rows}) == len(rows)


def test_sharing_saves_parameters_on_multitask_rows():
    rows = quick_sweep()
    by_cell = {(r.tasks, r.shared_attention): r for r in rows}
    multi_on = by_cell[(("S", "D"), True)]
    multi_off = by_cell[(("S", "D"), False)]
    assert multi_on.parameters < multi_off.parameters
    # a single task owns its attention either way
    assert by_cell[(("S",), True)].parameters == by_cell[(("S",), False)].parameters


def test_driver_adds_missing_baselines():
    rows = quick_sweep(subsets=[("S", "D")], shared_flags=(True,))
    cells = [(r.tasks, r.shared_attention) for r in rows]
    assert cells == [(("S",), True), (("D",), True), (("S", "D"), True)]
    multi = rows[-1]
    assert multi.relative["S"] is not None and multi.relative["D"] is not None


def test_report_file_is_line_delimited_with_stable_field_order(tmp_path):
    out = tmp_path / "report.jsonl"
    rows = quick_sweep(subsets=[("S",)], shared_flags=(False,), report_path=out)
    lines = out.read_text().splitlines()
    assert len(lines) == len(rows) == 1
    rec = json.loads(lines[0])
    assert tuple(rec) == REPORT_FIELDS
    assert rec["tasks"] == ["S"]
    assert rec["shared_attention"] is False
    assert rec["losses"]["S"] == rows[0].losses["S"]
    assert rec["losses"]["N"] is None
    # rewriting reproduces the file byte for byte
    again = tmp_path / "again.jsonl"
    write_report(rows, again)
    assert again.read_bytes() == out.read_bytes()


def test_failed_report_write_keeps_previous_report(tmp_path, monkeypatch):
    from test_training import fail_writes_after
    out = tmp_path / "report.jsonl"
    rows = quick_sweep(subsets=[("S",)], shared_flags=(False,), report_path=out)
    before = out.read_bytes()

    fail_writes_after(monkeypatch, len(before) // 2)
    with pytest.raises(OSError, match="halfway"):
        write_report(rows + rows, out)
    monkeypatch.undo()

    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.jsonl"]
    assert out.read_bytes() == before


def test_shared_comparison_reports_per_task_deltas():
    rows = quick_sweep()
    summary = shared_comparison(rows)
    assert summary["tasks"] == ("S", "D")
    assert set(summary["deltas"]) == {"S", "D"}
    assert 0 <= summary["better_or_equal"] <= 2


def test_shared_comparison_requires_both_flags():
    rows = [r for r in quick_sweep() if r.shared_attention]
    with pytest.raises(ConfigurationError, match="both sharing flags"):
        shared_comparison(rows)


def test_rejects_empty_flags_and_bad_subsets():
    cfg = tiny_cfg(tasks=("S",))
    data = tiny_data(count=1)
    with pytest.raises(ConfigurationError, match="no sharing flags"):
        ablate(cfg, data, tiny_options(steps=1), shared_flags=())
    with pytest.raises(ConfigurationError, match="unknown task"):
        ablate(cfg, data, tiny_options(steps=1), subsets=[("Q",)])
