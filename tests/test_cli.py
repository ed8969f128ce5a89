"""End-to-end command line coverage on tiny configs and datasets."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mtformer import config as cfgmod
from mtformer.cli import main
from mtformer.synthetic import read_dataset, read_manifest

from test_training import tiny_cfg


@pytest.fixture()
def tiny_config_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    cfgmod.save(tiny_cfg(tasks=("S", "D")), path)
    return str(path)


@pytest.fixture()
def tiny_dataset_path(tmp_path, capsys):
    path = tmp_path / "tiny.mtds"
    assert main(["gen-data", "--seed", "3", "--count", "2",
                 "--size", "32", "--out", str(path)]) == 0
    capsys.readouterr()  # drain so tests see only their own output
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_gen_data_writes_dataset_and_manifest(tmp_path, capsys):
    out = tmp_path / "d.mtds"
    code, recs = run_cli(capsys, ["gen-data", "--seed", "5", "--count", "3",
                                  "--size", "32", "--out", str(out)])
    assert code == 0
    assert recs[0] == {"written": str(out), "count": 3, "size": 32, "first_seed": 5}
    samples = read_dataset(out)
    assert len(samples) == 3 and samples[0].size == 32
    assert read_manifest(out) == [5, 6, 7]


def test_train_then_eval_roundtrip(tmp_path, capsys, tiny_config_path, tiny_dataset_path):
    ckpt = tmp_path / "run.mtck"
    log = tmp_path / "metrics.jsonl"
    code, recs = run_cli(capsys, [
        "train", "--config", tiny_config_path, "--data", tiny_dataset_path,
        "--steps", "2", "--batch", "1", "--seed", "1", "--warmup", "1",
        "--out", str(ckpt), "--log", str(log)])
    assert code == 0
    final = recs[0]["final_losses"]
    assert set(final) == {"S", "D"}
    assert len(log.read_text().splitlines()) == 3

    code, recs = run_cli(capsys, ["eval", "--ckpt", str(ckpt),
                                  "--data", tiny_dataset_path])
    assert code == 0
    assert recs[0] == {"step": 2, "losses": final}


def test_train_requires_exactly_one_config_source(capsys, tiny_dataset_path, tmp_path):
    code = main(["train", "--data", tiny_dataset_path,
                 "--out", str(tmp_path / "x.mtck")])
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize("batch", ["0", "-1"])
def test_train_rejects_batch_below_one(capsys, tmp_path, tiny_config_path,
                                       tiny_dataset_path, batch):
    ckpt = tmp_path / "x.mtck"
    code = main(["train", "--config", tiny_config_path, "--data", tiny_dataset_path,
                 "--steps", "1", "--batch", batch, "--out", str(ckpt)])
    assert code == 2
    assert "batch size must be >= 1" in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_rejects_negative_steps(capsys, tmp_path, tiny_config_path, tiny_dataset_path):
    # the message names the steps, not the warmup the schedule derives from them
    ckpt = tmp_path / "x.mtck"
    code = main(["train", "--config", tiny_config_path, "--data", tiny_dataset_path,
                 "--steps", "-1", "--batch", "1", "--out", str(ckpt)])
    captured = capsys.readouterr()
    assert code == 2
    assert "steps must be >= 0, got -1" in captured.err
    assert "warmup" not in captured.err
    assert captured.out == "" and not ckpt.exists()


def test_train_rejects_negative_seed_before_reading_data(capsys, tmp_path, tiny_config_path):
    # the options are checked first, so a missing dataset is not what is reported
    missing = tmp_path / "missing.mtds"
    ckpt = tmp_path / "x.mtck"
    code = main(["train", "--config", tiny_config_path, "--data", str(missing),
                 "--seed", "-1", "--out", str(ckpt)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: seed must be >= 0, got -1\n"
    assert captured.out == "" and not ckpt.exists()


def test_eval_reports_missing_file(capsys, tiny_dataset_path):
    code = main(["eval", "--ckpt", "/nonexistent.mtck", "--data", tiny_dataset_path])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_rejects_undecodable_checkpoint_text(tmp_path, capsys, tiny_dataset_path):
    from mtformer.model import init_params
    from mtformer.training import save_checkpoint
    ckpt = tmp_path / "bad.mtck"
    save_checkpoint(ckpt, init_params(tiny_cfg(tasks=("S", "D")), seed=0), None, 1)
    blob = ckpt.read_bytes()
    at = blob.index(b"window=") + len(b"window=")
    ckpt.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
    code = main(["eval", "--ckpt", str(ckpt), "--data", tiny_dataset_path])
    assert code == 2
    assert f"offset {at}" in capsys.readouterr().err


def test_params_rejects_a_config_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"window=1\nmlp_ratio=\xff\n")
    code = main(["params", "--config", str(path)])
    assert code == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_ablate_emits_rows_and_comparison(tmp_path, capsys, tiny_config_path,
                                          tiny_dataset_path):
    report = tmp_path / "report.jsonl"
    code, recs = run_cli(capsys, [
        "ablate", "--config", tiny_config_path, "--data", tiny_dataset_path,
        "--subsets", "s", "d", "s,d", "--shared", "both",
        "--steps", "2", "--batch", "1", "--out", str(report)])
    assert code == 0
    rows = [r for r in recs if "run" in r]
    assert len(rows) == 6
    assert rows == [json.loads(line) for line in report.read_text().splitlines()]
    summary = recs[-1]["shared_comparison"]
    assert summary["tasks"] == ["S", "D"]
    assert set(summary["deltas"]) == {"S", "D"}


def test_ablate_single_flag_skips_comparison(capsys, tiny_config_path,
                                             tiny_dataset_path):
    code, recs = run_cli(capsys, [
        "ablate", "--config", tiny_config_path, "--data", tiny_dataset_path,
        "--subsets", "s", "--shared", "off", "--steps", "1", "--batch", "1"])
    assert code == 0
    assert all("shared_comparison" not in r for r in recs)
    assert recs[0]["tasks"] == ["S"] and recs[0]["shared_attention"] is False


def test_ablate_requires_exactly_one_config_source(capsys, tiny_config_path,
                                                   tiny_dataset_path):
    code = main(["ablate", "--config", tiny_config_path, "--preset", "desk-nano",
                 "--data", tiny_dataset_path, "--steps", "1", "--batch", "1"])
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


def test_ablate_labels_rows_with_the_preset_the_config_equals(tmp_path, capsys,
                                                              tiny_config_path):
    data = tmp_path / "nano.mtds"
    assert main(["gen-data", "--count", "1", "--size", "128", "--out", str(data)]) == 0
    nano = tmp_path / "nano.cfg"
    cfgmod.save(cfgmod.preset("desk-nano"), nano)
    capsys.readouterr()
    quick = ["--data", str(data), "--subsets", "k", "--shared", "off",
             "--steps", "1", "--batch", "1"]
    code, recs = run_cli(capsys, ["ablate", "--config", str(nano)] + quick)
    assert code == 0 and recs[0]["preset"] == "desk-nano"

    tiny_data = tmp_path / "tiny.mtds"
    assert main(["gen-data", "--count", "1", "--size", "32", "--out", str(tiny_data)]) == 0
    capsys.readouterr()
    quick[1] = str(tiny_data)
    code, recs = run_cli(capsys, ["ablate", "--config", tiny_config_path] + quick)
    assert code == 0 and recs[0]["preset"] == "custom"


def test_grad_check_passes_on_tiny_config(capsys, tiny_config_path):
    code, recs = run_cli(capsys, ["grad-check", "--config", tiny_config_path,
                                  "--tolerance", "1e-3"])
    assert code == 0
    assert recs[0]["pass"] is True
    assert recs[0]["max_rel_err"] <= 1e-3
    assert recs[0]["probes"] > 0


def test_grad_check_fails_loudly_on_impossible_tolerance(capsys, tiny_config_path):
    code, recs = run_cli(capsys, ["grad-check", "--config", tiny_config_path,
                                  "--tolerance", "0"])
    assert code == 1
    assert recs[0]["pass"] is False


@pytest.mark.parametrize("count", ["0", "-1"])
def test_grad_check_rejects_fewer_than_one_probe_per_tensor(capsys, tiny_config_path,
                                                            count):
    # zero probes would otherwise report a check that compared nothing as passed
    code = main(["grad-check", "--config", tiny_config_path,
                 "--samples-per-tensor", count])
    assert code == 2
    captured = capsys.readouterr()
    assert "samples per tensor must be >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["gen-data", "--seed", "-1", "--count", "1", "--size", "32"],
    ["grad-check", "--preset", "desk-nano", "--data-seed", "-1"],
    ["grad-check", "--preset", "desk-nano", "--seed", "-1"],
    ["train", "--seed", "-1", "--steps", "1", "--batch", "1"],
    ["ablate", "--seed", "-1", "--steps", "1", "--batch", "1", "--subsets", "s"],
], ids=["gen-data", "grad-check-data-seed", "grad-check-seed", "train", "ablate"])
def test_negative_seeds_are_rejected_with_exit_2(tmp_path, capsys, tiny_config_path,
                                                 tiny_dataset_path, command):
    # numpy refuses a negative seed with a bare ValueError; each command
    # reports it as a typed error instead
    extra = {"gen-data": ["--out", str(tmp_path / "neg.mtds")],
             "train": ["--config", tiny_config_path, "--data", tiny_dataset_path,
                       "--out", str(tmp_path / "neg.mtck")],
             "ablate": ["--config", tiny_config_path, "--data", tiny_dataset_path]}
    code = main(command + extra.get(command[0], []))
    captured = capsys.readouterr()
    assert code == 2
    assert "seed must be >= 0" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "neg.mtds").exists() and not (tmp_path / "neg.mtck").exists()


def test_params_matches_library_accounting(capsys, tiny_config_path):
    code, recs = run_cli(capsys, ["params", "--config", tiny_config_path])
    assert code == 0
    expected = cfgmod.count_parameters(cfgmod.load(tiny_config_path))
    assert recs[0]["total"] == expected.total
    assert recs[0]["encoder"] == expected.encoder
    assert recs[0]["decoder"] == expected.decoder
    assert recs[0]["heads"] == expected.heads


def test_params_accepts_presets(capsys):
    code, recs = run_cli(capsys, ["params", "--preset", "desk-nano"])
    assert code == 0
    assert recs[0]["total"] == 2758663


def test_bad_preset_name_is_reported(capsys):
    code = main(["params", "--preset", "desk-mega"])
    assert code == 2
    assert "desk-mega" in capsys.readouterr().err


@pytest.mark.parametrize("preset, expected", [(None, "1 1"), ("3", "3 3")],
                         ids=["unset", "user-set"])
def test_cli_pins_blas_to_one_thread_unless_the_user_set_it(preset, expected):
    # train's two threads and a threaded BLAS would share the same cores
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = preset
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    code = ("import os, mtformer.cli; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == expected
