"""Command line front end.

Subcommands: gen-data, train, eval, ablate, grad-check, params.  Every
command prints line-delimited JSON on stdout so runs can be piped and
diffed; files written on disk (datasets, checkpoints, metric logs, sweep
reports) use the formats documented in their modules.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# before numpy loads: train runs two threads of its own, and a threaded BLAS
# would compete with them for the same cores; a value the user set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from . import config as cfgmod  # noqa: E402  (every import below loads numpy)
from .ablation import ablate, shared_comparison
from .config import count_parameters
from .errors import (ConfigurationError, DataError, DimensionError,
                     FormatError, NumericsError, OracleError)
from .model import init_params
from .synthetic import generate_dataset, generate_sample, write_dataset
from .training import (BALANCE_MODES, DTYPE_NAMES, RunOptions,
                       check_model_gradients, evaluate, load_checkpoint, train)

_ERRORS = (ConfigurationError, DataError, DimensionError, FormatError,
           NumericsError, OracleError, OSError)


def _emit(record: dict) -> None:
    print(json.dumps(record))


def _add_config_source(p):
    p.add_argument("--config", help="architecture config file (key=value lines)")
    p.add_argument("--preset", help="named architecture preset")


def _add_budget(p):
    d = RunOptions()
    p.add_argument("--steps", type=int, default=d.steps)
    p.add_argument("--batch", type=int, default=d.batch_size)
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--lr", type=float, default=d.peak_lr, help="peak learning rate")
    p.add_argument("--warmup", type=int, default=d.warmup_steps)
    p.add_argument("--floor-lr", type=float, default=d.floor_lr)
    p.add_argument("--weight-decay", type=float, default=d.weight_decay)
    p.add_argument("--dtype", choices=DTYPE_NAMES, default=d.dtype)
    p.add_argument("--balance", choices=BALANCE_MODES, default=d.balance)


def _options(args) -> RunOptions:
    return RunOptions(steps=args.steps, batch_size=args.batch, seed=args.seed,
                      peak_lr=args.lr, warmup_steps=args.warmup,
                      floor_lr=args.floor_lr, weight_decay=args.weight_decay,
                      dtype=args.dtype, balance=args.balance)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtformer",
        description="multitask windowed transformer: data, training, sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset file")
    p.add_argument("--seed", type=int, default=0, help="seed of the first sample")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--size", type=int, default=128, help="square image side in px")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model on a dataset file")
    _add_config_source(p)
    p.add_argument("--data", required=True)
    _add_budget(p)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", help="per-step metrics file, one JSON record per line")

    p = sub.add_parser("eval", help="per-task mean losses of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("ablate", help="fixed-budget task/sharing sweep")
    _add_config_source(p)
    p.add_argument("--data", required=True)
    p.add_argument("--subsets", nargs="+", metavar="TASKS",
                   help="task subsets, letters per subset like s,d,n or sdn; "
                        "default: every single task plus the full set")
    p.add_argument("--shared", choices=("on", "off", "both"), default="both")
    _add_budget(p)
    p.add_argument("--out", help="report path, one JSON record per line")

    p = sub.add_parser("grad-check", help="whole-model finite-difference check")
    _add_config_source(p)
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0, help="init and probe seed")
    p.add_argument("--data-seed", type=int, default=0, help="probe image seed")
    p.add_argument("--samples-per-tensor", type=int, default=1)

    p = sub.add_parser("params", help="exact parameter accounting for a config")
    _add_config_source(p)
    return parser


def _cmd_gen_data(args) -> int:
    samples = generate_dataset(args.count, args.size, base_seed=args.seed)
    write_dataset(samples, args.out,
                  seeds=range(args.seed, args.seed + args.count))
    _emit({"written": args.out, "count": args.count, "size": args.size,
           "first_seed": args.seed})
    return 0


def _cmd_train(args) -> int:
    cfg = cfgmod.resolve(args.config, args.preset)
    result = train(cfg, args.data, _options(args),
                   ckpt_path=args.out, log_path=args.log)
    _emit({"checkpoint": args.out, "steps": args.steps,
           "wall_time": round(result.wall_time, 3),
           "final_losses": result.metrics[-1]["losses"],
           "budget_hash": result.budget_hash})
    return 0


def _cmd_eval(args) -> int:
    model, _, step, _ = load_checkpoint(args.ckpt)
    _emit({"step": step, "losses": evaluate(model, args.data)})
    return 0


def _parse_subsets(tokens):
    if tokens is None:
        return None
    return [tuple(sub.replace(",", "")) for sub in tokens]


def _cmd_ablate(args) -> int:
    cfg = cfgmod.resolve(args.config, args.preset)
    flags = {"on": (True,), "off": (False,), "both": (True, False)}[args.shared]
    rows = ablate(cfg, args.data, _options(args),
                  subsets=_parse_subsets(args.subsets), shared_flags=flags,
                  report_path=args.out)
    for row in rows:
        _emit(row.to_record())
    if len(flags) == 2:  # every subset ran under both flags
        _emit({"shared_comparison": shared_comparison(rows)})
    return 0


def _cmd_grad_check(args) -> int:
    cfg = cfgmod.resolve(args.config, args.preset)
    model = init_params(cfg, seed=args.seed)
    sample = generate_sample(args.data_seed, cfg.img_size)
    report = check_model_gradients(model, sample,
                                   samples_per_tensor=args.samples_per_tensor,
                                   seed=args.seed)
    ok = report["max_rel_err"] <= args.tolerance
    _emit({**report, "tolerance": args.tolerance, "pass": bool(ok)})
    return 0 if ok else 1


def _cmd_params(args) -> int:
    cfg = cfgmod.resolve(args.config, args.preset)
    counts = count_parameters(cfg)
    _emit({"total": counts.total, "encoder": counts.encoder,
           "decoder": counts.decoder, "heads": counts.heads,
           "shared_attention": cfg.shared_attention, "tasks": list(cfg.tasks)})
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "grad-check": _cmd_grad_check,
    "params": _cmd_params,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
