"""Benchmark for mtformer: three closed-loop workloads on the desk-nano preset.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced slices of the time and prints the per-layer metrics.  `all` runs
each workload in a fresh process, one after the other.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The lines before it record the machine and run facts and the details of the
tail percentile.  Results and spans are also written under perfbench/out/.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("train", "eval", "io")
SETUP_REPEATS = 3
TRACE_SLICES = 4
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def limit_blas_threads() -> int:
    """Pin BLAS to one thread before numpy loads; returns nproc.

    The program runs on one thread, and on small desk-nano matrices a second
    BLAS thread costs twice the CPU for a slower step."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_program():
    """Import mtformer from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "mtformer"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no mtformer sources at {package}")
    sys.path.insert(0, str(package.parent))
    import mtformer
    if Path(mtformer.__file__).resolve().parent != package:
        raise SystemExit(f"benchmark: imported mtformer from {mtformer.__file__}, "
                         f"not from {package}")


# ------------------------------------------------------------------ facts

def _blas_facts(np) -> dict:
    facts = {"threads_env": os.environ["OPENBLAS_NUM_THREADS"]}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts.update(vendor=info.get("name"), version=info.get("version"))
    except (AttributeError, KeyError, TypeError):
        facts.update(vendor=None, version=None)
    facts["threads"] = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                facts["threads"] = fn()
                return facts
    return facts


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mtformer").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_facts(args, nproc: int, dtype: str) -> dict:
    import numpy as np
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "dtype": dtype, "preset": "desk-nano",
        "nproc": nproc, "cpu": _cpu_model(), "blas": _blas_facts(np),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "platform": platform.platform(),
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------- metrics

def tail(values):
    """Highest percentile with at least ten samples beyond it, by nearest
    rank, as (value, percentile); the maximum when there are ten or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def _number(x):
    return x if x is None or math.isfinite(x) else None


def measure(args, import_s: float):
    """Run one workload in this process; returns (dtype, details, result)."""
    import tracing
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t)
        if args.trace:
            # untraced and traced slices alternate, so drift in machine load
            # reaches both sides of trace.overhead_ratio
            slices = ([], [])
            tracer = tracing.Tracer()
            for i in range(TRACE_SLICES):
                if i % 2:
                    tracer.install()
                try:
                    slices[i % 2].append(wl.run(args.seconds / TRACE_SLICES))
                finally:
                    tracer.uninstall()
            plain, traced = map(workloads.Phase.merge, slices)
            phases = [plain, traced]
            plain_rate = plain.samples / plain.busy_s
            overhead = (plain_rate - traced.samples / traced.busy_s) / plain_rate
            metrics = tracing.per_layer_metrics(tracer, traced.windows,
                                                getattr(wl, "sizes", {}), overhead)
            tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json", traced.windows)
        else:
            phase = wl.run(args.seconds)
            phases = [phase]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_ms = [1e3 * (end - start) for p in phases for start, end in p.windows]
    tail_ms, tail_pct = tail(op_ms)
    attempted = len(op_ms)
    failed = sum(not ok for p in phases for ok in p.ok)
    final_loss = phases[-1].final_loss
    details = {"ops": attempted, "op_ms_tail_percentile": tail_pct,
               "import_s": import_s, "setup_runs_s": setups,
               "timed_s": sum(p.busy_s for p in phases), "samples": sum(p.samples for p in phases),
               "samples_per_op": wl.samples_per_op}
    if not args.trace:
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "samples_per_s": (phase.samples / phase.busy_s, "1/s"),
            "op_ms_p50": (statistics.median(op_ms), "ms"),
            "op_ms_tail": (tail_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "pass_ratio": ((attempted - failed) / attempted, "ratio"),
            "final_loss": (final_loss, "loss"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    for m in metrics.values():
        m["value"] = _number(m["value"])
    result = {"correct": failed == 0 and math.isfinite(final_loss),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return wl.dtype, details, result


def run_all(args) -> int:
    """Each workload in a fresh process; prints a table and one merged line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
            print(f"{name:<6} {metric:<34} {m['value']} {m['unit']}")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    nproc = limit_blas_threads()
    import_program()
    import workloads  # noqa: F401  (numpy and mtformer load here, inside import_s)
    import_s = time.perf_counter() - START
    dtype, details, result = measure(args, import_s)
    facts = machine_facts(args, nproc, dtype)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as f:
        json.dump({"facts": facts, "details": details, "result": result}, f, indent=1)
    print(json.dumps({"facts": facts}))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
