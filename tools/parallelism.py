"""Measure whether two threads run in parallel on this machine right now.

    python tools/parallelism.py

Prints one JSON line: for each of two jobs that release the GIL, the time
one thread takes to run the job twice over the time two threads take to
run it once each, at the same moment.  A speedup near 2.0 means both
threads got a core; near 1.0 means they took turns.  The jobs are
``hashlib.sha256`` over 8 MiB and an in-place numpy multiply over 8 MiB
of float64; each figure is the median of 7 trials.

On a VM whose cores come and go, run it just before each benchmark pair,
and report the pairs taken with and without parallelism apart.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import threading
import time

import numpy as np

TRIALS = 7
BLOCK = bytes(8 << 20)
ARRAY = np.ones(1 << 20)  # 8 MiB of float64


def _sha256():
    hashlib.sha256(BLOCK).digest()


def _ufunc():
    for _ in range(8):
        np.multiply(ARRAY, 1.0, out=ARRAY)


def _speedup(job) -> float:
    job()  # warm
    ratios = []
    for _ in range(TRIALS):
        t0 = time.perf_counter()
        job()
        job()
        serial = time.perf_counter() - t0
        threads = [threading.Thread(target=job) for _ in range(2)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ratios.append(serial / (time.perf_counter() - t0))
    return round(statistics.median(ratios), 3)


def main() -> None:
    print(json.dumps({"cpus": os.cpu_count(), "sha256_speedup": _speedup(_sha256),
                      "numpy_ufunc_speedup": _speedup(_ufunc)}))


if __name__ == "__main__":
    main()
