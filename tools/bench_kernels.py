"""Per-kernel timing of one trial's layers, as a committed BENCH_<label>.json.

    PYTHONPATH=src python tools/bench_kernels.py --label NAME

Times each layer of a lab trial in process on one Gaussian walk per size
(seed 7), at N = 2^10 ... 2^MAX_LOG2 (2^20): sampling of every kind
(`sample:<kind>`), prefix sums, the exact DP, the blocked DP (block 4), the
dyadic upper bound, the greedy partition and the classification of the
exact partition. Each kernel is repeated until its repetitions take
MIN_TOTAL_S and at least MIN_REPS ran; the file holds the median per size,
and the exponent of N fitted by least squares to the log medians over the
larger half of the sizes. It is written to the
current directory; the sqvar on PYTHONPATH is the one timed, so pointing
PYTHONPATH at another checkout's src times that tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time

import numpy as np

from sqvar.classify import ClassParams, classify_partition, default_bad_threshold
from sqvar.greedy import GreedyParams, greedy_partition
from sqvar.seqcore import KINDS, DistributionSpec, prefix_sums, sample_sequence
from sqvar.variation import sq_variation_blocked, sq_variation_exact, sq_variation_upper_dyadic

SEED = 7
MIN_REPS = 3
MAX_REPS = 101
MIN_TOTAL_S = 0.25
MAX_LOG2 = 20


def _kernels(n: int):
    """(name, thunk) for each layer, in trial order, on the walk of size n."""
    samples = sample_sequence(DistributionSpec("gaussian"), n, SEED)
    walk = prefix_sums(samples)
    exact = sq_variation_exact(walk)
    params = GreedyParams(2, 4, 0.25, 0.5)
    specs = [DistributionSpec(kind, tail_exponent=2.5 if kind == "pareto_sym" else None)
             for kind in KINDS]
    return [
        *((f"sample:{spec.kind}", lambda spec=spec: sample_sequence(spec, n, SEED))
          for spec in specs),
        ("prefix_sums", lambda: prefix_sums(samples)),
        ("exact", lambda: sq_variation_exact(walk)),
        ("blocked", lambda: sq_variation_blocked(walk, 4)),
        ("dyadic", lambda: sq_variation_upper_dyadic(walk)),
        ("greedy", lambda: greedy_partition(walk, params)),
        ("classify", lambda: classify_partition(
            exact, ClassParams(0.1, default_bad_threshold(), n))),
    ]


def _median_time(fn) -> tuple[float, int]:
    times: list[float] = []
    while len(times) < MIN_REPS or (sum(times) < MIN_TOTAL_S and len(times) < MAX_REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


def _exponent(sizes: list[int], medians: list[float]) -> float:
    k = max(2, (len(sizes) + 1) // 2)
    slope = np.polyfit(np.log(sizes[-k:]), np.log(medians[-k:]), 1)[0]
    return round(float(slope), 3)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((ln.split(":", 1)[1].strip() for ln in fh
                         if ln.startswith("model name")), platform.machine())
    except OSError:
        return platform.machine()


def main(argv: list[str] | None = None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    sizes = [1 << k for k in range(10, MAX_LOG2 + 1)]
    kernels: dict[str, dict] = {}
    for n in sizes:
        for name, fn in _kernels(n):
            median, reps = _median_time(fn)
            row = kernels.setdefault(name, {"median_s": [], "reps": []})
            row["median_s"].append(float(f"{median:.6g}"))
            row["reps"].append(reps)
    for row in kernels.values():
        row["exponent"] = _exponent(sizes, row["median_s"])
    out = {
        "label": args.label,
        "context": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "walk": f"gaussian:sigma=1, seed {SEED}, one walk per size; pareto_sym at a = 2.5",
        "sizes": sizes,
        "fit": "least-squares slope of log median_s against log N over the larger half of sizes",
        "kernels": kernels,
    }
    with open(f"BENCH_{args.label}.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return out


if __name__ == "__main__":
    main()
