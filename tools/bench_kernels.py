"""Per-kernel timing of one trial's layers, as a committed BENCH_<label>.json.

    PYTHONPATH=src python tools/bench_kernels.py --label NAME

Times each layer of a lab trial in process on one Gaussian walk per size
(seed 7), at N = 2^10 ... 2^MAX_LOG2 (2^20): sampling of every kind
(`sample:<kind>`), prefix sums, the exact DP, the exact DP on the walk of
the same steps plus DRIFT (`exact:drift`, whose record chains grow with N, up
to 2^DRIFT_MAX_LOG2 since its time is O(N^2)), the blocked DP (block 4), the
dyadic upper bound, the greedy partition and the classification of the
exact partition. The run makes ROUNDS passes over every kernel and size, and
in each pass repeats a kernel until its repetitions take MIN_TOTAL_S / ROUNDS;
the file holds, per kernel, the sizes timed, the median and the fastest
repetition per size, and the exponents of N fitted by least squares to the
log of each over the larger half of those sizes. On a shared host a busy
neighbour slows the machine for seconds at a time; spread over passes, such a
spell slows some repetitions of every kernel instead of all repetitions of
one, and the fastest repetition is the steadier figure. It is written to the
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
ROUNDS = 5
MAX_REPS = 20  # per pass
MIN_TOTAL_S = 0.25
MAX_LOG2 = 20
DRIFT = 0.3
DRIFT_MAX_LOG2 = 16


def _kernels(n: int):
    """(name, thunk) for each layer, in trial order, on the walk of size n."""
    samples = sample_sequence(DistributionSpec("gaussian"), n, SEED)
    walk = prefix_sums(samples)
    exact = sq_variation_exact(walk)
    drift = []
    if n <= 1 << DRIFT_MAX_LOG2:
        drift_walk = prefix_sums(samples + DRIFT)
        drift.append(("exact:drift", lambda: sq_variation_exact(drift_walk)))
    params = GreedyParams()
    specs = [DistributionSpec(kind, tail_exponent=2.5 if kind == "pareto_sym" else None)
             for kind in KINDS]
    return [
        *((f"sample:{spec.kind}", lambda spec=spec: sample_sequence(spec, n, SEED))
          for spec in specs),
        ("prefix_sums", lambda: prefix_sums(samples)),
        ("exact", lambda: sq_variation_exact(walk)),
        *drift,
        ("blocked", lambda: sq_variation_blocked(walk, 4)),
        ("dyadic", lambda: sq_variation_upper_dyadic(walk)),
        ("greedy", lambda: greedy_partition(walk, params)),
        ("classify", lambda: classify_partition(
            exact, ClassParams(0.1, default_bad_threshold(), n))),
    ]


def _times(fn) -> list[float]:
    times: list[float] = []
    while not times or (sum(times) < MIN_TOTAL_S / ROUNDS and len(times) < MAX_REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


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
    layers = {n: _kernels(n) for n in sizes}
    timed: dict[tuple[str, int], list[float]] = {}
    for _ in range(ROUNDS):
        for n in sizes:
            for name, fn in layers[n]:
                timed.setdefault((name, n), []).extend(_times(fn))
    kernels: dict[str, dict] = {}
    for (name, n), times in timed.items():
        row = kernels.setdefault(name, {"sizes": [], "median_s": [], "min_s": [], "reps": []})
        row["sizes"].append(n)
        row["median_s"].append(float(f"{statistics.median(times):.6g}"))
        row["min_s"].append(float(f"{min(times):.6g}"))
        row["reps"].append(len(times))
    for row in kernels.values():
        row["exponent"] = _exponent(row["sizes"], row["median_s"])
        row["exponent_min"] = _exponent(row["sizes"], row["min_s"])
    out = {
        "label": args.label,
        "context": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "walk": (f"gaussian:sigma=1, seed {SEED}, one walk per size; exact:drift on the "
                 f"same steps + {DRIFT}; pareto_sym at a = 2.5"),
        "sizes": sizes,
        "fit": ("least-squares slope of log median_s (exponent) and of log min_s "
                "(exponent_min) against log N over the larger half of a row's sizes"),
        "kernels": kernels,
    }
    with open(f"BENCH_{args.label}.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return out


if __name__ == "__main__":
    main()
