"""Per-kernel timing of one trial's layers, as a committed BENCH_<label>.json.

    PYTHONPATH=src python tools/bench_kernels.py --label NAME

Times each layer of a lab trial in process on one Gaussian walk per size
(seed 7), at N = 2^10 ... 2^MAX_LOG2 (2^20): sampling of every kind
(`sample:<kind>`), prefix sums, the exact DP (up to 2^EXACT_MAX_LOG2, 2^22,
where its memory is measured), the exact DP on the walk of the same steps
plus DRIFT (`exact:drift`, whose record chains grow with N, up to
2^DRIFT_MAX_LOG2 since its time is O(N^2)), the exact DP at p = 3 on a walk
of {-1, 0, 1} steps (`exact:lattice`, seed 7: `sqvar compute --p 3` on
lattice values, with ties and plateaus), the blocked DP (block 4), the
dyadic upper bound, the greedy partition and the classification of the
exact partition. Two rows sit at 2^(MAX_LOG2-2) and 2^MAX_LOG2 only: the
dyadic bound on the walk of one more step (`dyadic:past_pow2`, N = 2^k + 1,
whose levels run to 2^(k+1)), and one whole `labcli.run_trial` of the
benchmark's `lab_large` cell (`trial:lab_large`: gaussian, blocked:256,
dyadic_upper and greedy, classified at eps 0.1; seed SEED, trial 0), from
sampling to its record. The `parse:compute` row reads a {-1, 0, 1} file of
N = 2^14 and 2^15 values (seed 7) in process with `cli._read_numbers`,
`sqvar compute`'s parser; the whole `sqvar compute --p 3` process on such
files of these sizes is the benchmark's `compute_lattice` workload.
The run makes ROUNDS passes over every kernel and size, and in each pass
repeats a kernel until its repetitions take MIN_TOTAL_S / ROUNDS; the file
holds, per kernel, the sizes timed, the median, the quartiles
(`q1_s`, `q3_s`, linear interpolation) and the fastest repetition per size,
and the exponents of N fitted by least squares to the log of the median and
of the fastest over the larger half of those sizes. On a shared host a busy
neighbour slows the machine for seconds at a time; spread over passes, such a
spell slows some repetitions of every kernel instead of all repetitions of
one, and the fastest repetition is the steadier figure. After the passes, one
more call per kernel and size, untimed, runs under tracemalloc: `peak_mb` is
its peak allocation above what was held before it. Allocation sizes do not
depend on host load, so this column compares across files where the times may
not. MB are 2^20 bytes. The file is written to the current directory; the sqvar on PYTHONPATH is the one
timed, so pointing PYTHONPATH at another checkout's src times that tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import tempfile
import time
import tracemalloc

import numpy as np

from sqvar import cli
from sqvar.classify import classify_partition, default_bad_threshold
from sqvar.greedy import GreedyParams, greedy_partition
from sqvar.labcli import ExperimentConfig, run_trial
from sqvar.seqcore import KINDS, DistributionSpec, prefix_sums, sample_sequence
from sqvar.variation import (
    p_variation_exact,
    sq_variation_blocked,
    sq_variation_exact,
    sq_variation_upper_dyadic,
)

SEED = 7
ROUNDS = 5
MAX_REPS = 20  # per pass
MIN_TOTAL_S = 0.25
MAX_LOG2 = 20
EXACT_MAX_LOG2 = 22
DRIFT = 0.3
DRIFT_MAX_LOG2 = 16
PARSE_SIZES = (1 << 14, 1 << 15)


def _kernels(n: int):
    """(name, N, thunk) for each layer, in trial order, on the walk of size n;
    past 2^MAX_LOG2 the exact DP's only."""
    gaussian = DistributionSpec("gaussian")
    samples = sample_sequence(gaussian, n, SEED)
    walk = prefix_sums(samples)
    if n > 1 << MAX_LOG2:
        return [("exact", n, lambda: sq_variation_exact(walk))]
    exact = sq_variation_exact(walk)
    lattice = prefix_sums(np.random.default_rng(SEED).integers(-1, 2, n).astype(float))
    drift = []
    if n <= 1 << DRIFT_MAX_LOG2:
        drift_walk = prefix_sums(samples + DRIFT)
        drift.append(("exact:drift", n, lambda: sq_variation_exact(drift_walk)))
    params = GreedyParams()
    specs = [DistributionSpec(kind, tail_exponent=2.5 if kind == "pareto" else None)
             for kind in KINDS]
    large = []
    if n in (1 << (MAX_LOG2 - 2), 1 << MAX_LOG2):
        past = prefix_sums(sample_sequence(gaussian, n + 1, SEED))
        cell = ExperimentConfig(spec=gaussian, n_grid=(n,), trials=1, master_seed=SEED,
                                exact=False, block=256, dyadic_upper=True, greedy_params=params,
                                thresholds=(0.1, default_bad_threshold()))
        large = [("dyadic:past_pow2", n + 1, lambda: sq_variation_upper_dyadic(past)),
                 ("trial:lab_large", n, lambda: run_trial(cell, n, 0))]
    return [
        *((f"sample:{spec.kind}", n, lambda spec=spec: sample_sequence(spec, n, SEED))
          for spec in specs),
        ("prefix_sums", n, lambda: prefix_sums(samples)),
        ("exact", n, lambda: sq_variation_exact(walk)),
        *drift,
        ("exact:lattice", n, lambda: p_variation_exact(lattice, 3.0)),
        ("blocked", n, lambda: sq_variation_blocked(walk, 4)),
        ("dyadic", n, lambda: sq_variation_upper_dyadic(walk)),
        ("greedy", n, lambda: greedy_partition(walk, params)),
        ("classify", n, lambda: classify_partition(exact, 0.1, default_bad_threshold())),
        *large,
    ]


def _peak_mb(fn) -> float:
    """Peak bytes allocated by one call of fn above what was held before it, in MB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / (1 << 20)
    finally:
        tracemalloc.stop()


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
    layers = {1 << k: _kernels(1 << k) for k in range(10, max(MAX_LOG2, EXACT_MAX_LOG2) + 1)}
    timed: dict[tuple[str, int], list[float]] = {}
    with tempfile.TemporaryDirectory() as work:
        rng = np.random.default_rng(SEED)
        lattices = {n: os.path.join(work, f"lattice_{n}.txt") for n in PARSE_SIZES}
        for n, path in lattices.items():
            np.savetxt(path, rng.integers(-1, 2, n), fmt="%d")
        calls = [*(k for n in layers for k in layers[n]),
                      *(("parse:compute", n, lambda path=path: cli._read_numbers(path))
                        for n, path in lattices.items())]
        for _ in range(ROUNDS):
            for name, size, fn in calls:
                timed.setdefault((name, size), []).extend(_times(fn))
        peak = {(name, size): _peak_mb(fn) for name, size, fn in calls}
    kernels: dict[str, dict] = {}
    for (name, n), times in timed.items():
        row = kernels.setdefault(name, {"sizes": [], "median_s": [], "q1_s": [], "q3_s": [],
                                        "min_s": [], "reps": []})
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        row["sizes"].append(n)
        row["median_s"].append(float(f"{median:.6g}"))
        row["q1_s"].append(float(f"{q1:.6g}"))
        row["q3_s"].append(float(f"{q3:.6g}"))
        row["min_s"].append(float(f"{min(times):.6g}"))
        row["reps"].append(len(times))
        row.setdefault("peak_mb", []).append(float(f"{peak[name, n]:.6g}"))
    for row in kernels.values():
        row["exponent"] = _exponent(row["sizes"], row["median_s"])
        row["exponent_min"] = _exponent(row["sizes"], row["min_s"])
    out = {
        "label": args.label,
        "context": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "walk": (f"gaussian:sigma=1, seed {SEED}, one walk per size; exact:drift on the "
                 f"same steps + {DRIFT}; exact:lattice at p = 3 on {{-1, 0, 1}} steps, seed "
                 f"{SEED}; pareto at a = 2.5; parse:compute on {{-1, 0, 1}} files, seed {SEED}"),
        "memory": ("peak_mb: tracemalloc peak of one untimed call above what was held "
                   "before it; MB = 2^20 bytes"),
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
