"""Per-kernel timing of one trial's layers, as a committed BENCH_<label>.json.

    PYTHONPATH=src python tools/bench_kernels.py --label NAME

Times each layer of a lab trial in process on one Gaussian walk per size
(seed 7), at N = 2^10 ... 2^MAX_LOG2 (2^20): sampling of every kind
(`sample:<kind>`), prefix sums, the exact DP, the exact DP on the walk of
the same steps plus DRIFT (`exact:drift`, whose record chains grow with N, up
to 2^DRIFT_MAX_LOG2 since its time is O(N^2)), the blocked DP (block 4), the
dyadic upper bound, the greedy partition and the classification of the
exact partition. Two rows sit at 2^(MAX_LOG2-2) and 2^MAX_LOG2 only: the
dyadic bound on the walk of one more step (`dyadic:past_pow2`, N = 2^k + 1,
whose levels run to 2^(k+1)), and one whole `labcli.run_trial` of the
benchmark's `lab_large` cell (`trial:lab_large`: gaussian, blocked:256,
dyadic_upper and greedy, classified at eps 0.1; seed SEED, trial 0), from
sampling to its record. The run makes ROUNDS passes over every kernel and
size, and in each pass repeats a kernel until its repetitions take
MIN_TOTAL_S / ROUNDS; the file holds, per kernel, the sizes timed, the
median, the quartiles
(`q1_s`, `q3_s`, linear interpolation) and the fastest repetition per size,
and the exponents of N fitted by least squares to the log of the median and
of the fastest over the larger half of those sizes. The `process:compute` row is
the cost of a whole process: once per pass and size it runs a fresh
`python -m sqvar.cli compute --p 3` on a {-1, 0, 1} file of N = 2^14 and 2^15
values (seed 7) and records its wall time, its user + sys CPU time as
`cpu_median_s` and `cpu_min_s`, and its peak resident set, from `wait4`'s
`ru_maxrss`, as `rss_max_mb` (the largest of the passes); a bare launcher
process starts it, so that this process's own peak does not leak into it.
The child runs the sqvar that this process imported, with SQVAR_THREADS=1 and
without OPENBLAS_NUM_THREADS, so that it pays the start-up a user's shell
would. On a shared host a busy neighbour slows the machine for seconds at a
time; spread over passes, such a spell slows some repetitions of every kernel
instead of all repetitions of one, and the fastest repetition is the steadier
figure. After the passes, one more call per in-process kernel and size,
untimed, runs under tracemalloc: `peak_mb` is its peak allocation above what
was held before it. Allocation sizes do not depend on host load, so this
column compares across files where the times may not. MB are 2^20 bytes. The
file is written to the current directory; the sqvar on PYTHONPATH is the one
timed, so pointing PYTHONPATH at another checkout's src times that tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

import sqvar
from sqvar.classify import ClassParams, classify_partition, default_bad_threshold
from sqvar.greedy import GreedyParams, greedy_partition
from sqvar.labcli import ExperimentConfig, run_trial
from sqvar.seqcore import KINDS, DistributionSpec, prefix_sums, sample_sequence
from sqvar.variation import sq_variation_blocked, sq_variation_exact, sq_variation_upper_dyadic

SEED = 7
ROUNDS = 5
MAX_REPS = 20  # per pass
MIN_TOTAL_S = 0.25
MAX_LOG2 = 20
DRIFT = 0.3
DRIFT_MAX_LOG2 = 16
PROCESS_SIZES = (1 << 14, 1 << 15)


def _kernels(n: int):
    """(name, N, thunk) for each layer, in trial order, on the walk of size n."""
    gaussian = DistributionSpec("gaussian")
    samples = sample_sequence(gaussian, n, SEED)
    walk = prefix_sums(samples)
    exact = sq_variation_exact(walk)
    drift = []
    if n <= 1 << DRIFT_MAX_LOG2:
        drift_walk = prefix_sums(samples + DRIFT)
        drift.append(("exact:drift", n, lambda: sq_variation_exact(drift_walk)))
    params = GreedyParams()
    specs = [DistributionSpec(kind, tail_exponent=2.5 if kind == "pareto_sym" else None)
             for kind in KINDS]
    large = []
    if n in (1 << (MAX_LOG2 - 2), 1 << MAX_LOG2):
        past = prefix_sums(sample_sequence(gaussian, n + 1, SEED))
        cell = ExperimentConfig(spec=gaussian, n_grid=(n,), trials=1, master_seed=SEED,
                                algorithms=("blocked", "dyadic_upper", "greedy"), block=256,
                                greedy_params=params, class_eps=0.1,
                                class_b=default_bad_threshold())
        large = [("dyadic:past_pow2", n + 1, lambda: sq_variation_upper_dyadic(past)),
                 ("trial:lab_large", n, lambda: run_trial(cell, n, 0))]
    return [
        *((f"sample:{spec.kind}", n, lambda spec=spec: sample_sequence(spec, n, SEED))
          for spec in specs),
        ("prefix_sums", n, lambda: prefix_sums(samples)),
        ("exact", n, lambda: sq_variation_exact(walk)),
        *drift,
        ("blocked", n, lambda: sq_variation_blocked(walk, 4)),
        ("dyadic", n, lambda: sq_variation_upper_dyadic(walk)),
        ("greedy", n, lambda: greedy_partition(walk, params)),
        ("classify", n, lambda: classify_partition(
            exact, ClassParams(0.1, default_bad_threshold(), n))),
        *large,
    ]


# Linux carries a process's peak RSS across exec into the program it runs, so
# a child of this process, which holds every walk, would report this process's
# peak as its own ru_maxrss. A bare interpreter spawns the child instead and
# prints its wall time, exit code, user + sys CPU time and ru_maxrss (KiB).
_LAUNCHER = """
import os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, ru = os.wait4(pid, 0)
print(time.perf_counter() - t0, os.waitstatus_to_exitcode(status),
      ru.ru_utime + ru.ru_stime, ru.ru_maxrss)
"""


def _compute_process(path: str) -> tuple[float, float, float]:
    """(wall s, user + sys CPU s, peak RSS MB) of one fresh `sqvar compute --p 3`
    on path."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(sqvar.__file__)))
    env["SQVAR_THREADS"] = "1"
    argv = [sys.executable, "-m", "sqvar.cli", "compute", "--p", "3", "--input", path]
    launched = subprocess.run([sys.executable, "-c", _LAUNCHER, *argv], env=env, check=True,
                              stdout=subprocess.PIPE, text=True)
    wall, code, cpu_s, rss_kib = launched.stdout.split()
    if int(code) != 0:
        raise RuntimeError(f"`sqvar compute` on {path} exited {code}")
    return float(wall), float(cpu_s), int(rss_kib) / 1024.0


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
    layers = {n: _kernels(n) for n in sizes}
    timed: dict[tuple[str, int], list[float]] = {}
    cpu: dict[int, list[float]] = {}
    rss: dict[int, list[float]] = {}
    with tempfile.TemporaryDirectory() as work:
        rng = np.random.default_rng(SEED)
        lattices = {n: os.path.join(work, f"lattice_{n}.txt") for n in PROCESS_SIZES}
        for n, path in lattices.items():
            np.savetxt(path, rng.integers(-1, 2, n), fmt="%d")
        for _ in range(ROUNDS):
            for n in sizes:
                for name, size, fn in layers[n]:
                    timed.setdefault((name, size), []).extend(_times(fn))
            for n, path in lattices.items():
                wall, cpu_s, rss_mb = _compute_process(path)
                timed.setdefault(("process:compute", n), []).append(wall)
                cpu.setdefault(n, []).append(cpu_s)
                rss.setdefault(n, []).append(rss_mb)
    peak = {(name, size): _peak_mb(fn) for n in sizes for name, size, fn in layers[n]}
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
        if (name, n) in peak:
            row.setdefault("peak_mb", []).append(float(f"{peak[name, n]:.6g}"))
    row = kernels["process:compute"]
    row["cpu_median_s"] = [float(f"{statistics.median(cpu[n]):.6g}") for n in row["sizes"]]
    row["cpu_min_s"] = [float(f"{min(cpu[n]):.6g}") for n in row["sizes"]]
    row["rss_max_mb"] = [float(f"{max(rss[n]):.6g}") for n in row["sizes"]]
    for row in kernels.values():
        row["exponent"] = _exponent(row["sizes"], row["median_s"])
        row["exponent_min"] = _exponent(row["sizes"], row["min_s"])
    out = {
        "label": args.label,
        "context": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "walk": (f"gaussian:sigma=1, seed {SEED}, one walk per size; exact:drift on the "
                 f"same steps + {DRIFT}; pareto_sym at a = 2.5; process:compute on "
                 f"{{-1, 0, 1}} files, seed {SEED}, one fresh process per pass and size"),
        "memory": ("peak_mb: tracemalloc peak of one untimed call above what was held "
                   "before it; rss_max_mb: largest ru_maxrss of the process:compute "
                   "children; MB = 2^20 bytes"),
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
