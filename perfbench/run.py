"""Benchmark of the `sqvar` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload lab_exact --seed 3 --seconds 25 --trace 0

Run it from the root of a checkout that holds `src/sqvar`. Each run writes
the workload's inputs (an INI config, or lattice files) from `--seed` into
`.perfbench_work/`, runs the real `sqvar` commands in fresh processes with
`SQVAR_THREADS=1`, repeating them while the next repetition still fits in
`--seconds`, checks every output against `perfbench/references.json` byte
for byte, and prints one JSON line last. The seed picks one of `VARIANTS`
input variants (seed mod `VARIANTS`), which are the ones the references hold.

With `--trace 0` the line holds the end-to-end metrics, medians over the
repetitions: `wall_s` and `cpu_s` of the workload's commands, `peak_rss_mb`
of the largest child, and `setup_s`, the median time a fresh process needs
to reach its first kernel call. With `--trace 1` each repetition runs the
commands untraced and then under `perfbench/probe.py trace`, and the line
holds the per-layer metrics `<module>.<function>.<stat>` from the spans.
A per-layer value of -1 means the function is absent from the program, or
that the statistic cannot be measured on this workload (an exponent needs
calls at two sizes or more). Records that differ from the reference, and
commands that exit non-zero, count in `failed` out of `attempted`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
PROBE = os.path.join(HERE, "probe.py")
# References exist for this many input variants; a seed picks one of them.
VARIANTS = 16
SETUP_PROBES = 3
MIN_REPS = 2
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    """A `simulate` config (with `{seed}` for the master seed), or the sizes
    of lattice files that `sqvar compute --p 3` reads."""

    name: str
    config: str = ""
    lattice: tuple[int, ...] = ()


_CLASSIFY = "[classify]\neps = 0.1\n"
_GREEDY = "[greedy]\ns = 2\nc = 4\nalpha = 0.25\neps3 = 0.5\n"

# Why these four: each stresses a different layer, and each layer's change
# has one workload that exercises it and one that bypasses it.
WORKLOADS = {
    # exact DP is ~80% of self time; greedy does almost nothing here.
    "lab_exact": Workload("lab_exact", config=(
        "[experiment]\nspec = gaussian:sigma=1\nn_grid = 4096, 8192, 16384\n"
        "trials = 8\nmaster_seed = {seed}\n"
        "algorithms = exact, blocked:4, dyadic_upper, greedy\noutput = records.csv\n"
        + _GREEDY + _CLASSIFY)),
    # no exact DP; greedy re-summing the whole walk per window dominates, and
    # n = 2^20 sits on the extended-precision cutoff of seqcore.prefix_sums.
    "lab_large": Workload("lab_large", config=(
        "[experiment]\nspec = gaussian:sigma=1\nn_grid = 262144, 1048576\n"
        "trials = 1\nmaster_seed = {seed}\n"
        "algorithms = blocked:256, dyadic_upper, greedy\noutput = records.csv\n"
        + _GREEDY + _CLASSIFY)),
    # heavy tails: the bisection in sample_sequence dominates; no exact, no greedy.
    # Sizes whose bisection arrays fit in L2: at n = 2^16 and 2^18 the arrays
    # stream through the shared L3, and a memory-bound neighbour on the host
    # slowed the run by a third.
    "lab_tails": Workload("lab_tails", config=(
        "[experiment]\nspec = logtail:sigma=1\nn_grid = 4096, 16384\n"
        "trials = 64\nmaster_seed = {seed}\n"
        "algorithms = blocked:64, dyadic_upper\noutput = records.csv\n"
        + _CLASSIFY)),
    # the same DP through `compute`: p = 3, exact ties and plateaus, text parsing.
    # Two sizes so that the DP's exponent in N is measured.
    "compute_lattice": Workload("compute_lattice", lattice=(16384, 32768)),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = (
    "variation.sq_variation_exact.self_s",
    "variation.sq_variation_exact.calls",
    "variation.sq_variation_exact.exponent",
    "variation.p_variation_exact.self_s",
    "variation.p_variation_exact.exponent",
    "variation.sq_variation_blocked.self_s",
    "variation.sq_variation_blocked.exponent",
    "variation.sq_variation_upper_dyadic.self_s",
    "variation.sq_variation_upper_dyadic.exponent",
    "variation.partition_value.calls",
    "variation.partition_value.self_s",
    "seqcore.prefix_sums.calls",
    "seqcore.prefix_sums.elements",
    "seqcore.prefix_sums.self_s",
    "seqcore.sample_sequence.elements",
    "seqcore.sample_sequence.self_s",
    "greedy.greedy_partition.self_s",
    "greedy.greedy_partition.exponent",
    "greedy.a_event_holds.calls",
    "greedy.a_event_holds.self_s",
    "greedy.best_two_cut.calls",
    "greedy.best_two_cut.self_s",
    "classify.classify_partition.self_s",
    "labcli.run_trial.self_s",
    "labcli.run_trial.p50_s",
    "labcli.run_trial.max_s",
    "labcli.write_outputs.self_s",
    "labcli.write_outputs.bytes",
    "cli.main.self_s",
    "trace.overhead_s",
)

STAT_UNITS = {"self_s": "s", "p50_s": "s", "max_s": "s", "overhead_s": "s",
              "calls": "count", "elements": "count", "bytes": "B", "exponent": "1"}


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]  # arguments after `sqvar`
    output: str | None  # file the command writes; None means its stdout


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    output: bytes | None


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def lattice_text(n: int, variant: int) -> str:
    """n values in {-1, 0, 1}; random.random() keeps its stream across Pythons."""
    rng = random.Random(1_000_003 * variant + n)
    return "".join(f"{int(rng.random() * 3.0) - 1}\n" for _ in range(n))


def prepare(workload: Workload, variant: int, work: str) -> list[Command]:
    """Write the workload's inputs into `work` and return its commands."""
    if workload.config:
        with open(os.path.join(work, "config.ini"), "w", encoding="utf-8") as fh:
            fh.write(workload.config.format(seed=variant))
        return [Command(("simulate", "--config", "config.ini"), "records.csv")]
    commands = []
    for n in workload.lattice:
        name = f"lattice_{n}.txt"
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(lattice_text(n, variant))
        commands.append(Command(("compute", "--p", "3", "--input", name), None))
    return commands


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["SQVAR_THREADS"] = "1"
    return env


def spawn(argv: list[str], work: str, env: dict, timeout: float) -> tuple[float, float, float, int]:
    """Run argv to completion; (wall s, user+sys CPU s, max RSS MB, exit code)."""
    with open(os.path.join(work, "stdout"), "wb") as out, \
            open(os.path.join(work, "stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, timeout), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, proc.returncode


def run_command(cmd: Command, work: str, env: dict, timeout: float,
                trace_path: str | None = None) -> Outcome:
    target = os.path.join(work, cmd.output) if cmd.output else None
    if target and os.path.exists(target):
        os.remove(target)
    if trace_path:
        argv = [sys.executable, PROBE, "trace", trace_path, "--", *cmd.argv]
    else:
        argv = [sys.executable, "-m", "sqvar.cli", *cmd.argv]
    wall, cpu, rss, code = spawn(argv, work, env, timeout)
    output = None
    path = target or os.path.join(work, "stdout")
    if code == 0 and os.path.exists(path):
        with open(path, "rb") as fh:
            output = fh.read()
    return Outcome(wall, cpu, rss, code, output)


def setup_time(cmd: Command, work: str, env: dict, timeout: float) -> float:
    wall, _, _, code = spawn([sys.executable, PROBE, "setup", "--", *cmd.argv], work, env, timeout)
    if code != 0:
        raise RuntimeError(f"set-up probe exited with code {code}: "
                           + read_text(os.path.join(work, "stderr")))
    return wall


def read_text(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()[-2000:]


# --- correctness -------------------------------------------------------------

def digests(cmd: Command, output: bytes) -> list[str]:
    """Records of one output: CSV lines (header first), or the whole stdout."""
    parts = output.split(b"\n")[:-1] if cmd.output else [output]
    return [hashlib.sha256(p).hexdigest()[:16] for p in parts]


def check(cmd: Command, output: bytes | None, reference: list[str]) -> tuple[int, int]:
    """(records attempted, records failed) against the reference digests."""
    attempted = len(reference) - 1 if cmd.output else 1
    if output is None:
        return attempted, attempted
    got = digests(cmd, output)
    if cmd.output:
        if got[:1] != reference[:1]:
            return attempted, attempted
        got, reference = got[1:], reference[1:]
    failed = sum(1 for i, ref in enumerate(reference) if i >= len(got) or got[i] != ref)
    return attempted, failed + max(0, len(got) - len(reference))


def reference_digests(workload: Workload, variant: int, work: str, env: dict) -> list[list[str]]:
    """Run each untraced command once and digest its output records."""
    refs = []
    for cmd in prepare(workload, variant, work):
        res = run_command(cmd, work, env, RUN_LIMIT_S)
        if res.output is None:
            raise RuntimeError(f"{workload.name} variant {variant}: "
                               f"`sqvar {' '.join(cmd.argv)}` exited {res.code}")
        refs.append(digests(cmd, res.output))
    return refs


def load_references(name: str, variant: int) -> list[list[str]]:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)[name][str(variant)]


# --- trace aggregation -------------------------------------------------------

def _empty_total() -> dict:
    return {"calls": 0, "self_s": 0.0, "size": 0, "per_call": []}


def repetition_totals(docs: list[dict]) -> dict:
    """Per function over one repetition's span files: calls, self time, summed
    size, and (size, seconds) of each call. Self time is a span's duration
    minus the durations of its child spans."""
    out: dict = {}
    for doc in docs:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (key, t0, t1, _, size) in enumerate(spans):
            agg = out.setdefault(key, _empty_total())
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - child[i]
            agg["size"] += size or 0
            agg["per_call"].append((size, t1 - t0))
    return out


def exponent(per_call: list) -> float | None:
    """Least-squares slope of log(median seconds per call) on log(N)."""
    by_n: dict = {}
    for n, secs in per_call:
        if n and n > 0 and secs > 0:
            by_n.setdefault(n, []).append(secs)
    if len(by_n) < 2:
        return None
    xs = [math.log(n) for n in by_n]
    ys = [math.log(statistics.median(v)) for v in by_n.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layer_metrics(iterations: list[dict], absent: set[str], overhead_s: float) -> dict:
    """Per-layer metrics: medians over traced repetitions of per-repetition totals."""
    metrics = {}
    for name in PER_LAYER:
        key, stat = name.rsplit(".", 1)
        unit = STAT_UNITS[stat]
        if name == "trace.overhead_s":
            value = overhead_s
        elif key in absent:
            value = -1
        else:
            aggs = [it.get(key, _empty_total()) for it in iterations]
            per_call = [pc for a in aggs for pc in a["per_call"]]
            if stat == "self_s":
                value = statistics.median(a["self_s"] for a in aggs)
            elif stat == "calls":
                value = statistics.median(a["calls"] for a in aggs)
            elif stat in ("elements", "bytes"):
                value = statistics.median(a["size"] for a in aggs)
            elif stat == "exponent":
                value = exponent(per_call)
            elif stat == "p50_s":
                value = statistics.median(s for _, s in per_call) if per_call else None
            else:  # max_s
                value = max((s for _, s in per_call), default=None)
            value = -1 if value is None else value
        metrics[name] = {"value": value, "unit": unit}
    return metrics


# --- the run -----------------------------------------------------------------

def machine_context() -> dict:
    def getconf(name: str) -> int | None:
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
            return int(out) if out.isdigit() else None
        except (OSError, subprocess.SubprocessError):
            return None

    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu_model": model,
            "l2_bytes": getconf("LEVEL2_CACHE_SIZE"), "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def measure(workload: Workload, seed: int, seconds: float, trace: bool, root: str,
            references: list[list[str]] | None = None, setup_probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result object the last line prints."""
    start = time.perf_counter()

    def left() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - start)

    variant = variant_of(seed)
    if references is None:
        references = load_references(workload.name, variant)
    env = child_env(root)
    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base)
    try:
        commands = prepare(workload, variant, work)
        attempted = failed = 0

        def run_all(traced: bool) -> tuple[list[Outcome], list]:
            nonlocal attempted, failed
            outcomes, spans = [], []
            for i, (cmd, ref) in enumerate(zip(commands, references)):
                trace_path = os.path.join(work, f"spans{i}.json") if traced else None
                if trace_path and os.path.exists(trace_path):
                    os.remove(trace_path)
                res = run_command(cmd, work, env, left(), trace_path)
                a, f = check(cmd, res.output, ref)
                attempted, failed = attempted + a, failed + f
                if res.code != 0:
                    print(f"{workload.name}: `sqvar {' '.join(cmd.argv)}` exited {res.code}: "
                          + read_text(os.path.join(work, "stderr")), file=sys.stderr)
                outcomes.append(res)
                if traced and os.path.exists(trace_path):
                    with open(trace_path, encoding="utf-8") as fh:
                        spans.append(json.load(fh))
            return outcomes, spans

        setups = [] if trace else [setup_time(commands[0], work, env, left())
                                   for _ in range(setup_probes)]
        plain, traced, totals, absent = [], [], [], set()
        # Repeat while the next repetition, as long as the last one, still ends
        # within `seconds`; untraced runs take at least two for their medians.
        loop_start = last_start = time.perf_counter()
        while True:
            plain.append(run_all(False)[0])
            if trace:
                outcomes, docs = run_all(True)
                traced.append(outcomes)
                totals.append(repetition_totals(docs))
                absent.update(a for doc in docs for a in doc["absent"])
            now = time.perf_counter()
            enough = trace or len(plain) >= MIN_REPS
            if enough and now - loop_start + (now - last_start) > seconds or left() < 0:
                break
            last_start = now
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def median_of(iterations: list[list[Outcome]], attr: str, combine=sum) -> float:
        return statistics.median(combine(getattr(o, attr) for o in it) for it in iterations)

    if trace:
        overhead = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        metrics = layer_metrics(totals, absent, overhead)
        if absent:
            print("absent: " + json.dumps(sorted(absent)))
    else:
        values = {
            "wall_s": median_of(plain, "wall_s"),
            "cpu_s": median_of(plain, "cpu_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median_of(plain, "rss_mb", max),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        samples = {"wall_s": [sum(o.wall_s for o in it) for it in plain],
                   "cpu_s": [sum(o.cpu_s for o in it) for it in plain], "setup_s": setups}
        print("samples: " + json.dumps(samples))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sqvar", "cli.py")):
        print("perfbench: run from the root of a checkout that holds src/sqvar", file=sys.stderr)
        return 2
    print("context: " + json.dumps(machine_context()))
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root)
    if result["failed"]:
        print(f"failed_share: {result['failed'] / result['attempted']:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
