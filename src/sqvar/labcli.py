"""Configuration-driven experiment harness and record persistence.

A run samples one sequence per (n, trial) cell of the grid, applies the
requested variation algorithms plus classification, and emits one CSV row
per trial. Per-trial seeds are derived from (master_seed, n, trial_index),
so records are reproducible cell by cell and identical under any degree of
parallelism; rows are always ordered by (n, trial_index).
"""

from __future__ import annotations

import configparser
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import classify, greedy, variation
from .classify import ClassParams
from .greedy import GreedyParams
from .seqcore import DistributionSpec, mix_seed, prefix_sums, sample_sequence


class InvariantViolation(RuntimeError):
    """A runtime sandwich/ordering contract failed on an emitted record."""


@dataclass(frozen=True)
class ExperimentConfig:
    spec: DistributionSpec
    n_grid: tuple[int, ...]
    trials: int
    master_seed: int
    algorithms: tuple[str, ...] = ("exact",)
    block: int = 4
    greedy_params: GreedyParams | None = None
    class_eps: float | None = None
    class_b: float | None = None
    output_path: str = "records.csv"
    jsonl_mirror: bool = False

    def __post_init__(self):
        """A ValueError starts with the config key at fault, which parse_config
        prefixes with its section."""
        if self.trials < 0:
            raise ValueError(f"trials: must be >= 0, got {self.trials}")
        if list(self.n_grid) != sorted(set(self.n_grid)) or any(n < 1 for n in self.n_grid):
            raise ValueError(f"n_grid: must be strictly increasing positive integers, "
                             f"got {', '.join(map(str, self.n_grid))}")
        bad = set(self.algorithms) - {"exact", "blocked", "dyadic_upper", "greedy"}
        if bad:
            raise ValueError(f"algorithms: unknown {', '.join(map(repr, sorted(bad)))}")
        if "greedy" in self.algorithms and self.greedy_params is None:
            raise ValueError("algorithms: greedy needs greedy parameters, a [greedy] section")


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    n: int
    seed: int
    v2_exact: float | None
    v2_blocked: float | None
    v2_dyadic_upper: float | None
    v2_greedy: float | None
    ratio: float | None
    ratio_lo: float | None
    ratio_hi: float | None
    s_n_sq: float
    good_sum: float | None = None
    medium_sum: float | None = None
    bad_sum: float | None = None
    good_len: int | None = None
    medium_len: int | None = None
    bad_len: int | None = None
    b_param: float | None = None
    eps_param: float | None = None


CSV_COLUMNS = [f.name for f in fields(TrialRecord)]
_INT_COLUMNS = {"trial_index", "n", "seed", "good_len", "medium_len", "bad_len"}


def _norm(n: int, sigma: float) -> float:
    """2 sigma^2 n lnln n, refused by name unless a positive normal float."""
    twice_var = 2.0 * sigma * sigma
    norm = twice_var * n * math.log(math.log(n))
    if not math.isfinite(norm):  # every ratio would read 0
        raise ValueError("normalization 2 sigma^2 n lnln n overflows float64")
    if twice_var < sys.float_info.min:  # 0 or subnormal: no ratio, or one of lost bits
        raise ValueError("normalization 2 sigma^2 n lnln n underflows float64")
    return norm


def run_trial(config: ExperimentConfig, n: int, trial_index: int) -> TrialRecord:
    """One grid cell: sample, run the requested algorithms, classify."""
    seed = mix_seed(config.master_seed, n, trial_index)
    try:
        buf = np.empty(n + 1)  # the samples, in buf[1:], then the walk
        samples = sample_sequence(config.spec, n, seed, out=buf[1:])
        with np.errstate(over="ignore", invalid="ignore"):  # prefix_sums refuses just below
            s_n = float(np.sum(samples))
        walk = prefix_sums(samples, out=buf)  # consumes the samples
        del samples, buf  # the walk is the only N-sized array the kernels below need
        try:  # Python's float ** raises where numpy's gives inf
            sn = s_n ** 2
        except OverflowError:
            raise ValueError("s_n_sq overflows float64") from None
        denom = _norm(n, config.spec.sigma) if n >= 16 else None  # refused before any kernel

        exact = blocked = dyadic = greedy_v = scored = None  # scored: exact, else blocked
        if "exact" in config.algorithms:
            scored = variation.sq_variation_exact(walk)
            exact = scored.value
        if "blocked" in config.algorithms:
            res = variation.sq_variation_blocked(walk, min(config.block, n))
            blocked = res.value
            if scored is None:
                scored = res
        if "dyadic_upper" in config.algorithms:
            dyadic = variation.sq_variation_upper_dyadic(walk)
        if "greedy" in config.algorithms:
            greedy_v = greedy.greedy_partition(walk, config.greedy_params).value
    except ValueError as exc:
        raise ValueError(f"trial (spec={config.spec.to_string()}, n={n}, trial={trial_index}, "
                         f"seed={seed}): {exc}") from None

    lows = [v for v in (exact, blocked, greedy_v, sn) if v is not None]
    highs = [v for v in (exact, dyadic) if v is not None]
    ratio = exact / denom if (exact is not None and denom) else None
    ratio_lo = max(lows) / denom if denom else None
    ratio_hi = min(highs) / denom if (highs and denom) else None

    cls = {}
    if config.class_eps is not None and scored is not None and n >= 16:
        br = classify.classify_partition(
            scored, ClassParams(config.class_eps, config.class_b, n)
        )
        cls = dict(
            good_sum=br.good_sum, medium_sum=br.medium_sum, bad_sum=br.bad_sum,
            good_len=br.good_len, medium_len=br.medium_len, bad_len=br.bad_len,
            b_param=config.class_b, eps_param=config.class_eps,
        )

    rec = TrialRecord(
        trial_index=trial_index, n=n, seed=seed,
        v2_exact=exact, v2_blocked=blocked, v2_dyadic_upper=dyadic, v2_greedy=greedy_v,
        ratio=ratio, ratio_lo=ratio_lo, ratio_hi=ratio_hi, s_n_sq=sn, **cls,
    )
    _check_record(rec, config.spec)
    return rec


def _check_record(rec: TrialRecord, spec: DistributionSpec) -> None:
    """Raise InvariantViolation naming the spec, n, trial and seed that replay it."""
    tol = 1e-9 * max(1.0, *(v for v in (rec.v2_exact, rec.v2_dyadic_upper, rec.s_n_sq)
                            if v is not None))
    pairs = [
        ("blocked <= exact", rec.v2_blocked, rec.v2_exact),
        ("greedy <= exact", rec.v2_greedy, rec.v2_exact),
        ("exact <= dyadic_upper", rec.v2_exact, rec.v2_dyadic_upper),
        ("s_n_sq <= exact", rec.s_n_sq, rec.v2_exact),
    ]
    for name, lo, hi in pairs:
        if lo is not None and hi is not None and lo > hi + tol:
            raise InvariantViolation(
                f"record (spec={spec.to_string()}, n={rec.n}, trial={rec.trial_index}, "
                f"seed={rec.seed}) breaks {name}: {lo} > {hi}"
            )


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    """All grid cells, ordered by (n, trial_index) regardless of scheduling."""
    tasks = [(config, n, t) for n in config.n_grid for t in range(config.trials)]
    threads = os.environ.get("SQVAR_THREADS", "1")
    try:
        workers = max(1, int(threads))
    except ValueError:
        raise ValueError(f"SQVAR_THREADS must be an integer, got {threads!r}") from None
    workers = min(workers, len(tasks))  # a fork-started pool forks them all at once
    if workers <= 1:
        return [run_trial(*task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (4 * workers))
        return list(pool.map(run_trial, *zip(*tasks), chunksize=chunk))


# --- persistence -------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def records_to_csv(records: list[TrialRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(",".join(_cell(getattr(r, c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def records_from_csv(text: str) -> list[TrialRecord]:
    """Parse a records CSV; ValueError names the first malformed line (and cell)."""
    lines = [(k, ln) for k, ln in enumerate(text.split("\n"), 1) if ln.strip()]
    if not lines or lines[0][1].split(",") != CSV_COLUMNS:
        raise ValueError("missing or unexpected CSV header; not a sqvar records file")
    out = []
    for k, ln in lines[1:]:
        vals = ln.split(",")
        if len(vals) != len(CSV_COLUMNS):
            raise ValueError(f"records line {k} has {len(vals)} fields, "
                             f"expected {len(CSV_COLUMNS)}")
        kwargs = {}
        for col, raw in zip(CSV_COLUMNS, vals):
            try:
                kwargs[col] = None if raw == "" else (int if col in _INT_COLUMNS else float)(raw)
            except ValueError:
                raise ValueError(f"records line {k} column {col!r} is not a number: "
                                 f"{raw!r}") from None
            if isinstance(kwargs[col], float) and not math.isfinite(kwargs[col]):
                raise ValueError(f"records line {k} column {col!r} is not finite: {raw!r}")
        out.append(TrialRecord(**kwargs))
    return out


def write_outputs(records: list[TrialRecord], config: ExperimentConfig) -> None:
    with open(config.output_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(records_to_csv(records))
    if config.jsonl_mirror:
        path = config.output_path + ".jsonl"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for r in records:
                fh.write(json.dumps({c: getattr(r, c) for c in CSV_COLUMNS}) + "\n")


# --- config files ------------------------------------------------------------

_CONFIG_KEYS = {
    "experiment": ("spec", "n_grid", "trials", "master_seed", "algorithms", "output", "jsonl"),
    "greedy": ("s", "c", "alpha", "eps3"),
    "classify": ("eps", "b"),
}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "a boolean"}


def _parse(section: configparser.SectionProxy, key: str, typ: type, text: str):
    """text, the value of section[key] or one token of it, read as typ; a
    ValueError names the section, the key and the text."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()] if typ is bool else typ(text)
    except (KeyError, ValueError):
        raise ValueError(f"config [{section.name}] {key}: {text!r} is not "
                         f"{_TYPE_NAMES[typ]}") from None


def _get(section: configparser.SectionProxy, key: str, typ: type, default=None):
    """section[key] read as typ by _parse, or default when the key is absent."""
    return _parse(section, key, typ, section[key]) if key in section else default


def parse_config(path: str) -> ExperimentConfig:
    """Read the INI-style experiment description.

    [experiment] spec (default gaussian:sigma=1), n_grid (required, comma or
    space separated), trials (required), master_seed (0), algorithms (exact;
    a comma list of exact, blocked or blocked:<block> with block 4 by
    default, dyadic_upper, greedy), output (records.csv), jsonl (false: also
    write a JSON-lines mirror of the records).
    [greedy] s, c, alpha, eps3, defaulting to the GreedyParams fields s,
    c_copies, alpha, epsilon3; the section is required when greedy runs.
    [classify] eps (0.1), b (default_bad_threshold()); when present, trials
    with n >= 16 and an exact or blocked partition are classified.
    Any other section or key is refused by name.
    """
    cp = configparser.ConfigParser(default_section="")  # no default: [DEFAULT] is unknown
    try:
        with open(path, encoding="utf-8-sig") as fh:
            cp.read_file(fh)
    except configparser.Error as exc:  # e.g. keys before any section header
        raise ValueError(f"config is not valid INI: {exc.message.splitlines()[0]}") from exc
    if not cp.has_section("experiment"):
        raise ValueError("config has no [experiment] section")
    for name in cp.sections():
        if name not in _CONFIG_KEYS:
            raise ValueError(f"config has an unknown section [{name}]")
        unknown = [key for key in cp[name] if key not in _CONFIG_KEYS[name]]
        if unknown:
            raise ValueError(f"config [{name}] has unknown keys: {', '.join(unknown)}")
    exp = cp["experiment"]
    for key in ("n_grid", "trials"):
        if key not in exp:
            raise ValueError(f"config [experiment] is missing the required key {key!r}")
    algorithms = []
    block = ExperimentConfig.block
    for token in exp.get("algorithms", "exact").split(","):
        token = token.strip()
        if not token:
            continue
        name, colon, size = token.partition(":")
        if name.strip() == "blocked" and colon:
            if not size.strip().isdigit() or int(size) < 1:
                raise ValueError(f"config [experiment] algorithms: {token!r} needs an "
                                 f"integer block >= 1")
            block = int(size)
            token = "blocked"
        algorithms.append(token)
    gp = None
    if cp.has_section("greedy"):
        g = cp["greedy"]
        values = dict(s=_get(g, "s", int, GreedyParams.s),
                      c_copies=_get(g, "c", int, GreedyParams.c_copies),
                      alpha=_get(g, "alpha", float, GreedyParams.alpha),
                      epsilon3=_get(g, "eps3", float, GreedyParams.epsilon3))
        try:
            gp = GreedyParams(**values)
        except ValueError as exc:
            raise ValueError(f"config [greedy] {exc}") from None
    class_eps = class_b = None
    if cp.has_section("classify"):
        c = cp["classify"]
        class_eps = _get(c, "eps", float, 0.1)
        class_b = _get(c, "b", float, classify.default_bad_threshold())
        try:
            classify.check_thresholds(class_eps, class_b)
        except ValueError as exc:
            raise ValueError(f"config [classify] {exc}") from None
    try:
        spec = DistributionSpec.from_string(exp.get("spec", "gaussian:sigma=1"))
    except ValueError as exc:
        raise ValueError(f"config [experiment] spec: {exc}") from None
    values = dict(
        spec=spec,
        n_grid=tuple(_parse(exp, "n_grid", int, v)
                     for v in exp["n_grid"].replace(",", " ").split()),
        trials=_get(exp, "trials", int),
        master_seed=_get(exp, "master_seed", int, 0),
        algorithms=tuple(algorithms),
        block=block,
        greedy_params=gp,
        class_eps=class_eps,
        class_b=class_b,
        output_path=exp.get("output", "records.csv"),
        jsonl_mirror=_get(exp, "jsonl", bool, False),
    )
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ValueError(f"config [experiment] {exc}") from None


# --- summaries ---------------------------------------------------------------

def _over_exact(v2: float | None, r: TrialRecord) -> float | None:
    return v2 / r.v2_exact if v2 is not None and r.v2_exact else None


# The per-record lab statistics, each None where a record lacks it.
STATS = {
    "ratio": lambda r: r.ratio,
    "medium_frac": lambda r: None if r.medium_len is None else r.medium_len / r.n,
    "bad_stat": lambda r: (None if r.bad_sum is None
                           else r.bad_sum / (r.n * math.log(math.log(r.n)))),
    "greedy_over_exact": lambda r: _over_exact(r.v2_greedy, r),
    "dyadic_over_exact": lambda r: _over_exact(r.v2_dyadic_upper, r),
    "blocked_over_exact": lambda r: _over_exact(r.v2_blocked, r),
}


def summarize(records: list[TrialRecord]) -> list[dict]:
    """Per-n quartiles <stat>_q1, <stat>_median, <stat>_q3 of each of STATS."""
    if not records:
        raise ValueError("no records to summarize")
    rows = []
    for n in sorted({r.n for r in records}):
        grp = [r for r in records if r.n == n]
        row: dict = {"n": n, "count": len(grp)}
        for name, stat in STATS.items():
            vals = [v for v in map(stat, grp) if v is not None]
            if vals:
                q = np.percentile(np.asarray(vals), [25.0, 50.0, 75.0], method="linear")
                row[f"{name}_q1"], row[f"{name}_median"], row[f"{name}_q3"] = map(float, q)
        rows.append(row)
    return rows


def format_summary(rows: list[dict]) -> str:
    keys = ["n", "count", "ratio_q1", "ratio_median", "ratio_q3",
            "bad_stat_median", "medium_frac_median", "greedy_over_exact_median"]
    out = ["  ".join(f"{k:>24s}" for k in keys)]
    for row in rows:
        cells = []
        for k in keys:
            v = row.get(k)
            if v is None:
                cells.append(f"{'-':>24s}")
            elif isinstance(v, int):
                cells.append(f"{v:>24d}")
            else:
                cells.append(f"{v:>24.6g}")
        out.append("  ".join(cells))
    return "\n".join(out)


# Each plot kind and the statistics it prints after n, in header order.
PLOT_KINDS = {
    "ratio_vs_n": ("ratio",),
    "class_vs_n": ("medium_frac", "bad_stat"),
    "bound_gap": ("dyadic_over_exact", "blocked_over_exact"),
}


def emit_plotdata(records: list[TrialRecord], kind: str) -> str:
    """Space-separated n and the kind's statistics, for each record that has them."""
    if not records:
        raise ValueError("no records to emit")
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}; expected one of {tuple(PLOT_KINDS)}")
    names = PLOT_KINDS[kind]
    lines = [" ".join(("n", *names))]
    for r in records:
        vals = [STATS[name](r) for name in names]
        if None not in vals:
            lines.append(" ".join(_cell(v) for v in (r.n, *vals)))
    return "\n".join(lines) + "\n"
