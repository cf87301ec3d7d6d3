"""Configuration-driven experiment harness and record persistence.

A run samples one sequence per (n, trial) cell of the grid, applies the
variation algorithms its ExperimentConfig selects plus classification, and
writes one CSV row per trial to the config's output path, with nothing
beside it. Per-trial seeds are derived from (master_seed, n, trial_index),
so records are reproducible cell by cell and identical under any degree of
parallelism; rows are always ordered by (n, trial_index). A config comes
from an INI file through parse_config, or is built field by field.
"""

from __future__ import annotations

import configparser
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import classify, greedy, variation
from .greedy import GreedyParams
from .seqcore import DistributionSpec, mix_seed, prefix_sums, sample_sequence


class InvariantViolation(RuntimeError):
    """A runtime sandwich/ordering contract failed on an emitted record."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One field per choice that changes the records: exact runs the exact DP,
    block (when set) the blocked DP, dyadic_upper the dyadic upper bound,
    greedy_params (when set) the greedy partition, and thresholds (eps, b), when
    set, classify the exact (else the blocked) partition of each trial with
    n >= 16, so they need one of the two."""
    spec: DistributionSpec
    n_grid: tuple[int, ...]
    trials: int
    master_seed: int
    exact: bool = True
    block: int | None = None
    dyadic_upper: bool = False
    greedy_params: GreedyParams | None = None
    thresholds: tuple[float, float] | None = None
    output_path: str = "records.csv"

    def __post_init__(self):
        """A ValueError starts with the field at fault; parse_config names its section."""
        if self.trials < 0:
            raise ValueError(f"trials: must be >= 0, got {self.trials}")
        if list(self.n_grid) != sorted(set(self.n_grid)) or any(n < 1 for n in self.n_grid):
            raise ValueError(f"n_grid: must be strictly increasing positive integers, "
                             f"got {', '.join(map(str, self.n_grid))}")
        if self.block is not None and self.block < 1:
            raise ValueError(f"block: must be >= 1, got {self.block}")
        if self.thresholds is not None:
            try:
                classify.check_thresholds(*self.thresholds)
            except ValueError as exc:
                raise ValueError(f"thresholds: {exc}") from None
            if not self.exact and self.block is None:
                raise ValueError("thresholds: needs an exact or blocked partition to classify")


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
_CLASS_COLUMNS = CSV_COLUMNS[CSV_COLUMNS.index("good_sum"):]  # good_sum .. eps_param


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
    """One grid cell: sample, run the algorithms the config selects, classify."""
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
        if config.exact:
            scored = variation.sq_variation_exact(walk)
            exact = scored.value
        if config.block is not None:
            res = variation.sq_variation_blocked(walk, min(config.block, n))
            blocked = res.value
            if scored is None:
                scored = res
        if config.dyadic_upper:
            dyadic = variation.sq_variation_upper_dyadic(walk)
        if config.greedy_params is not None:
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
    if config.thresholds is not None and n >= 16:  # then scored is set
        eps, b = config.thresholds
        cls = dict(classify.classify_partition(scored, eps, b), b_param=b, eps_param=eps)

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
        workers = int(threads)
    except ValueError:
        raise ValueError(f"SQVAR_THREADS must be an integer, got {threads!r}") from None
    if workers < 1:
        raise ValueError(f"SQVAR_THREADS must be >= 1, got {threads!r}")
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
    """Parse a records CSV; ValueError names the first malformed line (and cell),
    which includes an n below 1 and a class column at an n below 16."""
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
        n = kwargs["n"]
        if n is None or n < 1:  # run_trial writes n >= 1, and class columns from n = 16
            raise ValueError(f"records line {k} column 'n' must be >= 1, got {vals[1]!r}")
        for col in _CLASS_COLUMNS if n < 16 else ():
            if kwargs[col] is not None:
                raise ValueError(f"records line {k} column {col!r} is set at n = {n}, "
                                 f"but only trials with n >= 16 are classified")
        out.append(TrialRecord(**kwargs))
    return out


def write_outputs(records: list[TrialRecord], config: ExperimentConfig) -> None:
    with open(config.output_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(records_to_csv(records))


# --- config files ------------------------------------------------------------

_CONFIG_KEYS = {
    "experiment": ("spec", "n_grid", "trials", "master_seed", "algorithms", "output"),
    "greedy": tuple(f.name for f in fields(GreedyParams)),
    "classify": ("eps", "b"),
}
_TYPE_NAMES = {int: "an integer", float: "a number"}


def _parse(section: configparser.SectionProxy, key: str, typ: type, text: str):
    """text, the value of section[key] or one token of it, read as typ; a
    ValueError names the section, the key and the text."""
    try:
        return typ(text)
    except ValueError:
        raise ValueError(f"config [{section.name}] {key}: {text!r} is not "
                         f"{_TYPE_NAMES[typ]}") from None


def _get(section: configparser.SectionProxy, key: str, typ: type, default=None):
    """section[key] read as typ by _parse, or default when the key is absent."""
    return _parse(section, key, typ, section[key]) if key in section else default


def parse_config(path: str) -> ExperimentConfig:
    """Read the INI-style experiment description.

    [experiment] spec (default gaussian:sigma=1), n_grid (required, comma or
    space separated), trials (required), master_seed (0), algorithms (exact;
    a comma list, in any order and each at most once, of exact, blocked or
    blocked:<block> with block 4 by default, dyadic_upper, greedy), output
    (records.csv).
    [greedy] s, c, alpha, eps3: the GreedyParams fields, each defaulting to
    its field's default; the section is required when greedy runs.
    [classify] eps (0.1), b (default_bad_threshold()); when present, trials
    with n >= 16 are classified, and exact or blocked must run.
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
    names, block = [], 4
    for token in exp.get("algorithms", "exact").split(","):
        token = token.strip()
        if not token:
            continue
        name, colon, size = token.partition(":")
        if name.strip() == "blocked" and colon:
            if not size.strip().isdigit() or int(size) < 1:
                raise ValueError(f"config [experiment] algorithms: {token!r} needs an "
                                 f"integer block >= 1")
            block, token = int(size), "blocked"
        names.append(token)
    bad = sorted(set(names) - {"exact", "blocked", "dyadic_upper", "greedy"})
    if bad:
        raise ValueError(f"config [experiment] algorithms: unknown {', '.join(map(repr, bad))}")
    again = sorted({a for a in names if names.count(a) > 1})
    if again:
        raise ValueError(f"config [experiment] algorithms: repeated {', '.join(map(repr, again))}")
    if "greedy" in names and not cp.has_section("greedy"):
        raise ValueError("config [experiment] algorithms: greedy needs greedy parameters, "
                         "a [greedy] section")
    gp = None
    if cp.has_section("greedy"):
        g = cp["greedy"]
        values = {f.name: _get(g, f.name, type(f.default), f.default)
                  for f in fields(GreedyParams)}
        try:
            gp = GreedyParams(**values)
        except ValueError as exc:
            raise ValueError(f"config [greedy] {exc}") from None
    thresholds = None
    if cp.has_section("classify"):
        c = cp["classify"]
        thresholds = (_get(c, "eps", float, 0.1),
                      _get(c, "b", float, classify.default_bad_threshold()))
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
        exact="exact" in names,
        block=block if "blocked" in names else None,
        dyadic_upper="dyadic_upper" in names,
        greedy_params=gp if "greedy" in names else None,
        thresholds=thresholds,
        output_path=exp.get("output", "records.csv"),
    )
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:  # [classify] holds the thresholds, [experiment] the rest
        field, _, why = str(exc).partition(": ")
        where = "[classify]" if field == "thresholds" else f"[experiment] {field}:"
        raise ValueError(f"config {where} {why}") from None


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
