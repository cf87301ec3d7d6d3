"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 runtime invariant violation,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

# No kernel calls BLAS, so keep OpenBLAS from starting a busy-waiting worker
# per core when numpy loads; a value the caller set wins. This must run before
# the first numpy import of the process, which is why the package `sqvar`
# exports nothing. Every module below is imported eagerly, so that a caller
# that wraps functions after `import sqvar.cli` finds them all loaded.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import bounds, families, greedy, labcli, variation
from .labcli import InvariantViolation
from .seqcore import DistributionSpec, mix_seed, prefix_sums, sample_sequence

USAGE_ERROR, INVARIANT_ERROR, IO_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _read_numbers(path: str) -> np.ndarray:
    """Numbers separated by whitespace or commas, after at most one header
    token and a UTF-8 byte-order mark; a ValueError names the line and the
    token of the first non-number."""
    if path == "-":
        text = sys.stdin.read().removeprefix("\ufeff")  # what utf-8-sig drops from a file
    else:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    vals = text.replace(",", " ").split()
    start = 1 if vals and not _is_number(vals[0]) else 0
    try:
        return np.array([float(v) for v in vals[start:]])
    except ValueError:
        tokens = [(k, tok) for k, line in enumerate(text.splitlines(), 1)
                  for tok in line.replace(",", " ").split()]
        k, tok = next((k, tok) for k, tok in tokens[start:] if not _is_number(tok))
        raise ValueError(f"input line {k}: {tok!r} is not a number") from None


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _write_out(text: str, out: str | None) -> None:
    """Write text to the file named by --out, or to stdout without one."""
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_compute(args) -> int:
    x = _read_numbers(args.input)
    if len(x) == 0:
        raise ValueError("no numeric input values found")
    walk = prefix_sums(x)
    res = variation.p_variation_exact(walk, args.p)
    print(res.to_json())
    return 0


def _cmd_simulate(args) -> int:
    config = labcli.parse_config(args.config)
    records = labcli.run_experiment(config)
    labcli.write_outputs(records, config)
    print(f"wrote {len(records)} records to {config.output_path}")
    return 0


def _cmd_summarize(args) -> int:
    with open(args.input, encoding="utf-8-sig") as fh:
        records = labcli.records_from_csv(fh.read())
    print(labcli.format_summary(labcli.summarize(records)))
    return 0


def _cmd_plotdata(args) -> int:
    with open(args.input, encoding="utf-8-sig") as fh:
        records = labcli.records_from_csv(fh.read())
    _write_out(labcli.emit_plotdata(records, args.kind), args.out)
    return 0


def _family_rows(args):
    if args.scheme == "dyadic":
        for n in range(1, args.n + 1):
            yield families.check_dyadic_cover(n)
        f, fs = families.build_F_Fs(args.n)
        yield families.check_family_disjoint(f)
        yield families.check_family_disjoint(fs)
    elif args.scheme == "h":
        for fam in families.build_H(args.eps, args.n):
            yield families.check_family_disjoint(fam)
        yield families.check_H_cover(args.eps, args.n)
    elif args.scheme == "l":
        if not args.s or not args.c:
            raise ValueError("scheme l requires --s and --c")
        for fam in families.build_L(args.s, args.c):
            yield families.check_family_disjoint(fam)
        yield families.check_L_gaps(args.s, args.c)


def _cmd_families(args) -> int:
    failures = 0
    for row in _family_rows(args):  # printed as checked: an error still shows the rows before it
        bad = row.get("violations", 0) + row.get("overlaps", 0) + row.get("gap_violations", 0)
        failures += bad
        state = "PASS" if bad == 0 else "FAIL"
        detail = " ".join(f"{k}={v}" for k, v in row.items())
        print(f"{state}  {detail}")
    if failures:
        raise InvariantViolation(f"{failures} family property violations")
    return 0


_DEFAULT_GRIDS = {
    "bernstein": [(8.0, 16), (12.0, 16), (16.0, 16), (10.0, 64), (16.0, 64), (24.0, 64),
                  (16.0, 256), (24.0, 256), (40.0, 256), (24.0, 1024), (48.0, 1024),
                  (80.0, 1024)],
    "etemadi": [(2.0, 16), (3.0, 16), (4.0, 16), (3.0, 64), (4.0, 64), (6.0, 64),
                (4.0, 256), (6.0, 256), (10.0, 256)],
    "berry-esseen": [(4,), (64,), (1024,), (10000,)],
    "rosenthal": [(1,), (10,), (100,), (1000,)],
}


def _read_grid(path: str | None, check: str) -> list[tuple]:
    """Grid points typed column by column like _DEFAULT_GRIDS[check] (a length, k
    or ell is an int), skipping lines that start with a non-number; a ValueError
    names the line and token of another width, a non-number, a non-finite value
    or a non-integral int."""
    if path is None:
        return _DEFAULT_GRIDS[check]
    types = [type(v) for v in _DEFAULT_GRIDS[check][0]]
    out = []
    with open(path, encoding="utf-8-sig") as fh:
        for k, line in enumerate(fh, 1):
            tokens = line.replace(",", " ").split()
            if not tokens or not _is_number(tokens[0]):
                continue
            if len(tokens) != len(types):
                raise ValueError(f"grid line {k}: --check {check} needs rows of width "
                                 f"{len(types)}, got {len(tokens)}")
            point = []
            for tok, typ in zip(tokens, types):
                if not _is_number(tok):
                    raise ValueError(f"grid line {k}: {tok!r} is not a number")
                value = float(tok)
                if not math.isfinite(value):
                    raise ValueError(f"grid line {k}: {tok!r} is not finite")
                if typ is int and not value.is_integer():
                    raise ValueError(f"grid line {k}: {tok!r} is not an integer")
                point.append(typ(value))
            out.append(tuple(point))
    return out


def _cmd_bounds(args) -> int:
    spec = DistributionSpec.from_string(args.spec)
    grid = _read_grid(args.grid, args.check)
    lines = ["threshold,empirical,bound,std_err,pass"]
    prev = None
    for idx, point in enumerate(grid):
        seed = mix_seed(args.seed, idx)
        if args.check == "bernstein":
            t, length = point
            m = spec.almost_sure_bound()
            if not math.isfinite(m):
                raise ValueError("bernstein comparison needs a bounded spec")
            try:  # Python's float ** raises where numpy's gives inf
                sum_var = length * spec.sigma**2
            except OverflowError:
                sum_var = math.inf  # refused by name in the bound
            bd = bounds.bernstein_maximal_bound(t, sum_var, m)  # refuses sigma^2 before any walk
            emp = bounds.maximal_tail_empirical(spec, length, t, args.trials, seed)
            ok = emp.frequency <= bd + 3.0 * emp.std_err
            row = (t, emp.frequency, bd, emp.std_err, ok)
        elif args.check == "etemadi":
            a, length = point
            lhs, rhs = bounds.etemadi_check(spec, length, a, args.trials, seed)
            ok = lhs.frequency <= rhs + 3.0 * lhs.std_err
            row = (a, lhs.frequency, rhs, lhs.std_err, ok)
        elif args.check == "berry-esseen":
            (k,) = point
            d = bounds.berry_esseen_distance(spec, k, args.trials, seed)
            se = 0.5 / math.sqrt(args.trials)
            ok = prev is None or d <= prev + 2.0 * se
            prev = d
            row = (k, d, float("nan"), se, ok)
        else:  # rosenthal
            (ell,) = point
            r = bounds.rosenthal_ratio(spec, args.p, ell, args.trials, seed)
            row = (ell, r, float("nan"), float("nan"), "report-only")
        lines.append(",".join(
            format(v, ".17g") if isinstance(v, float) else str(v).lower()
            if isinstance(v, bool) else str(v)
            for v in row
        ))
    _write_out("\n".join(lines) + "\n", args.out)
    if any(line.endswith("false") for line in lines[1:]):
        raise InvariantViolation("empirical value exceeded its bound")
    return 0


def _cmd_greedy(args) -> int:
    if args.n < 16:
        raise ValueError("--n must be >= 16, the smallest n the lab normalizes "
                         "by 2 sigma^2 n lnln n")
    spec = DistributionSpec.from_string(args.spec)
    denom = labcli._norm(args.n, spec.sigma)  # refused before the trial is paid for
    buf = np.empty(args.n + 1)  # the samples, in buf[1:], then the walk
    walk = prefix_sums(sample_sequence(spec, args.n, args.seed, out=buf[1:]), out=buf)
    params = greedy.GreedyParams(s=args.s, c_copies=args.c, alpha=args.alpha,
                                 epsilon3=args.eps3)
    res = greedy.greedy_partition(walk, params)
    print(f"value={res.value:.17g} ratio={res.value / denom:.17g} "
          f"breakpoints={len(res.partition.breakpoints)}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="sqvar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="exact (p-)variation of values from a file or '-'")
    p.add_argument("--input", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("simulate", help="run the experiment described by a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("summarize", help="per-n quartile table from a records CSV")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("plotdata", help="emit tidy plot columns from a records CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=labcli.PLOT_KINDS, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plotdata)

    p = sub.add_parser("families", help="family property suites")
    fsub = p.add_subparsers(dest="families_command", required=True)
    fc = fsub.add_parser("check")
    fc.add_argument("--scheme", choices=("dyadic", "h", "l"), required=True)
    fc.add_argument("--n", type=int, default=7)
    fc.add_argument("--eps", type=float, default=0.5,
                    help="eps' = 1/k for an integer k >= 1, e.g. 1, 0.5, 0.3333333333333333")
    fc.add_argument("--s", type=int)
    fc.add_argument("--c", type=int)
    fc.set_defaults(func=_cmd_families)

    p = sub.add_parser("bounds", help="concentration-bound verification CSV")
    p.add_argument("--check", choices=("bernstein", "etemadi", "berry-esseen", "rosenthal"),
                   required=True,
                   help="rosenthal rows are report-only: Rosenthal's constant is not "
                        "known, so their pass column reads report-only and never gates")
    p.add_argument("--spec", default="rademacher:sigma=1")
    p.add_argument("--grid", help="CSV of grid points; defaults to a built-in grid")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=4.0, help="moment order for rosenthal")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("greedy", help="constructive lower-bound partition of one sample")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spec", default="gaussian:sigma=1")
    p.add_argument("--s", type=int, default=greedy.GreedyParams.s)
    p.add_argument("--c", type=int, default=greedy.GreedyParams.c_copies)
    p.add_argument("--alpha", type=float, default=greedy.GreedyParams.alpha)
    p.add_argument("--eps3", type=float, default=greedy.GreedyParams.epsilon3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_greedy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"sqvar: invariant violation: {exc}", file=sys.stderr)
        return INVARIANT_ERROR
    except OSError as exc:
        print(f"sqvar: i/o error: {exc}", file=sys.stderr)
        return IO_ERROR
    except ValueError as exc:
        print(f"sqvar: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:  # numpy's names the allocation it could not make
        print(f"sqvar: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
