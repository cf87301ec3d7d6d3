"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 runtime invariant violation,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import stat
import sys
from dataclasses import fields
from itertools import islice

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
    def __init__(self, *args, **kwargs):  # a flag has one spelling, not its prefixes too
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


_BLOCK = 1 << 14  # characters of input parsed at a time


def _read_numbers(path: str) -> np.ndarray:
    """The N numbers of a file, or of stdin for "-", in buf[1:] of one float64
    buffer buf of N + 1 elements, so that prefix_sums(buf[1:], out=buf) can
    build the walk in place.

    Numbers are separated by whitespace or commas, after at most one header
    token and a UTF-8 byte-order mark, and each is parsed by float(). A
    regular file is parsed as it is read; stdin and pipes are read whole
    first, into a stream that can seek back. Text that is not UTF-8 fails
    with the error that one read of the whole input gives, and a non-number
    with a ValueError that names its line, as str.splitlines counts lines,
    and the token.
    """
    if path == "-":
        text = sys.stdin.read().removeprefix("\ufeff")  # what utf-8-sig drops from a file
    else:
        with open(path, encoding="utf-8-sig") as fh:
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode):
                return _parse_blocks(fh, info.st_size // 2 + 2)
            text = fh.read()  # a pipe, which cannot seek back
    return _parse_blocks(io.StringIO(text), len(text) // 2 + 2)


def _parse_blocks(fh, size: int) -> np.ndarray:
    """_read_numbers on a seekable text stream, into a buffer of `size` floats.

    The text is parsed _BLOCK characters at a time, a block's unfinished last
    token carried into the next. C characters, or a file of C bytes, hold at
    most C // 2 + 1 tokens: the buffer is allocated at that size, which costs
    no memory until written, doubled should a file grow while it is read, and
    shrunk in place to N + 1. Beside it the parse holds one block's text,
    tokens and floats. On any failure the stream is read again whole from its
    start: that one read raises a decode error at its offset in the whole
    input, and the text it gives is searched for the first non-number.
    """
    buf = np.empty(size)
    n, header, carry = 0, True, ""  # header: no token read yet
    try:
        while True:
            block = fh.read(_BLOCK)
            seps = (carry + block).replace(",", " ")
            tokens = seps.split()
            carry = tokens.pop() if block and not seps[-1].isspace() else ""
            skip = 0
            if header and tokens:
                skip, header = 0 if _is_number(tokens[0]) else 1, False
            k = len(tokens) - skip
            if n + k + 1 > len(buf):
                buf.resize(max(2 * len(buf), n + k + 1), refcheck=False)
            buf[n + 1:n + k + 1] = np.fromiter(map(float, islice(tokens, skip, None)),
                                               np.float64, k)
            n += k
            if not block:
                break
    except ValueError:  # a UnicodeDecodeError too
        fh.seek(0)
        lines = fh.read().splitlines()
        tokens = ((row, tok) for row, line in enumerate(lines, 1)
                  for tok in line.replace(",", " ").split())
        bad = ((i, row, tok) for i, (row, tok) in enumerate(tokens) if not _is_number(tok))
        i, row, tok = next(bad)
        if i == 0:  # the header
            i, row, tok = next(bad)
        raise ValueError(f"input line {row}: {tok!r} is not a number") from None
    buf.resize(n + 1, refcheck=False)
    return buf


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
    buf = _read_numbers(args.input)
    if len(buf) == 1:
        raise ValueError("no numeric input values found")
    walk = prefix_sums(buf[1:], out=buf)  # the walk replaces the numbers in place
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


def _dyadic_rows(args):
    for n in range(1, args.n + 1):
        yield families.check_dyadic_cover(n)
    for fam in families.build_F_Fs(args.n):
        yield families.check_family_disjoint(fam)


def _h_rows(args):
    for fam in families.build_H(args.eps, args.n):
        yield families.check_family_disjoint(fam)
    yield families.check_H_cover(args.eps, args.n)


def _l_rows(args):
    for fam in families.build_L(args.s, args.c):
        yield families.check_family_disjoint(fam)
    yield families.check_L_gaps(args.s, args.c)


def _cmd_families(args) -> int:
    failures = 0
    for row in args.rows(args):  # printed as checked: an error still shows the rows before it
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
                raise ValueError(f"grid line {k}: bounds {check} needs rows of width "
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


def _bernstein_rows(args, spec, grid):
    m = spec.almost_sure_bound()  # refused whatever the grid
    if not math.isfinite(m):
        raise ValueError("bernstein comparison needs a bounded spec")
    try:  # Python's float ** raises where numpy's gives inf
        var = spec.sigma**2
    except OverflowError:
        var = math.inf  # refused by name in the bound
    for idx, (t, length) in enumerate(grid):
        bd = bounds.bernstein_maximal_bound(t, length * var, m)  # refuses sigma^2 before any walk
        emp = bounds.maximal_tail_empirical(spec, length, t, args.trials, mix_seed(args.seed, idx))
        se = bounds.std_err(emp, args.trials)
        yield t, emp, bd, se, emp <= bd + 3.0 * se


def _etemadi_rows(args, spec, grid):
    for idx, (a, length) in enumerate(grid):
        emp, rhs = bounds.etemadi_check(spec, length, a, args.trials, mix_seed(args.seed, idx))
        se = bounds.std_err(emp, args.trials)
        yield a, emp, rhs, se, emp <= rhs + 3.0 * se


def _berry_esseen_rows(args, spec, grid):
    prev = None
    for idx, (k,) in enumerate(grid):
        d = bounds.berry_esseen_distance(spec, k, args.trials, mix_seed(args.seed, idx))
        se = 0.5 / math.sqrt(args.trials)
        yield k, d, float("nan"), se, prev is None or d <= prev + 2.0 * se
        prev = d


def _rosenthal_rows(args, spec, grid):
    for idx, (ell,) in enumerate(grid):
        r = bounds.rosenthal_ratio(spec, args.p, ell, args.trials, mix_seed(args.seed, idx))
        yield ell, r, float("nan"), float("nan"), "report-only"


def _cmd_bounds(args) -> int:
    spec = DistributionSpec.from_string(args.spec)
    grid = _read_grid(args.grid, args.check)
    rows = list(args.rows(args, spec, grid))
    lines = ["threshold,empirical,bound,std_err,pass"]
    lines += [",".join(format(v, ".17g") if isinstance(v, float) else str(v).lower()
                       for v in row) for row in rows]  # a bool reads true or false
    _write_out("\n".join(lines) + "\n", args.out)
    if any(row[-1] is False for row in rows):  # rosenthal's "report-only" never gates
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
    params = greedy.GreedyParams(**{f.name: getattr(args, f.name)
                                    for f in fields(greedy.GreedyParams)})
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
    fsub = p.add_subparsers(dest="scheme", required=True)
    fp = fsub.add_parser("dyadic", help="dyadic covers and the F/Fs families")
    fp.add_argument("--n", type=int, default=7)
    fp.set_defaults(func=_cmd_families, rows=_dyadic_rows)
    fp = fsub.add_parser("h", help="the geometric families H and their cover")
    fp.add_argument("--n", type=int, default=7)
    fp.add_argument("--eps", type=float, default=0.5,
                    help="eps' = 1/k for an integer k >= 1, e.g. 1, 0.5, 0.3333333333333333")
    fp.set_defaults(func=_cmd_families, rows=_h_rows)
    fp = fsub.add_parser("l", help="the shifted families L and their gap law")
    fp.add_argument("--s", type=int, required=True)
    fp.add_argument("--c", type=int, required=True)
    fp.set_defaults(func=_cmd_families, rows=_l_rows)

    p = sub.add_parser("bounds", help="concentration-bound verification CSV")
    common = _Parser(add_help=False)
    common.add_argument("--spec", default="rademacher:sigma=1")
    common.add_argument("--grid", help="CSV of grid points; defaults to a built-in grid")
    common.add_argument("--trials", type=int, default=100_000)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out")
    bsub = p.add_subparsers(dest="check", required=True)
    for check, rows in (("bernstein", _bernstein_rows), ("etemadi", _etemadi_rows),
                        ("berry-esseen", _berry_esseen_rows), ("rosenthal", _rosenthal_rows)):
        bsub.add_parser(check, parents=[common]).set_defaults(func=_cmd_bounds, rows=rows)
    p = bsub.choices["rosenthal"]
    p.description = ("rosenthal rows are report-only: Rosenthal's constant is not known, "
                     "so their pass column reads report-only and never gates")
    p.add_argument("--p", type=float, default=4.0, help="moment order")

    p = sub.add_parser("greedy", help="constructive lower-bound partition of one sample")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spec", default="gaussian:sigma=1")
    for f in fields(greedy.GreedyParams):  # the [greedy] keys of a config
        p.add_argument(f"--{f.name}", type=type(f.default), default=f.default)
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
