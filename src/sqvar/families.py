"""Leveled interval families and constructive cover queries.

Three constructions: the dyadic family plus its half shifts, the geometric
(1+eps')-ratio families with fractional shifts, and the geometrically
growing families with C shifted copies used by the constructive
lower-bound partition.

Geometric shifted families keep every aligned interval whose start lies in
(0, (1+eps')^n], including ones whose right end overshoots the nominal top;
without those right-edge intervals the advertised cover (containment with
blow-up below (1+eps')^2) does not exist for intervals near the top. At
eps' = 1 the fitting intervals coincide exactly with the dyadic family and
its half shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_REL_TOL = 1e-9  # endpoint comparisons are scaled by this


@dataclass(frozen=True)
class RealInterval:
    """Half-open interval (start, end] with real endpoints."""

    start: float
    end: float

    def __post_init__(self):
        if not self.end > self.start:
            raise ValueError("need end > start")
        if self.start < 0:
            raise ValueError("need start >= 0")

    @property
    def length(self) -> float:
        return self.end - self.start

    def contains(self, other: "RealInterval", tol: float = 0.0) -> bool:
        return self.start <= other.start + tol and other.end <= self.end + tol


@dataclass(frozen=True)
class IntervalFamily:
    """One leveled family of pairwise-disjoint intervals per level."""

    scheme: str  # "F", "Fs", "H", or "L"
    n: int
    levels: dict[int, tuple[RealInterval, ...]]
    shift_index: int = 0  # j for H families, i for L families

    def all_intervals(self):
        for lvl in sorted(self.levels):
            yield from self.levels[lvl]

    def size(self) -> int:
        return sum(len(v) for v in self.levels.values())


def build_F_Fs(n: int) -> tuple[IntervalFamily, IntervalFamily]:
    """The dyadic family (levels 0..n) and its half shifts (levels 1..n-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    f_levels = {}
    for i in range(n + 1):
        ln = 1 << i
        f_levels[i] = tuple(
            RealInterval(float((c - 1) * ln), float(c * ln))
            for c in range(1, (1 << (n - i)) + 1)
        )
    fs_levels = {}
    for i in range(1, n):
        ln = 1 << i
        half = 1 << (i - 1)
        fs_levels[i] = tuple(
            RealInterval(float((c - 1) * ln + half), float(c * ln + half))
            for c in range(1, (1 << (n - i)))
        )
    return (
        IntervalFamily(scheme="F", n=n, levels=f_levels),
        IntervalFamily(scheme="Fs", n=n, levels=fs_levels),
    )


def cover_dyadic(iprime: RealInterval, n: int) -> RealInterval:
    """An interval of the dyadic-or-shifted family containing iprime with
    length below 4x, by the constructive case split: either the aligned
    interval one level up contains it, or it straddles a single grid point
    and the half shift around that point does.
    """
    top = float(1 << n)
    if iprime.start < 0 or iprime.end > top:
        raise ValueError(f"interval must lie within (0, {top:g}]")
    i = max(0, math.ceil(math.log2(iprime.length) - 1e-12))
    if i >= n - 1:
        return RealInterval(0.0, top)
    ln = 1 << (i + 1)
    c = math.floor(iprime.start / ln)
    if iprime.end <= (c + 1) * ln:
        return RealInterval(float(c * ln), float((c + 1) * ln))
    g = (c + 1) * ln  # the straddled grid point
    half = 1 << i
    return RealInterval(float(g - half), float(g + half))


def shift_count(epsilon_prime: float) -> int:
    """Largest shift index h = floor((1+eps')/eps' - 1)."""
    return int(math.floor((1.0 + epsilon_prime) / epsilon_prime - 1.0 + 1e-9))


def build_H(epsilon_prime: float, n: int) -> list[IntervalFamily]:
    """Geometric families H_0..H_h with ratio (1+eps') and fractional shifts."""
    if not 0 < epsilon_prime <= 1:
        raise ValueError("epsilon_prime must satisfy 0 < eps' <= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    b = 1.0 + epsilon_prime
    top = b**n
    tol = _REL_TOL * top
    h = shift_count(epsilon_prime)
    fams = []
    for j in range(h + 1):
        levels = {}
        lo, hi = (0, n) if j == 0 else (1, n - 1)
        for i in range(lo, hi + 1):
            ln = b**i
            shift = j * epsilon_prime * b ** (i - 1) if j else 0.0
            ivs = []
            c = 1
            while (c - 1) * ln + shift < top - tol:
                ivs.append(RealInterval((c - 1) * ln + shift, c * ln + shift))
                c += 1
            levels[i] = tuple(ivs)
        fams.append(IntervalFamily(scheme="H", n=n, levels=levels, shift_index=j))
    return fams


def cover_H(iprime: RealInterval, epsilon_prime: float, n: int) -> RealInterval:
    """A geometric-family interval containing iprime with length below
    (1+eps')^2 times iprime's, via the shifted-grid bracket one level up.

    Endpoint ties resolve to the smaller shift. When (1+eps')/eps' is an
    integer (it is for eps' in {1, 1/2, 1/4, ...} and for every value the
    asymptotic argument needs) the bracket always lands in the family; for
    other eps' the truncated shift count leaves slivers near block ends, and
    a scan of both ratio-safe levels recovers most of those. A ValueError
    reports an interval with no admissible cover.
    """
    if not 0 < epsilon_prime <= 1:
        raise ValueError("epsilon_prime must satisfy 0 < eps' <= 1")
    b = 1.0 + epsilon_prime
    top = b**n
    tol = _REL_TOL * top
    if iprime.start < 0 or iprime.end > top + tol:
        raise ValueError(f"interval must lie within (0, {top:g}]")
    i = 0
    while b**i < iprime.length - tol:
        i += 1
    if i >= n - 1:
        return RealInterval(0.0, top)
    ln = b ** (i + 1)
    step = epsilon_prime * b**i
    if iprime.start <= tol:
        return RealInterval(0.0, ln)
    h = shift_count(epsilon_prime)
    # grid point strictly below the start, ties to the smaller k
    m = math.ceil(iprime.start / step - tol) - 1
    steps_per_block = (1.0 + epsilon_prime) / epsilon_prime
    if abs(steps_per_block - round(steps_per_block)) < 1e-9:
        c, k = divmod(m, int(round(steps_per_block)))
        start = c * ln + k * step
        cand = RealInterval(start, start + ln)
        if cand.contains(iprime, tol):
            return cand
    # non-integer step grids: scan the two levels whose length keeps the ratio
    for lev in (i + 1, i):
        size = b**lev
        if size < iprime.length - tol or size >= b * b * iprime.length + tol:
            continue
        kmax = 0 if lev == 0 else h
        for k in range(kmax + 1):
            shift = k * epsilon_prime * b ** (lev - 1) if k else 0.0
            c = math.floor((iprime.start - shift) / size + tol)
            if c < 0:
                continue
            cand = RealInterval(c * size + shift, (c + 1) * size + shift)
            if cand.contains(iprime, tol):
                return cand
    raise ValueError(
        "no admissible cover: the truncated shift grid at this eps' leaves "
        "slivers; choose eps' with integer (1+eps')/eps'"
    )


def build_L(s: int, c_copies: int, k_max: int | None = None) -> list[IntervalFamily]:
    """Shifted geometric families L_0..L_{C-1} with one size-s^k interval per k.

    L_0 tiles (0, 1], (1, 1+s], (1+s, 1+s+s^2], ...; L_i shifts each interval
    right by i*s^(k+1)/C, admitting only k with C | s^(k+1) so endpoints stay
    integral. Enumeration stops at s^k_max; the default cap keeps every
    endpoint exactly representable as a float.
    """
    if s <= 1:
        raise ValueError("s must be an integer > 1")
    m = _power_index(s, c_copies)
    if k_max is None:
        k_max = 0
        while s ** (k_max + 3) <= 1 << 53:
            k_max += 1
    fams = []
    for i in range(c_copies):
        levels = {}
        k_lo = 0 if i == 0 else max(0, m - 1)
        for k in range(k_lo, k_max + 1):
            t_prev = _geom_total(s, k - 1)
            shift = i * s ** (k + 1) // c_copies
            levels[k] = (RealInterval(float(t_prev + shift), float(t_prev + s**k + shift)),)
        fams.append(IntervalFamily(scheme="L", n=k_max, levels=levels, shift_index=i))
    return fams


def _geom_total(s: int, k: int) -> int:
    """1 + s + ... + s^k, with the empty sum (k < 0) equal to 0."""
    if k < 0:
        return 0
    return (s ** (k + 1) - 1) // (s - 1)


def _power_index(s: int, c_copies: int) -> int:
    """m with s^m = C, rejecting C that is not a positive power of s."""
    m, v = 0, 1
    while v < c_copies:
        v *= s
        m += 1
    if v != c_copies:
        raise ValueError(f"C={c_copies} is not a power of s={s}")
    return m


# --- exhaustive property checks (used by `sqvar families check`) ------------

def check_dyadic_cover(n: int) -> dict:
    """Verify the cover contract on every integer subinterval of (0, 2^n]."""
    f, fs = build_F_Fs(n)
    members = {(iv.start, iv.end) for iv in f.all_intervals()}
    members |= {(iv.start, iv.end) for iv in fs.all_intervals()}
    top = 1 << n
    checked = violations = 0
    for a in range(top):
        for b in range(a + 1, top + 1):
            ip = RealInterval(float(a), float(b))
            iv = cover_dyadic(ip, n)
            checked += 1
            ok = (
                iv.contains(ip)
                and iv.length < 4 * ip.length
                and (iv.start, iv.end) in members
            )
            violations += not ok
    return {"scheme": "dyadic", "n": n, "checked": checked, "violations": violations}


def check_H_cover(epsilon_prime: float, n: int, grid: int = 100) -> dict:
    """Verify the cover contract on a grid of subintervals with length >= 1.

    The length floor reflects the usage: covers are taken of partition
    intervals, which contain at least one integer.
    """
    fams = build_H(epsilon_prime, n)
    members = set()
    for fam in fams:
        for iv in fam.all_intervals():
            members.add((round(iv.start, 9), round(iv.end, 9)))
    b = 1.0 + epsilon_prime
    top = b**n
    tol = _REL_TOL * top
    checked = violations = 0
    for ai in range(grid):
        s = top * ai / grid
        for bi in range(ai + 1, grid + 1):
            e = top * bi / grid
            if e - s < 1.0:
                continue
            ip = RealInterval(s, e)
            iv = cover_H(ip, epsilon_prime, n)
            checked += 1
            ok = (
                iv.contains(ip, tol)
                and iv.length < b * b * ip.length + tol
                and (round(iv.start, 9), round(iv.end, 9)) in members
            )
            violations += not ok
    return {
        "scheme": "H",
        "eps": epsilon_prime,
        "n": n,
        "checked": checked,
        "violations": violations,
    }


def check_family_disjoint(fam: IntervalFamily) -> dict:
    """Count pairwise overlaps within each level (exact endpoint arithmetic)."""
    overlaps = 0
    for lvl, ivs in fam.levels.items():
        ordered = sorted(ivs, key=lambda iv: iv.start)
        for left, right in zip(ordered, ordered[1:]):
            tol = _REL_TOL * max(1.0, abs(left.end))
            overlaps += right.start < left.end - tol
    return {"scheme": fam.scheme, "shift": fam.shift_index, "overlaps": overlaps}


def check_L_gaps(s: int, c_copies: int, k_max: int = 20) -> dict:
    """Verify the exact gap law inside each shifted copy: the gap before the
    size-s^k interval equals i * (s^(k+1) - s^k) / C."""
    while s ** (k_max + 3) > 1 << 53:
        k_max -= 1
    fams = build_L(s, c_copies, k_max=k_max)
    bad = 0
    for fam in fams:
        i = fam.shift_index
        ks = sorted(fam.levels)
        for k0, k1 in zip(ks, ks[1:]):
            prev_end = fam.levels[k0][0].end
            nxt_start = fam.levels[k1][0].start
            expect = i * (s ** (k1 + 1) - s**k1) // c_copies
            bad += int(nxt_start - prev_end) != expect
    return {"scheme": "L", "s": s, "C": c_copies, "gap_violations": bad}
