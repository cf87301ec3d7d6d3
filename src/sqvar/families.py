"""Leveled interval families and constructive cover queries.

Three constructions: the geometric (1+eps')-ratio families H_0..H_k with
fractional shifts, for eps' = 1/k; the dyadic family F and its half shifts
Fs, which are H_0 and H_1 at eps' = 1; and the geometrically growing
families with C shifted copies used by the constructive lower-bound
partition. One cover rule, cover_H, serves H at every eps' = 1/k and F, Fs
at eps' = 1.

Geometric shifted families keep every aligned interval whose start lies in
(0, (1+eps')^n], including ones whose right end overshoots the nominal top;
without those right-edge intervals the advertised cover (containment with
blow-up below (1+eps')^2) does not exist for intervals near the top. F and
Fs drop them, and the dyadic covers never need them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    levels: dict[int, tuple[RealInterval, ...]]
    shift_index: int = 0  # j for H families, i for L families

    def all_intervals(self):
        for lvl in sorted(self.levels):
            yield from self.levels[lvl]


def build_F_Fs(n: int) -> tuple[IntervalFamily, IntervalFamily]:
    """The dyadic family (levels 0..n) and its half shifts (levels 1..n-1):
    H_0 and H_1 at eps' = 1, less the H_1 intervals that end past 2^n. The
    endpoints are exact, and build_H's start tolerance drops none while 2^n < 1e9.
    """
    h0, h1 = build_H(1.0, n)
    top = float(1 << n)
    fs_levels = {i: tuple(iv for iv in ivs if iv.end <= top) for i, ivs in h1.levels.items()}
    return replace(h0, scheme="F"), IntervalFamily(scheme="Fs", levels=fs_levels)


def shift_count(epsilon_prime: float) -> int:
    """k = 1/eps', the number of shifted copies H_1..H_k; a ValueError names any
    eps' that is not 1/k for an integer k >= 1, to a relative 1e-9."""
    inv = 1.0 / epsilon_prime if epsilon_prime > 0 else math.nan
    k = round(inv) if math.isfinite(inv) else 0
    if k < 1 or abs(inv - k) > 1e-9 * k:
        raise ValueError(f"eps' must be 1/k for an integer k >= 1, got eps' = {epsilon_prime!r}")
    return k


def _top(epsilon_prime: float, n: int) -> float:
    """(1+eps')^n, the right end of the H families; a ValueError names eps'
    and n where it is not a finite float."""
    try:
        return (1.0 + epsilon_prime) ** n
    except OverflowError:
        raise ValueError(f"(1+eps')^n overflows float64 at eps' = {epsilon_prime!r}, "
                         f"n = {n}") from None


def build_H(epsilon_prime: float, n: int) -> list[IntervalFamily]:
    """Geometric families H_0..H_k with ratio (1+eps') and fractional shifts,
    for eps' = 1/k."""
    k = shift_count(epsilon_prime)
    if n < 1:
        raise ValueError("n must be >= 1")
    b = 1.0 + epsilon_prime
    top = _top(epsilon_prime, n)
    tol = _REL_TOL * top
    fams = []
    for j in range(k + 1):
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
        fams.append(IntervalFamily(scheme="H", levels=levels, shift_index=j))
    return fams


def cover_H(iprime: RealInterval, epsilon_prime: float, n: int) -> RealInterval:
    """An interval of H_0..H_k (eps' = 1/k) containing iprime, |iprime| >= 1,
    and shorter than (1+eps')^2 |iprime|.

    With i the smallest level whose length (1+eps')^i is at least |iprime|,
    the cover is the level-(i+1) interval of the smallest shift that contains
    iprime, or the top interval (0, (1+eps')^n] once i >= n - 1. At eps' = 1
    this is the dyadic split, within F and Fs: the aligned interval one level
    up, else the half shift around the grid point iprime straddles.

    A cover always exists: level i+1 has length (k+1) eps'(1+eps')^i, so its
    k + 1 shifts start an interval at every multiple of eps'(1+eps')^i, and
    the one starting at the last such point at or below iprime.start contains
    iprime, as |iprime| + eps'(1+eps')^i <= (1+eps')^(i+1). When no shift
    below k contains iprime, that interval is H_k's, returned untested. The
    ratio holds as |iprime| > (1+eps')^(i-1), or |iprime| >= 1 at i = 0.
    """
    k = shift_count(epsilon_prime)
    b = 1.0 + epsilon_prime
    top = _top(epsilon_prime, n)
    tol = _REL_TOL * top
    if iprime.start < 0 or iprime.end > top + tol:
        raise ValueError(f"interval must lie within (0, {top:g}]")
    i, length = 0, iprime.length
    while b**i < length - tol:
        i += 1
    if i >= n - 1:
        return RealInterval(0.0, top)
    ln = b ** (i + 1)
    for j in range(k + 1):
        shift = j * epsilon_prime * b**i
        c = math.floor((iprime.start + tol - shift) / ln)
        if j == k or c >= 0 and iprime.end <= (c + 1) * ln + shift + tol:
            return RealInterval(c * ln + shift, (c + 1) * ln + shift)


def build_L(s: int, c_copies: int) -> list[IntervalFamily]:
    """Shifted geometric families L_0..L_{C-1} with one size-s^k interval per k.

    L_0 tiles (0, 1], (1, 1+s], (1+s, 1+s+s^2], ...; L_i shifts each interval
    right by i*s^(k+1)/C (see l_interval). Enumeration stops at the largest
    s^k_max with s^(k_max+2) <= 2^53, which keeps every endpoint exactly
    representable as a float.
    """
    if s <= 1:
        raise ValueError("s must be an integer > 1")
    _power_index(s, c_copies)
    k_max = 0
    while s ** (k_max + 3) <= 1 << 53:
        k_max += 1
    fams = []
    for i in range(c_copies):
        levels = {}
        for k in range(k_max + 1):
            iv = l_interval(s, c_copies, i, k)
            if iv is not None:
                levels[k] = (RealInterval(float(iv[0]), float(iv[1])),)
        fams.append(IntervalFamily(scheme="L", levels=levels, shift_index=i))
    return fams


def l_interval(s: int, c_copies: int, i: int, k: int) -> tuple[int, int] | None:
    """The size-s^k interval of L_i as exact integers (start, end), or None
    where L_i has none: a shifted copy (i > 0) needs C | s^(k+1), that is
    k + 1 >= log_s C, for its shift i*s^(k+1)/C to be integral.
    """
    if i > 0 and s ** (k + 1) < c_copies:
        return None
    end = _geom_total(s, k) + i * s ** (k + 1) // c_copies
    return end - s**k, end


def _geom_total(s: int, k: int) -> int:
    """1 + s + ... + s^k, with the empty sum (k < 0) equal to 0."""
    if k < 0:
        return 0
    return (s ** (k + 1) - 1) // (s - 1)


def _power_index(s: int, c: int) -> int:
    """m with s^m = c, rejecting c that is not a positive power of s."""
    m, v = 0, 1
    while v < c:
        v *= s
        m += 1
    if v != c:
        raise ValueError(f"c={c} is not a power of s={s}")
    return m


# --- exhaustive property checks (used by `sqvar families`) ------------------

def _cover_counts(intervals, cover, ratio: float, tol: float,
                  fams: list[IntervalFamily]) -> dict:
    """Intervals checked and violations of the cover contract: cover(iv)
    contains iv, is shorter than ratio * iv.length and is an interval of fams."""
    def key(iv):
        return round(iv.start, 9), round(iv.end, 9)

    members = {key(iv) for fam in fams for iv in fam.all_intervals()}
    checked = violations = 0
    for ip in intervals:
        iv = cover(ip)
        checked += 1
        violations += not (iv.contains(ip, tol) and iv.length < ratio * ip.length + tol
                           and key(iv) in members)
    return {"checked": checked, "violations": violations}


def check_dyadic_cover(n: int) -> dict:
    """Verify the cover contract on every integer subinterval of (0, 2^n]."""
    fams = build_F_Fs(n)
    top = 1 << n
    ivs = (RealInterval(float(a), float(b)) for a in range(top) for b in range(a + 1, top + 1))
    return {"scheme": "dyadic", "n": n,
            **_cover_counts(ivs, lambda ip: cover_H(ip, 1.0, n), 4.0, 0.0, fams)}


def check_H_cover(epsilon_prime: float, n: int) -> dict:
    """Verify the cover contract on the subintervals with length >= 1 whose
    endpoints lie on a grid of 100 steps over (0, (1+eps')^n].

    The length floor reflects the usage: covers are taken of partition
    intervals, which contain at least one integer.
    """
    fams = build_H(epsilon_prime, n)
    b = 1.0 + epsilon_prime
    top = b**n
    grid = 100
    spans = ((top * ai / grid, top * bi / grid)
             for ai in range(grid) for bi in range(ai + 1, grid + 1))
    ivs = (RealInterval(s, e) for s, e in spans if e - s >= 1.0)
    return {"scheme": "H", "eps": epsilon_prime, "n": n,
            **_cover_counts(ivs, lambda ip: cover_H(ip, epsilon_prime, n), b * b,
                            _REL_TOL * top, fams)}


def check_family_disjoint(fam: IntervalFamily) -> dict:
    """Count pairwise overlaps (exact endpoint arithmetic) within each level,
    or among all intervals of an L copy, whose sizes must be disjoint too."""
    overlaps = 0
    groups = [fam.all_intervals()] if fam.scheme == "L" else fam.levels.values()
    for ivs in groups:
        ordered = sorted(ivs, key=lambda iv: iv.start)
        for left, right in zip(ordered, ordered[1:]):
            tol = _REL_TOL * max(1.0, abs(left.end))
            overlaps += right.start < left.end - tol
    return {"scheme": fam.scheme, "shift": fam.shift_index, "overlaps": overlaps}


def check_L_gaps(s: int, c_copies: int) -> dict:
    """Verify the exact gap law inside each shifted copy: the gap before the
    size-s^k interval equals i * (s^(k+1) - s^k) / C."""
    bad = 0
    for fam in build_L(s, c_copies):
        i = fam.shift_index
        ks = sorted(fam.levels)
        for k0, k1 in zip(ks, ks[1:]):
            prev_end = fam.levels[k0][0].end
            nxt_start = fam.levels[k1][0].start
            expect = i * (s ** (k1 + 1) - s**k1) // c_copies
            bad += int(nxt_start - prev_end) != expect
    return {"scheme": "L", "s": s, "C": c_copies, "gap_violations": bad}
