"""Constructive lower-bound partition built over shifted geometric covers.

The builder selects a chain of disjoint geometric intervals right to left,
then walks left to right: gaps become single partition pieces, and inside a
selected interval each position either contributes a singleton (when the
local two-cut payoff is below the iterated-logarithm threshold) or the two
window-optimal cut points. Every function here takes the walk as a
PrefixSums, which seqcore builds and validates once per input, and reads
windows of its values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import _geom_total, _power_index, l_interval
from .seqcore import PrefixSums
from .variation import Partition, VariationResult, partition_value


@dataclass(frozen=True)
class GreedyParams:
    s: int = 2
    c_copies: int = 4
    alpha: float = 0.25
    epsilon3: float = 0.5

    def __post_init__(self):
        if self.s <= 1:
            raise ValueError("s must be an integer > 1")
        _power_index(self.s, self.c_copies)
        if self.c_copies < self.s * self.s:
            raise ValueError("C must be at least s^2 to keep gap fractions small")
        if not 0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 1/2)")
        if not 0 < self.epsilon3 < 1:
            raise ValueError("epsilon3 must lie in (0, 1)")


@dataclass(frozen=True)
class TwoCut:
    i1: int
    i2: int
    value: float
    rate: float  # max over i2 of (best payoff at that i2) / i2


def _two_cut_rows(s_seg: np.ndarray):
    """Per-i2 best two-cut payoffs over a window, via running prefix extrema.

    For fixed i2 the payoff is convex in the middle prefix value, so the best
    i1 sits at the running min or the running max. Returns the payoff rows
    (val_min, val_max) with the middle cut at each, indexed by i2-1.
    """
    a = s_seg[0]
    v = s_seg[1:]
    run_min = np.minimum.accumulate(v)
    run_max = np.maximum.accumulate(v)
    return (run_min - a) ** 2 + (v - run_min) ** 2, (run_max - a) ** 2 + (v - run_max) ** 2


def best_two_cut(walk: PrefixSums, j: int, window: int) -> TwoCut:
    """Maximize (S_{i1+j}-S_j)^2 + (S_{i2+j}-S_{i1+j})^2 over 1<=i1<=i2<=window.

    Ties break to the smallest i2, then the smallest i1, matching the
    exhaustive scan order: i1 is the first occurrence of the extremum that
    wins at i2, the smaller of the two when both do. The same scan gives
    `rate` for the window event.
    """
    if j < 0 or window < 1 or j + window > walk.n:
        raise ValueError("window must satisfy 0 <= j and j + window <= N")
    s = walk.values[j : j + window + 1]
    val_min, val_max = _two_cut_rows(s)
    row_best = np.maximum(val_min, val_max)
    i2 = int(np.argmax(row_best)) + 1
    rate = float((row_best / np.arange(1, window + 1)).max())
    lo = int(np.argmin(s[1 : i2 + 1])) + 1
    hi = int(np.argmax(s[1 : i2 + 1])) + 1
    at_lo, at_hi = val_min[i2 - 1], val_max[i2 - 1]
    i1 = lo if at_lo > at_hi else hi if at_hi > at_lo else min(lo, hi)
    return TwoCut(i1=i1, i2=i2, value=float(row_best[i2 - 1]), rate=rate)


def a_event_holds(walk: PrefixSums, j: int, window: int, n_ref: int, epsilon3: float) -> bool:
    """True when every normalized two-cut payoff in the window stays below
    2 (1 - eps3) lnln(n_ref); the greedy walk then settles for a singleton."""
    if n_ref < 16:
        raise ValueError("n_ref must be >= 16")
    return best_two_cut(walk, j, window).rate < 2.0 * (1.0 - epsilon3) * math.log(math.log(n_ref))


def select_cover_intervals(n_total: int, s: int, c_copies: int) -> list[tuple[int, int]]:
    """The right-to-left chain of disjoint L-family intervals below n_total.

    Each step brackets the previous left endpoint between 1 + ... + s^k and
    1 + ... + s^(k+1) and takes the size-s^k interval of the copy L_i with the
    largest shift i*s^(k+1)/C that keeps its end at or below it; the walk stops
    when the remaining span drops below s or that copy has no interval of this
    size. Returned ascending.
    """
    _power_index(s, c_copies)
    out: list[tuple[int, int]] = []
    pos = n_total
    while pos >= s:
        k = 0
        while _geom_total(s, k + 1) <= pos:
            k += 1
        iv = l_interval(s, c_copies, (pos - _geom_total(s, k)) * c_copies // s ** (k + 1), k)
        if iv is None:
            break
        out.append(iv)
        pos = iv[0]
    out.reverse()
    return out


@np.errstate(over="ignore")  # partition_value refuses what overflows here
def greedy_partition(walk: PrefixSums, params: GreedyParams) -> VariationResult:
    """Lower-bound partition from the cover chain plus local two-cut search.

    Inside a covered interval of size `size`, positions advance by singletons
    while the window event holds and by the best two-cut otherwise; a window
    poking past the interval (or the data) closes the piece at the next
    cover start. Sequences shorter than s^2 fall back to the single-interval
    partition.
    """
    n = walk.n
    if n < params.s * params.s:
        return partition_value(walk, Partition(np.array([0, n])))
    cover = select_cover_intervals(n, params.s, params.c_copies)
    threshold = 2.0 * (1.0 - params.epsilon3) * math.log(math.log(n))
    bps = [0]
    p = 0
    for a, b in cover:
        if p < a:
            bps.append(a)
            p = a
        size = b - a
        w = max(1, int(size ** (1.0 - params.alpha)))
        while p < b:
            if p + w > n:
                break  # window has no data; close at the next cover start
            cut = best_two_cut(walk, p, w)
            if cut.rate < threshold:  # the window event of a_event_holds
                p += 1
                bps.append(p)
            elif p + w <= b:
                bps.append(p + cut.i1)
                if cut.i2 != cut.i1:
                    bps.append(p + cut.i2)
                p += cut.i2
            else:
                break  # overrun: close at the next cover start
    if p < n:
        bps.append(n)
    return partition_value(walk, Partition(np.array(bps, dtype=np.int64)))

