"""Constructive lower-bound partition built over shifted geometric covers.

The builder selects a chain of disjoint geometric intervals right to left,
then walks left to right: gaps become single partition pieces, and inside a
selected interval each position either contributes a singleton (when the
local two-cut payoff is below the iterated-logarithm threshold) or the two
window-optimal cut points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import _geom_total, _power_index
from .seqcore import prefix_sums
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
    """Per-i2 best two-cut over a window, via running prefix extrema.

    For fixed i2 the payoff is convex in the middle prefix value, so the
    best i1 tracks the running min or max; first occurrences keep ties on
    the smallest index. Returns (row_best, row_i1) arrays indexed by i2-1.
    """
    a = s_seg[0]
    v = s_seg[1:]
    w = len(v)
    run_min = np.minimum.accumulate(v)
    run_max = np.maximum.accumulate(v)
    drop = np.concatenate(([np.inf], run_min[:-1]))
    rise = np.concatenate(([-np.inf], run_max[:-1]))
    steps = np.arange(1, w + 1)
    idx_min = np.maximum.accumulate(np.where(v < drop, steps, 0))
    idx_max = np.maximum.accumulate(np.where(v > rise, steps, 0))
    val_min = (run_min - a) ** 2 + (v - run_min) ** 2
    val_max = (run_max - a) ** 2 + (v - run_max) ** 2
    row_best = np.maximum(val_min, val_max)
    row_i1 = np.where(
        val_min > val_max,
        idx_min,
        np.where(val_max > val_min, idx_max, np.minimum(idx_min, idx_max)),
    )
    return row_best, row_i1


def best_two_cut(x, j: int, window: int) -> TwoCut:
    """Maximize (S_{i1+j}-S_j)^2 + (S_{i2+j}-S_{i1+j})^2 over 1<=i1<=i2<=window.

    Ties break to the smallest i2, then the smallest i1, matching the
    exhaustive scan order. The same scan gives `rate` for the window event.
    """
    walk = prefix_sums(x)
    if j < 0 or window < 1 or j + window > walk.n:
        raise ValueError("window must satisfy 0 <= j and j + window <= N")
    s = walk.values[j : j + window + 1]
    row_best, row_i1 = _two_cut_rows(s)
    i2 = int(np.argmax(row_best)) + 1
    rate = float((row_best / np.arange(1, window + 1)).max())
    return TwoCut(i1=int(row_i1[i2 - 1]), i2=i2, value=float(row_best[i2 - 1]), rate=rate)


def best_two_cut_bruteforce(x, j: int, window: int) -> TwoCut:
    """O(window^2) oracle scanning i2 ascending, then i1 ascending."""
    walk = prefix_sums(x)
    if j < 0 or window < 1 or j + window > walk.n:
        raise ValueError("window must satisfy 0 <= j and j + window <= N")
    s = walk.values[j : j + window + 1]
    a = s[0]
    v = s[1:]
    mid = v[:, None]
    table = (mid - a) ** 2 + (v[None, :] - mid) ** 2  # [i1-1, i2-1]
    table = np.where(np.tril(np.ones_like(table), 0) > 0, table.T, -np.inf)
    flat = int(np.argmax(table))  # row-major: first max has smallest i2 then i1
    i2, i1 = divmod(flat, window)
    rate = float((table.max(axis=1) / np.arange(1, window + 1)).max())
    return TwoCut(i1=i1 + 1, i2=i2 + 1, value=float(table[i2, i1]), rate=rate)


def a_event_holds(x, j: int, window: int, n_ref: int, epsilon3: float) -> bool:
    """True when every normalized two-cut payoff in the window stays below
    2 (1 - eps3) lnln(n_ref); the greedy walk then settles for a singleton."""
    if n_ref < 16:
        raise ValueError("n_ref must be >= 16")
    return best_two_cut(x, j, window).rate < 2.0 * (1.0 - epsilon3) * math.log(math.log(n_ref))


def select_cover_intervals(n_total: int, s: int, c_copies: int) -> list[tuple[int, int]]:
    """The right-to-left chain of disjoint geometric intervals below n_total.

    Each step takes the shifted size-s^k interval ending at the bracketed
    point at or below the previous left endpoint; the walk stops when the
    remaining span drops below s or the wanted shifted interval does not
    exist in its family (shift not divisible). Returned ascending.
    """
    m = _power_index(s, c_copies)
    out: list[tuple[int, int]] = []
    pos = n_total
    while pos >= s:
        k = 0
        while _geom_total(s, k + 1) <= pos:
            k += 1
        shift_unit = s ** (k + 1)
        i = (pos - _geom_total(s, k)) * c_copies // shift_unit
        if i > 0 and (k + 1) < m:
            break  # the shifted interval of this size does not exist
        end = _geom_total(s, k) + i * shift_unit // c_copies
        out.append((end - s**k, end))
        pos = end - s**k
    out.reverse()
    return out


def greedy_partition(x, params: GreedyParams) -> VariationResult:
    """Lower-bound partition from the cover chain plus local two-cut search.

    Inside a covered interval of size `size`, positions advance by singletons
    while the window event holds and by the best two-cut otherwise; a window
    poking past the interval (or the data) closes the piece at the next
    cover start. Sequences shorter than s^2 fall back to the single-interval
    partition.
    """
    walk = prefix_sums(x)
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


def covered_length(n_total: int, s: int, c_copies: int, min_size: int = 1) -> int:
    """Total length of selected cover intervals of size >= min_size."""
    return sum(b - a for a, b in select_cover_intervals(n_total, s, c_copies)
               if b - a >= min_size)
