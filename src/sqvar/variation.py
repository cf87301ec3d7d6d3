"""Maximal square variation of a sequence's partial sums.

The central quantity is max over partitions of [N] into subintervals of the
sum of squared interval sums. One dynamic program computes it exactly:
breakpoints are restricted to turning points of the walk and, after each
breakpoint, to the chains of running records that can follow it (Butkus &
Norvaisa, "Computation of p-variation", Lithuanian Math. J. 58, 2018). On a
mean-zero walk that takes near-linear time, on a walk with drift O(N^2). The
same kernel on a subsampled walk gives the blocked lower bound, and an O(N)
max/min pyramid over the dyadic families gives a certified upper bound.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .seqcore import prefix_sums

@dataclass(frozen=True)
class Partition:
    """Strictly increasing integer breakpoints 0 = b_0 < ... < b_k = N."""

    breakpoints: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=np.int64)
        if b.ndim != 1 or len(b) < 2 or b[0] != 0 or np.any(np.diff(b) <= 0):
            raise ValueError("breakpoints must start at 0 and strictly increase")
        object.__setattr__(self, "breakpoints", b)

    @property
    def n(self) -> int:
        return int(self.breakpoints[-1])

    def __len__(self) -> int:
        return len(self.breakpoints) - 1


@dataclass(frozen=True)
class VariationResult:
    value: float
    partition: Partition
    contributions: np.ndarray

    def to_json(self) -> str:
        return json.dumps(
            {"value": self.value, "breakpoints": self.partition.breakpoints.tolist()}
        )


def _power(d: np.ndarray, p: float) -> np.ndarray:
    """|d|^p elementwise; the one rule that every DP score and value uses."""
    return d * d if p == 2.0 else np.abs(d) ** p


def partition_value(x, partition: Partition, p: float = 2.0) -> VariationResult:
    """Evaluate sum of |S_I|^p over a given partition's intervals.

    Every exact, blocked and greedy value is scored here, so this is where a
    value too large for float64 is refused.
    """
    walk = prefix_sums(x)
    if partition.n != walk.n:
        raise ValueError("partition does not match the sequence length")
    s = walk.values
    b = partition.breakpoints
    contr = _power(s[b[1:]] - s[b[:-1]], p)
    value = float(np.sum(contr))
    if not math.isfinite(value):
        raise ValueError(f"variation value overflows float64 (p={p:g})")
    return VariationResult(value, partition, contr)


_DP_PASS = 1 << 10  # short chains of this many points are scored per numpy call
_DP_LONG = 1 << 8  # a chain with more candidates is scored on its own


def _dp_breakpoints(a: np.ndarray, p: float) -> np.ndarray:
    """Breakpoints, as indices into the walk a, maximizing sum |a_j - a_i|^p.

    For p >= 1 an optimal partition with the fewest intervals breaks only at
    the first point of a local extremum of a: adjacent pieces of one sign
    merge without loss, and a breakpoint moved to the extreme of its two
    pieces raises both. If a rises above a[i] before it drops below, the
    breakpoint after i is the end or a strict running-maximum record of a
    from i taken before that drop; in the other case it is the end or a
    strict running-minimum record taken before the rise. So each point has
    one ascending record chain as candidates, and the suffix recurrence
    G[i] = max_j |a_j - a_i|^p + G[j] runs over them. Ties resolve to the
    fewest intervals and then to the smallest next breakpoint, which gives
    the lexicographically smallest breakpoint vector.

    The time is the total chain length. On a mean-zero walk the chains are
    short (about 8 candidates per turning point at N = 1e6, Gaussian) and the
    time is near-linear; on a walk with drift the chains grow with N and the
    time is O(N^2), each long chain scored in one numpy call as the full DP
    scores a row. Memory is O(N): one pass holds at most _DP_PASS chains of at
    most _DP_LONG candidates each.
    """
    step = np.sign(np.diff(a))  # turn: a strict step in, another step out
    turns = np.flatnonzero((step[:-1] != 0) & (step[1:] != step[:-1])) + 1
    idx = np.concatenate(([0], turns, [len(a) - 1]))
    # The suffix recurrence on the turning points c is a prefix recurrence on
    # b = c reversed: point q of b is point m - q of c, and the candidates of
    # q are the end (q' = 0) and a record chain of b to the left of q.
    b = a[idx[::-1]]
    vals = b.tolist()
    m = len(vals) - 1
    g, cnt, prev = [0.0] * (m + 1), [0] * (m + 1), [0] * (m + 1)

    # scanning rightwards, after the pops `highs` holds the strict running-
    # maximum records of b left of q, read leftwards from q, and `lows` the
    # strict running-minimum ones, nearest (the previous greater and the
    # previous smaller point) on top. A long chain is scored from numpy copies
    # hm, lm of the stacks and gn, cn of g, cnt (current below `done`), which
    # are brought up to date only then.
    highs, lows = [0], [0]
    hm, lm = np.zeros(m + 1, dtype=np.int64), np.zeros(m + 1, dtype=np.int64)
    gn, cn = np.zeros(m + 1), np.zeros(m + 1, dtype=np.int64)
    q = done = 0
    while q < m:
        points, dst, first, long = [], [], [0], False
        for q in range(q + 1, min(q + _DP_PASS, m) + 1):
            v = vals[q]
            while highs and vals[highs[-1]] <= v:
                highs.pop()
            while lows and vals[lows[-1]] >= v:
                lows.pop()
            up, down = highs[-1] if highs else 0, lows[-1] if lows else 0
            chain, stop = (highs, down) if up > down else (lows, up)
            pos = bisect_right(chain, stop)  # chain[pos:] lies right of stop
            n = len(chain)
            long = n - pos > _DP_LONG
            if not long:
                dst.append(0)  # the candidates, from the farthest q' up
                dst += chain[pos:]
                first.append(len(dst))
                points.append(q)
            highs.append(q)
            lows.append(q)
            if long:
                break
        d = b[dst] - np.repeat(b[points], np.diff(first))
        w = _power(d, p).tolist()
        for r, k in enumerate(points):
            best, fewest, pick = -math.inf, 0, 0
            for e in range(first[r], first[r + 1]):
                j = dst[e]
                v = w[e] + g[j]
                if v > best or (v == best and cnt[j] <= fewest):
                    best, fewest, pick = v, cnt[j], j
            g[k], cnt[k], prev[k] = best, fewest + 1, pick
        if long:
            # each point is pushed once, so the copy still agrees with the
            # stack up to the first position where it differs
            mirror = hm if chain is highs else lm
            lo = bisect_left(range(n), True, key=lambda k: mirror[k] != chain[k])
            mirror[lo:n] = chain[lo:n]
            gn[done:q], cn[done:q], done = g[done:q], cnt[done:q], q
            js = np.append(0, mirror[pos:n])
            w = _power(b[js] - vals[q], p)
            w += gn[js]
            best = w.max()
            ok, cj = w == best, cn[js]
            fewest = cj[ok].min()
            g[q], cnt[q], prev[q] = float(best), int(fewest) + 1, int(js[ok & (cj == fewest)].max())

    bps = [m]
    while bps[-1] != 0:
        bps.append(prev[bps[-1]])
    return idx[m - np.array(bps)]


def sq_variation_exact(x) -> VariationResult:
    """Exact maximal square variation, with the fewest intervals and then the
    lexicographically smallest breakpoints among the optimal partitions."""
    return p_variation_exact(x, 2.0)


def p_variation_exact(x, p: float) -> VariationResult:
    """Exact maximal p-variation for p >= 1 by the turning-point and record-chain
    DP, under the same tie rule; p = 2 matches sq_variation_exact bit for bit."""
    if not (math.isfinite(p) and p >= 1):
        raise ValueError("p must be finite and >= 1")
    walk = prefix_sums(x)
    part = Partition(_dp_breakpoints(walk.values, float(p)))
    return partition_value(walk, part, float(p))


def sq_variation_blocked(x, block: int) -> VariationResult:
    """Lower bound: DP restricted to breakpoints at multiples of `block`.

    block=1 is the exact DP; block=N forces the single interval (0, N].
    """
    walk = prefix_sums(x)
    n = walk.n
    if not 1 <= block <= n:
        raise ValueError("need 1 <= block <= N")
    allowed = np.arange(0, n + 1, block, dtype=np.int64)
    if allowed[-1] != n:
        allowed = np.append(allowed, n)
    part = Partition(allowed[_dp_breakpoints(walk.values[allowed], 2.0)])
    return partition_value(walk, part, 2.0)


# --- certified upper bound over the dyadic family ---------------------------

_BF_CAP = 22


def sq_variation_bruteforce(x, p: float = 2.0) -> float:
    """Independent oracle: enumerate all 2^(N-1) breakpoint subsets."""
    walk = prefix_sums(x)
    n = walk.n
    if n > _BF_CAP:
        raise ValueError(f"brute force limited to N <= {_BF_CAP}")
    s = walk.values
    best = -np.inf
    chunk = 1 << 16
    total = 1 << (n - 1)
    for base in range(0, total, chunk):
        masks = np.arange(base, min(base + chunk, total), dtype=np.uint64)
        m = len(masks)
        cuts = np.ones((m, n + 1), dtype=bool)
        for k in range(1, n):
            cuts[:, k] = (masks >> np.uint64(k - 1)) & np.uint64(1)
        idx = np.where(cuts, np.arange(n + 1, dtype=np.int64), 0)
        prev = np.maximum.accumulate(idx, axis=1)
        diffs = s[np.arange(1, n + 1)][None, :] - s[prev[:, :-1]]
        if p == 2.0:
            vals = diffs * diffs
        else:
            vals = np.abs(diffs) ** p
        vals = np.where(cuts[:, 1:], vals, 0.0)
        best = max(best, float(vals.sum(axis=1).max()))
    return best


def sq_variation_upper_dyadic(x) -> float:
    """Certified upper bound 12 * sum of per-interval prefix maxima.

    Every partition interval embeds in a dyadic or half-shifted family
    interval of less than 4x its length, each family interval hosts at most
    three of them, and the interval maximum is at most 4x the prefix maximum;
    chaining these gives V^2 <= 12 * sum over the family. Inputs whose length
    is not a power of two are zero-padded upward, which cannot lower the bound.

    Level i holds the max and min of S over aligned blocks of 2^i steps, taken
    pairwise from level i-1, and a half-shifted level-i interval is the union
    of aligned blocks 2j+1 and 2j+2 of level i-1. One streaming pass takes O(N)
    time, with the current level and its temporaries as extra memory, and adds
    the level sums aligned first, then shifted, each in increasing i.
    """
    walk = prefix_sums(x)
    n = walk.n
    npow = 1 << max(0, (n - 1).bit_length())
    s = walk.values
    if npow != n:
        s = np.concatenate([s, np.full(npow - n, s[-1])])
    nlev = npow.bit_length() - 1

    def tilde_sum(hi, lo, starts):  # sum of max_k (S_{a+k} - S_a)^2 over a family
        hi, lo = hi - starts, lo - starts
        return float(np.sum(np.maximum(np.multiply(hi, hi, out=hi), lo * lo, out=hi)))

    total, shifted = 0.0, []
    hi = lo = s[1:]
    for i in range(nlev + 1):
        total += tilde_sum(hi, lo, s[0:npow:1 << i])
        if i + 1 < nlev:  # the shifted level i + 1, from blocks of 2^i
            h = 1 << i
            shifted.append(tilde_sum(np.maximum(hi[1:-1:2], hi[2::2]),
                                     np.minimum(lo[1:-1:2], lo[2::2]), s[h:npow - h:2 * h]))
        if i < nlev:
            hi, lo = np.maximum(hi[0::2], hi[1::2]), np.minimum(lo[0::2], lo[1::2])
    for v in shifted:
        total += v
    bound = 12.0 * total
    if not math.isfinite(bound):
        raise ValueError("dyadic upper bound overflows float64")
    return bound
