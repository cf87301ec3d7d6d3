"""Maximal square variation of a sequence's partial sums.

The central quantity is max over partitions of [N] into subintervals of the
sum of squared interval sums. An O(N^2) dynamic program computes it exactly;
a breakpoint-restricted DP gives certified lower bounds and a dyadic-family
scan gives a certified upper bound for sizes where the exact DP is too slow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .seqcore import prefix_sums

EXACT_SIZE_CAP = 1 << 15  # O(N^2) DP refuses larger inputs unless overridden


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
    d = s[b[1:]] - s[b[:-1]]
    contr = d * d if p == 2.0 else np.abs(d) ** p
    value = float(np.sum(contr))
    if not math.isfinite(value):
        raise ValueError(f"variation value overflows float64 (p={p:g})")
    return VariationResult(value, partition, contr)


def _dp_over_allowed(s: np.ndarray, allowed: np.ndarray, p: float) -> Partition:
    """Maximize sum of |S_I|^p over partitions with breakpoints in `allowed`.

    Suffix recurrence G[i] = max_j |A_j - A_i|^p + G[j]. Ties resolve to the
    fewest intervals and then to the lexicographically smallest breakpoint
    vector, which the forward reconstruction below realizes by always taking
    the smallest admissible next breakpoint.
    """
    a = s[allowed]
    m = len(allowed) - 1
    g = np.zeros(m + 1)
    cnt = np.zeros(m + 1, dtype=np.int64)

    def scores(i: int) -> np.ndarray:
        d = a[i + 1 :] - a[i]
        if p == 2.0:
            np.multiply(d, d, out=d)
        else:
            np.abs(d, out=d)
            np.power(d, p, out=d)
        d += g[i + 1 :]
        return d

    for i in range(m - 1, -1, -1):
        cand = scores(i)
        best = cand.max()
        g[i] = best
        ties = np.flatnonzero(cand == best)
        if len(ties) == 1:
            cnt[i] = cnt[i + 1 + ties[0]] + 1
        else:
            cnt[i] = cnt[i + 1 :][ties].min() + 1

    bps = [0]
    i = 0
    while i < m:
        cand = scores(i)
        ok = np.flatnonzero((cand == g[i]) & (cnt[i + 1 :] == cnt[i] - 1))
        i = i + 1 + int(ok[0])
        bps.append(i)
    return Partition(breakpoints=allowed[np.array(bps, dtype=np.int64)])


def sq_variation_exact(x, allow_large: bool = False) -> VariationResult:
    """Exact maximal square variation via the O(N^2) dynamic program."""
    return p_variation_exact(x, 2.0, allow_large=allow_large)


def p_variation_exact(x, p: float, allow_large: bool = False) -> VariationResult:
    """Exact maximal p-variation; p = 2 matches sq_variation_exact bit for bit."""
    if p < 1:
        raise ValueError("p must be >= 1")
    walk = prefix_sums(x)
    n = walk.n
    if n > EXACT_SIZE_CAP and not allow_large:
        raise ValueError(
            f"N={n} exceeds the exact-DP cap {EXACT_SIZE_CAP}; "
            "pass allow_large=True or use the blocked/dyadic bounds"
        )
    part = _dp_over_allowed(walk.values, np.arange(n + 1, dtype=np.int64), float(p))
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
    part = _dp_over_allowed(walk.values, allowed, 2.0)
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


def _level_tilde_sum(s: np.ndarray, length: int, offset: int, count: int) -> float:
    """Sum over `count` aligned intervals of max_k (S_{off+j*len+k}-S_{off+j*len})^2."""
    if count <= 0:
        return 0.0
    seg = s[offset : offset + count * length + 1]
    starts = seg[:-1:length][:count]
    win = seg[1:].reshape(count, length)
    hi = win.max(axis=1) - starts
    lo = win.min(axis=1) - starts
    return float(np.sum(np.maximum(hi * hi, lo * lo)))


def sq_variation_upper_dyadic(x) -> float:
    """Certified upper bound 12 * sum of per-interval prefix maxima.

    Every partition interval embeds in a dyadic or half-shifted family
    interval of less than 4x its length, each family interval hosts at most
    three of them, and the interval maximum is at most 4x the prefix maximum;
    chaining these gives V^2 <= 12 * sum over the family. Inputs whose length
    is not a power of two are zero-padded upward, which cannot lower the bound.
    """
    walk = prefix_sums(x)
    n = walk.n
    npow = 1 << max(0, (n - 1).bit_length())
    s = walk.values
    if npow != n:
        s = np.concatenate([s, np.full(npow - n, s[-1])])
    nlev = npow.bit_length() - 1
    total = 0.0
    for i in range(nlev + 1):
        total += _level_tilde_sum(s, 1 << i, 0, npow >> i)
    for i in range(1, nlev):
        total += _level_tilde_sum(s, 1 << i, 1 << (i - 1), (npow >> i) - 1)
    bound = 12.0 * total
    if not math.isfinite(bound):
        raise ValueError("dyadic upper bound overflows float64")
    return bound

