"""Maximal square variation of a sequence's partial sums.

The central quantity is max over partitions of [N] into subintervals of the
sum of squared interval sums. One dynamic program computes it exactly:
breakpoints are restricted to turning points of the walk and, after each
breakpoint, to the chains of running records that can follow it (Butkus &
Norvaisa, "Computation of p-variation", Lithuanian Math. J. 58, 2018). On a
mean-zero walk that takes near-linear time, on a walk with drift O(N^2). The
same kernel on a subsampled walk gives the blocked lower bound, and an O(N)
max/min pyramid over the dyadic families gives a certified upper bound.

Every function here takes the walk S_0..S_N as a PrefixSums, which seqcore
builds and validates once per input, and reads its values; none sums samples.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .seqcore import _CHUNK, PrefixSums


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
    """|d|^p elementwise: every partition value, and the DP score of a long chain."""
    return d * d if p == 2.0 else np.abs(d) ** p


@np.errstate(over="ignore")  # an overflowing value is refused below, by name
def partition_value(walk: PrefixSums, partition: Partition, p: float = 2.0) -> VariationResult:
    """Evaluate sum of |S_I|^p over a given partition's intervals.

    Every exact, blocked and greedy value is scored here, so this is where a
    value too large for float64 is refused.
    """
    if partition.n != walk.n:
        raise ValueError("partition does not match the sequence length")
    s = walk.values
    b = partition.breakpoints
    contr = _power(s[b[1:]] - s[b[:-1]], p)
    value = float(np.sum(contr))
    if not math.isfinite(value):
        raise ValueError(f"variation value overflows float64 (p={p:g})")
    return VariationResult(value, partition, contr)


_DP_LONG = 1 << 8  # a chain with more candidates is scored in one numpy call
_DP_CHUNK = 1 << 12  # turning-point values held as Python floats at a time


@np.errstate(over="ignore")  # partition_value refuses what overflows here
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
    the lexicographically smallest breakpoint vector. The second rule is
    reached in float64: two records whose differences from a[i] round to one
    float, each followed by the same rounded score, tie on both counts.

    The suffix recurrence on the turning points c is a prefix recurrence on
    b = c reversed, which _dp_fold runs; this driver hands it b a _DP_CHUNK of
    Python floats at a time and reads the breakpoints back from its `prev`.

    The time is the total chain length. On a mean-zero walk the chains are
    short (about 8 candidates per turning point at N = 1e6, Gaussian) and the
    time is near-linear; on a walk with drift the chains grow with N and the
    time is O(N^2), each long chain scored in one numpy call as the full DP
    scores a row. Two arrays grow with N, the turning points' indices and
    `prev`, at 8 bytes per turning point each; finding the turning points
    takes three boolean arrays of a byte per point, freed before the fold.
    The record stacks hold 0.8-1.3 sqrt(N) entries on a mean-zero walk, and
    up to one per turning point on a walk with drift. The tracemalloc peak is
    8-14 bytes per point of N at N = 2^16 ... 2^22 on Gaussian, Rademacher
    and {-1, 0, 1} steps, and about 45 with drift.
    """
    up = a[1:] > a[:-1]  # a turn: a strict step in, not the same step out
    turn = np.ones(len(a), dtype=bool)  # and the two ends
    np.greater(up[:-1], up[1:], out=turn[1:-1])
    del up
    down = a[1:] < a[:-1]
    turn[1:-1] |= down[:-1] > down[1:]
    del down
    idx = np.flatnonzero(turn)
    del turn
    m = len(idx) - 1
    rev = idx[::-1]  # point q of b is a[rev[q]]
    prev = array("q", [0]) * (m + 1)
    chunks = (a[rev[lo:lo + _DP_CHUNK]].tolist() for lo in range(2, m + 1, _DP_CHUNK))
    _dp_fold(float(a[rev[0]]), float(a[rev[1]]), chunks, p, prev)
    bps = [m]
    while bps[-1] != 0:
        bps.append(prev[bps[-1]])
    return idx[m - np.array(bps)]


def _dp_fold(end: float, first: float, chunks, p: float, prev) -> None:
    """Run the record-chain recurrence g[q] = max over q' in {0} + chain(q) of
    |b[q'] - b[q]|^p + g[q'] on the points b[0] = end, b[1] = first, and the
    lists of floats in chunks, which carry b[2], b[3], ... in order, and write
    the tie rule's pick q' into prev[q] (prev[1] = 0 is the caller's).

    Scanning rightwards, `highs` holds the strict running-maximum records of b
    left of q, read leftwards from q, and `lows` the strict running-minimum
    ones, nearest (the previous greater and the previous smaller point) on
    top, each as (index, value, g, cnt), above a sentinel of value +inf, -inf
    and index -1, -2: no pop passes it, the bisection skips it and, as a stop,
    it lies left of every point. Only the stacks hold a point's value, g and
    cnt, so on a mean-zero walk nothing here but `prev` grows with the number
    of points. The end q' = 0 is scored on its own. Adjacent turning
    points differ but for the end and its neighbour, so each q > 1 rises or
    falls from q - 1: a rise pops `highs` only and takes its chain from
    `lows`, a fall the other way round, and q - 1 is pushed, on entry to q,
    onto the stack that q takes its chain from, of which it is then the top.

    Every candidate is scored as |b[q'] - b[q]|^p + g[q'], and the candidates
    of a point are compared in one order, from the end to the nearest record,
    a later one winning a tie in score and count. A chain of at most _DP_LONG
    candidates is scored in the stack walk itself, by d * d at p = 2 and by
    Python's abs(d) ** p off 2; a longer one is scored in one numpy call by
    _power, on the end and the chain's rows of a numpy mirror of its stack.
    Each point is pushed once, so a mirror agrees with its stack up to the
    lowest position popped since its last copy, and is copied from there on.
    At p = 2 both scorings give the same float; off 2 numpy's ** can differ
    from Python's in the last bit, which changes a partition only where two
    candidates tie to within an ulp.
    """
    square, long = p == 2.0, _DP_LONG
    highs, lows = [(-1, math.inf, 0.0, 0)], [(-2, -math.inf, 0.0, 0)]
    hix, lix = [-1], [-2]  # the stacks' indices, which the bisection reads
    # per stack, keyed by its sentinel: rows value, g, cnt of its entries as of
    # the last long chain it gave, and their indices
    mirrors = {-1: [np.empty((3, 1)), [-1]], -2: [np.empty((3, 1)), [-2]]}
    d = end - first
    pv, pg, pc = first, d * d if square else abs(d) ** p, 1
    q = 1
    for chunk in chunks:
        for v in chunk:
            if v > pv:
                lows.append((q, pv, pg, pc))
                lix.append(q)
                while highs[-1][1] <= v:
                    highs.pop()
                    hix.pop()
                chain, cix, stop = lows, lix, hix[-1]
            else:
                highs.append((q, pv, pg, pc))
                hix.append(q)
                while lows[-1][1] >= v:
                    lows.pop()
                    lix.pop()
                chain, cix, stop = highs, hix, lix[-1]
            q += 1
            pos = bisect_right(cix, stop, 1)  # chain[pos:] lies right of stop
            n = len(chain)
            if n - pos <= long:  # the end q' = 0, then the chain from the farthest up
                d = end - v
                best, fewest, pick = d * d if square else abs(d) ** p, 0, 0
                for j, u, g, c in chain[pos:]:
                    d = u - v
                    w = (d * d if square else abs(d) ** p) + g
                    if w > best or (w == best and c <= fewest):
                        best, fewest, pick = w, c, j
            else:
                mirror, mix = mirrors[cix[0]]
                lo = bisect_left(range(min(len(mix), n)), True, 1, key=lambda k: mix[k] != cix[k])
                if mirror.shape[1] < n:
                    grown = np.empty((3, 2 * n))
                    grown[:, :lo] = mirror[:, :lo]
                    mirror = mirrors[cix[0]][0] = grown
                mirror[:, lo:n] = list(zip(*chain[lo:n]))[1:]
                mix[lo:] = cix[lo:n]
                rows = mirror[:, pos - 1:n].copy()  # the end in column 0, then the chain
                rows[:, 0] = end, 0.0, 0.0
                w = _power(rows[0] - v, p)
                w += rows[1]
                best = w.max()
                ok, cj = w == best, rows[2]
                fewest = cj[ok].min()
                r = np.flatnonzero(ok & (cj == fewest))[-1]
                best, fewest, pick = float(best), int(fewest), cix[pos - 1 + r] if r else 0
            prev[q] = pick
            pv, pg, pc = v, best, fewest + 1


def sq_variation_exact(walk: PrefixSums) -> VariationResult:
    """Exact maximal square variation, with the fewest intervals and then the
    lexicographically smallest breakpoints among the optimal partitions."""
    return p_variation_exact(walk, 2.0)


def p_variation_exact(walk: PrefixSums, p: float) -> VariationResult:
    """Exact maximal p-variation for p >= 1 by the turning-point and record-chain
    DP, under the same tie rule; p = 2 matches sq_variation_exact bit for bit."""
    if not (math.isfinite(p) and p >= 1):
        raise ValueError("p must be finite and >= 1")
    try:  # Python's float ** raises where numpy's gives inf
        part = Partition(_dp_breakpoints(walk.values, float(p)))
    except OverflowError:
        raise ValueError(f"variation value overflows float64 (p={p:g})") from None
    return partition_value(walk, part, float(p))


def sq_variation_blocked(walk: PrefixSums, block: int) -> VariationResult:
    """Lower bound: DP restricted to breakpoints at multiples of `block`.

    block=1 is the exact DP; block=N forces the single interval (0, N].
    """
    n = walk.n
    if not 1 <= block <= n:
        raise ValueError("need 1 <= block <= N")
    allowed = np.arange(0, n + 1, block, dtype=np.int64)
    if allowed[-1] != n:
        allowed = np.append(allowed, n)
    part = Partition(allowed[_dp_breakpoints(walk.values[allowed], 2.0)])
    return partition_value(walk, part, 2.0)


# --- certified upper bound over the dyadic family ---------------------------

_LOW = 8  # levels below this one are summed a slice of the walk at a time
_CONTEXT = 8 << _LOW  # steps before a slice that its shifted terms reach back to


def _pairwise(lo: int, hi: int, leaf):
    """The sum of leaf(a, b) over the nodes [a, b) of [lo, hi) in np.sum's
    pairwise order: a node of more than _CHUNK elements is split at half its
    length rounded down to a multiple of 8, and its halves' sums are added.

    numpy sums a contiguous float64 array this way at every node of more than
    128 elements, so with leaf(a, b) = np.sum(x[a:b]) this is np.sum(x[lo:hi])
    bit for bit (a test pins the rule). leaf may return an array of sums,
    which are then added elementwise in the same order.
    """
    n = hi - lo
    if n <= _CHUNK:
        return leaf(lo, hi)
    half = n // 2 - n // 2 % 8
    return _pairwise(lo, lo + half, leaf) + _pairwise(lo + half, hi, leaf)


# out is positional where numpy allows it: on the short top levels the
# keyword's parsing costs more than the arithmetic.
def _tilde_sum(hi, lo, starts, a, b):  # sum of max_k (S_{a+k} - S_a)^2 over a family
    np.multiply(np.subtract(hi, starts, a), a, a)  # squared before b is
    np.multiply(np.subtract(lo, starts, b), b, b)  # written: a may be b
    return np.maximum(a, b, out=a).sum()


def _levels(hi, lo, x, ext, first, last, count, buf):
    """Level sums of one run of blocks: the aligned sums of levels 0 .. count-1
    and the shifted sums of those of levels 1 .. count that have terms, and
    (hi, lo) of level count.

    Block j of level i has the max hi and min lo of the walk over its 2^i
    steps and starts at x[j << i]; block j of level i + 1 is the union of
    blocks 2j and 2j + 1, and shifted block j of level i + 1 that of blocks
    2j + 1 and 2j + 2. The first ext >> i blocks of level i precede the run:
    its shifted terms reach back 15 of them, its aligned terms do not. The
    run's shifted terms are those of a run of the whole level moved 8 terms
    to the left, less 8 at the level's start (first) and plus 7 at its end
    (last). hi is lo at level 0 of the walk, which is read in place; every
    later level is built in buf, of at least 1.5 len(hi) floats, in the half
    that its parent does not occupy, and the parent is then squared in place.
    """
    aligned, shifted = [], []
    halves = buf[:len(hi)], buf[len(hi):]  # level i + 1 is built in halves[i % 2]
    for i in range(count):
        h, e, m = 1 << i, ext >> i, len(hi) // 2
        spare, starts = halves[i % 2], x[ext:len(hi) << i:h]
        if hi is lo:  # the walk: its squared steps go to spare
            d = np.subtract(hi[e:], starts, spare[:len(hi) - e])
            aligned.append(np.multiply(d, d, d).sum())
        c = m - e // 2 - (8 if first else 0) + (7 if last else 0)
        if c > 0:  # the shifted level i + 1, from blocks of 2^i; none of one block
            f = 1 if first else e - 15
            a, b = spare[:c], spare[c:2 * c]
            np.maximum(hi[f:f + 2 * c:2], hi[f + 1:f + 2 * c:2], out=a)
            np.minimum(lo[f:f + 2 * c:2], lo[f + 1:f + 2 * c:2], out=b)
            shifted.append(_tilde_sum(a, b, x[f * h:(f + 2 * c) * h:2 * h], a, b))
        up_hi, up_lo = spare[:m], spare[m:2 * m]
        np.maximum(hi[0::2], hi[1::2], out=up_hi)
        np.minimum(lo[0::2], lo[1::2], out=up_lo)
        if hi is not lo:  # level i, no longer needed, is consumed in place
            if e:
                hi, lo = hi[e:], lo[e:]
            aligned.append(_tilde_sum(hi, lo, starts, hi, lo))
        hi, lo = up_hi, up_lo
    return aligned, shifted, hi, lo


@np.errstate(over="ignore")  # an overflowing bound is refused below, by name
def sq_variation_upper_dyadic(walk: PrefixSums) -> float:
    """Certified upper bound 12 * sum of per-interval prefix maxima.

    Every partition interval embeds in a dyadic or half-shifted family
    interval of less than 4x its length, each family interval hosts at most
    three of them, and the interval maximum is at most 4x the prefix maximum;
    chaining these gives V^2 <= 12 * sum over the family. A walk whose N is
    not a power of two is extended upward with S_N, that is with zero steps,
    which cannot lower the bound.

    Level i holds the max and min of S over aligned blocks of 2^i steps, taken
    pairwise from level i-1, and a half-shifted level-i interval is the union
    of aligned blocks 2j+1 and 2j+2 of level i-1. One order defines the
    float: each level's terms are summed as np.sum sums one array of them,
    and the level sums are added aligned first, then shifted, each in
    increasing i. The time is O(N).

    With P = 2^ceil(log2 N), the walk is read in place a _CHUNK-step slice at
    a time (the slice that reaches past N is a copy with the tail S_N, and a
    slice wholly past N adds zeros); up to P = _CHUNK there is one slice. Each
    slice builds levels 0 .. low - 1 of its steps, low = min(_LOW, log2 P),
    sums its share of their aligned and shifted terms, and leaves its blocks
    of level low, from which the levels above are built whole; one buffer of
    1.5 times the larger of a slice and level low serves both. _pairwise adds
    the slices' sums in np.sum's order, numpy's pairwise summation: a run of
    more than 128 terms is split at half its length rounded down to a multiple
    of 8. On the P / 2^i terms of aligned level i that splits at the slice
    boundaries, each slice's share being _CHUNK / 2^i >= 128 terms; on the
    P / 2^i - 1 terms of a shifted level it splits at the same boundaries
    moved 8 terms to the left, so each slice also reads the 8 << _LOW steps
    before it. Beside the walk this holds O(min(P, _CHUNK) + P / 2^_LOW)
    floats: 0.4 MB at N = 2^16, 0.5 MB at 2^20 and 1.0 MB at 2^20 + 1, on an
    8 MB walk. If numpy changes its summation rule,
    test_np_sum_is_the_pairwise_rule fails.
    """
    n, s = walk.n, walk.values
    npow = 1 << max(0, (n - 1).bit_length())
    nlev = npow.bit_length() - 1
    low = min(_LOW, nlev)
    buf = np.empty(3 * max(min(npow, _CHUNK + _CONTEXT), npow >> low) // 2)
    base_hi, base_lo = np.empty(npow >> low), np.empty(npow >> low)

    def leaf(a, b):  # the sums of levels below low over steps a .. b - 1
        ext, out = min(a, _CONTEXT), slice(a >> low, b >> low)
        if a - ext >= n:  # every block is the point S_N: every term is 0
            base_hi[out] = base_lo[out] = s[n]
            return np.zeros(2 * low)
        x = s[a - ext:b + 1] if b <= n else np.concatenate((s[a - ext:], np.full(b - n, s[n])))
        steps = x[1:]
        aligned, shifted, hi, lo = _levels(steps, steps, x, ext, a == 0, b == npow, low, buf)
        base_hi[out], base_lo[out] = hi[ext >> low:], lo[ext >> low:]
        return np.array(aligned + shifted)

    sums = _pairwise(0, npow, leaf).tolist()
    x = np.full(npow >> low, s[n])  # the base level's starts
    starts = s[0:npow:1 << low]
    x[:len(starts)] = starts
    aligned, shifted, hi, lo = _levels(base_hi, base_lo, x, 0, True, True, nlev - low, buf)
    aligned, shifted = sums[:low] + aligned, sums[low:] + shifted
    total = 0.0
    for v in aligned + [_tilde_sum(hi, lo, x[0:1], hi, lo)] + shifted:
        total += v
    bound = 12.0 * float(total)
    if not math.isfinite(bound):
        raise ValueError("dyadic upper bound overflows float64")
    return bound
