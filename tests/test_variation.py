import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqvar import variation
from sqvar.classify import classify_partition
from sqvar.greedy import GreedyParams, greedy_partition
from sqvar.seqcore import DistributionSpec, prefix_sums, sample_sequence
from sqvar.variation import (
    Partition,
    _dp_breakpoints,
    p_variation_exact,
    partition_value,
    sq_variation_blocked,
    sq_variation_exact,
    sq_variation_upper_dyadic,
)

from oracles import sq_variation_bruteforce

KINDS = [
    DistributionSpec("rademacher"),
    DistributionSpec("gaussian"),
    DistributionSpec("uniform"),
    DistributionSpec("pareto", tail_exponent=4.0),
    DistributionSpec("logtail"),
]


def test_single_element():
    res = sq_variation_exact(prefix_sums([2.5]))
    assert res.value == 6.25
    assert res.partition.breakpoints.tolist() == [0, 1]


def test_worked_examples():
    res = sq_variation_exact(prefix_sums([2, 1, -3]))
    assert res.value == 18.0
    assert res.partition.breakpoints.tolist() == [0, 2, 3]
    res = sq_variation_exact(prefix_sums([3, -1, 2]))
    assert res.value == 16.0
    assert res.partition.breakpoints.tolist() == [0, 3]


def test_bruteforce_tiny_cases():
    assert sq_variation_bruteforce(prefix_sums([1, 1])) == 4.0
    assert sq_variation_bruteforce(prefix_sums([1, -1])) == 2.0
    assert sq_variation_bruteforce(prefix_sums([2, 1, -3])) == 18.0
    with pytest.raises(ValueError):
        sq_variation_bruteforce(prefix_sums(np.zeros(23)))


def test_exact_equals_bruteforce_random():
    for i, spec in enumerate(KINDS):
        for trial in range(100):
            n = 1 + (trial % 12)
            walk = prefix_sums(sample_sequence(spec, n, 1000 * i + trial))
            assert sq_variation_exact(walk).value == pytest.approx(
                sq_variation_bruteforce(walk), abs=1e-9
            )


def test_tie_break_fewest_then_lex():
    # all-zero data: any partition scores 0; canonical answer is one interval
    res = sq_variation_exact(prefix_sums(np.zeros(6)))
    assert res.partition.breakpoints.tolist() == [0, 6]
    # [1, -1, 1]: best value 3 only via singletons
    res = sq_variation_exact(prefix_sums([1.0, -1.0, 1.0]))
    assert res.value == 3.0
    assert res.partition.breakpoints.tolist() == [0, 1, 2, 3]
    # two optimal partitions of [1,1]: (0,2] wins over singletons? value differs
    # here, so craft a genuine tie: x = [1, 0] has V2=1 via (0,2] or (0,1]+(1,2]
    res = sq_variation_exact(prefix_sums([1.0, 0.0]))
    assert res.value == 1.0
    assert res.partition.breakpoints.tolist() == [0, 2]


def test_contributions_reproduce_value():
    for trial in range(20):
        seq = sample_sequence(DistributionSpec("gaussian"), 200, trial)
        res = sq_variation_exact(prefix_sums(seq))
        assert np.sum(res.contributions) == pytest.approx(res.value, rel=1e-12)
        b = res.partition.breakpoints
        assert b[0] == 0 and b[-1] == len(seq)


def test_p_variation():
    x = prefix_sums([2, 1, -3])
    assert p_variation_exact(x, 2.0).value == sq_variation_exact(x).value
    res = p_variation_exact(prefix_sums([1, -1]), 1.0)
    assert res.value == 2.0
    # p=3 brute-force check
    for trial in range(50):
        seq = prefix_sums(sample_sequence(DistributionSpec("gaussian"), 1 + trial % 10, trial))
        assert p_variation_exact(seq, 3.0).value == pytest.approx(
            sq_variation_bruteforce(seq, p=3.0), abs=1e-9
        )
    with pytest.raises(ValueError):
        p_variation_exact(x, 0.5)


def test_p2_bitwise_agreement():
    seq = prefix_sums(sample_sequence(DistributionSpec("gaussian"), 300, 17))
    a = sq_variation_exact(seq)
    b = p_variation_exact(seq, 2)
    assert a.value == b.value
    assert np.array_equal(a.partition.breakpoints, b.partition.breakpoints)


def test_blocked_endpoints_and_bounds():
    seq = sample_sequence(DistributionSpec("gaussian"), 200, 5)
    walk = prefix_sums(seq)
    exact = sq_variation_exact(walk)
    b1 = sq_variation_blocked(walk, 1)
    assert b1.value == exact.value
    assert np.array_equal(b1.partition.breakpoints, exact.partition.breakpoints)
    bn = sq_variation_blocked(walk, len(seq))
    total = float(np.sum(seq))
    assert bn.value == pytest.approx(total * total, rel=1e-12)
    b4 = sq_variation_blocked(walk, 4)
    assert b4.value <= exact.value
    assert np.all(np.isin(b4.partition.breakpoints[:-1] % 4, [0]))


def test_blocked_monotone_in_block():
    for trial in range(10):
        seq = prefix_sums(sample_sequence(DistributionSpec("uniform"), 240, trial))
        v2 = sq_variation_blocked(seq, 2).value
        v4 = sq_variation_blocked(seq, 4).value
        v8 = sq_variation_blocked(seq, 8).value
        assert v2 >= v4 >= v8


def test_dyadic_upper_examples():
    assert sq_variation_upper_dyadic(prefix_sums([1, 1, 1, 1])) == 384.0
    assert sq_variation_upper_dyadic(prefix_sums([3.0])) == 108.0  # 12 c^2 >= c^2


def test_dyadic_upper_dominates_exact():
    for i, spec in enumerate(KINDS):
        for trial in range(10):
            seq = prefix_sums(sample_sequence(spec, 64, 100 * i + trial))
            assert sq_variation_upper_dyadic(seq) >= sq_variation_exact(seq).value
    # non-power-of-two length goes through zero padding
    seq = prefix_sums(sample_sequence(DistributionSpec("gaussian"), 100, 77))
    assert sq_variation_upper_dyadic(seq) >= sq_variation_exact(seq).value


def _dyadic_oracle(x):
    """12 * the sum over the dyadic and half-shifted dyadic families of
    max_k (S_{a+k} - S_a)^2, every family interval (a, a + len] enumerated with
    plain loops on the walk padded with S_N up to a power of two. Each level's
    values are added by np.sum, aligned levels 0..nlev first and then shifted
    levels 1..nlev-1: the summation order the kernel's float is defined by."""
    s = prefix_sums(x).values.tolist()
    npow = 1 << max(0, (len(s) - 2).bit_length())
    s += [s[-1]] * (npow + 1 - len(s))
    nlev = npow.bit_length() - 1

    def level(length, offset):
        vals = []
        for a in range(offset, npow - length + 1, length):
            best = 0.0
            for k in range(1, length + 1):
                d = s[a + k] - s[a]
                best = max(best, d * d)
            vals.append(best)
        return float(np.sum(vals))

    sums = [level(1 << i, 0) for i in range(nlev + 1)]
    sums += [level(1 << i, 1 << (i - 1)) for i in range(1, nlev)]
    total = 0.0
    for v in sums:
        total += v
    return 12.0 * total


def test_dyadic_upper_matches_family_oracle():
    rng = np.random.default_rng(2024)
    for n in range(1, 71):
        for x in (rng.standard_normal(n), rng.standard_normal(n) + 0.3,
                  rng.standard_normal(n) - 1.0, rng.integers(-1, 2, n).astype(float)):
            assert sq_variation_upper_dyadic(prefix_sums(x)) == _dyadic_oracle(x), n


def _numpy_pairwise(x) -> float:
    """numpy's pairwise sum of a contiguous float64 array, in Python floats:
    below 8 elements one by one, up to 128 in 8 interleaved accumulators,
    above that the halves at n // 2 rounded down to a multiple of 8."""
    n = len(x)
    if n < 8:
        total = 0.0
        for v in x:
            total += v
        return total
    if n <= 128:
        r = [float(v) for v in x[:8]]
        for i in range(8, n - n % 8, 8):
            for j in range(8):
                r[j] += x[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in x[n - n % 8:]:
            total += v
        return total
    half = n // 2 - n // 2 % 8
    return _numpy_pairwise(x[:half]) + _numpy_pairwise(x[half:])


def test_np_sum_is_the_pairwise_rule():
    # the dyadic bound's float is defined by this order; if numpy changes it,
    # this fails before the goldens do
    rng = np.random.default_rng(310)
    for n in [*range(1, 301), 383, 384, 385, 511, 512, 513, 1000, 1023, 1024, 1025]:
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        assert np.sum(x) == _numpy_pairwise(x.tolist()), n


def test_pairwise_matches_np_sum():
    rng = np.random.default_rng(52)
    sizes = [*range(1, 601), *((1 << k) + d for k in range(10, 21) for d in (-1, 0, 1))]
    for n in sizes:
        buf = rng.standard_normal(n + 3) * 10.0 ** rng.uniform(-8, 8, n + 3)
        for offset in range(4):
            x = buf[offset:offset + n]
            total = variation._pairwise(0, n, lambda a, b: np.sum(x[a:b]))
            assert total == np.sum(x), (n, offset)
    # an array of sums adds elementwise in the same order
    x = buf[:(1 << 20) + 1]
    both = variation._pairwise(0, len(x), lambda a, b: np.array([np.sum(x[a:b]),
                                                                    np.sum(-x[a:b])]))
    assert both.tolist() == [np.sum(x), np.sum(-x)]


def _dyadic_whole_levels(x):
    """The bound with every level held whole, as one array of its terms
    summed by np.sum, the walk padded with S_N to a power of two."""
    s = prefix_sums(x).values
    n = len(s) - 1
    npow = 1 << max(0, (n - 1).bit_length())
    s = np.concatenate([s, np.full(npow - n, s[-1])])
    nlev = npow.bit_length() - 1

    def level(length, offset):
        count = (npow - offset) // length
        blocks = s[offset + 1:offset + count * length + 1].reshape(count, length)
        starts = s[offset:offset + count * length:length]
        hi, lo = blocks.max(axis=1) - starts, blocks.min(axis=1) - starts
        return float(np.sum(np.maximum(hi * hi, lo * lo)))

    total = 0.0
    for v in ([level(1 << i, 0) for i in range(nlev + 1)]
              + [level(1 << i, 1 << (i - 1)) for i in range(1, nlev)]):
        total += v
    return 12.0 * total


def test_dyadic_upper_matches_whole_levels_across_slices():
    # the levels of blocks under 2^8 steps (every level, below N = 2^8) are
    # summed a 2^15-step slice at a time, in one slice up to 2^15; the sizes
    # put N on either side of 2^8, on, just before and just after slice
    # boundaries, the context a slice reads before it, and a tail of all-S_N
    # slices
    rng = np.random.default_rng(17)
    for n in ((1 << 8) - 1, 1 << 8, (1 << 8) + 1, 1 << 15, (1 << 15) + 1, (1 << 16) - 1,
              1 << 16, (1 << 16) + 1, (1 << 17) - 3, 1 << 17, (1 << 17) + 2047,
              (1 << 17) + 2048, (1 << 17) + 2049, 3 * (1 << 15) + 7, (1 << 18) - (1 << 15) - 1):
        for x in (rng.standard_normal(n), rng.standard_normal(n) + 0.3,
                  rng.integers(-1, 2, n).astype(float)):
            assert sq_variation_upper_dyadic(prefix_sums(x)) == _dyadic_whole_levels(x), n


def test_dyadic_upper_exact_on_unit_steps():
    # S_k = min(k, N) on the padded walk, so a family interval (a, a + L]
    # has the term (min(a + L, N) - min(a, N))^2, and every sum is an exact
    # integer in any order. From P = 2^24 on, level 8 (P / 2^8 blocks)
    # outgrows a slice, and the levels above it need the larger buffer.
    for n in (1, 2, 3, 255, 257, (1 << 15) + 1, (1 << 17) + 3, (1 << 23) + 1, 1 << 24):
        npow = 1 << max(0, (n - 1).bit_length())
        nlev = npow.bit_length() - 1
        total = 0
        for length, offset in ([(1 << i, 0) for i in range(nlev + 1)]
                               + [(1 << i, 1 << (i - 1)) for i in range(1, nlev)]):
            count = (npow - offset) // length
            full = min(count, (n - offset) // length)
            rest = n - offset - full * length
            total += full * length**2 + (rest**2 if full < count else 0)
        assert sq_variation_upper_dyadic(prefix_sums(np.ones(n))) == 12.0 * total, n


# SHA-256 of the newline-joined float.hex() of the bound on N = 1, 3, 4097,
# 2^16, 2^18 with seeds 11 and 12, recorded with the per-level window scan
# that the max/min pyramid replaced
_DYADIC_DIGESTS = {
    "gaussian": "a348d796f48ffc2c62d95b47443b5cd93683c6bc7e67feb2c8040575b19925d3",
    "logtail": "094d2840a2c501b3b9928a005af2003de687fe3b92de7ef01e6e2424a3a15af5",
    "drift": "b271b95cff102929ed19642fa4a26e14881e43dd200df1e61b3c13535700bcbd",
}


@pytest.mark.parametrize("kind", sorted(_DYADIC_DIGESTS))
def test_dyadic_upper_golden(kind):
    spec = DistributionSpec("logtail" if kind == "logtail" else "gaussian")
    hexes = []
    for n in (1, 3, 4097, 1 << 16, 1 << 18):
        for seed in (11, 12):
            x = sample_sequence(spec, n, seed)
            walk = prefix_sums(x + 0.3 if kind == "drift" else x)
            hexes.append(sq_variation_upper_dyadic(walk).hex())
    assert hashlib.sha256("\n".join(hexes).encode()).hexdigest() == _DYADIC_DIGESTS[kind]


# float.hex() of the bound on walks whose N is not a power of two (seed 11),
# recorded while the bound padded a copy of the walk to the next power of two
# (2^23 + 1 later, while the levels above the slices had a buffer of their own)
_DYADIC_OFF_POW2 = {
    ("gaussian", (1 << 18) + 3): "0x1.4cb76b61bbb03p+27",
    ("gaussian", (1 << 20) + 1): "0x1.bab07570198fbp+29",
    ("gaussian", (1 << 23) + 1): "0x1.f29195f925d8ep+32",
    ("logtail_sym", (1 << 18) + 3): "0x1.f71dfb788fa5dp+26",
    ("logtail_sym", (1 << 20) + 1): "0x1.52aec1c79ec41p+29",
}


@pytest.mark.parametrize("kind,n", sorted(_DYADIC_OFF_POW2))
def test_dyadic_upper_golden_off_powers_of_two(kind, n):
    # keyed by the kind names the values were first recorded under
    walk = prefix_sums(sample_sequence(DistributionSpec(kind.removesuffix("_sym")), n, 11))
    assert sq_variation_upper_dyadic(walk).hex() == _DYADIC_OFF_POW2[kind, n]


def test_lower_bounds_by_construction():
    for trial in range(20):
        seq = sample_sequence(DistributionSpec("pareto", tail_exponent=4.0), 100, trial)
        v = sq_variation_exact(prefix_sums(seq)).value
        assert v >= float(np.sum(seq)) ** 2 - 1e-9
        assert v >= float(np.sum(seq**2)) - 1e-9


def test_triangle_inequality_random_pairs():
    def norm(v):
        return np.sqrt(sq_variation_exact(prefix_sums(v)).value)

    for trial in range(50):
        x = sample_sequence(DistributionSpec("gaussian"), 50, trial)
        y = sample_sequence(DistributionSpec("rademacher"), 50, 10_000 + trial)
        assert norm(x + y) <= norm(x) + norm(y) + 1e-9
    assert norm(x - x) == 0.0
    assert norm(x + np.zeros(50)) == pytest.approx(norm(x) + norm(np.zeros(50)), rel=1e-12)


def test_exact_runs_beyond_old_cap():
    seq = sample_sequence(DistributionSpec("gaussian"), 1 << 16, 31)
    walk = prefix_sums(seq)
    exact = sq_variation_exact(walk)
    assert exact.partition.n == 1 << 16
    assert sq_variation_blocked(walk, 4).value <= exact.value
    assert exact.value <= sq_variation_upper_dyadic(walk)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(np.array([1, 2]))
    with pytest.raises(ValueError):
        Partition(np.array([0, 2, 2]))
    with pytest.raises(ValueError):
        Partition([])
    with pytest.raises(ValueError):
        Partition(np.array([[0, 1], [0, 2]]))
    with pytest.raises(ValueError, match="length"):
        partition_value(prefix_sums(np.ones(10)), Partition(np.array([0, 3])))


def test_partition_value_json():
    res = partition_value(prefix_sums([1.0, 2.0]), Partition(np.array([0, 2])))
    assert res.to_json() == '{"value": 9.0, "breakpoints": [0, 2]}'


def test_non_finite_walk_rejected():
    with pytest.raises(ValueError, match="index 1"):
        sq_variation_upper_dyadic(prefix_sums([1.0, np.nan, 2.0]))
    with pytest.raises(ValueError, match="index 2"):
        sq_variation_exact(prefix_sums([0.0, 1.0, -np.inf]))
    with pytest.raises(ValueError, match="overflows float64 at index 1"):
        prefix_sums([1e308, 1e308])
    big = np.zeros(1 << 20)  # the extended-precision branch overflows in the cast
    big[:2] = 1e308
    with pytest.raises(ValueError, match="overflows float64 at index 1"):
        prefix_sums(big)
    # finite walks whose squared sums are not
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="overflows"):
            partition_value(prefix_sums([1e200, 1e200, -1e200]), Partition(np.array([0, 3])))
        with pytest.raises(ValueError, match="overflows"):
            sq_variation_upper_dyadic(prefix_sums([1e200]))
        for n in (70, (1 << 17) + 3):  # one slice of the walk, and many
            with pytest.raises(ValueError, match="^dyadic upper bound overflows float64$"):
                sq_variation_upper_dyadic(prefix_sums(np.full(n, 1e153)))


_BOTH_SIDES = ((1 << 20) - 1, 1 << 20)  # either side of the extended-precision cutoff
_WALK_KERNELS = {
    "exact": sq_variation_exact,
    "blocked": lambda walk: sq_variation_blocked(walk, 256),
    "dyadic": sq_variation_upper_dyadic,
    "greedy": lambda walk: greedy_partition(walk, GreedyParams(2, 4, 0.25, 0.5)),
    "classify": lambda walk: classify_partition(
        partition_value(walk, Partition(np.r_[0:walk.n:4096, walk.n])), 0.1, 8.0),
}


@pytest.mark.parametrize(
    "kernel,n",
    [("exact", 300)] + [(k, n) for k in ("blocked", "dyadic", "greedy", "classify")
                        for n in _BOTH_SIDES],
)
def test_walk_matches_samples_bitwise(kernel, n, monkeypatch):
    # a kernel takes the walk that prefix_sums built once, on either side of
    # the extended-precision cutoff, and sums nothing again: not per call,
    # not per window
    walk = prefix_sums(sample_sequence(DistributionSpec("gaussian"), n, 4242))
    assert walk.n == n and not walk.values.flags.writeable

    real_cumsum = np.cumsum
    calls = []

    def counting_cumsum(*args, **kwargs):
        calls.append(len(args[0]))
        return real_cumsum(*args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counting_cumsum)
    _WALK_KERNELS[kernel](walk)
    assert calls == []


# --- the O(N^2) suffix DP as the oracle of the record-chain kernel ----------

def _dp_oracle(s, allowed, p):
    """G[i] = max_j |A_j - A_i|^p + G[j] over every allowed j; ties go to the
    fewest intervals, then to the smallest next breakpoint."""
    a = s[allowed]
    m = len(allowed) - 1
    g = np.zeros(m + 1)
    cnt = np.zeros(m + 1, dtype=np.int64)

    def scores(i):
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
        cnt[i] = cnt[i + 1 :][ties].min() + 1

    bps = [0]
    i = 0
    while i < m:
        cand = scores(i)
        ok = np.flatnonzero((cand == g[i]) & (cnt[i + 1 :] == cnt[i] - 1))
        i = i + 1 + int(ok[0])
        bps.append(i)
    return Partition(breakpoints=allowed[np.array(bps, dtype=np.int64)])


def _allowed(n, block):
    return np.unique(np.r_[0:n + 1:block, n])


def integer_data(max_size):
    """{-1, 0, 1} lattice steps, runs of equal steps where zero runs are the
    walk's plateaus, or a zigzag u, -d, u, -d, ... whose walk trends: many
    exact ties, and on the zigzag record chains as long as the walk."""
    lattice = st.lists(st.integers(-1, 1), min_size=1, max_size=max_size)
    runs = st.lists(st.tuples(st.sampled_from([0, 0, 1, -1, 2, -3]), st.integers(1, 6)),
                    min_size=1, max_size=max_size // 3 + 1)
    plateaus = runs.map(lambda rs: [v for v, k in rs for _ in range(k)][:max_size])
    zigzag = st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(1, max_size)).map(
        lambda udn: np.resize([udn[0], -udn[1]], udn[2]).tolist())
    return st.one_of(lattice, plateaus, zigzag).map(lambda v: np.array(v, dtype=float))


def gaussian_data(max_size):
    """Gaussian steps, some with a drift, under which the walk trends."""
    return st.tuples(st.integers(1, max_size), st.integers(0, 2**32 - 1),
                     st.sampled_from([0.0, 0.0, 0.3, -1.0])).map(
        lambda nsd: np.random.default_rng(nsd[1]).standard_normal(nsd[0]) + nsd[2])


def test_tie_rule_decides_between_two_chain_candidates():
    # from the point at -2^40, the records 1 and 1 + 2^-52 give the same
    # rounded difference, hence the same first-piece score, and both end with
    # the piece of |2|^p, 2 + 2^-52 rounding to 2; the dip of 2^-45 between
    # them is too small to change a score: a float tie in score and interval
    # count, which the smallest next breakpoint decides
    walk = np.array([0.0, -2.0**40, 1.0, 1.0 - 2.0**-45, 1.0 + 2.0**-52, -1.0])
    for p in (2.0, 3.0, 1.5):
        assert _dp_oracle(walk, np.arange(6), p).breakpoints.tolist() == [0, 1, 2, 5]
        assert _dp_breakpoints(walk, p).tolist() == [0, 1, 2, 5]
        with mock.patch.object(variation, "_DP_LONG", 0):
            assert _dp_breakpoints(walk, p).tolist() == [0, 1, 2, 5]


def _record_counts(a):
    """Candidates of each turning point but the end, by the docstring of
    _dp_breakpoints: the strict running records of a taken before a crosses
    back over the point, the end excluded."""
    step = np.sign(np.diff(a))
    turns = np.flatnonzero((step[:-1] != 0) & (step[1:] != step[:-1])) + 1
    c = a[np.concatenate(([0], turns, [len(a) - 1]))]
    counts = []
    for i in range(len(c) - 1):
        seg = np.sign(c[i + 1] - c[i]) * (c[i + 1 : -1] - c[i])
        back = np.flatnonzero(seg < 0)
        seg = seg[: back[0] if len(back) else len(seg)]
        counts.append(np.count_nonzero(seg > np.maximum.accumulate(np.r_[0.0, seg[:-1]])))
    return np.array(counts)


def test_short_and_long_chains_in_one_walk_match_oracle():
    # mean-zero stretches between a climb and a fall: chains of a few
    # candidates and chains longer than _DP_LONG alternate within one call,
    # at the real thresholds
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.standard_normal(2000), rng.standard_normal(2000) + 0.5,
                        rng.standard_normal(2000), rng.standard_normal(2000) - 0.5])
    counts = _record_counts(prefix_sums(x).values)
    assert np.count_nonzero(counts > variation._DP_LONG) >= 100
    assert np.count_nonzero(counts <= 8) >= len(counts) // 2
    for p in (2.0, 1.5):
        _check_kernel_against_oracle(x, p, 1)


def _walks_digest(walks, p):
    h = hashlib.sha256()
    for x in walks:
        h.update(_dp_breakpoints(prefix_sums(x).values, p).astype("<i8").tobytes())
    return h.hexdigest()


def _golden_walks(kind):
    rng = np.random.default_rng(8)
    if kind == "gaussian":
        return [sample_sequence(DistributionSpec("gaussian"), n, 21) for n in (1 << 16, 1 << 18)]
    if kind == "lattice":
        return [rng.choice([-1.0, 0.0, 1.0], 1 << 16), rng.choice([-1.0, 1.0], 1 << 16)]
    return [sample_sequence(DistributionSpec("gaussian"), 1 << 16, 22),
            sample_sequence(DistributionSpec("logtail"), 1 << 14, 23),
            rng.standard_normal(1 << 12) + 0.3]


# SHA-256 of the little-endian int64 breakpoints of each walk in turn, at
# sizes the O(N^2) oracle cannot reach, recorded with the kernel that scored
# every short chain in batched numpy calls
_DP_DIGESTS = {
    ("gaussian", 2.0): "a8032b3400a4ef32c08aea7a536629f155b5a761655ed1c86349216c6120c3ae",
    ("lattice", 2.0): "9b76ebe70d29d85c31c8de94b5fe34ca3792cf872cb587ad7bddffca83c7eb8a",
    ("lattice", 3.0): "04e2e866b189f007169a5faa4fa521bbaf929bd0409b317c38fc4ce7a1a67fb1",
    ("real", 2.0): "81a3e015d71d0da984336510467c74866f7402e62230c16118399cbf68442750",
    ("real", 3.0): "a6687ca17c93a0b9ae0b19f066b9264016d3da81664d0c9eb5555e5e7f94b32c",
    ("real", 1.5): "c213c048cd2ac29cfed9231e9347c8dbf8074641fb4f782aa1096102b00f5496",
}


@pytest.mark.parametrize("kind,p", sorted(_DP_DIGESTS))
def test_dp_breakpoints_golden(kind, p):
    assert _walks_digest(_golden_walks(kind), p) == _DP_DIGESTS[kind, p]


@given(x=st.one_of(integer_data(16), gaussian_data(16)),
       p=st.sampled_from([1.0, 2.0, 3.0]))
def test_exact_value_equals_bruteforce(x, p):
    walk = prefix_sums(x)
    value = p_variation_exact(walk, p).value
    if np.all(x == np.round(x)):
        assert value == sq_variation_bruteforce(walk, p)
    else:
        assert value == pytest.approx(sq_variation_bruteforce(walk, p), rel=1e-12)


def _check_kernel_against_oracle(x, p, block):
    walk, allowed = prefix_sums(x), _allowed(len(x), block)
    s = walk.values
    expected = _dp_oracle(s, allowed, p).breakpoints.tolist()
    assert allowed[_dp_breakpoints(s[allowed], p)].tolist() == expected
    if p == 2.0:
        blocked = sq_variation_blocked(walk, min(block, len(x)))
        assert blocked.partition.breakpoints.tolist() == expected


@given(x=integer_data(120), p=st.sampled_from([1.0, 2.0, 3.0]), block=st.integers(1, 5))
def test_kernel_matches_oracle_on_integers(x, p, block):
    _check_kernel_against_oracle(x, p, block)


@given(x=gaussian_data(200), p=st.sampled_from([2.0, 3.0]), block=st.integers(1, 5))
def test_kernel_matches_oracle_on_gaussian(x, p, block):
    _check_kernel_against_oracle(x, p, block)


@given(xp=st.one_of(st.tuples(integer_data(120), st.sampled_from([1.0, 2.0, 3.0])),
                   st.tuples(gaussian_data(200), st.sampled_from([2.0, 3.0]))),
       block=st.integers(1, 5))
def test_long_chain_path_matches_oracle(xp, block):
    # every chain of two or more candidates is scored on its own, by numpy
    with mock.patch.object(variation, "_DP_LONG", 1):
        _check_kernel_against_oracle(*xp, block)


@pytest.mark.parametrize("kind", ["zigzag", "lattice", "gaussian"])
def test_trending_walks_match_oracle(kind):
    # a walk with drift gives record chains of hundreds of points: the
    # one-chain path at its real threshold, between passes of short chains
    rng = np.random.default_rng(7)
    x = {"zigzag": np.resize([2.0, -1.0], 3000) + rng.integers(-1, 2, 3000),
         "lattice": rng.choice([-1.0, 0.0, 1.0], 3000, p=[0.25, 0.25, 0.5]),
         "gaussian": rng.standard_normal(3000) - 0.3}[kind]
    for p in (2.0, 3.0):
        for block in (1, 3):
            _check_kernel_against_oracle(x, p, block)


@given(x=gaussian_data(200))
def test_p1_floats_value_and_fewest_intervals(x):
    # |a| + |b| = |a + b| for a, b of one sign, so on non-integer floats the
    # oracle's pick among such partitions is decided by rounding, not by its
    # tie rule: compare values and interval counts, not breakpoints
    walk = prefix_sums(x)
    kernel = p_variation_exact(walk, 1.0)
    oracle = partition_value(walk, _dp_oracle(walk.values, np.arange(len(x) + 1), 1.0), 1.0)
    assert kernel.value == pytest.approx(oracle.value, rel=1e-12)
    assert len(kernel.partition) <= len(oracle.partition)


@given(x=st.one_of(integer_data(120), gaussian_data(200)), p=st.sampled_from([1.0, 2.0, 3.0]))
def test_optimal_pieces_alternate_at_extremes(x, p):
    walk = prefix_sums(x)
    s, b = walk.values, p_variation_exact(walk, p).partition.breakpoints
    d = np.sign(s[b[1:]] - s[b[:-1]])
    if len(d) > 1:
        assert np.all(d != 0) and np.all(d[1:] == -d[:-1])
    for k in range(1, len(b) - 1):
        span = s[b[k - 1] : b[k + 1] + 1]
        first = np.argmax(span) if d[k - 1] > 0 else np.argmin(span)
        assert b[k - 1] + first == b[k]


@given(x=st.one_of(integer_data(400), gaussian_data(400)), block=st.integers(1, 8))
def test_sandwich(x, block):
    walk = prefix_sums(x)
    exact = sq_variation_exact(walk).value
    tol = 1e-12 * max(1.0, exact)  # the values are sums in different orders
    lows = {
        "blocked": sq_variation_blocked(walk, min(block, walk.n)).value,
        "greedy": greedy_partition(walk, GreedyParams(2, 4, 0.25, 0.5)).value,
        "s_n_sq": float(np.sum(x)) ** 2,
    }
    for name, low in lows.items():
        assert low <= exact + tol, name
    assert exact <= sq_variation_upper_dyadic(walk)


def test_dyadic_upper_holds_little_beside_the_walk():
    # the walk is read in place a slice at a time, also past a power of two,
    # and at 2^16 in two slices rather than in levels of 1.5 N floats
    for n, bound in ((1 << 16, 1.0), (1 << 20, 0.25), ((1 << 20) + 1, 0.25)):
        walk = prefix_sums(sample_sequence(DistributionSpec("gaussian"), n, 5))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sq_variation_upper_dyadic(walk)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound * (n + 1) * 8, (n, peak)


@pytest.mark.parametrize("kind,p", [("gaussian", 2.0), ("rademacher", 2.0), ("lattice", 3.0)])
def test_dp_holds_at_most_32_bytes_per_point(kind, p):
    # only the turning points' indices and `prev` grow with N, at 8 bytes per
    # turning point each; the record stacks hold each member's value, score
    # and count, but only about sqrt(N) members on a mean-zero walk, and the
    # values reach Python floats a bounded chunk at a time
    n = 1 << 16
    x = (np.random.default_rng(7).integers(-1, 2, n).astype(float) if kind == "lattice"
         else sample_sequence(DistributionSpec(kind), n, 7))
    a = prefix_sums(x).values
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _dp_breakpoints(a, p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 32 * n


def test_dp_with_drift_holds_at_most_64_bytes_per_point():
    # with drift the record stacks hold up to one member per turning point, a
    # tuple of Python objects each, not about sqrt(N) of them
    n = 1 << 13
    a = prefix_sums(sample_sequence(DistributionSpec("gaussian"), n, 7) + 0.3).values
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _dp_breakpoints(a, 2.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 64 * n
