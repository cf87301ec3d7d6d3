import hashlib
import math
import warnings

import numpy as np
import pytest

from sqvar import greedy
from sqvar.families import build_L
from sqvar.greedy import (
    GreedyParams,
    a_event_holds,
    best_two_cut,
    greedy_partition,
    select_cover_intervals,
)
from sqvar.seqcore import DistributionSpec, prefix_sums, sample_sequence
from sqvar.variation import sq_variation_exact

from oracles import best_two_cut_bruteforce

PARAMS = GreedyParams(s=2, c=4, alpha=0.25, eps3=0.5)


def test_params_validation():
    with pytest.raises(ValueError):
        GreedyParams(s=1, c=1, alpha=0.25, eps3=0.5)
    with pytest.raises(ValueError):
        GreedyParams(s=2, c=6, alpha=0.25, eps3=0.5)  # not a power
    with pytest.raises(ValueError):
        GreedyParams(s=2, c=2, alpha=0.25, eps3=0.5)  # c < s^2
    with pytest.raises(ValueError):
        GreedyParams(s=2, c=4, alpha=0.5, eps3=0.5)
    with pytest.raises(ValueError):
        GreedyParams(s=2, c=4, alpha=0.25, eps3=1.0)


def test_best_two_cut_example():
    walk = prefix_sums([1.0, -2.0, 3.0])
    cut = best_two_cut(walk, 0, 3)
    assert (cut.i1, cut.i2, cut.value) == (2, 3, 10.0)
    brute = best_two_cut_bruteforce(walk, 0, 3)
    assert (brute.i1, brute.i2, brute.value) == (2, 3, 10.0)


def test_best_two_cut_zero_ties():
    walk = prefix_sums(np.zeros(8))
    cut = best_two_cut(walk, 2, 5)
    assert (cut.i1, cut.i2, cut.value) == (1, 1, 0.0)
    brute = best_two_cut_bruteforce(walk, 2, 5)
    assert (brute.i1, brute.i2) == (1, 1)


def test_best_two_cut_window_errors():
    walk = prefix_sums(np.zeros(4))
    with pytest.raises(ValueError):
        best_two_cut(walk, 2, 3)
    with pytest.raises(ValueError):
        best_two_cut(walk, 0, 0)


def test_fast_path_equals_bruteforce():
    rng = np.random.default_rng(2)
    kinds = [
        DistributionSpec("gaussian"),
        DistributionSpec("rademacher"),
        DistributionSpec("pareto", tail_exponent=4.0),
    ]
    for case in range(400):
        spec = kinds[case % len(kinds)]
        w = int(rng.integers(1, 129))
        j = int(rng.integers(0, 32))
        walk = prefix_sums(sample_sequence(spec, j + w, 9000 + case))
        fast = best_two_cut(walk, j, w)
        brute = best_two_cut_bruteforce(walk, j, w)
        assert (fast.i1, fast.i2) == (brute.i1, brute.i2)
        assert (fast.value, fast.rate) == (brute.value, brute.rate)


def test_fast_path_tie_agreement_on_lattice_values():
    # integer-valued walks force plenty of exact ties
    rng = np.random.default_rng(3)
    for case in range(300):
        w = int(rng.integers(1, 40))
        walk = prefix_sums(rng.integers(-2, 3, size=w).astype(float))
        fast = best_two_cut(walk, 0, w)
        brute = best_two_cut_bruteforce(walk, 0, w)
        assert fast == brute


def _a_event_bruteforce(walk, j, w, n_ref, eps3):
    s = walk.values
    best = -np.inf
    for i2 in range(1, w + 1):
        for i1 in range(1, i2 + 1):
            v = (s[j + i1] - s[j]) ** 2 + (s[j + i2] - s[j + i1]) ** 2
            best = max(best, v / i2)
    return best < 2.0 * (1.0 - eps3) * math.log(math.log(n_ref))


def test_a_event_cases():
    assert a_event_holds(prefix_sums(np.zeros(64)), 0, 32, 1024, 0.5) is True
    spike = np.zeros(64)
    spike[0] = 10.0  # ratio at i2=1 is 100 >> threshold
    assert a_event_holds(prefix_sums(spike), 0, 32, 1024, 0.5) is False
    rng = np.random.default_rng(4)
    for case in range(200):
        w = int(rng.integers(1, 64))
        walk = prefix_sums(sample_sequence(DistributionSpec("gaussian"), w, case))
        assert a_event_holds(walk, 0, w, 4096, 0.3) == _a_event_bruteforce(
            walk, 0, w, 4096, 0.3
        )


def test_select_cover_intervals_small_case():
    # chain stops when the remaining span drops below s, leaving (0,1] as a gap
    cover = select_cover_intervals(100, 2, 4)
    assert cover == [(1, 3), (3, 7), (7, 15), (15, 31), (31, 63), (63, 95)]
    # disjoint, ascending, inside (0, N]
    for (a0, b0), (a1, b1) in zip(cover, cover[1:]):
        assert b0 <= a1
    assert cover[-1][1] <= 100


def test_select_cover_respects_divisibility():
    # C = 16 = 2^4 admits shifted sizes only for s^k with k+1 >= 4
    cover = select_cover_intervals(10, 2, 16)
    assert cover == []  # first candidate needs shift 6/16 of 8: not in family
    cover = select_cover_intervals(1000, 2, 16)
    assert cover  # large N proceeds
    for a, b in cover:
        assert (b - a) & (b - a - 1) == 0  # power of two sizes


def test_c_moves_no_cover_chain_at_powers_of_two():
    # GreedyParams' docstring: at s = 2 every c gives one chain at N = 2^7 ... 2^24,
    # so c moves no value on a power-of-two grid; it does at other N
    copies = (4, 8, 16, 32, 64)
    for k in range(7, 25):
        assert len({tuple(select_cover_intervals(1 << k, 2, c)) for c in copies}) == 1, k
    assert len({tuple(select_cover_intervals(100, 2, c)) for c in copies}) > 1


def test_cover_chain_reads_the_L_family():
    # every interval greedy covers with is an interval of the family that
    # `sqvar families l` certifies
    for s, c in ((2, 4), (2, 8), (3, 9)):
        members = {(iv.start, iv.end) for fam in build_L(s, c) for iv in fam.all_intervals()}
        for n_total in range(16, 5001):
            cover = select_cover_intervals(n_total, s, c)
            assert {(float(a), float(b)) for a, b in cover} <= members, n_total


def test_cover_gap_bound_per_step():
    # each selected interval of size s^k leaves a gap of at most s^(k+1)/C
    # to the previous (righter) interval's start
    for n_total, s, c in ((100, 2, 4), (5000, 2, 8), (7777, 3, 9), (100_000, 2, 4)):
        cover = select_cover_intervals(n_total, s, c)
        right = n_total
        for a, b in reversed(cover):
            size = b - a
            assert right - b <= size * s // c
            right = a
        # total covered length obeys the construction bound
        n0 = 0
        while (s ** (n0 + 2) - 1) // (s - 1) <= n_total:
            n0 += 1
        head = (s ** (math.ceil(n0 / 2) + 1) - 1) // (s - 1)
        covered = sum(b - a for a, b in cover)
        assert covered >= n_total * (1 - s / c) - head


def test_greedy_zero_input():
    res = greedy_partition(prefix_sums(np.zeros(256)), PARAMS)
    assert res.value == 0.0
    b = res.partition.breakpoints
    assert b[0] == 0 and b[-1] == 256 and np.all(np.diff(b) > 0)


def test_greedy_below_s_squared_is_trivial():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = greedy_partition(prefix_sums(np.ones(3)), PARAMS)
    assert res.partition.breakpoints.tolist() == [0, 3]
    assert res.value == 9.0


def test_greedy_dominated_by_exact():
    kinds = [
        DistributionSpec("gaussian"),
        DistributionSpec("rademacher"),
        DistributionSpec("logtail"),
    ]
    for trial in range(30):
        spec = kinds[trial % len(kinds)]
        n = [100, 500, 1024, 4096][trial % 4]
        walk = prefix_sums(sample_sequence(spec, n, 500 + trial))
        g = greedy_partition(walk, PARAMS)
        e = sq_variation_exact(walk)
        assert g.value <= e.value + 1e-9
        b = g.partition.breakpoints
        assert b[0] == 0 and b[-1] == n and np.all(np.diff(b) > 0)


def test_greedy_ratio_trend():
    # median of value/(2 N lnln N) should grow toward the covered fraction;
    # 48 seeds keep the median noise below the ~3% step between grid points
    params = GreedyParams(s=2, c=8, alpha=0.25, eps3=0.5)
    medians = []
    for n in (1 << 10, 1 << 12, 1 << 14):
        vals = []
        for t in range(48):
            walk = prefix_sums(sample_sequence(DistributionSpec("gaussian"), n, 7000 + t))
            vals.append(greedy_partition(walk, params).value / (2 * n * math.log(math.log(n))))
        medians.append(float(np.median(vals)))
    assert medians == sorted(medians)
    # these seeds give medians 0.694, 0.724 and 0.741 (N = 2^10, 2^12, 2^14),
    # so the 0.30 floor only catches a collapse of the cover, not a drift
    assert medians[0] > 0.30


def test_greedy_small_n_below_lnln_floor():
    # s^2 <= N < 16: the window threshold 2 (1 - eps3) lnln N is small but
    # positive, so greedy runs and stays below the exact value
    for n in range(4, 16):
        for seed in range(3):
            walk = prefix_sums(sample_sequence(DistributionSpec("gaussian"), n, 100 * n + seed))
            g = greedy_partition(walk, PARAMS)
            b = g.partition.breakpoints
            assert b[0] == 0 and b[-1] == n and np.all(np.diff(b) > 0)
            assert g.value <= sq_variation_exact(walk).value + 1e-9


# SHA-256 of the little-endian int64 greedy breakpoints under PARAMS for
# gaussian sample_sequence(spec, n, seed), recorded before greedy_partition
# scanned each window once
GREEDY_DIGESTS = {
    (100, 0): "9b4b2e6b47a6ec471a0d659027d421256aaf6a558d8624a6cedd8a97dffbc75f",
    (100, 1): "4e493824e6166cb02763b0250f80ad7ec94b222cf659f9a1655f172a117f477a",
    (100, 2): "70c1d5af7123cc43ae2ead37e9660b02ed2a5ce6e16f5e15b8c6e23bc94f2b66",
    (4096, 0): "fe32cbb325530d0c46bc335a19be8a67617eb218bbe55df1ffbec0e8fba72c96",
    (4096, 1): "45cba4f44912e72042df63a8df689e44c95b9b8214d69028fd53a029c0c0ad8a",
    (4096, 2): "b2b7b619df906e5fdce8b98c6f057660ec8469bc9298b193930bfe62941d37a9",
}


@pytest.mark.parametrize("n,seed", sorted(GREEDY_DIGESTS))
def test_greedy_breakpoints_golden(n, seed):
    walk = prefix_sums(sample_sequence(DistributionSpec("gaussian"), n, seed))
    b = greedy_partition(walk, PARAMS).partition.breakpoints
    assert hashlib.sha256(b.astype("<i8").tobytes()).hexdigest() == GREEDY_DIGESTS[n, seed]


def test_greedy_scans_each_window_once(monkeypatch):
    starts, scans = [], []
    real_cut, real_rows = greedy.best_two_cut, greedy._two_cut_rows

    def cut(walk, j, window):
        starts.append(j)
        return real_cut(walk, j, window)

    def rows(s_seg):
        scans.append(len(s_seg))
        return real_rows(s_seg)

    def event(*args):
        raise AssertionError("greedy_partition evaluated the window event separately")

    monkeypatch.setattr(greedy, "best_two_cut", cut)
    monkeypatch.setattr(greedy, "_two_cut_rows", rows)
    monkeypatch.setattr(greedy, "a_event_holds", event)
    greedy_partition(prefix_sums(sample_sequence(DistributionSpec("gaussian"), 4096, 3)), PARAMS)
    # every window step starts at a new position, and each is scanned once
    assert starts and starts == sorted(set(starts))
    assert len(scans) == len(starts)
