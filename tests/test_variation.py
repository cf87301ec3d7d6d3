import dataclasses

import numpy as np
import pytest

from sqvar.classify import ClassParams, classify_partition
from sqvar.greedy import GreedyParams, greedy_partition
from sqvar.seqcore import DistributionSpec, prefix_sums, sample_sequence
from sqvar.variation import (
    EXACT_SIZE_CAP,
    Partition,
    VariationResult,
    p_variation_exact,
    partition_value,
    sq_variation_blocked,
    sq_variation_bruteforce,
    sq_variation_exact,
    sq_variation_upper_dyadic,
)

KINDS = [
    DistributionSpec("rademacher"),
    DistributionSpec("gaussian"),
    DistributionSpec("uniform_centered"),
    DistributionSpec("pareto_sym", tail_exponent=4.0),
    DistributionSpec("logtail_sym"),
]


def test_single_element():
    res = sq_variation_exact([2.5])
    assert res.value == 6.25
    assert res.partition.breakpoints.tolist() == [0, 1]


def test_worked_examples():
    res = sq_variation_exact([2, 1, -3])
    assert res.value == 18.0
    assert res.partition.breakpoints.tolist() == [0, 2, 3]
    res = sq_variation_exact([3, -1, 2])
    assert res.value == 16.0
    assert res.partition.breakpoints.tolist() == [0, 3]


def test_bruteforce_tiny_cases():
    assert sq_variation_bruteforce([1, 1]) == 4.0
    assert sq_variation_bruteforce([1, -1]) == 2.0
    assert sq_variation_bruteforce([2, 1, -3]) == 18.0
    with pytest.raises(ValueError):
        sq_variation_bruteforce(np.zeros(23))


def test_exact_equals_bruteforce_random():
    for i, spec in enumerate(KINDS):
        for trial in range(100):
            n = 1 + (trial % 12)
            seq = sample_sequence(spec, n, 1000 * i + trial)
            assert sq_variation_exact(seq).value == pytest.approx(
                sq_variation_bruteforce(seq), abs=1e-9
            )


def test_tie_break_fewest_then_lex():
    # all-zero data: any partition scores 0; canonical answer is one interval
    res = sq_variation_exact(np.zeros(6))
    assert res.partition.breakpoints.tolist() == [0, 6]
    # [1, -1, 1]: best value 3 only via singletons
    res = sq_variation_exact([1.0, -1.0, 1.0])
    assert res.value == 3.0
    assert res.partition.breakpoints.tolist() == [0, 1, 2, 3]
    # two optimal partitions of [1,1]: (0,2] wins over singletons? value differs
    # here, so craft a genuine tie: x = [1, 0] has V2=1 via (0,2] or (0,1]+(1,2]
    res = sq_variation_exact([1.0, 0.0])
    assert res.value == 1.0
    assert res.partition.breakpoints.tolist() == [0, 2]


def test_contributions_reproduce_value():
    for trial in range(20):
        seq = sample_sequence(DistributionSpec("gaussian"), 200, trial)
        res = sq_variation_exact(seq)
        assert np.sum(res.contributions) == pytest.approx(res.value, rel=1e-12)
        b = res.partition.breakpoints
        assert b[0] == 0 and b[-1] == len(seq)


def test_p_variation():
    x = [2, 1, -3]
    assert p_variation_exact(x, 2.0).value == sq_variation_exact(x).value
    res = p_variation_exact([1, -1], 1.0)
    assert res.value == 2.0
    # p=3 brute-force check
    for trial in range(50):
        seq = sample_sequence(DistributionSpec("gaussian"), 1 + trial % 10, trial)
        assert p_variation_exact(seq, 3.0).value == pytest.approx(
            sq_variation_bruteforce(seq, p=3.0), abs=1e-9
        )
    with pytest.raises(ValueError):
        p_variation_exact(x, 0.5)


def test_p2_bitwise_agreement():
    seq = sample_sequence(DistributionSpec("gaussian"), 300, 17)
    a = sq_variation_exact(seq)
    b = p_variation_exact(seq, 2)
    assert a.value == b.value
    assert np.array_equal(a.partition.breakpoints, b.partition.breakpoints)


def test_blocked_endpoints_and_bounds():
    seq = sample_sequence(DistributionSpec("gaussian"), 200, 5)
    exact = sq_variation_exact(seq)
    b1 = sq_variation_blocked(seq, 1)
    assert b1.value == exact.value
    assert np.array_equal(b1.partition.breakpoints, exact.partition.breakpoints)
    bn = sq_variation_blocked(seq, len(seq))
    total = float(np.sum(seq.samples))
    assert bn.value == pytest.approx(total * total, rel=1e-12)
    b4 = sq_variation_blocked(seq, 4)
    assert b4.value <= exact.value
    assert np.all(np.isin(b4.partition.breakpoints[:-1] % 4, [0]))


def test_blocked_monotone_in_block():
    for trial in range(10):
        seq = sample_sequence(DistributionSpec("uniform_centered"), 240, trial)
        v2 = sq_variation_blocked(seq, 2).value
        v4 = sq_variation_blocked(seq, 4).value
        v8 = sq_variation_blocked(seq, 8).value
        assert v2 >= v4 >= v8


def test_dyadic_upper_examples():
    assert sq_variation_upper_dyadic([1, 1, 1, 1]) == 384.0
    assert sq_variation_upper_dyadic([3.0]) == 108.0  # 12 c^2 >= c^2


def test_dyadic_upper_dominates_exact():
    for i, spec in enumerate(KINDS):
        for trial in range(10):
            seq = sample_sequence(spec, 64, 100 * i + trial)
            assert sq_variation_upper_dyadic(seq) >= sq_variation_exact(seq).value
    # non-power-of-two length goes through zero padding
    seq = sample_sequence(DistributionSpec("gaussian"), 100, 77)
    assert sq_variation_upper_dyadic(seq) >= sq_variation_exact(seq).value


def test_lower_bounds_by_construction():
    for trial in range(20):
        seq = sample_sequence(DistributionSpec("pareto_sym", tail_exponent=4.0), 100, trial)
        v = sq_variation_exact(seq).value
        assert v >= float(np.sum(seq.samples)) ** 2 - 1e-9
        assert v >= float(np.sum(seq.samples**2)) - 1e-9


def test_triangle_inequality_random_pairs():
    def norm(v):
        return np.sqrt(sq_variation_exact(v).value)

    for trial in range(50):
        x = sample_sequence(DistributionSpec("gaussian"), 50, trial).samples
        y = sample_sequence(DistributionSpec("rademacher"), 50, 10_000 + trial).samples
        assert norm(x + y) <= norm(x) + norm(y) + 1e-9
    assert norm(x - x) == 0.0
    assert norm(x + np.zeros(50)) == pytest.approx(norm(x) + norm(np.zeros(50)), rel=1e-12)


def test_size_cap_enforced():
    big = np.zeros(EXACT_SIZE_CAP + 1)
    with pytest.raises(ValueError, match="cap"):
        sq_variation_exact(big)
    # override works (all zeros is cheap enough here? it is O(N^2), so use blocked)
    res = sq_variation_blocked(big, 1 << 12)
    assert res.value == 0.0


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
        partition_value(np.ones(10), Partition(np.array([0, 3])))


def test_partition_value_json():
    res = partition_value([1.0, 2.0], Partition(np.array([0, 2])))
    assert res.to_json() == '{"value": 9.0, "breakpoints": [0, 2]}'


def test_non_finite_walk_rejected():
    with pytest.raises(ValueError, match="index 1"):
        sq_variation_upper_dyadic([1.0, np.nan, 2.0])
    with pytest.raises(ValueError, match="index 2"):
        sq_variation_exact([0.0, 1.0, -np.inf])
    with pytest.raises(ValueError, match="overflows float64 at index 1"):
        prefix_sums([1e308, 1e308])
    big = np.zeros(1 << 20)  # the extended-precision branch overflows in the cast
    big[:2] = 1e308
    with pytest.raises(ValueError, match="overflows float64 at index 1"):
        prefix_sums(big)
    # finite walks whose squared sums are not
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="overflows"):
            partition_value([1e200, 1e200, -1e200], Partition(np.array([0, 3])))
        with pytest.raises(ValueError, match="overflows"):
            sq_variation_upper_dyadic([1e200])


_BOTH_SIDES = ((1 << 20) - 1, 1 << 20)  # either side of the extended-precision cutoff
_WALK_KERNELS = {
    "exact": sq_variation_exact,
    "blocked": lambda x: sq_variation_blocked(x, 256),
    "dyadic": sq_variation_upper_dyadic,
    "greedy": lambda x: greedy_partition(x, GreedyParams(2, 4, 0.25, 0.5)),
    "classify": lambda x: classify_partition(
        x, Partition(np.r_[0:len(x):4096, len(x)]), ClassParams(0.1, 8.0, len(x))
    ),
}


def _fingerprint(out):
    if isinstance(out, VariationResult):
        return (out.value.hex(), out.partition.breakpoints.tobytes(),
                out.contributions.tobytes())
    if isinstance(out, float):
        return out.hex()
    return repr(dataclasses.astuple(out))


@pytest.mark.parametrize(
    "kernel,n",
    [("exact", 300)] + [(k, n) for k in ("blocked", "dyadic", "greedy", "classify")
                        for n in _BOTH_SIDES],
)
def test_walk_matches_samples_bitwise(kernel, n, monkeypatch):
    seq = sample_sequence(DistributionSpec("gaussian"), n, 4242)
    walk = prefix_sums(seq)
    assert prefix_sums(walk) is walk
    assert walk.n == n and not walk.values.flags.writeable

    real_cumsum = np.cumsum
    calls = []

    def counting_cumsum(*args, **kwargs):
        calls.append(len(args[0]))
        return real_cumsum(*args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counting_cumsum)
    fn = _WALK_KERNELS[kernel]
    from_samples = fn(seq)
    assert calls == [n]  # the samples are summed once per call, never per window
    from_walk = fn(walk)
    assert calls == [n]  # and a walk is never summed again
    assert _fingerprint(from_walk) == _fingerprint(from_samples)
