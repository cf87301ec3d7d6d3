import dataclasses
import hashlib

import numpy as np
import pytest

from sqvar.classify import ClassParams, classify_partition, default_bad_threshold
from sqvar.seqcore import DistributionSpec, prefix_sums, sample_sequence
from sqvar.variation import Partition, partition_value, sq_variation_exact

PARAMS = ClassParams(epsilon=0.1, b_threshold=100.0, n_ref=10**6)


def _single(value: float):
    return partition_value(prefix_sums([value]), Partition(np.array([0, 1])))


def test_singleton_thresholds():
    # lnln(1e6) ~ 2.626: good cutoff 5.51, bad cutoff 262.6
    br = classify_partition(_single(2.0), PARAMS)
    assert (br.good_sum, br.medium_sum, br.bad_sum) == (4.0, 0.0, 0.0)
    br = classify_partition(_single(4.0), PARAMS)
    assert (br.good_sum, br.medium_sum, br.bad_sum) == (0.0, 16.0, 0.0)
    br = classify_partition(_single(30.0), PARAMS)
    assert (br.good_sum, br.medium_sum, br.bad_sum) == (0.0, 0.0, 900.0)
    assert br.bad_len == 1 and br.good_len == 0


def test_params_validation():
    with pytest.raises(ValueError):
        ClassParams(epsilon=0.0, b_threshold=5.0, n_ref=100)
    with pytest.raises(ValueError):
        ClassParams(epsilon=0.5, b_threshold=2.5, n_ref=100)  # B <= 2 + eps
    with pytest.raises(ValueError):
        ClassParams(epsilon=float("nan"), b_threshold=10.0, n_ref=100)
    with pytest.raises(ValueError):
        ClassParams(epsilon=0.1, b_threshold=10.0, n_ref=15)


def test_default_bad_threshold():
    assert default_bad_threshold(1.0) == 2432.0
    b = default_bad_threshold(0.5)
    assert b / 576.0 * (1.0 - 1.0 / 1.5) - 1.0 > 1.0


def test_partition_conservation():
    for trial in range(10):
        seq = sample_sequence(DistributionSpec("gaussian"), 256, trial)
        res = sq_variation_exact(prefix_sums(seq))
        br = classify_partition(res, ClassParams(0.1, 8.0, 256))
        assert br.good_sum + br.medium_sum + br.bad_sum == pytest.approx(res.value, rel=1e-9)
        assert br.good_len + br.medium_len + br.bad_len == 256


def test_monotone_in_epsilon():
    seq = sample_sequence(DistributionSpec("gaussian"), 512, 3)
    res = sq_variation_exact(prefix_sums(seq))
    prev_good = -1.0
    for eps in (0.05, 0.2, 0.8, 2.0):
        br = classify_partition(res, ClassParams(eps, 50.0, 512))
        assert br.good_sum >= prev_good
        prev_good = br.good_sum


def _maximal_breakdown(x, params):
    return classify_partition(sq_variation_exact(prefix_sums(x)), params)


def test_stats_trivial_cases():
    zeros = np.zeros(64)
    br = _maximal_breakdown(zeros, ClassParams(0.1, 8.0, 64))
    assert br.medium_len == 0
    assert br.bad_sum == 0.0
    # bounded samples small enough that no interval can be bad:
    # max |S_I|^2 <= (N max|x|)^2 kept below B * lnln(n_ref)
    tiny = np.full(32, 0.05)
    assert _maximal_breakdown(tiny, ClassParams(0.1, 8.0, 10**6)).bad_sum == 0.0


def test_stat_upper_bound():
    for trial in range(5):
        seq = sample_sequence(DistributionSpec("rademacher"), 128, trial)
        params = ClassParams(0.1, 4.0, 128)
        v = sq_variation_exact(prefix_sums(seq)).value
        assert _maximal_breakdown(seq, params).bad_sum <= v + 1e-12


def test_tilde_sandwich():
    # the maximal step of the dyadic upper bound: the largest sub-sum squared
    # Y of an interval and its largest prefix sum squared ~Y satisfy
    # ~Y <= Y <= 4 ~Y
    rng = np.random.default_rng(1)
    for trial in range(20):
        walk = prefix_sums(rng.standard_normal(128))
        s = walk.values
        y = float(np.max(np.subtract.outer(s, s) ** 2))
        tilde = float(np.max((s[1:] - s[0]) ** 2))
        assert tilde <= y + 1e-12
        assert y <= 4.0 * tilde + 1e-12


# SHA-256 of repr(dataclasses.astuple(breakdown)) for the exact partition of
# gaussian sample_sequence(spec, n, seed) under ClassParams(0.1, 8.0, n),
# recorded before classification read the exact result's contributions
BREAKDOWN_DIGESTS = {
    (100, 0): "c183acc1a78dad2755e572dbccb72df4ca4ef92e3bbb402076786bbcde7f3b8d",
    (100, 1): "22054822c8c9f2608e444dfe0076e0cd4af326c79f7d357d75c793f681f0fe70",
    (100, 2): "5b693549844c799cb66df04860dcc975ec320303177f49694d04c4935edd9824",
    (4096, 0): "6a061829ae333b6e7c8f218e1a59d7727b386de87bec7e74e2d0700b04816768",
    (4096, 1): "9103bdbb3365ca0c0de9988a2a4c4ae9ba990e3668ac36c438304f7dcb4b11ea",
    (4096, 2): "429159117914d03b3127d35127f25c685459239194ce8bf4bc1896b6595c33fa",
}


@pytest.mark.parametrize("n,seed", sorted(BREAKDOWN_DIGESTS))
def test_breakdown_golden(n, seed):
    x = sample_sequence(DistributionSpec("gaussian"), n, seed)
    br = classify_partition(sq_variation_exact(prefix_sums(x)), ClassParams(0.1, 8.0, n))
    digest = hashlib.sha256(repr(dataclasses.astuple(br)).encode()).hexdigest()
    assert digest == BREAKDOWN_DIGESTS[n, seed]
