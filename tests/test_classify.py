import hashlib

import numpy as np
import pytest

from sqvar.classify import classify_partition, default_bad_threshold
from sqvar.seqcore import DistributionSpec, prefix_sums, sample_sequence
from sqvar.variation import Partition, partition_value, sq_variation_exact


def _three_singletons(n=16):
    """Singletons of 1, 4 and 30, then one interval of n - 3 zeros."""
    x = np.zeros(n)
    x[:3] = (1.0, 4.0, 30.0)
    return partition_value(prefix_sums(x), Partition(np.r_[0:4, n]))


def test_singleton_thresholds():
    # lnln 16 ~ 1.020: good cutoff 2.14 |I|, bad cutoff 102.0 |I| at eps 0.1, b 100
    br = classify_partition(_three_singletons(), 0.1, 100.0)
    assert br == dict(good_sum=1.0, medium_sum=16.0, bad_sum=900.0,
                      good_len=14, medium_len=1, bad_len=1)


def test_params_validation():
    scored = _three_singletons()
    with pytest.raises(ValueError):
        classify_partition(scored, 0.0, 5.0)
    with pytest.raises(ValueError):
        classify_partition(scored, 0.5, 2.5)  # B <= 2 + eps
    with pytest.raises(ValueError):
        classify_partition(scored, float("nan"), 10.0)
    with pytest.raises(ValueError, match="N >= 16"):
        classify_partition(partition_value(prefix_sums(np.ones(15)), Partition(np.r_[0, 15])),
                           0.1, 10.0)


def test_default_bad_threshold():
    assert default_bad_threshold(1.0) == 2432.0
    b = default_bad_threshold(0.5)
    assert b / 576.0 * (1.0 - 1.0 / 1.5) - 1.0 > 1.0


def test_partition_conservation():
    for trial in range(10):
        seq = sample_sequence(DistributionSpec("gaussian"), 256, trial)
        res = sq_variation_exact(prefix_sums(seq))
        br = classify_partition(res, 0.1, 8.0)
        assert br["good_sum"] + br["medium_sum"] + br["bad_sum"] == pytest.approx(res.value,
                                                                                 rel=1e-9)
        assert br["good_len"] + br["medium_len"] + br["bad_len"] == 256


def test_monotone_in_epsilon():
    seq = sample_sequence(DistributionSpec("gaussian"), 512, 3)
    res = sq_variation_exact(prefix_sums(seq))
    prev_good = -1.0
    for eps in (0.05, 0.2, 0.8, 2.0):
        br = classify_partition(res, eps, 50.0)
        assert br["good_sum"] >= prev_good
        prev_good = br["good_sum"]


def _maximal_breakdown(x, eps, b):
    return classify_partition(sq_variation_exact(prefix_sums(x)), eps, b)


def test_stats_trivial_cases():
    zeros = np.zeros(64)
    br = _maximal_breakdown(zeros, 0.1, 8.0)
    assert br["medium_len"] == 0
    assert br["bad_sum"] == 0.0
    # bounded samples small enough that no interval can be bad:
    # max |S_I|^2 <= (N max|x|)^2 = 2.56 kept below B lnln N ~ 9.94
    tiny = np.full(32, 0.05)
    assert _maximal_breakdown(tiny, 0.1, 8.0)["bad_sum"] == 0.0


def test_stat_upper_bound():
    for trial in range(5):
        seq = sample_sequence(DistributionSpec("rademacher"), 128, trial)
        v = sq_variation_exact(prefix_sums(seq)).value
        assert _maximal_breakdown(seq, 0.1, 4.0)["bad_sum"] <= v + 1e-12


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


# SHA-256 of repr of the tuple of the six class totals, good_sum .. bad_len,
# for the exact partition of gaussian sample_sequence(spec, n, seed) at
# eps 0.1, b 8, recorded before classification read the exact result's
# contributions
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
    br = classify_partition(sq_variation_exact(prefix_sums(x)), 0.1, 8.0)
    digest = hashlib.sha256(repr(tuple(br.values())).encode()).hexdigest()
    assert digest == BREAKDOWN_DIGESTS[n, seed]
