import hashlib
import math

import numpy as np
import pytest

from sqvar.seqcore import (
    _LOGTAIL_VARIANCE,
    DistributionSpec,
    _logtail_quantile,
    _logtail_raw_abs_moment,
    mix_seed,
    prefix_sums,
    sample_sequence,
)

ALL_SPECS = [
    DistributionSpec("rademacher"),
    DistributionSpec("gaussian"),
    DistributionSpec("uniform_centered"),
    DistributionSpec("pareto_sym", tail_exponent=5.0),
    DistributionSpec("logtail_sym"),
]


def test_rademacher_support():
    seq = sample_sequence(DistributionSpec("rademacher"), 4, 7)
    assert set(np.unique(seq)) <= {-1.0, 1.0}
    scaled = sample_sequence(DistributionSpec("rademacher", sigma=2.5), 100, 7)
    assert set(np.unique(scaled)) <= {-2.5, 2.5}


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_determinism_bit_for_bit(spec):
    a = sample_sequence(spec, 512, 123456789)
    b = sample_sequence(spec, 512, 123456789)
    assert a.tobytes() == b.tobytes() and not a.flags.writeable
    c = sample_sequence(spec, 512, 123456790)
    assert a.tobytes() != c.tobytes()


# SHA-256 of sample_sequence(spec, 512, 123456789), recorded before the
# log-tail variance was pinned and the quantile bisection learned to stop early
GOLDEN_DIGESTS = {
    "rademacher": "14dd98dd0fa610b7deac638ca08d5711a9e3a6504d5001f9d0a44eb3fb49ebdb",
    "gaussian": "1711cde1e836cbd208280007da9e9df9fd414af4bf9273ccb70e32b0375a138b",
    "uniform_centered": "28b847bb2eeaa66ff2b317e552fdcdc2b1d9b3bb5ecea589696308c474cf4d2a",
    "pareto_sym": "3a2e0f8334f3b76cd150bb1d97506bb82b1f72c35f25cc326d06b41c95e9294d",
    "logtail_sym": "1d4ef65eb30641d919144403b2d51914347fde13f9d8aed61737e788308a5d8e",
}


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_sample_bytes_golden(spec):
    samples = sample_sequence(spec, 512, 123456789)
    assert hashlib.sha256(samples.tobytes()).hexdigest() == GOLDEN_DIGESTS[spec.kind]


def _quantile_oracle(u):
    """The fixed 100-step bisection; also returns the first step (1-based)
    that moved neither lo nor hi, or None if every step moved something."""
    target = 1.0 / np.sqrt(u)
    lo = np.zeros_like(target)
    hi = np.maximum(target, 1.0)
    still = None
    for step in range(1, 101):
        mid = 0.5 * (lo + hi)
        above = mid * np.log(math.e + mid) > target
        new_hi = np.where(above, mid, hi)
        new_lo = np.where(above, lo, mid)
        if still is None and np.array_equal(new_hi, hi) and np.array_equal(new_lo, lo):
            still = step
        hi, lo = new_hi, new_lo
    return 0.5 * (lo + hi), still


EDGE_U = [1.0, np.nextafter(1.0, 0.0), 0.25, 2.0**-53]


def test_logtail_quantile_matches_100_step_oracle():
    rng = np.random.default_rng(41)
    for u in (1.0 - rng.random(4096), np.array(EDGE_U)):
        expected, still = _quantile_oracle(u)
        assert still is not None and still < 100
        assert _logtail_quantile(u).tobytes() == expected.tobytes()
    for edge in EDGE_U:
        u = np.array([edge])
        expected, still = _quantile_oracle(u)
        assert still is not None and still < 100, edge
        assert _logtail_quantile(u).tobytes() == expected.tobytes(), edge


def test_logtail_variance_pinned_to_quadrature():
    assert abs(_LOGTAIL_VARIANCE - _logtail_raw_abs_moment(2.0)) <= 2 * math.ulp(_LOGTAIL_VARIANCE)
    assert DistributionSpec("logtail_sym", sigma=3.0).abs_moment(2.0) == pytest.approx(9.0)


def test_gaussian_sample_variance_tight():
    n = 10**6
    seq = sample_sequence(DistributionSpec("gaussian"), n, 1)
    assert abs(np.mean(seq**2) - 1.0) <= 3.0 * math.sqrt(2.0 / n)


def test_pareto_fourth_moment_matches_closed_form():
    # rescaled symmetric Pareto, a=5: E|X|^4 = (a/(a-4)) / (a/(a-2))^2 = 9/5
    n = 10**6
    seq = sample_sequence(DistributionSpec("pareto_sym", tail_exponent=5.0), n, 1)
    m4 = float(np.mean(np.abs(seq) ** 4))
    analytic = 9.0 / 5.0
    assert math.isfinite(m4)
    assert abs(m4 - analytic) <= 0.10 * analytic


def test_empirical_variance_per_kind():
    # error bars from Var(sample second moment) = (E X^4 - sigma^4) / n;
    # the log-tail kind converges only at 1/log speed (the mass above the
    # typical sample maximum is ~2/ln(sqrt(n)) of the variance), so it gets
    # a wide one-sided band instead.
    n = 10**6
    bands = {
        "rademacher": 1e-12,
        "gaussian": 3.0 * math.sqrt(2.0 / n),
        "uniform_centered": 3.0 * math.sqrt(0.8 / n),
        "pareto_sym": 3.0 * math.sqrt(0.8 / n) * 30,  # heavy-tailed spread
    }
    for spec in ALL_SPECS:
        var = float(np.mean(sample_sequence(spec, n, 2024) ** 2))
        if spec.kind == "logtail_sym":
            assert 0.80 <= var <= 1.02
        else:
            assert abs(var - 1.0) <= bands[spec.kind], spec.kind


def test_pareto_requires_finite_variance():
    with pytest.raises(ValueError, match="variance infinite"):
        DistributionSpec("pareto_sym", tail_exponent=2.0)
    with pytest.raises(ValueError, match="variance infinite"):
        DistributionSpec("pareto_sym", tail_exponent=1.5)


def test_moment_orders():
    assert DistributionSpec("gaussian").moment_order == math.inf
    assert DistributionSpec("pareto_sym", tail_exponent=3.5).moment_order == 3.5
    assert DistributionSpec("logtail_sym").moment_order == 2.0
    p = DistributionSpec("pareto_sym", tail_exponent=4.0)
    assert p.has_abs_moment(3.9) and not p.has_abs_moment(4.0)
    lt = DistributionSpec("logtail_sym")
    assert lt.has_abs_moment(2.0) and not lt.has_abs_moment(2.01)


def test_abs_moment_closed_forms():
    g = DistributionSpec("gaussian")
    assert g.abs_moment(2.0) == pytest.approx(1.0)
    assert g.abs_moment(4.0) == pytest.approx(3.0)
    u = DistributionSpec("uniform_centered")
    assert u.abs_moment(2.0) == pytest.approx(1.0)
    a = math.sqrt(3.0)
    assert u.abs_moment(4.0) == pytest.approx(a**4 / 5.0)
    r = DistributionSpec("rademacher", sigma=2.0)
    assert r.abs_moment(3.0) == pytest.approx(8.0)
    lt = DistributionSpec("logtail_sym")
    assert lt.abs_moment(2.0) == pytest.approx(1.0, rel=1e-9)
    assert lt.abs_moment(3.0) == math.inf


def test_prefix_sums_basics():
    assert prefix_sums([3.5]).values.tolist() == [0.0, 3.5]
    assert prefix_sums([1, -2, 3]).values.tolist() == [0.0, 1.0, -1.0, 2.0]


def test_prefix_sums_telescoping_exact():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4096)
    ps = prefix_sums(x).values
    assert np.array_equal(np.diff(ps), np.cumsum(x) - np.concatenate([[0.0], np.cumsum(x)[:-1]]))
    # the defining identity: values[k] - values[k-1] reproduces the cumsum steps
    assert ps[0] == 0.0


def test_prefix_sum_total_against_fsum():
    rng = np.random.default_rng(11)
    for n in (17, 1000, (1 << 20) + 3):
        x = rng.standard_normal(n) * rng.uniform(0.1, 100)
        total = prefix_sums(x).values[-1]
        exact = math.fsum(x.tolist())
        assert abs(total - exact) <= 1e-12 * max(1.0, abs(exact))


def test_spec_string_round_trip():
    for text, kind in [
        ("gaussian:sigma=1", "gaussian"),
        ("pareto:a=4:sigma=1", "pareto_sym"),
        ("rademacher:sigma=2", "rademacher"),
        ("uniform:sigma=1.5", "uniform_centered"),
        ("logtail:sigma=1", "logtail_sym"),
        # exact, not rounded to 6 significant digits
        ("gaussian:sigma=0.1234567", "gaussian"),
        ("pareto:a=2.123456789:sigma=1", "pareto_sym"),
    ]:
        spec = DistributionSpec.from_string(text)
        assert spec.kind == kind
        again = DistributionSpec.from_string(spec.to_string())
        assert again == spec
    assert DistributionSpec.from_string("pareto:a=4:sigma=1").tail_exponent == 4.0


def test_mix_seed_spreads_and_repeats():
    assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
    seen = {mix_seed(7, n, t) for n in range(8) for t in range(64)}
    assert len(seen) == 8 * 64


def test_as_samples_shapes():
    assert prefix_sums([1, 2]).values.dtype == np.float64
    with pytest.raises(ValueError):
        prefix_sums(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        prefix_sums([])
