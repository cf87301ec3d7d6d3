import hashlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sqvar import seqcore
from sqvar.seqcore import (
    _LOGTAIL_VARIANCE,
    DistributionSpec,
    _logtail_quantile,
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


# the same at sigma = 3 and N = 2^15 + 3, past one _CHUNK of the log-tail
# quantile and of the sign draws; pareto and logtail were recorded before their
# draws were scaled in place, the other three before the signs were drawn a
# _CHUNK at a time
SIGMA3_GOLDEN = {
    "rademacher": (DistributionSpec("rademacher", sigma=3.0),
                   "cde5a3cc559b3431af8019a91b24e57c5252ade239915236d341f08451566d1e"),
    "gaussian": (DistributionSpec("gaussian", sigma=3.0),
                 "83ceb6799165525ad9f3abab19d9d5cf2693af05d78012b3e386206ef65ec390"),
    "uniform_centered": (DistributionSpec("uniform_centered", sigma=3.0),
                         "1d95a24d273490fa9d63cbfdd000604a47231729d6416c17fad92362945f7cd8"),
    "pareto_sym": (DistributionSpec("pareto_sym", sigma=3.0, tail_exponent=2.5),
                   "537dead822602b2c0f65bf38f5936a0fec3378f3f57ee353758add9a454f5aae"),
    "logtail_sym": (DistributionSpec("logtail_sym", sigma=3.0),
                    "9b1023daa43edf887c1c4ade303b1ecd1fc3b0caf256dc8649a78d103bfd895a"),
}


@pytest.mark.parametrize("spec,n,digest", [
    *(pytest.param(spec, 512, GOLDEN_DIGESTS[spec.kind], id=spec.kind) for spec in ALL_SPECS),
    *(pytest.param(spec, (1 << 15) + 3, digest, id=f"{kind}-sigma3")
      for kind, (spec, digest) in SIGMA3_GOLDEN.items()),
])
def test_sample_bytes_golden(spec, n, digest):
    samples = sample_sequence(spec, n, 123456789)
    assert hashlib.sha256(samples.tobytes()).hexdigest() == digest
    # drawn into a walk's buffer, as a lab trial does: the same bytes, in place
    buf = np.empty(n + 1)
    drawn = sample_sequence(spec, n, 123456789, out=buf[1:])
    assert np.shares_memory(drawn, buf) and not drawn.flags.writeable
    assert hashlib.sha256(buf[1:].tobytes()).hexdigest() == digest


def test_sample_out_must_hold_n_floats():
    spec = DistributionSpec("gaussian")
    for out in (np.empty(5), np.empty(4, dtype=np.float32), np.empty((2, 2))):
        with pytest.raises(ValueError, match="^out must be a float64 array of n = 4 elements$"):
            sample_sequence(spec, 4, 1, out=out)
    with pytest.raises(ValueError, match="^out must be a float64 array of N \\+ 1 = 5 elements$"):
        prefix_sums(np.ones(4), out=np.empty(4))
    # the walk consumes its samples in place only from out[1:]
    buf = np.arange(6.0)
    for samples in (buf[:5], buf[::-1][:5]):
        with pytest.raises(ValueError, match="^samples that share memory with out must be out"):
            prefix_sums(samples, out=buf)
    assert prefix_sums(buf[1:], out=buf).values.tolist() == [0.0, 1.0, 3.0, 6.0, 10.0, 15.0]


def test_sum_of_the_samples_in_a_walk_buffer_matches_a_fresh_array():
    # a trial takes S_N^2 from np.sum of buf[1:], which is 8 bytes off the
    # buffer's alignment; numpy's pairwise sum must not depend on it
    rng = np.random.default_rng(609)
    for n in [*range(1, 601), *((1 << k) + d for k in range(10, 21) for d in (-1, 0, 1))]:
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        buf = np.empty(n + 1)
        buf[1:] = x
        assert np.sum(buf[1:]) == np.sum(x.copy()), n


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


def _assert_quantile_exact(u):
    expected, still = _quantile_oracle(u)
    assert still is not None and still < 100
    assert _logtail_quantile(u).tobytes() == expected.tobytes()


@given(st.lists(st.integers(1, 2**53), min_size=1, max_size=64))
@example([1, 2**53])
def test_logtail_quantile_exact_on_draw_lattice(ks):
    # 1 - rng.random(n) draws u = k 2^-53 for k = 1 ... 2^53
    _assert_quantile_exact(np.array(ks, dtype=np.float64) * 2.0**-53)


@given(st.lists(st.floats(5e-324, 1.0), min_size=1, max_size=64))
@example([5e-324, 1.0])
def test_logtail_quantile_exact_down_to_smallest_u(us):
    _assert_quantile_exact(np.array(us))


def test_logtail_quantile_exact_on_chunked_draws():
    # longer than one chunk, so the chunks (the last of one element) are stitched
    n, seed = seqcore._CHUNK * 2 + 1, 43
    rng = seqcore._rng_for(seed)
    u = 1.0 - rng.random(n)  # in stream order: all magnitudes, then all signs
    sign = 2.0 * rng.integers(0, 2, size=n) - 1.0
    expected, still = _quantile_oracle(u)
    assert still is not None and still < 100
    expected *= 3.0 / math.sqrt(_LOGTAIL_VARIANCE)
    expected *= sign
    samples = sample_sequence(DistributionSpec("logtail_sym", sigma=3.0), n, seed)
    assert samples.tobytes() == expected.tobytes()


def _counting_bisect(monkeypatch):
    bisected = []
    real = seqcore._bisect

    def bisect(target):
        bisected.append(len(target))
        return real(target)
    monkeypatch.setattr(seqcore, "_bisect", bisect)
    return bisected


def test_logtail_quantile_falls_back_where_the_window_fails(monkeypatch):
    u = 1.0 - np.random.default_rng(44).random(4096)
    chosen = np.zeros(len(u), dtype=bool)
    chosen[[0, 17, 18, 1000, 4095]] = True
    real = seqcore._crossing

    def crossing(bits, target):
        low, ok = real(bits, target)
        return low, ok & ~chosen
    monkeypatch.setattr(seqcore, "_crossing", crossing)
    bisected = _counting_bisect(monkeypatch)
    _assert_quantile_exact(u)
    assert bisected == [chosen.sum()]


@pytest.mark.parametrize("newton,reach", [(0, 5), (1, 5), (2, 5), (4, 0), (4, 1)])
def test_logtail_quantile_falls_back_where_the_window_misses(monkeypatch, newton, reach):
    # with too few Newton steps or too narrow a window some elements' crossing
    # lies outside the window; the certificate holds for any of these constants
    monkeypatch.setattr(seqcore, "_NEWTON_STEPS", newton)
    monkeypatch.setattr(seqcore, "_REACH", reach)
    bisected = _counting_bisect(monkeypatch)
    _assert_quantile_exact(1.0 - np.random.default_rng(45).random(4096))
    assert bisected and 0 < bisected[0] <= 4096


@pytest.mark.parametrize("reach", [0, 1, 5, 8])
def test_crossing_certifies_only_a_crossing_in_the_window(monkeypatch, reach):
    # one chunk of elements k = -(R + 3) ... R + 3 floats from their crossing
    # L (above false at L, true at the float after it): a certified element
    # returns L, and one whose crossing lies outside A = x - R - 1 ... B =
    # x + R + 2, where the bounds sit, is not certified; the bounds hold 4
    # floats out from the crossing, so |k| <= R - 3 is certified, but not
    # always 1 float out, at k = R (A = L - 1) and k = -R (B = L + 2)
    monkeypatch.setattr(seqcore, "_REACH", reach)
    u = 1.0 - np.random.default_rng(48).random(64)
    ks = np.arange(-reach - 3, reach + 4)
    target = np.repeat(1.0 / np.sqrt(u), len(ks))
    crossing = seqcore._bisect(target).view(np.int64).copy()
    # the midpoint rounds to L or to the float after it
    crossing -= seqcore._above(crossing.view(np.float64), target)
    for j in range(2 * reach + 6):  # no other crossing near
        assert not seqcore._above((crossing - j).view(np.float64), target).any()
        assert seqcore._above((crossing + 1 + j).view(np.float64), target).all()
    k = np.tile(ks, 64)
    low, ok = seqcore._crossing(crossing + k, target)
    np.testing.assert_array_equal(low[ok], crossing[ok])
    assert not ok[abs(k) >= reach + 2].any() and ok[abs(k) <= reach - 3].all()
    assert not ok[k == reach].all() and not ok[k == -reach].all()


def test_logtail_quantile_needs_no_bisection_on_draws(monkeypatch):
    bisected = _counting_bisect(monkeypatch)
    _assert_quantile_exact(1.0 - np.random.default_rng(46).random(1 << 16))
    assert bisected == []


def test_logtail_quantile_exact_at_binade_edges(monkeypatch):
    # u whose crossing x has ln(e + x) near 2^k, where the floats the bounds
    # of the window step over change spacing
    x = np.concatenate([(math.exp(2.0**k) - math.e) * (1.0 + np.arange(-200, 200) * 2.0**-52)
                        for k in range(1, 8)])
    target = x * np.log(math.e + x)
    bisected = _counting_bisect(monkeypatch)
    _assert_quantile_exact(1.0 / (target * target))
    assert bisected == []


def test_log_error_fits_the_window():
    # the window's certificate assumes only that np.log errs by less than 1 ulp
    rng = np.random.default_rng(47)
    x = np.concatenate([_logtail_quantile(1.0 - rng.random(2000)),
                        np.exp(rng.uniform(math.log(0.7), math.log(1e159), 2000))])
    arg = math.e + x
    got = np.log(arg)
    with mpmath.workprec(120):
        c = max(float(abs(mpmath.mpf(g) - mpmath.log(a)) / math.ulp(g))
                for a, g in zip(arg.tolist(), got.tolist()))
    assert c < 1


def _logtail_raw_variance() -> mpmath.mpf:
    """E X^2 of the unscaled log-tail law to 40 digits: x0^2 plus the integral
    of 2 x^-1 ln^-2(e+x) over (x0, inf), x0 the root of x ln(e+x) = 1 below
    which P[|X| > x] = 1. Integrated after u = ln(e+x), where the integrand
    becomes the cleanly decaying 2 (1 - e^{1-u})^-1 / u^2."""
    with mpmath.workdps(40):
        x0 = mpmath.findroot(lambda x: x * mpmath.log(mpmath.e + x) - 1, 0.5)
        val = mpmath.quad(lambda u: 2 / ((1 - mpmath.exp(1 - u)) * u * u),
                          [mpmath.log(mpmath.e + x0), mpmath.inf])
        return x0**2 + val


def test_logtail_variance_pinned_to_quadrature():
    # the pinned constant is 2.87 ulps above E X^2, the third float above its
    # correct rounding; it scales every log-tail sample, so it stays as it is
    exact = _logtail_raw_variance()
    above = float(exact)  # correctly rounded
    for _ in range(3):
        above = math.nextafter(above, math.inf)
    assert _LOGTAIL_VARIANCE == above
    assert abs(mpmath.mpf(_LOGTAIL_VARIANCE) - exact) / exact < 1e-15
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


@pytest.mark.filterwarnings("error")
def test_uniform_range_must_be_finite():
    with pytest.raises(ValueError, match="^uniform range 2 sigma sqrt\\(3\\) overflows float64 "
                                         "at sigma = 1e\\+308$"):
        DistributionSpec("uniform_centered", sigma=1e308)
    spec = DistributionSpec("uniform_centered", sigma=2.5e307)  # 2 sigma sqrt(3) = 8.7e307
    x = sample_sequence(spec, 4096, 5)
    assert np.isfinite(x).all() and np.abs(x).max() <= spec.almost_sure_bound()


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
    for p in (0.0, 1.0, 1.5):  # computed only where a command needs it
        with pytest.raises(ValueError, match=f"got p = {p!r}$"):
            lt.abs_moment(p)


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


# SHA-256 of prefix_sums(sample_sequence(spec, N, 5)).values.tobytes(), recorded
# with the one-piece longdouble cumsum (x86-64, 80-bit long double), at sizes
# that end on, just past and well past a boundary of _CHUNK = 2^15 samples
_BIG = 1 << 20
_PAST = _BIG + (1 << 15) + 1
WALK_DIGESTS = {
    ("gaussian", _BIG): "732fd10e5b6fa4434ab3c2fff07ee45630b1d6c93974c005b2545c84d513f867",
    ("gaussian", _BIG + 1): "968ee3d8a1b88a75b7059043aa7beb9bf4f063fd61fa65ef9a6ee4c0a13c96df",
    ("gaussian", _PAST): "d8482bace8c374ea06005b6e718c1e1695b57b545d355aee25096eb6ff2dbc51",
    ("gaussian", 3 * _BIG + 5): "b3dabff4aca0d7e68fc966ab91909c1b368dc48d226882ce81a51b007128b40d",
    ("logtail", _BIG): "31e253c38317c1674063721a2898f295622cd304dc606019e4542f1048aa9f53",
    ("logtail", _BIG + 1): "a0fe08b0766c50a686355fe525016a86d96780d5c72b410075b11bf0187b89c5",
    ("logtail", _PAST): "d32c3e42617b7b5501c713685ffe9a65e06a0493ed868924023cfeac8c210637",
    ("logtail", 3 * _BIG + 5): "2184e899a9acc1d5f0f02c33f9bf92d599a6ef02a31b9466b68b2899f64c70ea",
    ("pareto", _BIG): "db5d1c3e64ef38b42b68983d6ed08a4a13d4f5440a6ca16f7c4bc396cbe276e0",
    ("pareto", _BIG + 1): "88f6c3d6bbc359a7530d1d549d496aab7cefd88dfbe3bbb6db038d39f2d27fc6",
    ("pareto", _PAST): "550c652ac324550a5110ee0311a82b2e7bc6520abe7a37f25c490bfba51f673f",
    ("pareto", 3 * _BIG + 5): "ff9af7615e9073d06c34ccc01016da20c9edd2e0cd68ed668b9c496e6fea9d93",
}
_WALK_SPECS = {"gaussian": DistributionSpec("gaussian"),
               "logtail": DistributionSpec("logtail_sym"),
               "pareto": DistributionSpec("pareto_sym", tail_exponent=2.5)}


@pytest.mark.parametrize("kind,n", sorted(WALK_DIGESTS))
def test_extended_walk_bytes_golden(kind, n):
    walk = prefix_sums(sample_sequence(_WALK_SPECS[kind], n, 5))
    assert hashlib.sha256(walk.values.tobytes()).hexdigest() == WALK_DIGESTS[kind, n]


# one float64 size past one _CHUNK, beside the long-double sizes
_FLOAT64_PAST = (1 << 15) + 1


@pytest.mark.parametrize("n", [(1 << 15) - 1, _FLOAT64_PAST, (1 << 18) + 5])
def test_float64_walk_matches_one_cumsum(n):
    # below _EXTENDED_CUTOFF the chunked float64 sums are one sequential cumsum,
    # bit for bit; magnitudes spread over 1e-6 ... 1e6 make most additions round
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
    values = prefix_sums(x).values
    assert values[1:].tobytes() == np.cumsum(x).tobytes() and values[0] == 0.0


def test_extended_walk_keeps_negative_zero():
    for n in (_FLOAT64_PAST, _BIG):
        x = np.zeros(n)
        x[0] = -0.0
        x[1] = 1.0
        values = prefix_sums(x).values
        assert math.copysign(1.0, values[1]) == -1.0 and values[2] == 1.0


def _in_place(x):
    """x as the samples of a walk buffer, buf[1:], as a lab trial holds them."""
    buf = np.empty(len(x) + 1)
    buf[1:] = x
    return buf[1:], buf


def test_extended_walk_refuses_float64_overflow_that_longdouble_undoes():
    x = np.zeros(_BIG)
    x[:4] = [1e308, 1e308, -1e308, -1e308]
    with pytest.raises(ValueError, match="^partial sum overflows float64 at index 1$"):
        prefix_sums(x)
    samples, buf = _in_place(x)
    with pytest.raises(ValueError, match="^partial sum overflows float64 at index 1$"):
        prefix_sums(samples, out=buf)
    # a NaN later in the same chunk does not hide the first non-finite sum
    x[7] = np.nan
    with pytest.raises(ValueError, match="^partial sum overflows float64 at index 1$"):
        prefix_sums(x)
    samples, buf = _in_place(x)
    with pytest.raises(ValueError, match="^partial sum overflows float64 at index 1$"):
        prefix_sums(samples, out=buf)


def test_extended_walk_names_a_nan_in_the_last_chunk():
    for n in (2 * _FLOAT64_PAST, 3 * _BIG + 5):
        x = np.ones(n)
        x[n - 2] = np.nan
        with pytest.raises(ValueError, match=f"^non-finite sample nan at index {n - 2}$"):
            prefix_sums(x)
        # in place the samples of the failing chunk are still there to name
        samples, buf = _in_place(x)
        with pytest.raises(ValueError, match=f"^non-finite sample nan at index {n - 2}$"):
            prefix_sums(samples, out=buf)


def test_extended_walk_holds_little_beside_the_walk():
    x = sample_sequence(DistributionSpec("gaussian"), _BIG, 5)
    samples, buf = _in_place(x)
    peaks = []
    for args, kwargs in (((x,), {}), ((samples,), {"out": buf})):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prefix_sums(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.3 * (_BIG + 1) * 8
    # in place only the long-double chunk and a chunk's mask are held
    assert peaks[1] <= 0.1 * (_BIG + 1) * 8, peaks
    assert buf.tobytes() == prefix_sums(x).values.tobytes()


@pytest.mark.parametrize("spec", [DistributionSpec("rademacher"),
                                  DistributionSpec("pareto_sym", tail_exponent=2.5),
                                  DistributionSpec("logtail_sym")], ids=lambda s: s.kind)
def test_signed_sample_holds_little_beside_itself(spec):
    # |X| is built in the returned array, and the log-tail quantiles and the
    # signs a _CHUNK at a time, so no other N-sized array is held
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sample_sequence(spec, _BIG, 5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.35 * _BIG * 8


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
