import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest

from sqvar import bounds, cli
from sqvar.bounds import (
    _normal_cdf,
    bernstein_maximal_bound,
    berry_esseen_distance,
    etemadi_check,
    maximal_tail_empirical,
    rosenthal_ratio,
    std_err,
)
from sqvar.seqcore import DistributionSpec

RAD = DistributionSpec("rademacher")
UNI = DistributionSpec("uniform")


def test_bernstein_closed_form():
    bound = bernstein_maximal_bound(30.0, 100.0, 1.0)
    assert bound == pytest.approx(2.0 * math.exp(-450.0 / 110.0))
    assert bound == pytest.approx(0.0334480, abs=5e-7)
    # exponent -> 0 caps the bound at 1
    assert bernstein_maximal_bound(1e-9, 1.0, 1.0) == 1.0
    for args, named in (((0.0, 1.0, 1.0), "t > 0, got 0.0"),
                        ((1.0, -1.0, 1.0), "sum_var > 0, got -1.0"),
                        ((1.0, 1.0, math.nan), "m_bound > 0, got nan")):
        with pytest.raises(ValueError, match=named):
            bernstein_maximal_bound(*args)


def test_bernstein_refuses_non_finite_arguments():
    for args, named in (((math.inf, 1.0, 1.0), "finite t > 0, got inf"),
                        ((1.0, math.inf, 1.0), "finite sum_var > 0, got inf"),
                        ((1.0, 1.0, math.inf), "finite m_bound > 0, got inf")):
        with pytest.raises(ValueError, match=named):
            bernstein_maximal_bound(*args)


def test_bernstein_monotonicity():
    vals = [bernstein_maximal_bound(t, 50.0, 2.0) for t in (5, 10, 20, 40)]
    assert vals == sorted(vals, reverse=True)
    by_m = [bernstein_maximal_bound(20.0, 50.0, m) for m in (0.5, 1.0, 2.0, 4.0)]
    assert by_m == sorted(by_m)
    by_var = [bernstein_maximal_bound(20.0, v, 1.0) for v in (10.0, 50.0, 200.0)]
    assert by_var == sorted(by_var)


def test_maximal_tail_impossible_and_certain():
    # t above L*M makes the event impossible
    assert maximal_tail_empirical(RAD, 8, 9.0, 2000, 1) == 0.0
    freq = maximal_tail_empirical(RAD, 8, 1e-6, 2000, 1)
    assert freq == 1.0
    assert std_err(freq, 2000) == 0.0
    with pytest.raises(ValueError):
        maximal_tail_empirical(RAD, 8, -1.0, 10, 1)


def test_maximal_tail_under_bernstein():
    for spec in (RAD, UNI):
        m = spec.almost_sure_bound()
        for t, ell in ((8.0, 64), (12.0, 64), (10.0, 128)):
            freq = maximal_tail_empirical(spec, ell, t, 20_000, 42)
            bound = bernstein_maximal_bound(t, float(ell), m)
            assert freq <= bound + 3.0 * std_err(freq, 20_000)


def test_etemadi():
    lhs, rhs = etemadi_check(RAD, 8, 4.0, 2000, 3)
    assert lhs == 0.0 and lhs <= rhs  # 3a = 12 > L*M = 8
    lhs, rhs = etemadi_check(RAD, 8, 1e-9, 500, 3)
    assert rhs == 3.0 and lhs <= 1.0
    lhs, rhs = etemadi_check(RAD, 32, 4.0, 20_000, 7)
    assert lhs <= rhs + 3.0 * std_err(lhs, 20_000)


@pytest.mark.parametrize("length,trials", [(0, 10), (8, 0)])
def test_estimators_refuse_an_empty_ensemble_before_any_draw(monkeypatch, length, trials):
    def no_draw(*args, **kwargs):
        raise AssertionError("a walk was drawn")

    monkeypatch.setattr(bounds, "sample_sequence", no_draw)
    monkeypatch.setattr(bounds, "_rng_for", no_draw)  # berry-esseen's binomial path
    gauss = DistributionSpec("gaussian")
    for estimate in (lambda: maximal_tail_empirical(RAD, length, 4.0, trials, 3),
                     lambda: etemadi_check(RAD, length, 4.0, trials, 3),
                     lambda: berry_esseen_distance(RAD, length, trials, 3),
                     lambda: berry_esseen_distance(gauss, length, trials, 3),
                     lambda: rosenthal_ratio(RAD, 4.0, length, trials, 3)):
        with pytest.raises(ValueError, match="^need L >= 1 and trials >= 1$"):
            estimate()


def test_berry_esseen_two_atom():
    d = berry_esseen_distance(RAD, 1, 100_000, 11)
    assert d == pytest.approx(0.5 * math.erf(1 / math.sqrt(2)), abs=0.005)


@pytest.mark.parametrize("z, rel", [(np.linspace(-8.0, 8.0, 3201), 2e-14),
                                    (np.linspace(-37.0, -8.0, 1161), 1e-12)],
                         ids=["central", "lower_tail"])
def test_normal_cdf_matches_mpmath(z, rel):
    # the CDF behind berry_esseen_distance against a 40-digit oracle; down to
    # -37 its value is still a normal float
    with mpmath.workdps(40):
        worst = max(float(abs(mpmath.mpf(got) / mpmath.ncdf(x) - 1))
                    for x, got in zip(z.tolist(), _normal_cdf(z).tolist()))
    assert worst <= rel


def test_berry_esseen_gaussian_small():
    d = berry_esseen_distance(DistributionSpec("gaussian"), 4, 100_000, 5)
    assert d <= 0.01


def test_berry_esseen_decreasing_in_k():
    d_small = berry_esseen_distance(RAD, 4, 100_000, 13)
    d_large = berry_esseen_distance(RAD, 10_000, 100_000, 13)
    assert d_large < d_small
    with pytest.raises(ValueError):
        berry_esseen_distance(DistributionSpec("gaussian", sigma=2.0), 4, 100, 0)


@pytest.mark.parametrize("spec,digest", [
    ("rademacher:sigma=1", "759c4baed8b7078877e5c1fd91193b072acfe09b8f1275e8141fb4df5a6a63ba"),
    ("gaussian:sigma=1", "419d167975c4299496fc37fad6b0a02e86bb797a2748749e79dcdaad261121d0"),
    ("logtail:sigma=1", "e80f373cf80d30a9abd25a958d4cf33110d529c219fca7e94d2efbe70ea3defe"),
])
def test_berry_esseen_golden(capsys, spec, digest):
    # SHA-256 of `sqvar bounds berry-esseen` stdout: the Rademacher sums drawn
    # as binomials, the others summed from sample blocks, two of them at k = 10000
    argv = ["bounds", "berry-esseen", "--spec", spec, "--trials", "500", "--seed", "4"]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_rosenthal_single_summand():
    assert rosenthal_ratio(RAD, 4.0, 1, 5000, 1) <= 1.0 + 1e-9
    assert rosenthal_ratio(DistributionSpec("gaussian"), 4.0, 1, 50_000, 1) <= 1.05


def test_rosenthal_gaussian_closed_form():
    # E|S_l|^4 = 3 l^2 for unit normals, so the ratio settles at 3^(1/4)
    g = DistributionSpec("gaussian")
    for ell in (10, 100):
        r = rosenthal_ratio(g, 4.0, ell, 40_000, 9)
        assert r == pytest.approx(3.0 ** 0.25, rel=0.05)


def test_rosenthal_bounded_over_ell():
    vals = [rosenthal_ratio(RAD, 4.0, ell, 20_000, 21) for ell in (1, 10, 100, 1000)]
    assert max(vals) / min(vals) < 2.0


def test_rosenthal_rejects_infinite_moment(monkeypatch):
    def no_walks(*args, **kwargs):
        raise AssertionError("a walk was drawn")

    # each moment is refused before any walk is drawn
    monkeypatch.setattr(bounds, "sample_sequence", no_walks)
    for spec, p, named in [
        (DistributionSpec("pareto", tail_exponent=3.0), 4.0,
         "^spec has infinite absolute moment of order 4.0$"),
        (DistributionSpec("logtail"), 4.0, "^spec has infinite absolute moment of order 4.0$"),
        (DistributionSpec("gaussian"), 400.0, "^E\\|X\\|\\^p overflows float64 at p = 400.0$"),
    ]:
        with pytest.raises(ValueError, match=named):
            rosenthal_ratio(spec, p, 10, 100, 0)
    with pytest.raises(ValueError):
        rosenthal_ratio(RAD, 2.0, 10, 100, 0)


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_rosenthal_rejects_non_finite_p(p):
    # named before the moment check, which would blame the spec for p = nan
    with pytest.raises(ValueError, match=f"finite p > 2, got p = {p!r}"):
        rosenthal_ratio(RAD, p, 10, 100, 0)


@pytest.mark.filterwarnings("error")
def test_overflowing_walks_fail_by_name():
    # finite samples whose partial sums leave float64 within 1000 steps
    spec = DistributionSpec("uniform", sigma=1e307)
    with pytest.raises(ValueError, match="^a Monte Carlo walk overflows float64$"):
        maximal_tail_empirical(spec, 1000, 1.0, 20, 0)
    with pytest.raises(ValueError, match="^a Monte Carlo walk overflows float64$"):
        etemadi_check(spec, 1000, 1.0, 20, 0)


@pytest.mark.parametrize("spec,p", [("rademacher:sigma=1", "1e308"), ("gaussian:sigma=1", "400"),
                                    ("gaussian:sigma=1", "305")])
def test_rosenthal_overflow_fails_by_name(spec, p, capsys):
    # rademacher: the empirical |S_l|^p overflows; gaussian: E|X|^p, where
    # math.gamma raises (p = 400) or the product rounds to inf (p = 305)
    argv = ["bounds", "rosenthal", "--spec", spec, "--p", p, "--trials", "100"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sqvar: error: ") and captured.err.count("\n") == 1
    assert f"p = {float(p)!r}" in captured.err


# Each check's estimator, stubbed to give a row whose pass value fails: a
# frequency above its bound, or a Berry-Esseen distance growing with k.
_FAILING = {
    "bernstein": ("maximal_tail_empirical", lambda spec, length, t, trials, seed: 1.0),
    "etemadi": ("etemadi_check", lambda spec, length, a, trials, seed: (1.0, 0.0)),
    "berry-esseen": ("berry_esseen_distance", lambda spec, k, trials, seed: float(k)),
    "rosenthal": ("rosenthal_ratio", lambda spec, p, ell, trials, seed: 1e9),
}


@pytest.mark.parametrize("check", list(_FAILING))
def test_cli_bounds_exit_code_follows_the_pass_values(tmp_path, capsys, monkeypatch, check):
    # exit 2 once the whole CSV is written; rosenthal's rows are report-only
    monkeypatch.setattr(bounds, *_FAILING[check])
    out = tmp_path / "bounds.csv"
    rc = cli.main(["bounds", check, "--trials", "10", "--out", str(out)])
    rows = [ln.split(",") for ln in out.read_text().splitlines()]
    assert len(rows) == 1 + len(cli._DEFAULT_GRIDS[check])
    passes = {row[4] for row in rows[1:]}
    if check == "rosenthal":
        assert (rc, passes) == (0, {"report-only"})
        assert capsys.readouterr().err == ""
    else:
        assert rc == 2 and "false" in passes
        assert capsys.readouterr().err == (
            "sqvar: invariant violation: empirical value exceeded its bound\n")


def test_cli_bernstein_refuses_an_unbounded_spec_whatever_the_grid(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("")
    for extra in ([], ["--grid", str(grid)]):
        assert cli.main(["bounds", "bernstein", "--spec", "gaussian:sigma=1", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "sqvar: error: bernstein comparison needs a bounded spec\n"
