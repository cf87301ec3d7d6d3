import hashlib
import math
import re

import pytest

from sqvar import cli, families
from sqvar.families import (
    IntervalFamily,
    RealInterval,
    build_F_Fs,
    build_H,
    build_L,
    check_H_cover,
    check_L_gaps,
    check_dyadic_cover,
    check_family_disjoint,
    cover_H,
    shift_count,
)


def test_F_Fs_counts():
    f, fs = build_F_Fs(2)
    assert sum(map(len, f.levels.values())) == 7  # 4 + 2 + 1
    assert [iv for iv in fs.all_intervals()] == [RealInterval(1.0, 3.0)]
    f, fs = build_F_Fs(3)
    assert sum(map(len, f.levels.values())) == 15
    assert sum(map(len, fs.levels.values())) == 4  # 3 + 1
    f, fs = build_F_Fs(1)
    assert sum(map(len, fs.levels.values())) == 0  # level range 1..0 empty
    # closed forms at larger n
    for n in range(1, 10):
        f, fs = build_F_Fs(n)
        assert sum(map(len, f.levels.values())) == (1 << (n + 1)) - 1
        assert sum(map(len, fs.levels.values())) == sum((1 << (n - i)) - 1 for i in range(1, n))


def test_F_level_shapes():
    f, fs = build_F_Fs(4)
    for i, ivs in f.levels.items():
        assert len(ivs) == 1 << (4 - i)
        assert all(iv.length == float(1 << i) for iv in ivs)
    for i, ivs in fs.levels.items():
        assert all(iv.start == (1 << (i - 1)) + k * (1 << i) for k, iv in enumerate(ivs))


def test_cover_dyadic_examples():
    # N=16 at eps'=1: (5,6] sits in (4,6]; (3,5] straddles 4 and needs the half shift
    assert cover_H(RealInterval(5, 6), 1.0, 4) == RealInterval(4.0, 6.0)
    assert cover_H(RealInterval(3, 5), 1.0, 4) == RealInterval(2.0, 6.0)
    assert cover_H(RealInterval(0, 16), 1.0, 4) == RealInterval(0.0, 16.0)
    with pytest.raises(ValueError):
        cover_H(RealInterval(3, 17), 1.0, 4)


def test_cover_dyadic_exhaustive():
    for n in range(1, 10):
        report = check_dyadic_cover(n)
        assert report["violations"] == 0


def test_family_disjointness():
    for n in (3, 6, 8):
        f, fs = build_F_Fs(n)
        assert check_family_disjoint(f)["overlaps"] == 0
        assert check_family_disjoint(fs)["overlaps"] == 0
    for eps in (0.25, 0.5, 1.0):
        for fam in build_H(eps, 8):
            assert check_family_disjoint(fam)["overlaps"] == 0


def test_build_H_shift_count_and_reduction():
    assert shift_count(1.0) == 1
    assert shift_count(0.5) == 2
    assert shift_count(0.25) == 4
    assert shift_count(0.3333333333333333) == 3
    assert shift_count(1 / 5) == 5
    fams = build_H(1.0, 5)
    assert len(fams) == 2
    f, _ = build_F_Fs(5)
    for i, ivs in f.levels.items():
        assert fams[0].levels[i] == ivs  # H_0 at eps'=1 is the dyadic family


def test_build_H_level_lengths():
    fams = build_H(0.5, 3)
    assert all(iv.length == pytest.approx(2.25) for iv in fams[0].levels[2])
    # shifts are j * eps' * (1+eps')^(i-1)
    h1 = fams[1].levels[2][0]
    assert h1.start == pytest.approx(0.5 * 1.5)
    with pytest.raises(ValueError):
        build_H(0.0, 3)
    with pytest.raises(ValueError):
        build_H(1.5, 3)


def test_cover_H_examples():
    top = RealInterval(0.0, 1.5**6)
    assert cover_H(top, 0.5, 6) == top
    # at eps'=1 the cover obeys the dyadic ratio < 4
    ip = RealInterval(3.0, 5.0)
    iv = cover_H(ip, 1.0, 4)
    assert iv.contains(ip) and iv.length < 4.0 * ip.length
    with pytest.raises(ValueError):
        cover_H(RealInterval(0.0, 100.0), 0.5, 3)


def _members(eps, n):
    return {(round(iv.start, 9), round(iv.end, 9))
            for fam in build_H(eps, n) for iv in fam.all_intervals()}


def test_cover_H_random_containment_awkward_ratio():
    # eps' = 0.3 leaves a truncated shift grid: refused by name on every draw,
    # never a wrong cover; eps' = 1/7 and 1/9 have no exact float grid yet
    # every draw is covered by a build_H interval
    import numpy as np

    rng = np.random.default_rng(42)
    n = 10
    top = 1.3 ** n
    for _ in range(500):
        ln = rng.uniform(1.0, top / 4)
        s = rng.uniform(0, top - ln)
        with pytest.raises(ValueError, match="eps' must be 1/k"):
            cover_H(RealInterval(s, s + ln), 0.3, n)
    for eps, n in ((1 / 7, 40), (1 / 9, 40)):
        top = (1 + eps) ** n
        members = _members(eps, n)
        for _ in range(500):
            ln = rng.uniform(1.0, top / 4)
            s = rng.uniform(0, top - ln)
            ip = RealInterval(s, s + ln)
            iv = cover_H(ip, eps, n)
            assert iv.contains(ip, 1e-9 * top)
            assert iv.length < (1 + eps) ** 2 * ip.length + 1e-9 * top
            assert (round(iv.start, 9), round(iv.end, 9)) in members


def test_cover_H_random_containment_standard_ratios():
    import numpy as np

    rng = np.random.default_rng(43)
    for eps, n in ((0.2, 10), (0.25, 10), (1 / 3, 10), (0.5, 10), (1.0, 8)):
        top = (1 + eps) ** n
        members = _members(eps, n)
        for _ in range(300):
            ln = rng.uniform(1.0, top / 4)
            s = rng.uniform(0, top - ln)
            ip = RealInterval(s, s + ln)
            iv = cover_H(ip, eps, n)
            assert iv.contains(ip, 1e-9 * top)
            assert iv.length < (1 + eps) ** 2 * ip.length + 1e-9 * top
            assert (round(iv.start, 9), round(iv.end, 9)) in members


def test_cover_H_grid():
    for eps in (0.2, 0.25, 1 / 3, 0.5, 1.0):
        for n in (4, 7):
            report = check_H_cover(eps, n, grid=40)
            assert report["violations"] == 0  # contained, ratio kept, a build_H interval


def test_eps_prime_not_a_reciprocal_integer_refused(capsys):
    # the cover lemma needs eps' = 1/k: every entry point refuses 0.3 by name
    named = "eps' must be 1/k for an integer k >= 1, got eps' = 0.3"
    with pytest.raises(ValueError, match=named):
        build_H(0.3, 7)
    with pytest.raises(ValueError, match=named):
        cover_H(RealInterval(1.0, 2.0), 0.3, 7)
    assert cli.main(["families", "check", "--scheme", "h", "--eps", "0.3", "--n", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sqvar: error: {named}\n"


def test_families_check_overflow_names_eps_and_n(capsys):
    # (1+eps')^n past float64 is refused by name, not by an OverflowError
    named = "(1+eps')^n overflows float64 at eps' = 1.0, n = 1100"
    with pytest.raises(ValueError, match=re.escape(named)):
        build_H(1.0, 1100)
    with pytest.raises(ValueError, match=re.escape(named)):
        cover_H(RealInterval(1.0, 2.0), 1.0, 1100)
    assert cli.main(["families", "check", "--scheme", "h", "--eps", "1", "--n", "1100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sqvar: error: {named}\n"


def test_build_L_shapes():
    fams = build_L(10, 10, k_max=3)
    l0 = list(fams[0].all_intervals())
    assert (l0[0].start, l0[0].end) == (0.0, 1.0)
    assert (l0[1].start, l0[1].end) == (1.0, 11.0)
    assert (l0[2].start, l0[2].end) == (11.0, 111.0)
    assert (l0[3].start, l0[3].end) == (111.0, 1111.0)
    # s=2, C=4: shifted copies admit k >= 1 only
    fams = build_L(2, 4, k_max=5)
    assert min(fams[1].levels) == 1
    assert min(fams[0].levels) == 0
    with pytest.raises(ValueError):
        build_L(2, 3)
    with pytest.raises(ValueError):
        build_L(1, 1)


def test_L_one_interval_per_size_and_disjoint():
    for s, c in ((2, 4), (3, 9), (10, 10)):
        for fam in build_L(s, c, k_max=8):
            assert all(len(ivs) == 1 for ivs in fam.levels.values())
            assert check_family_disjoint(fam)["overlaps"] == 0


def test_L_overlap_across_sizes_counted():
    # each L level holds one interval, so only a count across sizes can fail
    fam = IntervalFamily(scheme="L", shift_index=1,
                         levels={0: (RealInterval(0.0, 1.0),), 1: (RealInterval(0.5, 2.5),)})
    assert check_family_disjoint(fam) == {"scheme": "L", "shift": 1, "overlaps": 1}


def test_L_gap_law():
    for s, c in ((2, 4), (2, 8), (3, 9), (5, 25)):
        assert check_L_gaps(s, c)["gap_violations"] == 0


def test_real_interval_validation():
    assert RealInterval(1.5, 4.0).length == 2.5
    with pytest.raises(ValueError):
        RealInterval(2.0, 2.0)
    with pytest.raises(ValueError):
        RealInterval(-1.0, 1.0)


@pytest.mark.parametrize("argv,digest", [
    ("--scheme dyadic --n 8", "78710d7fed633cb66921ee032b65729831ea983dea18295278609c20e6d87d19"),
    ("--scheme h --eps 0.25 --n 7",
     "eba921f94f96b0ed671f47216b0b9e4fe6a67b91c66b64279175f48a108b8c8a"),
    ("--scheme h --eps 0.5 --n 7",
     "eafbc6579348f79c1486d6f377417ea899e89b81f54344f6ebb5e02a3a8b7754"),
    ("--scheme h --eps 1.0 --n 7",
     "bd2e9a085330336da06885b858f6230d2166e65f1569403425f159babaa63461"),
    ("--scheme h --eps 0.3333333333333333 --n 7",
     "241598f7069f0369e34dc56ffcf172cedc99031b78233f486fff3e7f1eadbb08"),
    ("--scheme l --s 2 --c 4", "cf46f1f892b40b749fa1b6968dd356d9f29bd3e32ebd5993ef160cd6c8eefb5b"),
    ("--scheme l --s 3 --c 9", "64951983ca9fd8d51bc0bf38fbe44b5d9a15b295ecb005f685c670f254cfc237"),
])
def test_families_check_golden(capsys, argv, digest):
    # SHA-256 of `sqvar families check` stdout: any change to a family, a cover
    # or a check that alters a printed byte fails here
    assert cli.main(["families", "check", *argv.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_families_check_prints_rows_before_a_cover_error(capsys, monkeypatch):
    # rows print as they are checked: an error in the H cover check still
    # leaves the disjointness rows computed before it on stdout
    def no_cover(epsilon_prime, n, grid=100):
        raise ValueError("no cover")

    monkeypatch.setattr(families, "check_H_cover", no_cover)
    assert cli.main(["families", "check", "--scheme", "h", "--eps", "0.25", "--n", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "".join(f"PASS  scheme=H shift={k} overlaps=0\n" for k in range(5))
    assert captured.err == "sqvar: error: no cover\n"
