import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqvar import bounds, classify, cli, greedy, labcli, seqcore, variation
from sqvar.greedy import GreedyParams
from sqvar.labcli import (
    _CONFIG_KEYS,
    CSV_COLUMNS,
    PLOT_KINDS,
    ExperimentConfig,
    InvariantViolation,
    TrialRecord,
    _check_record,
    emit_plotdata,
    format_summary,
    parse_config,
    records_from_csv,
    records_to_csv,
    run_experiment,
    run_trial,
    summarize,
    write_outputs,
)
from sqvar.seqcore import DistributionSpec, mix_seed

from oracles import read_numbers

CONFIG_TEXT = """
[experiment]
spec = gaussian:sigma=1
n_grid = 64, 128
trials = 3
master_seed = 99
algorithms = exact, blocked:4, dyadic_upper, greedy
output = {out}

[classify]
eps = 0.1
b = 8

[greedy]
s = 2
c = 4
alpha = 0.25
eps3 = 0.5
"""


def _config(tmp_path, **overrides):
    out = str(tmp_path / "records.csv") if tmp_path is not None else "records.csv"
    kwargs = dict(
        spec=DistributionSpec("gaussian"),
        n_grid=(64, 128),
        trials=3,
        master_seed=99,
        block=4,
        dyadic_upper=True,
        thresholds=(0.1, 8.0),
        output_path=out,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(None, n_grid=(128, 64))
    with pytest.raises(ValueError):
        _config(None, trials=-1)
    assert _config(None, n_grid=(1 << 16,)).n_grid == (1 << 16,)  # no size cap on exact


@pytest.mark.parametrize("kwargs,named", [
    (dict(block=0), "^block: must be >= 1, got 0$"),
    (dict(thresholds=(0.1, 1.0)),
     "^thresholds: needs eps > 0 and b > 2 \\+ eps, got eps = 0.1, b = 1$"),
    (dict(exact=False, block=None),
     "^thresholds: needs an exact or blocked partition to classify$"),
], ids=["block-0", "thresholds-range", "thresholds-unscored"])
def test_config_built_in_code_refuses_at_construction(monkeypatch, kwargs, named):
    # named by field before any trial, as parse_config names them by section
    monkeypatch.setattr(labcli, "sample_sequence", _no_kernel)
    with pytest.raises(ValueError, match=named):
        run_experiment(_config(None, **kwargs))


def test_run_trial_fields_and_ordering(tmp_path):
    cfg = _config(tmp_path)
    records = run_experiment(cfg)
    assert [(r.n, r.trial_index) for r in records] == [
        (64, 0), (64, 1), (64, 2), (128, 0), (128, 1), (128, 2)]
    for r in records:
        assert r.v2_blocked <= r.v2_exact <= r.v2_dyadic_upper
        assert r.s_n_sq <= r.v2_exact + 1e-9
        assert r.ratio == pytest.approx(r.v2_exact / (2 * r.n * math.log(math.log(r.n))))
        assert r.ratio_lo == pytest.approx(r.ratio) and r.ratio_hi == pytest.approx(r.ratio)
        assert r.good_len + r.medium_len + r.bad_len == r.n


def test_classifies_the_blocked_score_without_exact(tmp_path, monkeypatch):
    # without exact, each trial classifies the blocked partition of its walk;
    # the expected columns are totalled here one interval at a time
    monkeypatch.setattr(variation, "sq_variation_exact", _no_kernel)
    cfg = _config(tmp_path, exact=False, thresholds=(0.1, 4.0))
    seen = set()
    for n in cfg.n_grid:
        ll = math.log(math.log(n))
        for t in range(cfg.trials):
            rec = run_trial(cfg, n, t)
            samples = seqcore.sample_sequence(cfg.spec, n, mix_seed(cfg.master_seed, n, t))
            res = variation.sq_variation_blocked(seqcore.prefix_sums(samples), 4)
            cuts = res.partition.breakpoints
            sums = dict.fromkeys(("good", "medium", "bad"), 0.0)
            lens = dict.fromkeys(sums, 0)
            for a, b, s2 in zip(cuts[:-1], cuts[1:], res.contributions):
                k = ("good" if s2 <= 2.1 * (b - a) * ll else
                     "bad" if s2 > 4.0 * (b - a) * ll else "medium")
                sums[k] += s2
                lens[k] += int(b - a)
            got_sums = (rec.good_sum, rec.medium_sum, rec.bad_sum)
            assert got_sums == pytest.approx(tuple(sums.values()), rel=1e-12)
            assert (rec.good_len, rec.medium_len, rec.bad_len) == tuple(lens.values())
            assert (rec.eps_param, rec.b_param) == (0.1, 4.0)
            seen.update(k for k, length in lens.items() if length)
    assert seen == {"good", "medium", "bad"}


def test_trials_zero_gives_header_only(tmp_path):
    cfg = _config(tmp_path, trials=0)
    records = run_experiment(cfg)
    assert records == []
    write_outputs(records, cfg)
    with open(cfg.output_path) as fh:
        text = fh.read()
    assert text == ",".join(CSV_COLUMNS) + "\n"


def test_determinism_under_thread_counts(tmp_path):
    cfg = _config(tmp_path)
    outputs = []
    for threads in ("1", "8"):
        os.environ["SQVAR_THREADS"] = threads
        try:
            records = run_experiment(cfg)
        finally:
            del os.environ["SQVAR_THREADS"]
        outputs.append(records_to_csv(records))
    assert outputs[0] == outputs[1]


def test_pool_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    # a fork-started pool forks every worker at the first submit, so the
    # count must be capped by the cells; a serial stand-in records it
    import concurrent.futures

    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append([max_workers])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            pools[-1].append(chunksize)
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    for threads, trials, expected in (("8", 3, [6, 1]), ("5000", 1, [2, 1]), ("2", 3, [2, 1])):
        cfg = _config(tmp_path, trials=trials)
        monkeypatch.setenv("SQVAR_THREADS", "1")
        serial = records_to_csv(run_experiment(cfg))
        monkeypatch.setenv("SQVAR_THREADS", threads)
        assert records_to_csv(run_experiment(cfg)) == serial
        assert pools.pop() == expected and not pools


def test_csv_round_trip(tmp_path):
    cfg = _config(tmp_path)
    records = run_experiment(cfg)
    text = records_to_csv(records)
    back = records_from_csv(text)
    for a, b in zip(records, back):
        for col in CSV_COLUMNS:
            assert getattr(a, col) == getattr(b, col), col
    assert records_to_csv(back) == text


def test_invariant_violation_detected():
    rec = TrialRecord(
        trial_index=0, n=64, seed=1,
        v2_exact=10.0, v2_blocked=11.0, v2_dyadic_upper=100.0, v2_greedy=None,
        ratio=None, ratio_lo=None, ratio_hi=None, s_n_sq=1.0,
    )
    with pytest.raises(InvariantViolation, match="blocked"):
        _check_record(rec, DistributionSpec("gaussian"))


@pytest.mark.parametrize("text,named", [("pareto:a=2.5", "pareto:a=2.5:sigma=1.0"),
                                         ("gaussian:sigma=0.1234567",
                                          "gaussian:sigma=0.1234567")],
                         ids=["pareto", "many-digit-sigma"])
def test_invariant_violation_names_replay(monkeypatch, text, named):
    spec = DistributionSpec.from_string(text)
    rec = TrialRecord(
        trial_index=3, n=64, seed=12345,
        v2_exact=10.0, v2_blocked=None, v2_dyadic_upper=100.0, v2_greedy=None,
        ratio=None, ratio_lo=None, ratio_hi=None, s_n_sq=11.0,
    )
    with pytest.raises(InvariantViolation) as exc:
        _check_record(rec, spec)
    assert (f"spec={named}, n=64, trial=3, seed=12345) breaks s_n_sq <= exact"
            in str(exc.value))
    # a dyadic bound below exact, raised from inside a run: the message holds
    # what sample_sequence needs to draw the same samples again
    monkeypatch.setattr(variation, "sq_variation_upper_dyadic", lambda walk: 0.0)
    cfg = _config(None, spec=spec, n_grid=(64,), trials=2, master_seed=5)
    with pytest.raises(InvariantViolation) as exc:
        run_experiment(cfg)
    msg = str(exc.value)
    assert f"spec={spec.to_string()}, n=64, trial=0, seed={mix_seed(5, 64, 0)})" in msg
    assert "breaks exact <= dyadic_upper" in msg
    assert DistributionSpec.from_string(msg.split("spec=")[1].split(",")[0]) == spec


def test_parse_config(tmp_path):
    path = tmp_path / "exp.ini"
    for encoding in ("utf-8", "utf-8-sig"):  # the second writes a byte-order mark
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "r.csv"), encoding=encoding)
        cfg = parse_config(str(path))
        assert cfg.spec == DistributionSpec("gaussian")
        assert cfg.n_grid == (64, 128)
        assert (cfg.exact, cfg.block, cfg.dyadic_upper) == (True, 4, True)
        assert cfg.greedy_params == GreedyParams(s=2, c=4, alpha=0.25, eps3=0.5)
        assert cfg.thresholds == (0.1, 8.0)


def test_summarize_single_and_synthetic():
    base = dict(seed=0, v2_blocked=None, v2_dyadic_upper=None, v2_greedy=None,
                ratio_lo=None, ratio_hi=None, s_n_sq=0.0)
    one = TrialRecord(trial_index=0, n=64, v2_exact=5.0, ratio=1.5, **base)
    rows = summarize([one])
    assert rows[0]["ratio_median"] == 1.5
    assert rows[0]["ratio_q1"] == 1.5 and rows[0]["ratio_q3"] == 1.5

    recs = [TrialRecord(trial_index=i, n=64, v2_exact=1.0, ratio=r, **base)
            for i, r in enumerate([1.0, 2.0, 3.0, 4.0])]
    rows = summarize(recs)
    # linear-interpolation quartiles of [1,2,3,4]
    assert rows[0]["ratio_q1"] == 1.75
    assert rows[0]["ratio_median"] == 2.5
    assert rows[0]["ratio_q3"] == 3.25
    # permutation invariance
    rows_perm = summarize(list(reversed(recs)))
    assert rows_perm == rows
    with pytest.raises(ValueError):
        summarize([])
    assert "ratio_median" in format_summary(rows)


def test_emit_plotdata_kinds(tmp_path):
    cfg = _config(tmp_path, trials=2)
    records = run_experiment(cfg)
    ratio = emit_plotdata(records, "ratio_vs_n")
    lines = ratio.strip().split("\n")
    assert lines[0] == "n ratio"
    assert len(lines) == 1 + len(records)
    n0, r0 = lines[1].split()
    assert int(n0) == records[0].n and float(r0) == records[0].ratio

    cls = emit_plotdata(records, "class_vs_n")
    assert cls.splitlines()[0] == "n medium_frac bad_stat"
    assert all(len(ln.split()) == 3 for ln in cls.strip().splitlines()[1:])

    gap = emit_plotdata(records, "bound_gap")
    assert gap.splitlines()[0] == "n dyadic_over_exact blocked_over_exact"
    vals = gap.strip().splitlines()[1].split()
    assert float(vals[1]) >= 1.0 >= float(vals[2]) - 1e-9

    with pytest.raises(ValueError):
        emit_plotdata(records, "nope")
    single = emit_plotdata(records[:1], "ratio_vs_n")
    assert len(single.strip().split("\n")) == 2


# sha256 of the summarize and plotdata output in test_summary_and_plotdata_golden
GOLDEN_SHA256 = {
    "summarize": "32da8dc25f6863081ff7e6878e1eabbd60b53f90b7da11c578bce92e41da525c",
    "ratio_vs_n": "1a6d7e5134070abfc047a72f0ca56d91d808124f6b52458b47b494385824791f",
    "class_vs_n": "7626bef25d2baba089dac6763bd12c95d90f5f44189a89ec2db675b1ec191140",
    "bound_gap": "816b2d5c3a5721e41c8207bcc116655668295fe38054acc410d658c864403644",
}


def test_summary_and_plotdata_golden(tmp_path, capsys):
    # every algorithm and [classify], with b = 2.5 so that bad_stat is not 0
    out = tmp_path / "records.csv"
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT.format(out=out).replace("n_grid = 64, 128", "n_grid = 64, 256, 1024")
                   .replace("trials = 3", "trials = 5").replace("b = 8", "b = 2.5"))
    assert cli.main(["simulate", "--config", str(ini)]) == 0
    capsys.readouterr()
    assert cli.main(["summarize", "--input", str(out)]) == 0
    got = {"summarize": capsys.readouterr().out}
    for kind in PLOT_KINDS:
        path = tmp_path / f"{kind}.txt"
        assert cli.main(["plotdata", "--input", str(out), "--kind", kind, "--out", str(path)]) == 0
        assert cli.main(["plotdata", "--input", str(out), "--kind", kind]) == 0
        got[kind] = capsys.readouterr().out
        assert path.read_text() == got[kind]
    assert {k: hashlib.sha256(v.encode()).hexdigest() for k, v in got.items()} == GOLDEN_SHA256


# --- CLI ----------------------------------------------------------------------

def test_cli_compute(tmp_path, capsys):
    path = tmp_path / "x.csv"
    path.write_text("2\n1\n-3\n")
    assert cli.main(["compute", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"value": 18.0, "breakpoints": [0, 2, 3]}


def test_cli_compute_p1(tmp_path, capsys):
    path = tmp_path / "x.csv"
    path.write_text("1, -1\n")
    assert cli.main(["compute", "--input", str(path), "--p", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2.0


def test_cli_simulate_identical_bytes(tmp_path, capsys):
    out = tmp_path / "records.csv"
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT.format(out=out))
    assert cli.main(["simulate", "--config", str(ini)]) == 0
    first = out.read_bytes()
    assert cli.main(["simulate", "--config", str(ini)]) == 0
    assert out.read_bytes() == first
    capsys.readouterr()
    assert cli.main(["summarize", "--input", str(out)]) == 0
    assert "ratio_median" in capsys.readouterr().out


def test_config_built_field_by_field_writes_the_ini_bytes(tmp_path, capsys):
    # a script may build ExperimentConfig field by field: CONFIG_TEXT's fields
    # give its records byte for byte, as does any order of its algorithms
    out = tmp_path / "records.csv"
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT.format(out=out))
    assert cli.main(["simulate", "--config", str(ini)]) == 0
    direct = tmp_path / "direct.csv"
    cfg = ExperimentConfig(spec=DistributionSpec("gaussian", sigma=1.0), n_grid=(64, 128),
                           trials=3, master_seed=99, exact=True, block=4, dyadic_upper=True,
                           greedy_params=GreedyParams(s=2, c=4, alpha=0.25, eps3=0.5),
                           thresholds=(0.1, 8.0), output_path=str(direct))
    write_outputs(run_experiment(cfg), cfg)
    assert direct.read_bytes() == out.read_bytes()
    reordered = tmp_path / "reordered.csv"
    ini.write_text(CONFIG_TEXT.format(out=reordered).replace(
        "exact, blocked:4, dyadic_upper, greedy", "greedy, dyadic_upper, blocked:4, exact"))
    assert cli.main(["simulate", "--config", str(ini)]) == 0
    assert reordered.read_bytes() == out.read_bytes()


def _count_walks(monkeypatch) -> list[int]:
    """Wrap every sqvar module's binding of seqcore.prefix_sums, as the
    benchmark's probe does; the returned list receives each call's length."""
    real, calls = seqcore.prefix_sums, []

    def counting(x, **kwargs):  # a trial passes out=, its walk's buffer
        calls.append(len(x))
        return real(x, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "sqvar" or name.startswith("sqvar.")):
            for attr, val in list(vars(mod).items()):
                if val is real:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_one_walk_per_input(tmp_path, capsys, monkeypatch):
    # every kernel of a trial (all four algorithms and the classification)
    # reads the one walk that the trial built; compute and greedy build one
    calls = _count_walks(monkeypatch)
    monkeypatch.setenv("SQVAR_THREADS", "1")
    out = tmp_path / "records.csv"
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT.format(out=out))
    assert cli.main(["simulate", "--config", str(ini)]) == 0
    assert calls == [64] * 3 + [128] * 3
    calls.clear()
    path = tmp_path / "x.csv"
    path.write_text("2\n1\n-3\n")
    assert cli.main(["compute", "--input", str(path)]) == 0
    assert calls == [3]
    calls.clear()
    assert cli.main(["greedy", "--n", "256"]) == 0
    assert calls == [256]


def test_cli_plotdata(tmp_path, capsys):
    out = tmp_path / "records.csv"
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT.format(out=out))
    cli.main(["simulate", "--config", str(ini)])
    capsys.readouterr()
    assert cli.main(["plotdata", "--input", str(out), "--kind", "ratio_vs_n"]) == 0
    plot = capsys.readouterr().out
    assert plot.startswith("n ratio\n")
    bom_led = tmp_path / "bom.csv"  # the same records after a byte-order mark
    bom_led.write_bytes(b"\xef\xbb\xbf" + out.read_bytes())
    assert cli.main(["plotdata", "--input", str(bom_led), "--kind", "ratio_vs_n"]) == 0
    assert capsys.readouterr().out == plot


def test_cli_families(capsys):
    assert cli.main(["families", "dyadic", "--n", "5"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert cli.main(["families", "h", "--n", "5", "--eps", "0.5"]) == 0
    assert cli.main(["families", "l", "--s", "2", "--c", "4"]) == 0


@pytest.mark.parametrize("argv,message", [
    ("families h --s 3", "sqvar: error: unrecognized arguments: --s 3"),
    ("families dyadic --eps 0.5", "sqvar: error: unrecognized arguments: --eps 0.5"),
    ("families l --n 7", "sqvar families l: error: the following arguments are required: "
                         "--s, --c"),
    ("families l --s 2 --c 4 --n 7", "sqvar: error: unrecognized arguments: --n 7"),
    ("families l --c 4", "sqvar families l: error: the following arguments are required: --s"),
    ("families l --s 2", "sqvar families l: error: the following arguments are required: --c"),
    ("bounds bernstein --p 3", "sqvar: error: unrecognized arguments: --p 3"),
    ("families check --scheme h", "argument scheme: invalid choice: 'check'"),
    ("bounds --check bernstein", "sqvar: error: unrecognized arguments: --check"),
])
def test_cli_variant_takes_only_the_flags_it_reads(capsys, argv, message):
    # each family scheme and bound check has its own flags, and refuses the others
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: sqvar ") and message in captured.err


@pytest.mark.parametrize("argv,message", [
    ("greedy --n 64 --se 3", "sqvar: error: unrecognized arguments: --se 3"),
    ("greedy --n 64 --sp gaussian:sigma=1",
     "sqvar: error: unrecognized arguments: --sp gaussian:sigma=1"),
    ("greedy --n 64 --al 0.3", "sqvar: error: unrecognized arguments: --al 0.3"),
    ("families h --e 0.5", "sqvar: error: unrecognized arguments: --e 0.5"),
    ("bounds etemadi --tri 10", "sqvar: error: unrecognized arguments: --tri 10"),
    ("compute --inp x", "sqvar compute: error: the following arguments are required: --input"),
    ("--he compute --input x", "sqvar: error: unrecognized arguments: --he"),
])
def test_cli_refuses_flag_prefixes(capsys, argv, message):
    # a flag has one spelling: the top parser, each subcommand and the
    # flags bounds' checks share all refuse a prefix of one
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: sqvar") and message in captured.err


def test_cli_families_l_refuses_s_below_2(capsys):
    assert cli.main(["families", "l", "--s", "0", "--c", "4"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "sqvar: error: s must be an integer > 1\n")


def test_cli_greedy(capsys):
    rc = cli.main(["greedy", "--n", "256", "--spec", "gaussian:sigma=1", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("value=") and "ratio=" in out and "breakpoints=" in out
    for n in ("1", "2", "15"):  # lnln n is undefined, negative, or below the lab's range
        assert cli.main(["greedy", "--n", n]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sqvar: error: --n must be >= 16")
        assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_cli_simulate_greedy_small_n(tmp_path, capsys):
    # n = 2 is below s^2, where greedy returns the single interval
    out = tmp_path / "records.csv"
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT.format(out=out).replace("n_grid = 64, 128", "n_grid = 2, 8, 32"))
    assert cli.main(["simulate", "--config", str(ini)]) == 0
    assert capsys.readouterr().err == ""
    records = records_from_csv(out.read_text())
    assert [r.n for r in records] == [2, 2, 2, 8, 8, 8, 32, 32, 32]
    assert all(r.v2_greedy <= r.v2_exact + 1e-9 for r in records)


@pytest.mark.parametrize("edit,named", [
    (lambda s: s.replace("[experiment]\n", ""), "no section headers"),
    (lambda s: s.replace("[experiment]", "[experimentx]"), "[experiment] section"),
    (lambda s: s.replace("n_grid = 64, 128\n", ""), "'n_grid'"),
    (lambda s: s.replace("trials = 3\n", ""), "'trials'"),
    (lambda s: s.replace("algorithms =", "algoritms ="), "unknown keys: algoritms"),
    (lambda s: s.replace("trials = 3\n", "trials = 3\nallow_large = true\n"),
     "[experiment] has unknown keys: allow_large"),
    (lambda s: s.replace("eps3 =", "epsilon3 ="), "[greedy] has unknown keys: epsilon3"),
    (lambda s: s.replace("[classify]", "[clasify]"), "unknown section [clasify]"),
    (lambda s: "[DEFAULT]\ntrials = 3\n" + s, "unknown section [DEFAULT]"),
    (lambda s: "[DEFAULT]\nn_grid = 64\n" + s.replace("n_grid = 64, 128\n", ""),
     "unknown section [DEFAULT]"),
    (lambda s: s.replace("n_grid = 64, 128", "n_grid = 16, 1.5"),
     "config [experiment] n_grid: '1.5' is not an integer"),
    (lambda s: s.replace("trials = 3", "trials = x"),
     "config [experiment] trials: 'x' is not an integer"),
    (lambda s: s.replace("master_seed = 99", "master_seed = 1e3"),
     "config [experiment] master_seed: '1e3' is not an integer"),
    (lambda s: s.replace("trials = 3\n", "trials = 3\njsonl = true\n"),
     "config [experiment] has unknown keys: jsonl"),
    (lambda s: s.replace("\ns = 2\n", "\ns = x\n"), "config [greedy] s: 'x' is not an integer"),
    (lambda s: s.replace("alpha = 0.25", "alpha = 0.7"),
     "config [greedy] alpha must lie in (0, 1/2)"),
    (lambda s: s.replace("eps = 0.1", "eps = x"), "config [classify] eps: 'x' is not a number"),
    (lambda s: s.replace("gaussian:sigma=1", "pareto:a"),
     "config [experiment] spec: distribution parameter 'a' in 'pareto:a' is not a number: ''"),
    (lambda s: s.replace("n_grid = 64, 128", "n_grid = 16, -4"),
     "config [experiment] n_grid: must be strictly increasing positive integers, got 16, -4"),
    (lambda s: s.replace("trials = 3", "trials = -1"),
     "config [experiment] trials: must be >= 0, got -1"),
    (lambda s: s.replace("algorithms = exact, blocked:4, dyadic_upper, greedy",
                         "algorithms = exact, foo"),
     "config [experiment] algorithms: unknown 'foo'"),
    (lambda s: s.replace("eps3 = 0.5", "eps3 = 1.5"), "config [greedy] eps3 must lie in (0, 1)"),
    (lambda s: s.replace("\ns = 2\nc = 4\n", "\ns = 3\nc = 8\n"),
     "config [greedy] c=8 is not a power of s=3"),
    (lambda s: s.replace("gaussian:sigma=1", "gaussian:a=3"),
     "config [experiment] spec: only the pareto kind takes a tail exponent, got a = 3.0 "
     "for gaussian"),
    (lambda s: s.replace("algorithms = exact, blocked:4, dyadic_upper, greedy",
                         "algorithms = exact, blocked:4, blocked:8, exact"),
     "config [experiment] algorithms: repeated 'blocked', 'exact'"),
    (lambda s: s[:s.index("[greedy]")],
     "config [experiment] algorithms: greedy needs greedy parameters, a [greedy] section"),
    (lambda s: s.replace("algorithms = exact, blocked:4, dyadic_upper, greedy",
                         "algorithms = dyadic_upper, greedy"),
     "config [classify] needs an exact or blocked partition to classify"),
], ids=["no-header", "no-section", "no-n_grid", "no-trials", "misspelt-key", "stale-key",
        "greedy-key", "unknown-section", "default-key", "default-n_grid", "n_grid-float",
        "trials-word", "master_seed-float", "jsonl-key", "greedy-s-word", "greedy-alpha-range",
        "classify-eps-word", "spec-missing-value", "n_grid-negative", "trials-negative",
        "algorithms-unknown", "greedy-eps3-range", "greedy-c-power", "spec-a-off-pareto",
        "algorithms-repeated", "algorithms-greedy-unset", "classify-unscored"])
def test_cli_simulate_config_missing(tmp_path, capsys, edit, named):
    ini = tmp_path / "exp.ini"
    ini.write_text(edit(CONFIG_TEXT.format(out=tmp_path / "r.csv")))
    assert cli.main(["simulate", "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sqvar: error: ") and named in err and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


def _records_text(**cells):
    """A header and one row: the given cells, trial_index 0, seed 1, s_n_sq 9."""
    row = {"trial_index": "0", "seed": "1", "s_n_sq": "9", **cells}
    return ",".join(CSV_COLUMNS) + "\n" + ",".join(row.get(c, "") for c in CSV_COLUMNS) + "\n"


@pytest.mark.parametrize("text,where", [
    ("", "header"),
    ("\n\n", "header"),
    (",".join(CSV_COLUMNS) + "\n0,64\n", "line 2 has 2 fields"),
    (",".join(CSV_COLUMNS) + "\n\n" + ",".join(["1"] * (len(CSV_COLUMNS) + 1)) + "\n",
     f"line 3 has {len(CSV_COLUMNS) + 1} fields"),
    (",".join(CSV_COLUMNS) + "\n" + ",".join(["x"] * len(CSV_COLUMNS)) + "\n",
     "line 2 column 'trial_index' is not a number: 'x'"),
    (",".join(CSV_COLUMNS) + "\n" + ",".join(["0", "64", "1", "1e3x"]
                                             + [""] * (len(CSV_COLUMNS) - 4)) + "\n",
     "line 2 column 'v2_exact' is not a number: '1e3x'"),
    (",".join(CSV_COLUMNS) + "\n" + ",".join(["0", "64", "1", "9", "", "", "", "nan"]
                                             + [""] * (len(CSV_COLUMNS) - 8)) + "\n",
     "line 2 column 'ratio' is not finite: 'nan'"),
    (",".join(CSV_COLUMNS) + "".join(
        "\n" + ",".join(["0", "64", "1", "9", "", "", "", ratio] + [""] * (len(CSV_COLUMNS) - 8))
        for ratio in ("0.5", "inf")) + "\n",
     "line 3 column 'ratio' is not finite: 'inf'"),
    # rows that run_trial never writes: n below 1, and a class column below n = 16
    (_records_text(n="0", medium_len="1"), "line 2 column 'n' must be >= 1, got '0'"),
    (_records_text(n="1", bad_sum="5"), "line 2 column 'bad_sum' is set at n = 1"),
    (_records_text(n="2", bad_sum="5"), "line 2 column 'bad_sum' is set at n = 2"),
], ids=["empty", "blank", "short-row", "long-row", "non-numeric-int", "non-numeric-float",
        "nan-ratio", "inf-ratio", "n-0", "class-at-n-1", "class-at-n-2"])
def test_records_csv_malformed(tmp_path, capsys, text, where):
    with pytest.raises(ValueError, match=where):
        records_from_csv(text)
    path = tmp_path / "records.csv"
    path.write_text(text)
    for argv in (["summarize"], ["plotdata", "--kind", "ratio_vs_n"]):
        assert cli.main([*argv, "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sqvar: error: ") and where in err and err.count("\n") == 1


@pytest.mark.parametrize("n_grid", ["8", "32"])
@pytest.mark.parametrize("cls,got", [("eps = 0.1\nb = 1", "eps = 0.1, b = 1"),
                                     ("eps = 0\nb = 8", "eps = 0, b = 8")], ids=["b", "eps"])
def test_cli_simulate_bad_classify(tmp_path, capsys, monkeypatch, n_grid, cls, got):
    # refused when the config is read: at n = 8 no trial is classified, and at
    # n = 32 no kernel runs first
    def no_kernel(*args):
        raise AssertionError("a kernel ran before [classify] was checked")
    monkeypatch.setattr(variation, "sq_variation_exact", no_kernel)
    out = tmp_path / "r.csv"
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT.format(out=out).replace("n_grid = 64, 128", f"n_grid = {n_grid}")
                   .replace("eps = 0.1\nb = 8", cls))
    assert cli.main(["simulate", "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err == f"sqvar: error: config [classify] needs eps > 0 and b > 2 + eps, got {got}\n"
    assert not out.exists()


def _no_kernel(*args):
    raise AssertionError("a kernel ran before the config was checked")


@pytest.mark.parametrize("block", ["0", "-2", "x"])
def test_cli_simulate_bad_block(tmp_path, capsys, monkeypatch, block):
    monkeypatch.setattr(labcli, "sample_sequence", _no_kernel)
    out = tmp_path / "r.csv"
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT.format(out=out).replace("blocked:4", f"blocked:{block}"))
    assert cli.main(["simulate", "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err == (f"sqvar: error: config [experiment] algorithms: 'blocked:{block}' "
                   f"needs an integer block >= 1\n")
    assert not out.exists()


def test_cli_simulate_bad_threads(tmp_path, capsys, monkeypatch):
    # only a value that cannot start a pool: a large one would start one that size
    monkeypatch.setattr(labcli, "sample_sequence", _no_kernel)
    monkeypatch.setenv("SQVAR_THREADS", "two")
    out = tmp_path / "r.csv"
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT.format(out=out))
    assert cli.main(["simulate", "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err == "sqvar: error: SQVAR_THREADS must be an integer, got 'two'\n"
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_cli_simulate_threads_below_one(tmp_path, capsys, monkeypatch, threads):
    # a count of workers below 1 is refused, not run serially as a second spelling of 1
    monkeypatch.setattr(labcli, "sample_sequence", _no_kernel)
    monkeypatch.setenv("SQVAR_THREADS", threads)
    out = tmp_path / "r.csv"
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT.format(out=out))
    assert cli.main(["simulate", "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err == f"sqvar: error: SQVAR_THREADS must be >= 1, got '{threads}'\n"
    assert not out.exists()


def test_cli_bounds_small(tmp_path):
    grid = tmp_path / "grid.csv"
    out = tmp_path / "bounds.csv"
    for text in ("t,L\n8,16\n10 32\n", "\ufeff8,16\n10 32\n"):  # a byte-order mark
        grid.write_text(text, encoding="utf-8")
        rc = cli.main(["bounds", "bernstein", "--spec", "rademacher:sigma=1",
                       "--grid", str(grid), "--trials", "4000", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "threshold,empirical,bound,std_err,pass"
        assert len(lines) == 3
        assert all(ln.endswith("true") for ln in lines[1:])


def test_cli_bounds_violation_exits_2_after_writing(tmp_path, capsys, monkeypatch):
    # a bound of 0, which an empirical frequency above 3 standard errors exceeds;
    # the CSV is written first, its failed rows included
    monkeypatch.setattr(bounds, "bernstein_maximal_bound", lambda t, sum_var, m: 0.0)
    out = tmp_path / "bounds.csv"
    rc = cli.main(["bounds", "bernstein", "--trials", "400", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "sqvar: invariant violation: empirical value exceeded its bound\n")
    rows = [ln.split(",") for ln in out.read_text().splitlines()]
    assert rows[0] == ["threshold", "empirical", "bound", "std_err", "pass"]
    assert len(rows) == 1 + len(cli._DEFAULT_GRIDS["bernstein"])
    assert all(row[2] == "0" for row in rows[1:])
    assert "false" in {row[4] for row in rows[1:]}


@pytest.mark.parametrize("check,text,where", [
    ("bernstein", "t,L\n8\n", "grid line 2: bounds bernstein needs rows of width 2, got 1"),
    ("bernstein", "8,x\n", "grid line 1: 'x' is not a number"),
    ("bernstein", "8,16,3\n", "grid line 1: bounds bernstein needs rows of width 2, got 3"),
    ("rosenthal", "# ell\n10,100\n", "grid line 2: bounds rosenthal needs rows of width 1, got 2"),
    ("bernstein", "8,16.5\n", "grid line 1: '16.5' is not an integer"),
    ("berry-esseen", "k\n4\n4.5\n", "grid line 3: '4.5' is not an integer"),
    ("etemadi", "nan,16\n", "grid line 1: 'nan' is not finite"),
    ("etemadi", "inf,16\n", "grid line 1: 'inf' is not finite"),
], ids=["short", "non-numeric", "long", "long-rosenthal", "fractional-length", "fractional-k",
        "nan", "inf"])
def test_cli_bounds_bad_grid(tmp_path, capsys, check, text, where):
    grid = tmp_path / "grid.csv"
    grid.write_text(text)
    assert cli.main(["bounds", check, "--grid", str(grid), "--trials", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sqvar: error: {where}\n"


@pytest.mark.parametrize("argv,named", [
    (["bounds", "etemadi", "--spec", "pareto:a=nan", "--trials", "100"],
     "pareto tail exponent must be finite, got a = nan"),
    (["bounds", "rosenthal", "--spec", "gaussian:sigma=inf", "--trials", "100"],
     "sigma must be finite and > 0, got inf"),
    (["greedy", "--n", "64", "--spec", "gaussian:sigma=inf"],
     "sigma must be finite and > 0, got inf"),
    (["bounds", "etemadi", "--spec", "pareto:a", "--trials", "100"],
     "distribution parameter 'a' in 'pareto:a' is not a number: ''"),
    (["greedy", "--n", "64", "--spec", "gaussian:sigma"],
     "distribution parameter 'sigma' in 'gaussian:sigma' is not a number: ''"),
    (["greedy", "--n", "64", "--spec", "gaussian:sigma=x"],
     "distribution parameter 'sigma' in 'gaussian:sigma=x' is not a number: 'x'"),
], ids=["etemadi-a-nan", "rosenthal-sigma-inf", "greedy-sigma-inf", "etemadi-a-missing",
        "greedy-sigma-missing", "greedy-sigma-word"])
def test_cli_non_finite_spec(capsys, argv, named):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sqvar: error: {named}\n"


@pytest.mark.parametrize("flags,named", [
    (["--eps3", "1.5"], "eps3 must lie in (0, 1)"),
    (["--s", "3", "--c", "8"], "c=8 is not a power of s=3"),
    (["--c", "2"], "c must be at least s^2 to keep gap fractions small"),
], ids=["eps3-range", "c-power", "c-below-s-squared"])
def test_cli_greedy_refusals_name_their_flags(capsys, flags, named):
    assert cli.main(["greedy", "--n", "64", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sqvar: error: {named}\n"


def test_greedy_parameters_have_one_name():
    # the GreedyParams fields are the [greedy] keys and the sqvar greedy flags
    fields = dataclasses.fields(GreedyParams)
    names = [f.name for f in fields]
    assert names == ["s", "c", "alpha", "eps3"]
    assert list(_CONFIG_KEYS["greedy"]) == names
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    flags = {a.option_strings[-1]: a.default for a in sub.choices["greedy"]._actions}
    assert list(flags) == ["--help", "--n", "--spec", *(f"--{n}" for n in names), "--seed"]
    assert all(flags[f"--{f.name}"] == f.default for f in fields)


def test_cli_exit_codes(tmp_path, capsys):
    assert cli.main(["compute", "--input", str(tmp_path / "missing.csv")]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("1 2 3\n")
    assert cli.main(["compute", "--input", str(bad), "--p", "0.5"]) == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute"])  # missing required --input
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_cli_compute_no_values(tmp_path, capsys, monkeypatch):
    # an empty file, a header with no values, and empty stdin
    path = tmp_path / "x.csv"
    for text in ("", "value\n"):
        path.write_text(text)
        assert cli.main(["compute", "--input", str(path)]) == 1
        assert capsys.readouterr() == ("", "sqvar: error: no numeric input values found\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert cli.main(["compute", "--input", "-"]) == 1
    assert capsys.readouterr() == ("", "sqvar: error: no numeric input values found\n")


@pytest.mark.parametrize("text,bad,index", [("1\nnan\n-1\n", "nan", 1),
                                            ("1\n0.5\ninf\n", "inf", 2)])
def test_cli_compute_non_finite(tmp_path, capsys, text, bad, index):
    path = tmp_path / "x.csv"
    path.write_text(text)
    assert cli.main(["compute", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sqvar: error: non-finite sample {bad} at index {index}\n"


def test_cli_compute_overflow(tmp_path, capsys):
    path = tmp_path / "x.csv"
    for text, p in (("1e200, 1e200, -1e200\n", "2"), ("1e120, -1e120, 1e120\n", "3")):
        path.write_text(text)
        assert cli.main(["compute", "--input", str(path), "--p", p]) == 1
        captured = capsys.readouterr()
        assert "Infinity" not in captured.out and "NaN" not in captured.out
        assert captured.err.startswith("sqvar: error: ") and "overflows" in captured.err
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text,where", [("1\n2\nx\n-1\n", "line 3: 'x'"),
                                        ("step size\n1\n-1\n", "line 1: 'size'"),
                                        ("value\n1, 2\n3, 4y, z\n", "line 3: '4y'"),
                                        ("1\r\n\r\n2 1e-3 --1\r\n", "line 3: '--1'")])
def test_cli_compute_names_bad_token(tmp_path, capsys, text, where):
    path = tmp_path / "x.csv"
    path.write_text(text)
    assert cli.main(["compute", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sqvar: error: input {where} is not a number\n"


def test_cli_compute_skips_one_header_token(tmp_path, capsys, monkeypatch):
    path = tmp_path / "x.csv"
    for text in ("steps\n2\n1\n-3\n", "\ufeffsteps\n2\n1\n-3\n"):
        path.write_text(text, encoding="utf-8")
        assert cli.main(["compute", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["breakpoints"] == [0, 2, 3]
    # a byte-order mark before the first value is not a header token
    bom_led = "\ufeff1\n-2.5\n3"
    path.write_text(bom_led, encoding="utf-8")
    assert cli.main(["compute", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 16.25
    monkeypatch.setattr(sys, "stdin", io.StringIO(bom_led))
    assert cli.main(["compute", "--input", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 16.25


# every spelling float() takes (the last is 12 in Arabic-Indic digits), a few
# it refuses, and every kind of separator: str.split's whitespace, commas, and
# str.splitlines' line ends, \r\n among them
_NUMBERS = ["1", "-1", "0", "1_000", ".5", "-0.0", "nan", "-nan", "inf", "-inf", "Infinity",
            "1e308", "2E-3", "+3", "\u0661\u0662"]
_NON_NUMBERS = ["x", "4y", "--1", "1__0", "_1", "\ufeff1"]
_SEPARATORS = [" ", "\t", "\n", "\r\n", "\r", ",", ", ", ",,", "\n\n", "\r\n\r\n", " \t,\r\n",
               "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\xa0"]


@st.composite
def _number_texts(draw):
    """Numbers, perhaps a header token, a non-number and a byte-order mark,
    between any separators, with or without one before the first token and
    after the last."""
    tokens = draw(st.lists(st.sampled_from(_NUMBERS), max_size=20))
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_NON_NUMBERS)))
    if draw(st.booleans()):
        tokens.insert(0, draw(st.sampled_from(["steps", "value", "-"])))
    seps = [draw(st.sampled_from(_SEPARATORS)) for _ in tokens]
    if seps and draw(st.booleans()):
        seps[-1] = ""  # the last token ends the text
    bom = "\ufeff" if draw(st.booleans()) else ""
    lead = draw(st.sampled_from(["", *_SEPARATORS]))
    return bom + lead + "".join(t + s for t, s in zip(tokens, seps))


def _parsed(read, path):
    """The bytes of the parsed numbers, or the text of the error."""
    try:
        return read(path).tobytes()
    except ValueError as exc:
        return str(exc)


@given(text=_number_texts(), block=st.sampled_from([1, 2, 3, 5, 16, 1 << 14]))
def test_block_parser_matches_whole_text_parser(tmp_path_factory, text, block):
    # blocks of a few characters split tokens, \r\n pairs, the header and a
    # non-number across their boundaries; a file, stdin, and a buffer that
    # must grow give the whole-text parser's numbers bit for bit, or its error
    path = str(tmp_path_factory.getbasetemp() / "numbers.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    with mock.patch.object(cli, "_BLOCK", block):
        want = _parsed(read_numbers, path)
        assert _parsed(lambda p: cli._read_numbers(p)[1:], path) == want
        with mock.patch.object(sys, "stdin", io.StringIO(text)):
            want = _parsed(read_numbers, "-")
        with mock.patch.object(sys, "stdin", io.StringIO(text)):
            assert _parsed(lambda p: cli._read_numbers(p)[1:], "-") == want
        grown = io.StringIO(text.removeprefix("\ufeff"))
        assert _parsed(lambda fh: cli._parse_blocks(fh, 2)[1:], grown) == want


def _read_through_pipe(tmp_path, data: bytes, read):
    """read(path) on a named pipe that another thread fills with data."""
    fifo = tmp_path / f"pipe{len(list(tmp_path.iterdir()))}"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        return read(str(fifo))
    finally:
        writer.join(timeout=60)
        assert not writer.is_alive()


def test_block_parser_fails_on_bad_utf8_as_one_read(tmp_path, monkeypatch):
    # a non-number first, a byte that is not UTF-8 blocks later: the byte is
    # reported, at its offset in the whole input, from a file, stdin or a pipe
    data = b"1\nx\n" + b"1\n" * 20000 + b"\xff\n"
    path = tmp_path / "x.txt"
    path.write_bytes(data)
    errors = []
    for read in (read_numbers, cli._read_numbers):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        for source in (lambda: read(str(path)), lambda: read("-"),
                       lambda: _read_through_pipe(tmp_path, data, read)):
            with pytest.raises(UnicodeDecodeError) as exc:
                source()
            errors.append(str(exc.value))
    assert errors[:3] == errors[3:]
    assert all("position 40004" in e for e in errors)
    # and a pipe's numbers are a file's
    good = data.replace(b"x", b"2").replace(b"\xff", b"3")
    path.write_bytes(good)
    from_pipe = _read_through_pipe(tmp_path, good, cli._read_numbers)
    assert from_pipe[1:].tobytes() == cli._read_numbers(str(path))[1:].tobytes()


def test_block_parser_names_a_non_number_past_the_first_block(tmp_path, monkeypatch):
    # the bad token lies blocks past the first at the default _BLOCK; a file
    # seeks back to its start, and stdin and a pipe their whole text, to name it
    data = b"1\n" * 20000 + b"x\n"
    path = tmp_path / "x.txt"
    path.write_bytes(data)
    want = _parsed(read_numbers, str(path))
    assert want == "input line 20001: 'x' is not a number"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    for source in (lambda: cli._read_numbers(str(path)), lambda: cli._read_numbers("-"),
                   lambda: _read_through_pipe(tmp_path, data, cli._read_numbers)):
        with pytest.raises(ValueError) as exc:
            source()
        assert str(exc.value) == want


def test_cli_compute_holds_at_most_40_bytes_per_value(tmp_path, capsys):
    # the numbers are parsed a block at a time into one N + 1 buffer, the walk
    # is built in it in place, and the DP holds about 16 bytes per point
    n = 1 << 16
    path = tmp_path / "lattice.txt"
    path.write_text("".join(f"{v}\n" for v in np.random.default_rng(7).integers(-1, 2, n)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert cli.main(["compute", "--p", "3", "--input", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["breakpoints"][0] == 0
    assert peak <= 40 * n


def _overflow_config(tmp_path, sigma: str, algorithms: str, n: int = 64, kind: str = "gaussian"):
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[experiment]\nspec = {kind}:sigma={sigma}\nn_grid = {n}\ntrials = 1\n"
                   f"algorithms = {algorithms}\noutput = {tmp_path / 'r.csv'}\n\n[greedy]\n")
    return ini


@pytest.mark.parametrize("algorithms", ["exact", "blocked", "dyadic_upper", "greedy"])
def test_cli_simulate_s_n_sq_overflow_names_the_trial(tmp_path, capsys, algorithms):
    # S_N^2 overflows before any kernel runs; a ValueError from inside a trial
    # names what replays it
    ini = _overflow_config(tmp_path, "1e160", algorithms)
    assert cli.main(["simulate", "--config", str(ini)]) == 1
    assert capsys.readouterr().err == (
        f"sqvar: error: trial (spec=gaussian:sigma=1e+160, n=64, trial=0, "
        f"seed={mix_seed(0, 64, 0)}): s_n_sq overflows float64\n")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("algorithms,refused", [
    ("exact, greedy", "variation value overflows float64 (p=2)"),
    ("blocked", "variation value overflows float64 (p=2)"),
    ("greedy", "variation value overflows float64 (p=2)"),
    ("dyadic_upper", "dyadic upper bound overflows float64"),
], ids=["exact-greedy", "blocked", "greedy", "dyadic_upper"])
def test_cli_simulate_overflow_refused_without_warning(tmp_path, capsys, algorithms, refused):
    # below n = 16 no normalization is taken, which would refuse sigma = 1e154
    # before any kernel runs; S_N^2 is finite on this trial's walk
    ini = _overflow_config(tmp_path, "1e154", algorithms, n=11)
    assert cli.main(["simulate", "--config", str(ini)]) == 1
    assert capsys.readouterr().err == (
        f"sqvar: error: trial (spec=gaussian:sigma=1e+154, n=11, trial=0, "
        f"seed={mix_seed(0, 11, 0)}): {refused}\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["gaussian", "pareto:a=4", "logtail"])
def test_cli_simulate_sample_overflow_refused_without_warning(tmp_path, capsys, kind):
    # sigma = 1e308 scales some samples to inf: the walk refuses them, and
    # neither the scaling nor S_N warns first
    ini = _overflow_config(tmp_path, "1e308", "exact", n=1024, kind=kind)
    assert cli.main(["simulate", "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    spec = DistributionSpec.from_string(f"{kind}:sigma=1e308").to_string()
    assert err.startswith(f"sqvar: error: trial (spec={spec}, n=1024, trial=0, "
                          f"seed={mix_seed(0, 1024, 0)}): ")
    assert ("non-finite sample" in err or "partial sum overflows" in err) and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.filterwarnings("error")
def test_cli_greedy_and_compute_overflow_refused_without_warning(tmp_path, capsys):
    # greedy: 2 sigma^2 n lnln n is finite, but this walk's greedy value is
    # 1.7 times it; compute: short record chains at p = 2 and p = 3, and a
    # zigzag 2, -1 whose chains grow past _DP_LONG, so that numpy scores them
    path = tmp_path / "x.csv"
    runs = [(["greedy", "--n", "64", "--seed", "32", "--spec", "gaussian:sigma=9e152"], None, "2"),
            (["compute", "--input", str(path)], "1e200, 1e200, -1e200", "2"),
            (["compute", "--input", str(path), "--p", "3"], "1e120, -1e120, 1e120", "3"),
            (["compute", "--input", str(path)], "2e153, -1e153, " * 600, "2")]
    for argv, text, p in runs:
        if text:
            path.write_text(text)
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"sqvar: error: variation value overflows float64 (p={p})\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("algorithms", ["exact", "blocked", "greedy"])
def test_cli_simulate_norm_overflow_names_the_trial(tmp_path, capsys, algorithms):
    # the kernels' values are finite at sigma = 1e153, but 2 sigma^2 n lnln n
    # is not, and every ratio column would read 0
    ini = _overflow_config(tmp_path, "1e153", algorithms)
    assert cli.main(["simulate", "--config", str(ini)]) == 1
    assert capsys.readouterr().err == (
        f"sqvar: error: trial (spec=gaussian:sigma=1e+153, n=64, trial=0, "
        f"seed={mix_seed(0, 64, 0)}): normalization 2 sigma^2 n lnln n overflows float64\n")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.filterwarnings("error")
def test_cli_greedy_norm_overflow_refused(capsys):
    assert cli.main(["greedy", "--n", "64", "--spec", "gaussian:sigma=1e153"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sqvar: error: normalization 2 sigma^2 n lnln n overflows float64\n"


def test_refused_normalization_runs_no_kernel(tmp_path, capsys, monkeypatch):
    # the normalization is taken before the kernels (simulate) and before
    # sampling (greedy), so a refused sigma costs no trial
    def forbidden(*args, **kwargs):
        raise AssertionError("ran after a refused normalization")

    for name in ("sq_variation_exact", "sq_variation_blocked", "sq_variation_upper_dyadic"):
        monkeypatch.setattr(variation, name, forbidden)
    monkeypatch.setattr(greedy, "greedy_partition", forbidden)
    ini = _overflow_config(tmp_path, "1e153", "exact, blocked, dyadic_upper, greedy")
    assert cli.main(["simulate", "--config", str(ini)]) == 1
    assert capsys.readouterr().err.endswith("normalization 2 sigma^2 n lnln n overflows float64\n")
    monkeypatch.setattr(cli, "sample_sequence", forbidden)
    for sigma, what in (("1e153", "overflows"), ("1e-170", "underflows")):
        assert cli.main(["greedy", "--n", "64", "--spec", f"gaussian:sigma={sigma}"]) == 1
        assert capsys.readouterr().err == (
            f"sqvar: error: normalization 2 sigma^2 n lnln n {what} float64\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("algorithms", ["exact", "blocked", "greedy"])
def test_cli_simulate_norm_underflow_names_the_trial(tmp_path, capsys, algorithms):
    # at sigma = 1e-170, 2 sigma^2 is 0: every ratio would be blank
    ini = _overflow_config(tmp_path, "1e-170", algorithms)
    assert cli.main(["simulate", "--config", str(ini)]) == 1
    assert capsys.readouterr().err == (
        f"sqvar: error: trial (spec=gaussian:sigma=1e-170, n=64, trial=0, "
        f"seed={mix_seed(0, 64, 0)}): normalization 2 sigma^2 n lnln n underflows float64\n")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", ["1e-170", "1e-160", "1e-155"])
def test_cli_greedy_norm_underflow_refused(capsys, sigma):
    # 2 sigma^2 is 0 (a ZeroDivisionError before), or subnormal: a ratio of
    # subnormals at 1e-160, and a normal result of lost bits at 1e-155
    assert cli.main(["greedy", "--n", "64", "--spec", f"gaussian:sigma={sigma}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sqvar: error: normalization 2 sigma^2 n lnln n underflows float64\n"


def test_norm_is_refused_unless_twice_the_variance_is_normal():
    tiny = sys.float_info.min
    assert labcli._norm(16, math.sqrt(tiny)) > 0  # 2 sigma^2 = 2 min: normal
    for sigma in (math.sqrt(tiny) / 2, 0.0):
        with pytest.raises(ValueError, match="^normalization 2 sigma\\^2 n lnln n underflows"):
            labcli._norm(16, sigma)


def test_cli_bounds_bernstein_variance_overflow_refused(capsys):
    # sigma^2 overflows in Python's float ** before the bound sees it
    argv = ["bounds", "bernstein", "--spec", "rademacher:sigma=1e200",
            "--trials", "100"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sqvar: error: bernstein bound needs finite sum_var > 0, got inf\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("check,refused", [
    ("etemadi", "a Monte Carlo walk overflows float64"),
    ("bernstein", "bernstein bound needs finite sum_var > 0, got inf"),
])
def test_cli_bounds_overflowing_walk_refused_without_warning(tmp_path, capsys, check, refused):
    # the samples are finite, but their walks of 1024 steps overflow; the
    # Bernstein bound refuses sigma^2 before its Monte Carlo run
    grid = tmp_path / "grid.csv"
    grid.write_text("8,1024\n")
    argv = ["bounds", check, "--spec", "uniform:sigma=1e307", "--trials", "20",
            "--grid", str(grid)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sqvar: error: {refused}\n"


def test_cli_uniform_range_overflow_refused(tmp_path, capsys):
    argvs = [["simulate", "--config", str(_overflow_config(tmp_path, "1e308", "exact", n=16,
                                                            kind="uniform"))],
             ["bounds", "etemadi", "--spec", "uniform:sigma=1e308", "--trials", "20"]]
    for argv in argvs:
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("sqvar: error: ") and err.count("\n") == 1
        assert err.endswith("uniform range 2 sigma sqrt(3) overflows float64 at sigma = 1e+308\n")


def test_cli_memory_error_is_one_line(tmp_path, capsys, monkeypatch):
    # numpy's MemoryError names the allocation; a bare one says what failed.
    # The walk's buffer of 4 EiB exceeds any 64-bit address space, so numpy
    # refuses it before a byte is touched; sample_sequence raises a bare one
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT.format(out=tmp_path / "r.csv"))
    huge = tmp_path / "huge.ini"
    huge.write_text(CONFIG_TEXT.format(out=tmp_path / "r.csv")
                    .replace("n_grid = 64, 128", f"n_grid = {1 << 59}"))
    numpy_says = (f"Unable to allocate 4.00 EiB for an array with shape ({(1 << 59) + 1},) "
                  "and data type float64")
    for argv in (["greedy", "--n", str(1 << 59)], ["simulate", "--config", str(huge)]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"sqvar: error: {numpy_says}\n")

    def no_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(labcli, "sample_sequence", no_memory)
    assert cli.main(["simulate", "--config", str(ini)]) == 1
    assert capsys.readouterr().err == "sqvar: error: out of memory\n"
    assert not (tmp_path / "r.csv").exists()


def test_cli_bounds_etemadi_no_trials(capsys):
    assert cli.main(["bounds", "etemadi", "--trials", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sqvar: error: need L >= 1 and trials >= 1\n"


@pytest.mark.parametrize("p", ["nan", "inf"])
def test_cli_compute_non_finite_p(tmp_path, capsys, p):
    path = tmp_path / "x.csv"
    path.write_text("2\n1\n-3\n")
    assert cli.main(["compute", "--input", str(path), "--p", p]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sqvar: error: p must be finite and >= 1\n"


IMPORT_BUDGET_SCRIPT = """
import sys
from sqvar import cli

data, gauss, logtail = sys.argv[1:4]
assert cli.main(["compute", "--input", data, "--p", "3"]) == 0
assert cli.main(["simulate", "--config", gauss]) == 0
assert cli.main(["simulate", "--config", logtail]) == 0
print("LOADED", "concurrent.futures.process" in sys.modules)
"""


def _run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """`python -c script args` with src on PYTHONPATH and SQVAR_THREADS unset."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {k: v for k, v in os.environ.items() if k != "SQVAR_THREADS"}
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_cli_imports_no_process_pool(tmp_path):
    # compute and a serial simulate, log-tail included, need no process pool,
    # so they must not pay for importing it
    data = tmp_path / "x.csv"
    data.write_text("2\n1\n-3\n0.5\n")
    configs = []
    for spec in ("gaussian:sigma=1", "logtail:sigma=1"):
        ini = tmp_path / f"{spec.split(':')[0]}.ini"
        ini.write_text(CONFIG_TEXT.format(out=tmp_path / f"{ini.stem}.csv")
                       .replace("gaussian:sigma=1", spec).replace("n_grid = 64, 128", "n_grid = 32"))
        configs.append(str(ini))
    proc = _run_python(IMPORT_BUDGET_SCRIPT, str(data), *configs)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "LOADED False"


NUMPY_ONLY_SCRIPT = """
import importlib.abc, json, sys

class NumpyOnly(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in (*sys.stdlib_module_names, "numpy", "sqvar"):
            raise ModuleNotFoundError(f"refused {name}", name=name)

sys.meta_path.insert(0, NumpyOnly())
from sqvar import cli

for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
"""


def test_every_subcommand_runs_on_numpy_alone(tmp_path):
    # numpy is the only runtime dependency: with every other package outside
    # the standard library refused, each subcommand still exits 0
    data = tmp_path / "x.csv"
    data.write_text("2\n1\n-3\n0.5\n")
    ini = tmp_path / "lab.ini"
    records = tmp_path / "records.csv"
    ini.write_text(CONFIG_TEXT.format(out=records))  # all four algorithms, [classify], [greedy]
    runs = [["compute", "--input", str(data)], ["simulate", "--config", str(ini)],
            ["summarize", "--input", str(records)],
            *(["plotdata", "--input", str(records), "--kind", kind,
               "--out", str(tmp_path / f"{kind}.csv")] for kind in PLOT_KINDS),
            ["families", "dyadic", "--n", "4"],
            ["families", "h", "--n", "4"],
            ["families", "l", "--s", "2", "--c", "4"],
            ["greedy", "--n", "64"],
            *(["bounds", check, "--trials", "500",
               "--out", str(tmp_path / f"{check}.csv")]
              for check in ("bernstein", "etemadi", "berry-esseen", "rosenthal"))]
    proc = _run_python(NUMPY_ONLY_SCRIPT, json.dumps(runs))
    assert proc.returncode == 0, proc.stderr


def _fresh_python(code: str, openblas_threads: str | None = None) -> str:
    """The stdout of `python -c code` with src on PYTHONPATH and
    OPENBLAS_NUM_THREADS unset, or set to openblas_threads."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.abspath(src)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_package_import_loads_no_numpy():
    # numpy may load only after sqvar.cli has set the BLAS threading
    assert _fresh_python("import sys, sqvar; print('numpy' in sys.modules)") == "False"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_import_starts_no_thread():
    # OpenBLAS left to itself starts one worker per core as numpy loads
    code = "import os, sqvar.cli; print(len(os.listdir('/proc/self/task')))"
    assert _fresh_python(code) == "1"


def test_cli_import_keeps_caller_blas_threads():
    code = "import os, sqvar.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code, "2") == "2"


def test_cli_compute_closes_input(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("2\n1\n-3\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "sqvar.cli", "compute", "--input", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["breakpoints"] == [0, 2, 3]
    assert "ResourceWarning" not in proc.stderr


def test_cli_bounds_rosenthal_report_only(capsys):
    rc = cli.main(["bounds", "rosenthal", "--spec", "gaussian:sigma=1",
                   "--trials", "200"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert all(ln.split(",")[-1] == "report-only" for ln in lines[1:])


@pytest.mark.parametrize("p", ["inf", "nan"])
def test_cli_bounds_rosenthal_non_finite_p(capsys, p):
    assert cli.main(["bounds", "rosenthal", "--p", p, "--trials", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sqvar: error: Rosenthal ratio needs a finite p > 2, got p = {p}\n"


def test_cli_chain_warning_free(tmp_path):
    # simulate (every algorithm and classify), summarize, every
    # plotdata kind, the three family schemes (h at eps' = 1/2 and 1/3), the
    # four bound checks, greedy and compute (at p = 2, and off 2 on short and
    # on long record chains), with warnings raised as errors and dev-mode checks
    out = tmp_path / "records.csv"
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT.format(out=out))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {k: v for k, v in os.environ.items() if k != "SQVAR_THREADS"}
    env["PYTHONPATH"] = os.path.abspath(src)
    values = tmp_path / "values.txt"
    values.write_text("x\n1\n-2.5\n0\n3\n-1\n")
    drift = tmp_path / "drift.txt"  # chains longer than _DP_LONG, scored by numpy
    increments = np.random.default_rng(3).standard_normal(3000) + 0.5
    drift.write_text("\n".join(map(repr, increments.tolist())))
    steps = [["simulate", "--config", str(ini)], ["summarize", "--input", str(out)]]
    steps += [["plotdata", "--input", str(out), "--kind", kind] for kind in PLOT_KINDS]
    steps += [["families", "dyadic", "--n", "4"],
              ["families", "h", "--n", "5"],
              ["families", "h", "--eps", "0.3333333333333333", "--n", "7"],
              ["families", "l", "--s", "2", "--c", "4"]]
    steps += [["bounds", check, "--trials", "200"]
              for check in ("bernstein", "etemadi", "berry-esseen", "rosenthal")]
    steps += [["greedy", "--n", "64"], ["compute", "--input", str(values)],
              ["compute", "--input", str(values), "--p", "3"],
              ["compute", "--input", str(drift), "--p", "1.5"]]
    for argv in steps:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "sqvar.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), argv


def test_large_trial_holds_only_the_walk_on_entry_to_each_kernel(tmp_path, monkeypatch):
    # the lab_large trial at 2^20: what is held on entry to each kernel, above
    # what was held before run_trial, is the walk and small change
    n = 1 << 20
    cfg = _config(tmp_path, n_grid=(n,), trials=1,
                  exact=False, block=256, greedy_params=GreedyParams(),
                  thresholds=(0.1, 2432.0))
    held = {}

    def entry(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            held[name] = tracemalloc.get_traced_memory()[0] - base
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    for module, name in ((variation, "sq_variation_blocked"),
                         (variation, "sq_variation_upper_dyadic"),
                         (greedy, "greedy_partition"), (classify, "classify_partition")):
        entry(module, name)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_trial(cfg, n, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sorted(held) == ["classify_partition", "greedy_partition",
                            "sq_variation_blocked", "sq_variation_upper_dyadic"]
    walk_bytes = (n + 1) * 8
    assert all(b <= 1.2 * walk_bytes for b in held.values()), held
    # the samples are drawn into the walk's buffer: no second N-sized array
    # exists at any point of the trial
    assert peak <= 1.3 * walk_bytes, peak
