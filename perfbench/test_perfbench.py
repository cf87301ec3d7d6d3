"""Smoke test of the benchmark itself at tiny sizes.

Checks that a run emits every metric BENCHMARK.json names, in both modes,
that a corrupted output counts as failed, and that an absent function is
reported as absent. Run from the repository root with `src` on PYTHONPATH:

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(HERE, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up by name
    spec.loader.exec_module(mod)
    return mod


run = _load("run")
probe = _load("probe")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)

TINY_LAB = run.Workload("tiny_lab", config=(
    "[experiment]\nspec = gaussian:sigma=1\nn_grid = 32, 64\ntrials = 2\n"
    "master_seed = {seed}\nalgorithms = exact, blocked:4, dyadic_upper, greedy\n"
    "output = records.csv\n[greedy]\ns = 2\nc = 4\n[classify]\neps = 0.1\n"))
TINY_COMPUTE = run.Workload("tiny_compute", lattice=(64, 128))


def _references(workload, seed, tmp_path):
    work = tmp_path / f"ref-{workload.name}"
    work.mkdir()
    return run.reference_digests(workload, run.variant_of(seed), str(work), run.child_env(ROOT))


@pytest.fixture(scope="module")
def lab_refs(tmp_path_factory):
    return _references(TINY_LAB, 5, tmp_path_factory.mktemp("lab"))


def _metric_names(kind):
    return {m["name"] for m in BENCH[kind]}


def test_benchmark_json_matches_runner():
    assert {w["name"] for w in BENCH["workloads"]} == set(run.WORKLOADS)
    assert _metric_names("end_to_end") == set(run.END_TO_END)
    assert _metric_names("per_layer") == set(run.PER_LAYER)
    assert {f"{m}.{f}" for m, f in probe.TRACED} >= {
        n.rsplit(".", 1)[0] for n in run.PER_LAYER if not n.startswith("trace.")}


def test_end_to_end_metrics_emitted(lab_refs):
    res = run.measure(TINY_LAB, 5, 0, False, ROOT, lab_refs, setup_probes=1)
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == 4 * run.MIN_REPS  # 4 records per repetition
    assert set(res["metrics"]) == _metric_names("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_per_layer_metrics_emitted(lab_refs):
    res = run.measure(TINY_LAB, 5, 0, True, ROOT, lab_refs)
    assert res["correct"] and res["failed"] == 0  # traced bytes equal the reference
    assert set(res["metrics"]) == _metric_names("per_layer")
    values = {k: m["value"] for k, m in res["metrics"].items()}
    assert values["variation.sq_variation_exact.calls"] == 4
    assert values["seqcore.sample_sequence.elements"] == 2 * (32 + 64)
    assert values["variation.sq_variation_exact.exponent"] != -1


def test_corrupted_output_counts_as_failed(lab_refs, tmp_path):
    tampered = [list(lab_refs[0])]
    tampered[0][2] = "0" * 16
    res = run.measure(TINY_LAB, 5, 0, False, ROOT, tampered, setup_probes=1)
    assert not res["correct"]
    assert (res["attempted"], res["failed"]) == (4 * run.MIN_REPS, run.MIN_REPS)

    refs = _references(TINY_COMPUTE, 2, tmp_path)
    cmds = run.prepare(TINY_COMPUTE, run.variant_of(2), str(tmp_path))
    assert run.check(cmds[0], b'{"value": 1.0}\n', refs[0]) == (1, 1)
    assert run.check(cmds[0], None, refs[0]) == (1, 1)


def test_csv_check_counts_each_record():
    cmd = run.Command(("simulate",), "records.csv")
    good = b"h\n1,2\n3,4\n"
    ref = run.digests(cmd, good)
    assert run.check(cmd, good, ref) == (2, 0)
    assert run.check(cmd, b"h\n1,2\n3,5\n", ref) == (2, 1)
    assert run.check(cmd, b"h\n1,2\n", ref) == (2, 1)
    assert run.check(cmd, b"x\n1,2\n3,4\n", ref) == (2, 2)


def test_absent_function_reported(monkeypatch):
    monkeypatch.setattr(probe, "TRACED", probe.TRACED + (("greedy", "no_such_kernel"),))
    _, absent = probe._originals()
    assert absent == ["greedy.no_such_kernel"]
    metrics = run.layer_metrics([{}], {"greedy.best_two_cut"}, 0.1)
    assert metrics["greedy.best_two_cut.calls"]["value"] == -1


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lab_exact", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout
