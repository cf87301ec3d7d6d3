import importlib.util
import json
import os

import numpy as np
import pytest

from sqvar.seqcore import KINDS

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_kernels.py")


@pytest.fixture(scope="module")
def bench_kernels():
    spec = importlib.util.spec_from_file_location("bench_kernels", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_writes_one_row_per_kernel_and_size(bench_kernels, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench_kernels, "MAX_LOG2", 12)
    monkeypatch.setattr(bench_kernels, "EXACT_MAX_LOG2", 13)
    monkeypatch.setattr(bench_kernels, "DRIFT_MAX_LOG2", 11)
    bench_kernels.main(["--label", "smoke"])
    with open(tmp_path / "BENCH_smoke.json", encoding="utf-8") as fh:
        out = json.load(fh)
    assert out["label"] == "smoke" and out["sizes"] == [1024, 2048, 4096]
    samples = [f"sample:{kind}" for kind in KINDS]
    assert list(out["kernels"]) == [*samples, "prefix_sums", "exact", "exact:drift",
                                    "exact:lattice", "blocked", "dyadic", "greedy", "classify",
                                    "dyadic:past_pow2", "trial:lab_large", "parse:compute"]
    for name, row in out["kernels"].items():
        sizes = {"exact": [1024, 2048, 4096, 8192], "exact:drift": [1024, 2048],
                 "parse:compute": [16384, 32768],
                 "dyadic:past_pow2": [1025, 4097],
                 "trial:lab_large": [1024, 4096]}.get(
            name, out["sizes"])
        assert row["sizes"] == sizes and len(row["median_s"]) == len(row["min_s"]) == len(sizes)
        assert all(0 < lo <= q1 <= mid <= q3 for lo, q1, mid, q3 in zip(
            row["min_s"], row["q1_s"], row["median_s"], row["q3_s"]))
        assert len(row["q1_s"]) == len(row["q3_s"]) == len(sizes)
        assert all(r >= bench_kernels.ROUNDS for r in row["reps"])
        assert isinstance(row["exponent"], float) and isinstance(row["exponent_min"], float)
        assert len(row["peak_mb"]) == len(sizes) and all(m >= 0 for m in row["peak_mb"])
    # a sample of N floats allocates at least its own 8 N bytes
    gaussian = out["kernels"]["sample:gaussian"]
    assert all(m >= 8 * n / (1 << 20) for m, n in zip(gaussian["peak_mb"], gaussian["sizes"]))
    # a parse at least its buffer of N + 1
    parse = out["kernels"]["parse:compute"]
    assert all(m >= 8 * (n + 1) / (1 << 20) for m, n in zip(parse["peak_mb"], parse["sizes"]))
    # and a whole trial at least its walk of N + 1
    trial = out["kernels"]["trial:lab_large"]
    assert all(m >= 8 * (n + 1) / (1 << 20) for m, n in zip(trial["peak_mb"], trial["sizes"]))

