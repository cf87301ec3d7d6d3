import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_kernels.py")


@pytest.fixture(scope="module")
def bench_kernels():
    spec = importlib.util.spec_from_file_location("bench_kernels", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_writes_one_row_per_kernel_and_size(bench_kernels, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench_kernels, "MAX_LOG2", 11)
    bench_kernels.main(["--label", "smoke"])
    with open(tmp_path / "BENCH_smoke.json", encoding="utf-8") as fh:
        out = json.load(fh)
    assert out["label"] == "smoke" and out["sizes"] == [1024, 2048]
    assert list(out["kernels"]) == ["sample", "prefix_sums", "exact", "blocked", "dyadic",
                                    "greedy", "classify"]
    for row in out["kernels"].values():
        assert len(row["median_s"]) == 2 and all(t > 0 for t in row["median_s"])
        assert all(r >= bench_kernels.MIN_REPS for r in row["reps"])
        assert isinstance(row["exponent"], float)

