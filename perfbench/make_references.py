"""Regenerate perfbench/references.json from the program in this checkout.

    python3 perfbench/make_references.py [workload ...]

For every workload and input variant it runs the untraced commands once and
stores the digest of each output record. Run it only when the program's
output is meant to change; the references are the benchmark's correctness gate.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def main(names: list[str]) -> int:
    root = os.getcwd()
    refs = {}
    if os.path.exists(run.REFERENCES):
        with open(run.REFERENCES, encoding="utf-8") as fh:
            refs = json.load(fh)
    env = run.child_env(root)
    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    for name in names or sorted(run.WORKLOADS):
        per_variant = {}
        for variant in range(run.VARIANTS):
            work = tempfile.mkdtemp(prefix=f"ref-{name}-", dir=base)
            try:
                per_variant[str(variant)] = run.reference_digests(
                    run.WORKLOADS[name], variant, work, env)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{name} variant {variant}: done", flush=True)
        refs[name] = per_variant
        with open(run.REFERENCES, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
