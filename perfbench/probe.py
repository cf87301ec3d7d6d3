"""Run one `sqvar` command in this process with the benchmark's hooks.

    python3 perfbench/probe.py trace SPANS.json -- <sqvar arguments>
    python3 perfbench/probe.py setup -- <sqvar arguments>

`trace` wraps every binding of the traced functions, runs the command and
writes its spans to SPANS.json. `setup` exits with code 0 as soon as the
command makes its first kernel call, so the parent's wall time of this
process is the set-up time; it exits with code 3 if no kernel is reached.
Both need `src` on PYTHONPATH. Neither touches any file under `src/`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from time import perf_counter

# (module, function) pairs whose calls become spans. These are the layers
# the benchmark reports; see perfbench/run.py for what each should move.
TRACED = (
    ("seqcore", "sample_sequence"),
    ("seqcore", "prefix_sums"),
    ("variation", "sq_variation_exact"),
    ("variation", "p_variation_exact"),
    ("variation", "sq_variation_blocked"),
    ("variation", "sq_variation_upper_dyadic"),
    ("variation", "partition_value"),
    ("greedy", "greedy_partition"),
    ("greedy", "a_event_holds"),
    ("greedy", "best_two_cut"),
    ("classify", "classify_partition"),
    ("labcli", "run_trial"),
    ("labcli", "write_outputs"),
    ("cli", "main"),
)

# Inside `variation`, p_variation_exact is the body of sq_variation_exact
# (its p = 2 alias); a span there would split one kernel across two names.
# It is a span only when entered from another module, as `sqvar compute` does.
OUTSIDE_ONLY = {"variation.p_variation_exact"}

# Modules whose first call ends set-up: the kernels, not the orchestration.
KERNEL_MODULES = ("seqcore", "variation", "greedy", "classify")


def _size_of(key: str, bound: inspect.BoundArguments) -> int | None:
    """The work size of one call: N for kernels, bytes for write_outputs."""
    args = list(bound.arguments.values())
    try:
        if key in ("seqcore.sample_sequence", "labcli.run_trial"):
            return int(bound.arguments["n"])
        if key == "labcli.write_outputs":
            return os.path.getsize(bound.arguments["config"].output_path)
        return len(args[0])
    except (KeyError, IndexError, TypeError, AttributeError, OSError):
        return None


def _bind_everywhere(replacements: dict) -> None:
    """Point every name in every sqvar module that is bound to an original
    function (`from .seqcore import prefix_sums` included) at its wrapper."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "sqvar" or name.startswith("sqvar.")):
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in replacements:
                setattr(mod, attr, replacements[val])


def _originals() -> tuple[dict, list[str]]:
    import sqvar.cli  # noqa: F401  imports every module on the command's path

    found, absent = {}, []
    for mod_name, fn_name in TRACED:
        mod = sys.modules.get(f"sqvar.{mod_name}")
        fn = getattr(mod, fn_name, None)
        key = f"{mod_name}.{fn_name}"
        if inspect.isfunction(fn):
            found[key] = fn
        else:
            absent.append(key)
    return found, absent


class Tracer:
    """Collects spans [key, start, end, parent index, size] in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, key: str, fn):
        sig = inspect.signature(fn)
        home = fn.__module__
        outside_only = key in OUTSIDE_ONLY
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outside_only and sys._getframe(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                try:
                    size = _size_of(key, sig.bind(*args, **kwargs))
                except TypeError:
                    size = None
                spans[idx] = [key, t0, t1, parent, size]

        return traced


def _run_main(argv: list[str]) -> int:
    return sys.modules["sqvar.cli"].main(argv)


def trace(out_path: str, argv: list[str]) -> int:
    found, absent = _originals()
    tracer = Tracer()
    _bind_everywhere({fn: tracer.wrap(key, fn) for key, fn in found.items()})
    try:
        return _run_main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "absent": absent}, fh)


def setup(argv: list[str]) -> int:
    found, _ = _originals()

    def stop(*_args, **_kwargs):
        os._exit(0)

    _bind_everywhere({fn: stop for key, fn in found.items()
                      if key.split(".")[0] in KERNEL_MODULES})
    _run_main(argv)
    print("probe: the command made no kernel call", file=sys.stderr)
    return 3


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    head, rest = argv[:cut], argv[cut + 1:]
    if head[:1] == ["trace"] and len(head) == 2:
        return trace(head[1], rest)
    if head == ["setup"]:
        return setup(rest)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
