"""Brute-force oracles the tests compare the kernels against.

No command runs them: each enumerates every candidate, so they are exact by
construction and slow by design. Import them as `from oracles import ...`;
pytest puts this directory on sys.path, as `tests/` has no `__init__.py`.
"""

from __future__ import annotations

import numpy as np

from sqvar.greedy import TwoCut
from sqvar.seqcore import PrefixSums

_BF_CAP = 22


def sq_variation_bruteforce(walk: PrefixSums, p: float = 2.0) -> float:
    """Independent oracle: enumerate all 2^(N-1) breakpoint subsets."""
    n = walk.n
    if n > _BF_CAP:
        raise ValueError(f"brute force limited to N <= {_BF_CAP}")
    s = walk.values
    best = -np.inf
    chunk = 1 << 16
    total = 1 << (n - 1)
    for base in range(0, total, chunk):
        masks = np.arange(base, min(base + chunk, total), dtype=np.uint64)
        m = len(masks)
        cuts = np.ones((m, n + 1), dtype=bool)
        for k in range(1, n):
            cuts[:, k] = (masks >> np.uint64(k - 1)) & np.uint64(1)
        idx = np.where(cuts, np.arange(n + 1, dtype=np.int64), 0)
        prev = np.maximum.accumulate(idx, axis=1)
        diffs = s[np.arange(1, n + 1)][None, :] - s[prev[:, :-1]]
        if p == 2.0:
            vals = diffs * diffs
        else:
            vals = np.abs(diffs) ** p
        vals = np.where(cuts[:, 1:], vals, 0.0)
        best = max(best, float(vals.sum(axis=1).max()))
    return best


def best_two_cut_bruteforce(walk: PrefixSums, j: int, window: int) -> TwoCut:
    """O(window^2) oracle scanning i2 ascending, then i1 ascending."""
    if j < 0 or window < 1 or j + window > walk.n:
        raise ValueError("window must satisfy 0 <= j and j + window <= N")
    s = walk.values[j : j + window + 1]
    a = s[0]
    v = s[1:]
    mid = v[:, None]
    table = (mid - a) ** 2 + (v[None, :] - mid) ** 2  # [i1-1, i2-1]
    table = np.where(np.tril(np.ones_like(table), 0) > 0, table.T, -np.inf)
    flat = int(np.argmax(table))  # row-major: first max has smallest i2 then i1
    i2, i1 = divmod(flat, window)
    rate = float((table.max(axis=1) / np.arange(1, window + 1)).max())
    return TwoCut(i1=i1 + 1, i2=i2 + 1, value=float(table[i2, i1]), rate=rate)
