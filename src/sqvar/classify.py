"""Good/medium/bad classification of partition intervals.

An interval I with sum S_I is good when S_I^2 <= (2+eps)|I| lnln N, bad when
S_I^2 > B|I| lnln N, and medium in between. The per-class totals of the
maximal partition are the statistics whose decay the lab trend-checks.
"""

from __future__ import annotations

import math

import numpy as np

from .variation import VariationResult


def default_bad_threshold(delta: float = 1.0) -> float:
    """Smallest multiple of 64 with B/576 * (1 - 1/(1+delta)) - 1 > 1, plus one
    64-step safety margin (delta=1 gives 2368 + 64 = 2432)."""
    b = 64.0
    while b / 576.0 * (1.0 - 1.0 / (1.0 + delta)) - 1.0 <= 1.0:
        b += 64.0
    return b + 64.0


def check_thresholds(eps: float, b: float) -> None:
    """Raise ValueError unless eps > 0 and b > 2 + eps (NaN refused)."""
    if not (eps > 0 and b > 2 + eps):
        raise ValueError(f"needs eps > 0 and b > 2 + eps, got eps = {eps:g}, b = {b:g}")


def classify_partition(scored: VariationResult, eps: float, b: float) -> dict:
    """Label each interval of a p = 2 score (an exact, blocked or
    partition_value result) of a walk of N >= 16 steps by its contribution,
    S_I^2, against lnln N, and total each class: TrialRecord's six class
    columns, good_sum .. bad_len."""
    check_thresholds(eps, b)
    n = scored.partition.n
    if n < 16:
        raise ValueError(f"classification needs N >= 16 so that lnln N > 0, got N = {n}")
    sums2 = scored.contributions
    lens = np.diff(scored.partition.breakpoints)
    ll = math.log(math.log(n))
    good = sums2 <= (2.0 + eps) * lens * ll
    bad = sums2 > b * lens * ll
    med = ~good & ~bad
    return dict(
        good_sum=float(sums2[good].sum()),
        medium_sum=float(sums2[med].sum()),
        bad_sum=float(sums2[bad].sum()),
        good_len=int(lens[good].sum()),
        medium_len=int(lens[med].sum()),
        bad_len=int(lens[bad].sum()),
    )
