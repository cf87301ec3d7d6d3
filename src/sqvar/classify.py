"""Good/medium/bad classification of partition intervals.

An interval I with sum S_I is good when S_I^2 <= (2+eps)|I| lnln N, bad when
S_I^2 > B|I| lnln N, and medium in between. The per-class totals of the
maximal partition are the statistics whose decay the lab trend-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ClassParams:
    epsilon: float
    b_threshold: float
    n_ref: int

    def __post_init__(self):
        check_thresholds(self.epsilon, self.b_threshold)
        if self.n_ref < 16:
            raise ValueError("n_ref must be >= 16 so that lnln(n_ref) > 0")

    @property
    def loglog(self) -> float:
        return math.log(math.log(self.n_ref))


@dataclass(frozen=True)
class ClassBreakdown:
    good_sum: float
    medium_sum: float
    bad_sum: float
    good_len: int
    medium_len: int
    bad_len: int

    @property
    def total(self) -> float:
        return self.good_sum + self.medium_sum + self.bad_sum


def classify_partition(scored: VariationResult, params: ClassParams) -> ClassBreakdown:
    """Label each interval of a p = 2 score (an exact, blocked or
    partition_value result) by its contribution, S_I^2, and accumulate."""
    sums2 = scored.contributions
    lens = np.diff(scored.partition.breakpoints)
    ll = params.loglog
    good = sums2 <= (2.0 + params.epsilon) * lens * ll
    bad = sums2 > params.b_threshold * lens * ll
    med = ~good & ~bad
    return ClassBreakdown(
        good_sum=float(sums2[good].sum()),
        medium_sum=float(sums2[med].sum()),
        bad_sum=float(sums2[bad].sum()),
        good_len=int(lens[good].sum()),
        medium_len=int(lens[med].sum()),
        bad_len=int(lens[bad].sum()),
    )
