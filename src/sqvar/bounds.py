"""Concentration bounds and their Monte Carlo verification.

Covered: the maximal Bernstein/Hoeffding tail bound for bounded summands
(with explicit constant 2 from the one-sided exponential-martingale argument
applied to both signs), Etemadi's maximal inequality, the Kolmogorov
distance to the normal limit (CDF from math.erfc), and the Rosenthal moment ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqcore import DistributionSpec, mix_seed, sample_sequence

_CHUNK = 1 << 22  # elements per Monte Carlo block


@dataclass(frozen=True)
class EmpiricalTail:
    frequency: float
    trials: int

    @property
    def std_err(self) -> float:
        return math.sqrt(self.frequency * (1.0 - self.frequency) / self.trials)


def bernstein_maximal_bound(t: float, sum_var: float, m_bound: float) -> float:
    """P[max_l |S_l| > t] <= 2 exp(-(t^2/2) / (sum_var + M t / 3)), capped at 1,
    for a threshold t, the total variance sum_var of the partial sum and an
    a.s. bound M = m_bound on each summand; a ValueError names any of them
    that is not finite and > 0."""
    for name, value in (("t", t), ("sum_var", sum_var), ("m_bound", m_bound)):
        if not 0 < value < math.inf:
            raise ValueError(f"bernstein bound needs finite {name} > 0, got {value!r}")
    expo = -(t * t / 2.0) / (sum_var + m_bound * t / 3.0)
    return min(1.0, 2.0 * math.exp(expo))


def _iter_chunks(spec: DistributionSpec, length: int, trials: int, seed: int):
    """Yield (rows, length) sample blocks; blocks are keyed by index so the
    stream is independent of how callers schedule them."""
    rows = max(1, _CHUNK // max(1, length))
    done = 0
    idx = 0
    while done < trials:
        take = min(rows, trials - done)
        yield sample_sequence(spec, take * length, mix_seed(seed, idx)).reshape(take, length)
        done += take
        idx += 1


def _abs_walks(spec: DistributionSpec, length: int, trials: int, seed: int):
    """Yield |S_l| of the walks of _iter_chunks' blocks, one walk per row; a
    ValueError names one that is not finite (an overflow, in a sum or a sample)."""
    for block in _iter_chunks(spec, length, trials, seed):
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            walks = np.abs(np.cumsum(block, axis=1))
        if not np.isfinite(walks[:, -1]).all():  # a NaN or inf stays to the row's end
            raise ValueError("a Monte Carlo walk overflows float64")
        yield walks


def maximal_tail_empirical(
    spec: DistributionSpec, length: int, t: float, trials: int, seed: int
) -> EmpiricalTail:
    """Monte Carlo frequency of max_{1<=l<=L} |S_l| > t."""
    if t <= 0:
        raise ValueError("t must be > 0")
    if length < 1 or trials < 1:
        raise ValueError("need L >= 1 and trials >= 1")
    hits = 0
    for walks in _abs_walks(spec, length, trials, seed):
        hits += int(np.count_nonzero(walks.max(axis=1) > t))
    return EmpiricalTail(frequency=hits / trials, trials=trials)


def etemadi_check(
    spec: DistributionSpec, length: int, a: float, trials: int, seed: int
) -> tuple[EmpiricalTail, float]:
    """Empirical P[max_l |S_l| >= 3a] against 3 max_l P[|S_l| >= a], both
    estimated from the same trial ensemble."""
    if a <= 0:
        raise ValueError("a must be > 0")
    if length < 1 or trials < 1:
        raise ValueError("need L >= 1 and trials >= 1")
    lhs_hits = 0
    per_step = np.zeros(length, dtype=np.int64)
    for walks in _abs_walks(spec, length, trials, seed):
        lhs_hits += int(np.count_nonzero(walks.max(axis=1) >= 3.0 * a))
        per_step += np.count_nonzero(walks >= a, axis=0)
    lhs = EmpiricalTail(frequency=lhs_hits / trials, trials=trials)
    rhs = 3.0 * float(per_step.max()) / trials
    return lhs, rhs


def berry_esseen_distance(spec: DistributionSpec, k: int, trials: int, seed: int) -> float:
    """Kolmogorov distance between the empirical law of S_k / sqrt(k) and the
    standard normal, by the sorted-sample sup formula."""
    if spec.sigma != 1.0:
        raise ValueError("Berry-Esseen check requires a unit-variance spec")
    if k < 1 or trials < 1:
        raise ValueError("need k >= 1 and trials >= 1")
    sums = np.empty(trials)
    done = 0
    if spec.kind == "rademacher":
        # S_k = 2 Binomial(k, 1/2) - k, drawn directly
        rng = np.random.Generator(np.random.Philox(key=mix_seed(seed, 0)))
        sums[:] = 2.0 * rng.binomial(k, 0.5, size=trials) - k
    else:
        for block in _iter_chunks(spec, k, trials, seed):
            take = block.shape[0]
            sums[done : done + take] = block.sum(axis=1)
            done += take
    z = np.sort(sums / math.sqrt(k))
    cdf = _normal_cdf(z)
    grid = np.arange(1, trials + 1) / trials
    return float(np.maximum(grid - cdf, cdf - (grid - 1.0 / trials)).max())


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """The standard normal CDF of each element of z."""
    return np.array([0.5 * math.erfc(-x / math.sqrt(2)) for x in z.tolist()])


def rosenthal_ratio(
    spec: DistributionSpec, p: float, ell: int, trials: int, seed: int
) -> float:
    """(E|S_l|^p)^(1/p) divided by max{(l E|X|^p)^(1/p), (l E X^2)^(1/2)}.

    Rosenthal's inequality says this stays below a constant depending only
    on p; the empirical numerator uses `trials` independent sums. A ValueError
    names p where a moment overflows float64.
    """
    if not (math.isfinite(p) and p > 2):
        raise ValueError(f"Rosenthal ratio needs a finite p > 2, got p = {p!r}")
    if not spec.has_abs_moment(p):
        raise ValueError(f"spec has infinite absolute moment of order {p}")
    if ell < 1 or trials < 1:
        raise ValueError("need ell >= 1 and trials >= 1")
    acc = 0.0
    with np.errstate(over="ignore"):  # checked just below
        for block in _iter_chunks(spec, ell, trials, seed):
            acc += float(np.sum(np.abs(block.sum(axis=1)) ** p))
    if not math.isfinite(acc):
        raise ValueError(f"empirical E|S_l|^p overflows float64 at p = {p!r}")
    numer = (acc / trials) ** (1.0 / p)
    denom = max(
        (ell * spec.abs_moment(p)) ** (1.0 / p),
        math.sqrt(ell) * spec.sigma,
    )
    return numer / denom
