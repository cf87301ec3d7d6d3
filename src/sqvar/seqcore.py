"""Random samples, as read-only arrays, and the validated prefix-sum walk.

All distributions are symmetric about zero and rescaled so the population
variance equals sigma**2. Sampling is driven by a counter-based generator
(Philox) keyed by a 64-bit seed, so regenerating with the same
(spec, n, seed) triple reproduces the samples bit for bit. scipy is loaded
only for the log-tail absolute moments at p != 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# E X^2 of the unscaled log-tail law: _logtail_raw_abs_moment(2.0) bit for bit,
# pinned so that sampling neither loads scipy nor depends on its quadrature.
_LOGTAIL_VARIANCE = float.fromhex("0x1.a524fdae73c1ap+1")

KINDS = ("rademacher", "gaussian", "uniform_centered", "pareto_sym", "logtail_sym")

# short names used in config files and CSV columns
_SHORT = {
    "rademacher": "rademacher",
    "gaussian": "gaussian",
    "uniform_centered": "uniform",
    "pareto_sym": "pareto",
    "logtail_sym": "logtail",
}
_FROM_SHORT = {v: k for k, v in _SHORT.items()}


def _splitmix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_seed(*parts: int) -> int:
    """Deterministically fold integers into one 64-bit stream key.

    Used to derive per-trial seeds as mix_seed(master_seed, n, trial_index),
    so parallel and serial runs draw identical streams.
    """
    h = _GOLDEN
    for p in parts:
        h = _splitmix64((h + _GOLDEN + (int(p) & _MASK64)) & _MASK64)
    return h


@dataclass(frozen=True)
class DistributionSpec:
    """A mean-zero distribution with target standard deviation sigma.

    moment_order is the largest finite absolute moment order (inf allowed);
    it is derived from the kind and not settable.
    """

    kind: str
    sigma: float = 1.0
    tail_exponent: float | None = None
    moment_order: float = field(init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not self.sigma > 0:
            raise ValueError("sigma must be > 0")
        if self.kind == "pareto_sym":
            a = self.tail_exponent
            if a is None or a <= 2:
                raise ValueError("pareto_sym tail exponent must be > 2: variance infinite")
            mo = float(a)
        elif self.kind == "logtail_sym":
            mo = 2.0
        else:
            mo = math.inf
        object.__setattr__(self, "moment_order", mo)

    def has_abs_moment(self, p: float) -> bool:
        """Whether E|X|^p is finite (strict at the Pareto tail exponent)."""
        if self.kind == "pareto_sym":
            return p < self.moment_order
        return p <= self.moment_order

    def almost_sure_bound(self) -> float:
        """Smallest M with |X| <= M a.s.; inf for unbounded kinds."""
        if self.kind == "rademacher":
            return self.sigma
        if self.kind == "uniform_centered":
            return self.sigma * math.sqrt(3.0)
        return math.inf

    def abs_moment(self, p: float) -> float:
        """E|X|^p in closed form (quadrature for the log-tail kind)."""
        if p < 0:
            raise ValueError("moment order must be >= 0")
        if not self.has_abs_moment(p):
            return math.inf
        s = self.sigma
        if self.kind == "rademacher":
            return s**p
        if self.kind == "gaussian":
            return s**p * 2 ** (p / 2) * math.gamma((p + 1) / 2) / math.sqrt(math.pi)
        if self.kind == "uniform_centered":
            a = s * math.sqrt(3.0)
            return a**p / (p + 1)
        if self.kind == "pareto_sym":
            a = self.tail_exponent
            scale = s / math.sqrt(a / (a - 2))
            return scale**p * a / (a - p)
        # logtail_sym: rescaled so the variance is sigma**2
        scale = s / math.sqrt(_LOGTAIL_VARIANCE)
        return scale**p * (_LOGTAIL_VARIANCE if p == 2 else _logtail_raw_abs_moment(p))

    def to_string(self) -> str:
        parts = [_SHORT[self.kind]]
        if self.kind == "pareto_sym":
            parts.append(f"a={float(self.tail_exponent)!r}")
        parts.append(f"sigma={float(self.sigma)!r}")
        return ":".join(parts)

    @staticmethod
    def from_string(text: str) -> "DistributionSpec":
        """Parse "gaussian:sigma=1" / "pareto:a=4:sigma=1" style strings."""
        fields = text.strip().split(":")
        name = fields[0].strip().lower()
        kind = _FROM_SHORT.get(name, name)
        kwargs: dict[str, float] = {}
        for f in fields[1:]:
            if not f.strip():
                continue
            key, _, val = f.partition("=")
            key = key.strip().lower()
            if key in ("sigma", "s"):
                kwargs["sigma"] = float(val)
            elif key in ("a", "tail", "tail_exponent"):
                kwargs["tail_exponent"] = float(val)
            else:
                raise ValueError(f"unknown distribution parameter {key!r} in {text!r}")
        return DistributionSpec(kind, **kwargs)


@dataclass(frozen=True)
class PrefixSums:
    """The walk: values[k] = x_1 + ... + x_k, with values[0] = 0.

    Built by prefix_sums(), which guarantees a non-empty, finite, read-only
    array; every kernel accepts a walk in place of the samples.
    """

    values: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def __len__(self) -> int:
        return self.n


# --- log-tail distribution: P[|X| > x] = min(1, x^-2 (ln(e+x))^-2) ----------

@lru_cache(maxsize=None)
def _logtail_x0() -> float:
    # x0 solves x * ln(e + x) = 1; the tail function equals 1 below x0.
    from scipy.optimize import brentq
    return float(brentq(lambda x: x * math.log(math.e + x) - 1.0, 0.1, 1.0, xtol=1e-14))


@lru_cache(maxsize=None)
def _logtail_raw_abs_moment(p: float) -> float:
    """E|X|^p = x0^p + int_{x0}^inf p x^{p-3} ln^-2(e+x) dx, finite for p <= 2.

    Integrated after u = ln(e+x), where the integrand becomes the cleanly
    decaying p e^{(p-2)u} (1 - e^{1-u})^{p-3} / u^2.
    """
    from scipy.integrate import quad
    if p > 2:
        return math.inf
    x0 = _logtail_x0()
    if p == 0:
        return 1.0
    u0 = math.log(math.e + x0)

    def integrand(u: float) -> float:
        return p * math.exp((p - 2.0) * u) * (1.0 - math.exp(1.0 - u)) ** (p - 3.0) / (u * u)

    val, _ = quad(integrand, u0, np.inf, limit=200)
    return x0**p + val


def _logtail_quantile(u: np.ndarray) -> np.ndarray:
    """|X| quantile: solve x*ln(e+x) = 1/sqrt(u) by bisection to adjacent floats.

    Stops at the first step that moves neither lo nor hi: the map is
    elementwise, so that step would repeat and 100 steps give the same bits.
    """
    target = 1.0 / np.sqrt(u)
    lo = np.zeros_like(target)
    hi = np.maximum(target, 1.0)  # x*ln(e+x) >= x for x >= 0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        above = mid * np.log(math.e + mid) > target
        new_hi = np.where(above, mid, hi)
        new_lo = np.where(above, lo, mid)
        if np.array_equal(new_hi, hi) and np.array_equal(new_lo, lo):
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def _rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def sample_sequence(spec: DistributionSpec, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. samples under spec as a read-only array; deterministic in
    (spec, n, seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _rng_for(seed)
    s = spec.sigma
    if spec.kind == "rademacher":
        x = (2.0 * rng.integers(0, 2, size=n) - 1.0) * s
    elif spec.kind == "gaussian":
        x = rng.standard_normal(n) * s
    elif spec.kind == "uniform_centered":
        a = s * math.sqrt(3.0)
        x = rng.uniform(-a, a, size=n)
    elif spec.kind == "pareto_sym":
        a = spec.tail_exponent
        u = 1.0 - rng.random(n)  # in (0, 1]
        mag = u ** (-1.0 / a)
        sign = 2.0 * rng.integers(0, 2, size=n) - 1.0
        x = sign * mag * (s / math.sqrt(a / (a - 2)))
    elif spec.kind == "logtail_sym":
        u = 1.0 - rng.random(n)
        mag = _logtail_quantile(u)
        sign = 2.0 * rng.integers(0, 2, size=n) - 1.0
        x = sign * mag * (s / math.sqrt(_LOGTAIL_VARIANCE))
    else:  # pragma: no cover - guarded by DistributionSpec
        raise ValueError(spec.kind)
    x.setflags(write=False)
    return x


_EXTENDED_CUTOFF = 1 << 20  # accumulate long sums in extended precision


def prefix_sums(x) -> PrefixSums:
    """The walk S_0..S_N of a 1-d array-like of samples, S_0 = 0.

    A PrefixSums passes through unchanged, so a caller builds the walk once
    and hands it to every kernel. Raises ValueError on empty or non-1-d input
    and on a non-finite partial sum, which catches NaN/inf samples and
    overflow of the running sum alike.
    """
    if isinstance(x, PrefixSums):
        return x
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("expected a non-empty 1-d sample vector")
    n = len(arr)
    out = np.empty(n + 1)
    out[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        if n >= _EXTENDED_CUTOFF:
            out[1:] = np.cumsum(arr.astype(np.longdouble)).astype(np.float64)
        else:
            np.cumsum(arr, out=out[1:])
    finite = np.isfinite(out)
    if not finite.all():
        i = int(np.argmin(finite)) - 1
        if not math.isfinite(arr[i]):
            raise ValueError(f"non-finite sample {arr[i]} at index {i}")
        raise ValueError(f"partial sum overflows float64 at index {i}")
    out.setflags(write=False)
    return PrefixSums(values=out)
