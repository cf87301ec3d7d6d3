"""Random samples, as read-only arrays, and the validated prefix-sum walk.

All distributions are symmetric about zero and rescaled so the population
variance equals sigma**2. Sampling is driven by a counter-based generator
(Philox) keyed by a 64-bit seed, so regenerating with the same
(spec, n, seed) triple reproduces the samples bit for bit. prefix_sums turns
samples into the walk that every kernel takes; it is called once per input,
where the samples enter (a lab trial, `sqvar compute`, `sqvar greedy`).

Log-tail magnitudes are inverse-CDF draws: the root of x*ln(e+x) = 1/sqrt(u)
for u in (0, 1]. Its bits are defined by a float bisection, and are computed
by Newton plus a check of the bisection's predicate on the W = 8 floats on
each side of the crossing, which provably gives the same bits for np.log
errors below 1.25 ulps (see _logtail_quantile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# E X^2 of the unscaled log-tail law, pinned: tests find it 2.87 ulps above a
# 40-digit quadrature of the tail, the third float above its correct rounding.
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
_PARAM_FIELDS = {"sigma": "sigma", "s": "sigma",
                 "a": "tail_exponent", "tail": "tail_exponent", "tail_exponent": "tail_exponent"}


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
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")
        if self.kind == "pareto_sym":
            a = self.tail_exponent
            if a is None or a <= 2:
                raise ValueError("pareto_sym tail exponent must be > 2: variance infinite")
            if not math.isfinite(a):
                raise ValueError(f"pareto_sym tail exponent must be finite, got a = {a!r}")
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
        """E|X|^p in closed form; the log-tail kind has it only at p = 2 (and
        inf above). A ValueError names p where the value overflows float64."""
        if p < 0:
            raise ValueError(f"moment order must be >= 0, got p = {p!r}")
        if not self.has_abs_moment(p):
            return math.inf
        s = self.sigma
        try:
            if self.kind == "rademacher":
                value = s**p
            elif self.kind == "gaussian":
                value = s**p * 2 ** (p / 2) * math.gamma((p + 1) / 2) / math.sqrt(math.pi)
            elif self.kind == "uniform_centered":
                value = (s * math.sqrt(3.0)) ** p / (p + 1)
            elif self.kind == "pareto_sym":
                a = self.tail_exponent
                value = (s / math.sqrt(a / (a - 2))) ** p * a / (a - p)
            elif p == 2:  # logtail_sym, rescaled so the variance is sigma**2
                value = (s / math.sqrt(_LOGTAIL_VARIANCE)) ** p * _LOGTAIL_VARIANCE
            else:
                raise ValueError(f"log-tail E|X|^p is computed only at p = 2 (inf above), "
                                 f"got p = {p!r}")
        except OverflowError:  # Python's float ** raises where a product gives inf
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"E|X|^p overflows float64 at p = {p!r}")
        return value

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
            if key not in _PARAM_FIELDS:
                raise ValueError(f"unknown distribution parameter {key!r} in {text!r}")
            try:
                kwargs[_PARAM_FIELDS[key]] = float(val)
            except ValueError:
                raise ValueError(f"distribution parameter {key!r} in {text!r} is not a "
                                 f"number: {val.strip()!r}") from None
        return DistributionSpec(kind, **kwargs)


@dataclass(frozen=True)
class PrefixSums:
    """The walk: values[k] = x_1 + ... + x_k, with values[0] = 0.

    Built by prefix_sums(), which guarantees a non-empty, finite, read-only
    array; every kernel takes a walk, and only a walk, and reads values and n.
    """

    values: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def __len__(self) -> int:
        return self.n


# --- log-tail distribution: P[|X| > x] = min(1, x^-2 (ln(e+x))^-2) ----------

# The log-tail quantile solves x*ln(e+x) = 1/sqrt(u) to the bits of a
# bisection without running it; see _logtail_quantile for the proof.
_NEWTON_STEPS = 4  # from below the root; leaves x within 4 floats of the crossing
_WALK_STEPS = 8  # one-float moves towards the crossing before bisecting instead
# Floats checked on each side of the crossing: 4 + 4c, for np.log's measured
# error c = 0.5015 ulps, rounded up, plus one float of margin.
_WINDOW = 8
_CHUNK = 1 << 15  # elements per pass, so that the temporaries stay in L2


def _above(x: np.ndarray, target: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The bisection's predicate x*ln(e+x) > target, in its float expression
    and order, with one temporary; out, if given, receives the mask."""
    t = math.e + x
    np.log(t, out=t)
    np.multiply(x, t, out=t)
    return np.greater(t, target, out=out)


def _bisect(target: np.ndarray) -> np.ndarray:
    """Solve x*ln(e+x) = target by bisection on [0, max(target, 1)].

    Stops at the first step that moves neither lo nor hi: the map is
    elementwise, so that step would repeat and 100 steps give the same bits.
    """
    lo = np.zeros_like(target)
    hi = np.maximum(target, 1.0)  # x*ln(e+x) >= x for x >= 0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        above = _above(mid, target)
        new_hi = np.where(above, mid, hi)
        new_lo = np.where(above, lo, mid)
        if np.array_equal(new_hi, hi) and np.array_equal(new_lo, lo):
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def _walk_to_crossing(bits: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Move each L (bits is its int64 view, changed in place) one float at a
    time until above(L) is false and above(H) is true, H the float after L.

    Positive floats order as their bit patterns, so +-1 on bits is one float.
    Returns the mask of the elements that got there in _WALK_STEPS moves.
    """
    walking = np.arange(len(bits))
    for _ in range(_WALK_STEPS):
        b, t = bits[walking], target[walking]
        down = _above(b.view(np.float64), t)
        up = ~down & ~_above((b + 1).view(np.float64), t)
        moves = down | up
        walking = walking[moves]
        if not len(walking):
            break
        bits[walking] = (b + up - down)[moves]
    settled = np.ones(len(bits), dtype=bool)
    settled[walking] = False  # moved last, so not yet checked
    return settled


def _certified(bits: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Mask of the crossings (L, H) with above false on the _WINDOW floats
    below L and true on the _WINDOW floats above H, one 1-d pass per float."""
    ok = np.ones(len(bits), dtype=bool)
    mask = np.empty_like(ok)
    y = np.empty_like(bits)
    for k in range(1, _WINDOW + 1):
        np.subtract(bits, k, out=y)
        ok &= ~_above(y.view(np.float64), target, mask)
        np.add(bits, 1 + k, out=y)
        ok &= _above(y.view(np.float64), target, mask)
    return ok


def _logtail_quantile(u: np.ndarray) -> np.ndarray:
    """|X| quantile for u in [5e-324, 1]: the root of x*ln(e+x) = 1/sqrt(u),
    bit for bit as _bisect returns it, without its 54-63 steps. It is
    elementwise, and sample_sequence passes it one _CHUNK of u at a time.

    With target = 1/sqrt(u) and above(x) = x*ln(e+x) > target as floats:

    1. Newton on g(x) = x ln(e+x) - target from target / ln(e+target). That
       start is below the root and g is increasing and convex, so after the
       first step the iterates fall to the root; _NEWTON_STEPS leave them
       within a few floats of the crossing.
    2. Walk to adjacent floats L < H with above(L) false and above(H) true.
    3. Certify: above is false on L-1 ... L-W and true on H+1 ... H+W.
    4. Return 0.5 * (L + H). Elements that fail 2 or 3 are bisected, which
       is exact by construction; none did in 31 M draws of u, uniform on the
       2^-53 lattice and log-uniform down to 5e-324.

    Lemma. If above is false on every float in [0, L] and true on every
    float in [H, max(target, 1)], _bisect returns 0.5 * (L + H).
    Proof. Its lo starts at 0, where above is false, and its hi at
    max(target, 1), where it is true; lo only moves to a mid where above is
    false and hi to one where it is true, so lo <= L < H <= hi throughout
    (a mid in [lo, hi] lies in [0, L] or in [H, hi]). The rounded midpoint
    of floats lo < hi is the float nearest (lo + hi) / 2 (halving is exact
    here), and any float strictly between lo and hi is nearer than both, so
    a step moves nothing only when lo and hi are adjacent: then lo = L and
    hi = H. Every step about halves hi - lo, so this is reached well inside
    the 100 steps (by step 63 on this domain).

    Why W floats suffice. Let f(x) = x ln(E + x), E = math.e, and
    F(x) = fl(x * fl(log(fl(E + x)))) the predicate's left side. For normal
    x, F = f (1 + theta) with |theta| <= eps = (2 + 2c) 2^-53 to first order:
    2^-53 from E + x (relative to ln(E + x) >= ln E > 1 - 2^-54), 2c 2^-53
    from np.log with an error of c ulps, 2^-53 from the product. f(x) / x =
    ln(E + x) grows, so f(y) <= f(L) y / L for y <= L and f(y) >= f(H) y / H
    for y >= H.
    Consecutive floats z < z' are more than z 2^-53 apart, so a float k
    floats below L has L > y (1 + k 2^-53), and one k floats above H has
    y > H (1 + k 2^-53). With F(L) <= target < F(H):
        F(y) <= target (1 + eps) / ((1 - eps)(1 + k 2^-53))  below L,
        F(y) >  target (1 - eps)(1 + k 2^-53) / (1 + eps)    above H,
    so above(y) is false, resp. true, once k 2^-53 > 2 eps / (1 - eps),
    i.e. k > 4 + 4c (up to terms of order 2^-50). Subnormal y and 0 give
    F(y) < 1 <= target. np.log, on contiguous arrays as called here, was
    measured against mpmath at c = 0.5015 ulps (1.2 M arguments E + x over
    the domain), so k >= 7 is decided by the analysis; W = 8 checks one
    float more than needed, and it holds for any c < 1.25.
    """
    target = 1.0 / np.sqrt(u)
    x = target / np.log(math.e + target)
    for _ in range(_NEWTON_STEPS):
        lg = np.log(math.e + x)
        x = x - (x * lg - target) / (lg + x / (math.e + x))
    bits = x.view(np.int64)
    ok = _walk_to_crossing(bits, target)
    ok &= _certified(bits, target)
    q = 0.5 * (bits.view(np.float64) + (bits + 1).view(np.float64))
    if not ok.all():
        q[~ok] = _bisect(target[~ok])
    return q


def _rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def sample_sequence(spec: DistributionSpec, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. samples under spec as a read-only array; deterministic in
    (spec, n, seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _rng_for(seed)
    s = spec.sigma
    if spec.kind == "gaussian":
        x = rng.standard_normal(n) * s
    elif spec.kind == "uniform_centered":
        a = s * math.sqrt(3.0)
        x = rng.uniform(-a, a, size=n)
    else:
        # |X| in place, then its sign: the stream holds all n magnitudes, then all n signs
        if spec.kind == "rademacher":
            x = np.full(n, s)
        else:
            x = rng.random(n)
            np.subtract(1.0, x, out=x)  # u in (0, 1]
            if spec.kind == "pareto_sym":
                a = spec.tail_exponent
                x **= -1.0 / a
                x *= s / math.sqrt(a / (a - 2))
            else:
                for i in range(0, n, _CHUNK):
                    x[i:i + _CHUNK] = _logtail_quantile(x[i:i + _CHUNK])
                x *= s / math.sqrt(_LOGTAIL_VARIANCE)
        # as floats _CHUNK at a time: np.negative(..., where=) would call its
        # loop once per run of equal signs, several times slower
        for i in range(0, n, _CHUNK):
            c = x[i:i + _CHUNK]
            c *= 2.0 * rng.integers(0, 2, size=len(c)) - 1.0
    x.setflags(write=False)
    return x


_EXTENDED_CUTOFF = 1 << 20  # accumulate long sums in extended precision


def prefix_sums(x) -> PrefixSums:
    """The walk S_0..S_N of a 1-d array-like of samples, S_0 = 0.

    The one place where samples become a walk: a caller builds it once per
    input and hands it to every kernel. Raises ValueError on empty or non-1-d
    input and on a non-finite partial sum, which catches NaN/inf samples and
    overflow of the running sum alike.

    The sums are accumulated _CHUNK samples at a time, in long double from
    N = _EXTENDED_CUTOFF and in float64 below it, and each chunk is rounded
    straight into the walk. Every chunk after the first starts with the
    previous chunk's last partial sum as its element 0, and cumsum adds
    sequentially, so the walk has the bits of one cumsum of the whole input
    in the accumulator's dtype. (The first chunk has no carry: 0 + x would
    turn a first sample of -0.0 into +0.0.) Beside the walk this holds
    O(_CHUNK) memory and a boolean mask for the finiteness check.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("expected a non-empty 1-d sample vector")
    n = len(arr)
    out = np.empty(n + 1)
    out[0] = 0.0
    dtype = np.longdouble if n >= _EXTENDED_CUTOFF else np.float64
    acc = np.empty(min(n, _CHUNK) + 1, dtype=dtype)
    carry = 0  # acc[0] holds the carry from the second chunk on
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        for i in range(0, n, _CHUNK):
            m = min(_CHUNK, n - i)
            part = acc[:carry + m]
            part[carry:] = arr[i:i + m]
            np.cumsum(part, out=part)
            out[i + 1:i + m + 1] = part[carry:]
            acc[0], carry = part[-1], 1
    finite = np.isfinite(out)
    if not finite.all():
        i = int(np.argmin(finite)) - 1
        if not math.isfinite(arr[i]):
            raise ValueError(f"non-finite sample {arr[i]} at index {i}")
        raise ValueError(f"partial sum overflows float64 at index {i}")
    out.setflags(write=False)
    return PrefixSums(values=out)
