"""Random samples, as read-only arrays, and the validated prefix-sum walk.

All distributions are symmetric about zero and rescaled so the population
variance equals sigma**2. Sampling is driven by a counter-based generator
(Philox) keyed by a 64-bit seed, so regenerating with the same
(spec, n, seed) triple reproduces the samples bit for bit. prefix_sums turns
samples into the walk that every kernel takes; it is called once per input,
where the samples enter (a lab trial, `sqvar compute`, `sqvar greedy`).

Log-tail magnitudes are inverse-CDF draws: the root of x*ln(e+x) = 1/sqrt(u)
for u in (0, 1]. Its bits are those of a float bisection, computed by Newton,
the bisection's predicate on a window of floats and one bound for all floats
on each side of it, exact wherever np.log errs by less than 1 ulp.
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
        if self.kind == "uniform_centered" and math.isinf(2.0 * self.almost_sure_bound()):
            raise ValueError(f"uniform range 2 sigma sqrt(3) overflows float64 at "
                             f"sigma = {self.sigma!r}")
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
_NEWTON_STEPS = 4  # from below the root; leaves x within 2 floats of the crossing
_REACH = 5  # window x - 5 ... x + 6; its bounds hold 4 floats out, so it covers Newton's 2
_CHUNK = 1 << 15  # elements per pass, so that the temporaries stay in L2


def _above(x: np.ndarray, target: np.ndarray, out: np.ndarray | None = None,
           lg_floats: int = 0) -> np.ndarray:
    """The bisection's predicate x*ln(e+x) > target, in its float expression
    and order, with one temporary; out, if given, receives the mask. A bound
    of _crossing moves the log lg_floats floats up (down where negative)."""
    t = math.e + x
    np.log(t, out=t)
    if lg_floats:
        t.view(np.int64)[...] += lg_floats  # t > 0: its floats order as its bits
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


def _crossing(bits: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step 2 of _logtail_quantile on a chunk of Newton's x as int64 bits, which
    order as the floats: the crossing L, as bits, and the mask it is certified for."""
    low = bits - (_REACH + 1)  # A, then one float up per false in the window: L
    ok = ~_above(low.view(np.float64), target, lg_floats=2)  # false up to A
    ok &= _above((bits + (_REACH + 2)).view(np.float64), target, lg_floats=-2)  # true from B
    prev, cur = np.zeros_like(ok), np.empty_like(ok)
    y = np.empty_like(bits)
    for k in range(-_REACH, _REACH + 2):
        np.add(bits, k, out=y)
        _above(y.view(np.float64), target, cur)
        ok &= cur | ~prev  # no false after a true
        low += ~cur
        prev, cur = cur, prev
    return low, ok


def _logtail_quantile(u: np.ndarray) -> np.ndarray:
    """|X| quantile for u in [5e-324, 1]: the root of x*ln(e+x) = 1/sqrt(u),
    bit for bit as _bisect returns it, without its 54-63 steps. It is
    elementwise, and sample_sequence passes it one _CHUNK of u at a time.

    With target = 1/sqrt(u) and above(y) = fl(y * fl(log(fl(e + y)))) > target:

    1. Newton on g(x) = x ln(e+x) - target from target / ln(e+target). That
       start is below the root and g is increasing and convex, so after the
       first step the iterates fall to the root; _NEWTON_STEPS leave them
       within a few floats of the crossing.
    2. Certify (_crossing) that above is false up to A = x - _REACH - 1 and
       true from B = x + _REACH + 2, by one bound per side that takes no log
       of the floats it covers, fl(A * lgA) <= target < fl(B * lgB) with
       lgA (lgB) two floats above np.log(fl(e + A)) (below np.log(fl(e + B))),
       and that the window between reads false ... false, true ... true.
       L is the last false from A on, and H the float after it.
    3. Return 0.5 * (L + H). Elements that fail 2 are bisected, which is
       exact by construction; none did in 2^21 draws of u, log-uniform u down
       to 5e-324, the 2^-53 lattice, and u whose ln(e + x) is near 2^k.

    Lemma 1. If above is false on every float in [0, L] and true on every
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

    Lemma 2. If step 2 passes, above is false on every float in [0, L] and
    true on every float >= H, so step 3 returns _bisect's bits (Lemma 1).
    Proof. Assume only that np.log errs by less than 1 ulp. Then np.log(a)
    is at most RU(ln a), ln a rounded up, and at least the float below
    RD(ln a), ln a rounded down (below RD(ln a) only at a binade edge, ln a
    just above a power of 2). RU and RD are monotone and at most one float
    apart, so for floats a <= b, np.log(a) <= RU(ln b) <= RD(ln b) + 1 float
    <= np.log(b) + 2 floats, and mirrored for a >= b. For a float
    0 <= y <= A, fl(e + y) <= fl(e + A) (rounding is monotone), so
    np.log(fl(e + y)) <= lgA and, all factors being >= 0, fl(y * np.log(fl(e
    + y))) <= fl(A * lgA) <= target: above(y) is false. Mirrored, with
    lgB > 0 as ln(e + B) > 1, above(y) is true for every float y >= B, and
    the window, between A and B, reads false up to L and true from H. This
    holds for any _REACH and _NEWTON_STEPS, which set only how many elements
    pass. np.log as called here errs by 0.5015 ulps against mpmath
    (test_log_error_fits_the_window).
    """
    target = 1.0 / np.sqrt(u)
    x = target / np.log(math.e + target)
    for _ in range(_NEWTON_STEPS):
        lg = np.log(math.e + x)
        x = x - (x * lg - target) / (lg + x / (math.e + x))
    low, ok = _crossing(x.view(np.int64), target)
    q = 0.5 * (low.view(np.float64) + (low + 1).view(np.float64))
    if not ok.all():
        q[~ok] = _bisect(target[~ok])
    return q


def _rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


@np.errstate(over="ignore")  # prefix_sums refuses a sample that overflows when scaled
def sample_sequence(spec: DistributionSpec, n: int, seed: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Draw n i.i.d. samples under spec as a read-only array; deterministic in
    (spec, n, seed).

    out, if given, is a float64 array of n elements (a lab trial passes
    buf[1:] of the buffer its walk will fill, see prefix_sums): the samples
    are drawn into it, with the same bits, and it is returned read-only.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if out is not None and (out.shape != (n,) or out.dtype != np.float64):
        raise ValueError(f"out must be a float64 array of n = {n} elements")
    rng = _rng_for(seed)
    s = spec.sigma
    x = np.empty(n) if out is None else out
    if spec.kind == "gaussian":
        rng.standard_normal(out=x)
        x *= s
    elif spec.kind == "uniform_centered":
        a = s * math.sqrt(3.0)
        rng.random(out=x)  # the bits of rng.uniform(-a, a), which takes no out
        x *= 2.0 * a
        x -= a
    else:
        # |X| in place, then its sign: the stream holds all n magnitudes, then all n signs
        if spec.kind == "rademacher":
            x.fill(s)
        else:
            rng.random(out=x)
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


def _refusal(sample: float, i: int) -> ValueError:
    """The error for the first non-finite partial sum, S_{i+1}."""
    if not math.isfinite(sample):
        return ValueError(f"non-finite sample {sample} at index {i}")
    return ValueError(f"partial sum overflows float64 at index {i}")


def prefix_sums(x, out: np.ndarray | None = None) -> PrefixSums:
    """The walk S_0..S_N of a 1-d array-like of samples, S_0 = 0.

    The one place where samples become a walk: a caller builds it once per
    input and hands it to every kernel. Raises ValueError on empty or non-1-d
    input and on a non-finite partial sum, which catches NaN/inf samples and
    overflow of the running sum alike.

    out, if given, is a float64 array of N + 1 elements that becomes the
    walk's values. It may hold the samples themselves as out[1:], as in a lab
    trial (sample_sequence(..., out=buf[1:]), then prefix_sums(samples,
    out=buf)): the walk then consumes them, a chunk at a time, so that one
    N + 1 buffer holds first the samples and then the walk. Any other overlap
    of x and out is refused.

    The sums are accumulated _CHUNK samples at a time, in long double from
    N = _EXTENDED_CUTOFF and in float64 below it, and each chunk is rounded
    straight into the walk. Every chunk after the first starts with the
    previous chunk's last partial sum as its element 0, and cumsum adds
    sequentially, so the walk has the bits of one cumsum of the whole input
    in the accumulator's dtype. (The first chunk has no carry: 0 + x would
    turn a first sample of -0.0 into +0.0.) A chunk is checked before it
    overwrites its samples: a NaN or inf sample, and in float64 an overflow,
    makes its last partial sum non-finite. A long double sum that rounds to
    an infinite float64 is found in the rounded chunk. Beside the walk this
    holds O(_CHUNK) memory.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("expected a non-empty 1-d sample vector")
    n = len(arr)
    if out is None:
        out = np.empty(n + 1)
    elif out.shape != (n + 1,) or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of N + 1 = {n + 1} elements")
    elif (np.may_share_memory(arr, out)
          and (arr.ctypes.data, arr.strides) != (out[1:].ctypes.data, out.strides)):
        raise ValueError("samples that share memory with out must be out[1:]")
    dtype = np.longdouble if n >= _EXTENDED_CUTOFF else np.float64
    acc = np.empty(min(n, _CHUNK) + 1, dtype=dtype)
    carry = 0  # acc[0] holds the carry from the second chunk on
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        for i in range(0, n, _CHUNK):
            m = min(_CHUNK, n - i)
            part = acc[:carry + m]
            part[carry:] = arr[i:i + m]
            np.cumsum(part, out=part)
            if not math.isfinite(part[-1]):  # a NaN or inf stays to the chunk's end
                k = int(np.argmin(np.isfinite(part[carry:].astype(np.float64))))
                raise _refusal(arr[i + k], i + k)
            chunk = out[i + 1:i + m + 1]
            chunk[:] = part[carry:]
            finite = np.isfinite(chunk)
            if not finite.all():  # finite samples: a long double sum rounded to inf
                raise _refusal(0.0, i + int(np.argmin(finite)))
            acc[0], carry = part[-1], 1
    out[0] = 0.0
    out.setflags(write=False)
    return PrefixSums(values=out)
