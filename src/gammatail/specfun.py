"""Double-precision special-function kernels.

Provides the upper regularized incomplete gamma Q by a lower ascending
series, a modified-Lentz continued fraction, and a small-shape complement
series, all behind a cancellation-safe log-space prefactor; Lambert W on both
real branches with a branch-point expansion; the two inverse branches of the
unit-peak map x*exp(1-x) with analytic derivatives; the logarithmic mean; the
threshold ratio with an exact near-diagonal Taylor branch; and the refined
geometric mean.  All operations validate their domains, are pure, and are
deterministic; tolerances are module constants, and every iterative loop
raises ConvergenceError at its cap.

The module imports the standard library alone.  Each incomplete-gamma loop
is one scalar loop that resumes from any iteration (_lower_series_run,
_upper_cf_run, _upper_small_shape_run).  The ascending series, which runs
up to tens of thousands of steps at large shapes, takes eight steps per
pass and tests only the eighth; its stop test is monotone, so replaying the
block whose eighth step stops gives the bits of a loop that tests every
step.  The other two loops test every step.  _lanes runs them for many
lanes at once, bit-identical, and reads the loop caps from here at each
call.  Each branch's value and bound (the *_result functions) and the log
prefactor's two forms serve both paths: numpy-free, they take their
transcendentals as arguments, math functions or _lanes' per-lane forms, and
ln x as a value, which the lanes take once per lane.
So do the Lambert solvers' Halley and Newton steps and their stop test,
which _lanes.branch_roots_many iterates for many z at once.

Error bounds returned by the *_detail variants follow a rounding model
calibrated against the independent quadrature oracle: (2*|log prefactor| +
2*iterations + 32) units of eps, relative.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from ._series import LAMBDA_EXCESS, eval_series
from .errors import ConvergenceError, DomainError

EPS = 2.220446049250313e-16
ONE_THIRD = 1.0 / 3.0
_TWO_PI = 2.0 * math.pi
_INV_E = 1.0 / math.e

# Ascending series / continued fraction split, and the shape size below which
# the tail is summed directly to avoid forming 1 - P for a tiny result.  A
# kernel loop that reaches the iteration cap raises ConvergenceError.
_SMALL_SHAPE = 0.5
_KERNEL_MAX_ITER = 100_000

# Stirling correction phi(a) with lnGamma(a) = (a-1/2)ln a - a + ln(2*pi)/2
# + phi(a); the six-term tail is below 1e-20 for a >= 24.
_STIRLING_MIN = 24.0
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0)

# log1p(d) - d switches to an atanh-style series inside this window; outside,
# direct subtraction loses at most ~4 eps / |d| relative, which is acceptable.
_L1PMX_WINDOW = 1.5
# Its series in u = d/(2+d) needs 374 terms at the window edge d = -0.95
# (|u| = 0.905); the cap sits above that.
_L1PMX_MAX_TERMS = 500

# Lambert W branch-point series window in v + 1/e, and the series in
# p = sqrt(2 (e v + 1)):  W = -1 +/- p - p^2/3 +/- 11 p^3/72 - 43 p^4/540 ...
_BRANCH_WINDOW = 1e-6
_BRANCH_COEF = (-1.0, 1.0, -1.0 / 3.0, 11.0 / 72.0, -43.0 / 540.0,
                769.0 / 17280.0)

# Supported base-probability range for the two inverse branches of the peak
# map: z in [Z_MIN, 1 - Z_GAP].
Z_MIN = 1e-300
Z_GAP = 1e-12

# Threshold-ratio Taylor branch: used for y - 1 <= this, where the direct
# formula has lost more than ~24 eps / s^2 relative accuracy.
_THRESHOLD_SERIES_MAX = 0.25
# The threshold chain's largest y: from about 1e77 the rational stage's
# derivative overflows, and from about 7e152 the threshold ratio.
_THRESHOLD_Y_MAX = 1e75

# Lambert W solvers stop once a step is below rel * |w| + abs and raise
# ConvergenceError at the cap.  The abs floor also bounds the slack clamped
# below -1/e and the double-root guard of the branch-root derivatives.
_ROOT_REL_TOL = 1e-12
_ROOT_ABS_TOL = 1e-14
_ROOT_MAX_ITER = 200

# Certified-sign policy: a difference counts as a certified sign only when it
# exceeds this multiple of the combined error bound of its two sides.
STRICT_MARGIN = 8.0


def _certified_sign(gap, bound, tol_scale: float = 1.0):
    """The margin rule every verdict rests on: (sign, ratio, index),
    elementwise on arrays as _at_least is.  sign is the sign of gap where
    |gap| exceeds STRICT_MARGIN / tol_scale times bound, else 0; ratio is
    the smallest |gap| / bound and index its flat position (0 for a float).
    The bound's floor keeps each quotient finite: a ratio past about 2**1022
    saturates there, and 0 / 0 reads as 0."""
    margin = STRICT_MARGIN / tol_scale * bound
    sign = 1 * (gap > margin) - 1 * (gap < -margin)
    size = abs(gap)
    ratio = size / _at_least(bound, size * 2.0 ** -1023 + 5e-324)
    if isinstance(ratio, float):
        return sign, ratio, 0
    i = int(ratio.argmin())
    return sign, float(ratio.flat[i]), i


@classmethod
def _checked_make(cls, iterable):
    """A validating record's _make, which NamedTuple's _replace calls: the
    values go through the record's __new__ and its checks."""
    return cls(*iterable)


class _BranchRootsFields(NamedTuple):
    z: float
    x1: float
    x2: float


class BranchRoots(_BranchRootsFields):
    """The two preimages of z under x*exp(1-x): x1 in (0,1), x2 in (1,inf)."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, z, x1, x2):
        if not (0.0 < z < 1.0):
            raise DomainError("base probability z must lie in (0, 1)")
        if not (0.0 < x1 < 1.0 < x2):
            raise DomainError("roots must straddle the peak at 1")
        return super().__new__(cls, z, x1, x2)


class EvalDetail(NamedTuple):
    """A kernel value with its rounding-model error bound and provenance."""

    value: float
    err_bound: float
    method: str
    n_iter: int


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


# Euler-Mascheroni constant, correctly rounded.
_EULER_GAMMA = 0.5772156649015329

# B_{2i} for the Euler-Maclaurin zeta tail, i = 1..7.
_BERNOULLI_2I = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
                 5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0)


def _zeta_em(k: int) -> float:
    """zeta(k) for integer k >= 2 by Euler-Maclaurin summation at N = 32.

    The first neglected correction term is below 1e-25 for every k >= 2, so
    the values are correctly rounded up to ordinary summation noise.
    """
    n_base = 32
    acc = 0.0
    for n in range(n_base - 1, 0, -1):
        acc += float(n) ** (-k)
    nf = float(n_base)
    acc += nf ** (1 - k) / (k - 1.0) + 0.5 * nf ** (-k)
    rising = float(k)
    power = nf ** (-k - 1)
    for i, b2i in enumerate(_BERNOULLI_2I, start=1):
        acc += b2i / math.factorial(2 * i) * rising * power
        rising *= (k + 2.0 * i - 1.0) * (k + 2.0 * i)
        power /= nf * nf
    return acc


_ZETA_TABLE = tuple(_zeta_em(k) for k in range(2, 71))


def _lgamma1p(a: float) -> float:
    """ln Gamma(1 + a) for 0 <= a <= 1/2 with near-eps relative accuracy.

    Taylor series -euler_gamma*a + sum_{k>=2} (-1)^k zeta(k) a^k / k.  The
    platform lgamma only delivers ~3e-13 relative accuracy near its zero at
    1, which the small-shape tail kernel would amplify into its result.
    """
    acc = 0.0
    ak = a * a
    for i, z in enumerate(_ZETA_TABLE):
        k = i + 2
        term = z * ak / k
        if k % 2 != 0:
            term = -term
        acc += term
        if abs(term) <= 0.25 * EPS * (abs(acc) + _EULER_GAMMA * a):
            break
        ak *= a
    else:
        raise _not_converged(f"lgamma1p series at a={a!r}", len(_ZETA_TABLE))
    return acc - _EULER_GAMMA * a


def _log1pmx(d: float) -> float:
    """log1p(d) - d without cancellation for moderate |d| (scalar)."""
    if d <= -1.0:
        raise DomainError("log1pmx requires d > -1")
    if abs(d) > _L1PMX_WINDOW or d < -0.95:
        # No cancellation out here, and the series below would crawl.
        return math.log1p(d) - d
    u = d / (2.0 + d)
    # log1p(d) - d = -2 * sum_{k>=2} c_k u^k, c_k = 1 (k even), (k-1)/k (odd).
    acc = 0.0
    uk = u * u
    k = 2
    while k < _L1PMX_MAX_TERMS:
        c = 1.0 if (k % 2 == 0) else (k - 1.0) / k
        term = c * uk
        acc += term
        if abs(term) <= 0.25 * EPS * abs(acc):
            break
        uk *= u
        k += 1
    else:
        raise _not_converged(f"log1pmx series at d={d!r}", _L1PMX_MAX_TERMS)
    return -2.0 * acc


def _log_gamma_norm_stirling(a, x, log1pmx, log):
    """a*ln x - x - lnGamma(a) by Stirling's series (a >= 24)."""
    r2 = 1.0 / (a * a)
    phi = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        phi = phi * r2 + c
    # Below about half an ulp of a, x - a rounds to -a, and log1p(d) - d has
    # no value at d = -1.  d counts from the next double up: the result only
    # grows with x below a, and is below -850 there, so Q's prefactor is 0.
    d = _at_least((x - a) / a, -1.0 + 0.5 * EPS)
    return a * log1pmx(d) + 0.5 * log(a / _TWO_PI) - phi / a


def _log_gamma_norm_direct(a, x, log_x, lgamma):
    """a*ln x - x - lnGamma(a) as written, for a < 24, given log_x = ln x."""
    return a * log_x - x - lgamma(a)


def _log_gamma_norm(a: float, x: float) -> float:
    """a*ln x - x - lnGamma(a) with small absolute error even when the naive
    form cancels catastrophically (large a, x near a)."""
    if a >= _STIRLING_MIN:
        return _log_gamma_norm_stirling(a, x, _log1pmx, math.log)
    return _log_gamma_norm_direct(a, x, math.log(x), math.lgamma)


def _not_converged(loop: str, cap: int) -> ConvergenceError:
    return ConvergenceError(f"{loop} did not converge in {cap} iterations",
                            n_iter=cap)


def _at_least(v, floor: float):
    """max(v, floor), elementwise on arrays (NaN stays NaN, as with max)."""
    return max(v, floor) if isinstance(v, float) else v.clip(floor)


def _kernel_rel(ln_pref, n):
    """Relative bound of a prefactor-times-sum kernel after n iterations."""
    return EPS * (2.0 * abs(ln_pref) + 2.0 * n + 32.0)


_LOWER_SERIES_START = (1.0, 1.0)            # (term, total)


def _lower_series_run(a: float, x: float, n: int, term: float,
                      total: float) -> tuple[int, float, float]:
    """The ascending-series loop from iteration n: (n, term, total) at its
    stop.

    Each pass takes eight steps and tests only the eighth.  The stop test is
    monotone: x < a + 1, so every ratio x / (a + n) with n >= 1 is below 1,
    the terms never grow and the total never shrinks, and once a step meets
    the test every later step does too.  A block whose eighth step stops is
    replayed from its start one checked step at a time, and the loop stops
    at the n, term and total of a loop that tests every step.  Blocks run
    only while they end at or below the cap, so the loop also raises at the
    same n.  Each denominator a + (k + j) rounds once, as a + n does.
    """
    tol = 0.25 * EPS
    last_block = _KERNEL_MAX_ITER - 8
    while n < _KERNEL_MAX_ITER:
        if n <= last_block:
            k = float(n)
            t = term * (x / (a + (k + 1.0)))
            s = total + t
            t *= x / (a + (k + 2.0))
            s += t
            t *= x / (a + (k + 3.0))
            s += t
            t *= x / (a + (k + 4.0))
            s += t
            t *= x / (a + (k + 5.0))
            s += t
            t *= x / (a + (k + 6.0))
            s += t
            t *= x / (a + (k + 7.0))
            s += t
            t *= x / (a + (k + 8.0))
            s += t
            if t > tol * s:
                n, term, total = n + 8, t, s
                continue
            last_block = -1                 # replay this block step by step
        n += 1
        term *= x / (a + n)
        total += term
        if term <= tol * total:
            return n, term, total
    raise _not_converged(f"ascending series for Q(a={a!r}, x={x!r})",
                         _KERNEL_MAX_ITER)


def _series_complement_result(ln_norm, a, n, total, log, exp):
    """Q = 1 - P and its err_bound from the ascending series' total after
    n iterations, given ln_norm = _log_gamma_norm(a, x)."""
    ln_pref = ln_norm - log(a)
    p = exp(ln_pref) * total
    return 1.0 - p, _kernel_rel(ln_pref, n) * p + EPS


_CF_TINY = 1e-300


def _upper_cf_start(a, x):
    """Modified-Lentz start state (b, c, d, h); elementwise on arrays."""
    b = x + 1.0 - a
    d = 1.0 / b
    return b, 1.0 / _CF_TINY, d, d


def _upper_cf_run(a: float, x: float, n: int, b: float, c: float, d: float,
                  h: float) -> tuple[int, float, float, float, float]:
    """The modified-Lentz loop from iteration n: (n, b, c, d, h) at its
    stop."""
    while n < _KERNEL_MAX_ITER:
        n += 1
        an = n * (a - n)
        b += 2.0
        d = an * d + b
        if d == 0.0:
            d = _CF_TINY
        c = b + an / c
        if c == 0.0:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= EPS:
            return n, b, c, d, h
    raise _not_converged(f"continued fraction for Q(a={a!r}, x={x!r})",
                         _KERNEL_MAX_ITER)


def _cf_result(ln_norm, n, h, exp):
    """Q and its err_bound from the continued fraction's h after n
    iterations, given ln_norm = _log_gamma_norm(a, x).  The bound counts
    ln_norm from -1e300 on: from x ~ 9e307, 2 |ln_norm| would overflow, and
    inf * (q = 0) would make it NaN; Q < 5e-324 there, since h <= 1."""
    q = exp(ln_norm) * h
    return q, _kernel_rel(_at_least(ln_norm, -1e300), n) * q + 5e-324


_SMALL_SHAPE_START = (1.0, 0.0, 0.0)        # (term, h, habs)


def _upper_small_shape_run(a: float, x: float, n: int, term: float, h: float,
                           habs: float) -> tuple[int, float, float, float]:
    """The small-shape tail loop from iteration n: (n, term, h, habs) at its
    stop."""
    while n < _KERNEL_MAX_ITER:
        n += 1
        term *= -x / n
        contrib = term * (a / (a + n))
        h -= contrib
        habs += abs(contrib)
        if abs(term) <= 0.25 * EPS * max(abs(h), 1e-300):
            return n, term, h, habs
    raise _not_converged(f"small-shape series for Q(a={a!r}, x={x!r})",
                         _KERNEL_MAX_ITER)


def _tail_series_result(a, log_x, n, h, habs, lgamma1p, exp, expm1):
    """Q(a, x) and its err_bound for a <= 1/2 and x < a + 1, given
    log_x = ln x, from the small-shape loop's h and habs after n
    iterations.

    With g = a*ln x - lnGamma(a+1),
        Q = -expm1(g) + exp(g) * h,   h = sum_{n>=1} -a (-x)^n / (n! (a+n)),
    which avoids forming 1 - P when Q is many orders below 1.  lgamma1p is
    the Taylor series _lgamma1p: the two outer terms cancel to O(a), so an
    absolute ~2e-16 error in g (the platform lgamma's floor near its zero
    at 1) would leak into Q at full size.
    """
    alnx = a * log_x
    lg = lgamma1p(a)
    g = alnx - lg
    eg = exp(g)
    q = -expm1(g) + eg * h
    return q, EPS * (2.0 * abs(alnx) + 6.0 * abs(lg) + 2.0 * abs(g)
                     + eg * (2.0 * n + 4.0) * habs + 8.0 * abs(q)) + 5e-324


def _q_branches(a, x):
    """(cf, tail): whether Q(a, x > 0) takes the continued fraction, and
    whether the small-shape tail series; else the ascending series."""
    return x >= a + 1.0, (x < a + 1.0) & (a <= _SMALL_SHAPE)


def _q_detail(a: float, x: float) -> tuple[EvalDetail, float | None]:
    """reg_gamma_q_detail(a, x), and the _log_gamma_norm(a, x) its branch
    took, or None (x = 0 and the tail series)."""
    a = _require_finite("a", a)
    x = _require_finite("x", x)
    if a <= 0.0:
        raise DomainError("reg_gamma_q requires a > 0")
    if x < 0.0:
        raise DomainError("reg_gamma_q requires x >= 0")
    if x == 0.0:
        return EvalDetail(1.0, 0.0, "exact", 0), None
    if a + 1.0 == a:
        # From 2^53 on, a + 1 rounds to a: the continued fraction's first
        # denominator x + 1 - a vanishes at x = a, and the split at x = a + 1
        # no longer separates the branches.
        raise DomainError("reg_gamma_q requires a + 1 > a, i.e. a below "
                          "2**53")
    cf, tail = _q_branches(a, x)
    if tail:
        n, _, h, habs = _upper_small_shape_run(a, x, 0, *_SMALL_SHAPE_START)
        return EvalDetail(*_tail_series_result(
            a, math.log(x), n, h, habs, _lgamma1p, math.exp, math.expm1),
            "tail-series", n), None
    ln_norm = _log_gamma_norm(a, x)
    if cf:
        n, *_, h = _upper_cf_run(a, x, 0, *_upper_cf_start(a, x))
        return EvalDetail(*_cf_result(ln_norm, n, h, math.exp), "cf",
                          n), ln_norm
    n, _, total = _lower_series_run(a, x, 0, *_LOWER_SERIES_START)
    return EvalDetail(*_series_complement_result(
        ln_norm, a, n, total, math.log, math.exp), "series-complement",
        n), ln_norm


def reg_gamma_q_detail(a: float, x: float) -> EvalDetail:
    """Upper regularized incomplete gamma Q(a, x) with an error bound."""
    return _q_detail(a, x)[0]


def reg_gamma_q(a: float, x: float) -> float:
    return reg_gamma_q_detail(a, x).value


def _root_converged(step, w):
    """The Lambert solvers' stop test on the step just taken to w;
    elementwise on arrays."""
    return abs(step) <= _ROOT_REL_TOL * abs(w) + _ROOT_ABS_TOL


def _halley_residual(v, w, exp):
    """(exp(w), w*exp(w) - v); elementwise on arrays."""
    ew = exp(w)
    return ew, w * ew - v


def _halley_step(w, ew, f):
    """The Halley step for w*exp(w) = v, to subtract from w, given
    _halley_residual's (ew, f); elementwise on arrays."""
    wp1 = w + 1.0
    return f / (ew * wp1 - f * (w + 2.0) / (2.0 * wp1))


def _wm1_newton_step(t, t_target, log):
    """The Newton step for ln t - t = t_target, to subtract from t;
    elementwise on arrays."""
    return (log(t) - t - t_target) / (1.0 / t - 1.0)


def _halley_iterate(v: float, w: float) -> float:
    """Halley refinement for w*exp(w) = v from a seed on the right branch."""
    for _ in range(_ROOT_MAX_ITER):
        ew, f = _halley_residual(v, w, math.exp)
        if f == 0.0:
            break
        step = _halley_step(w, ew, f)
        w -= step
        if _root_converged(step, w):
            break
    else:
        raise _not_converged(f"Halley iteration for W(v={v!r})",
                             _ROOT_MAX_ITER)
    return w


def _branch_series(p: float) -> float:
    acc = 0.0
    for c in _BRANCH_COEF[::-1]:
        acc = acc * p + c
    return acc


def lambert_w0(v: float) -> float:
    """Principal branch W0(v) for v >= -1/e (small slack below is clamped)."""
    v = _require_finite("v", v)
    lower = -_INV_E
    if v < lower:
        if v < lower - _ROOT_ABS_TOL:
            raise DomainError("lambert_w0 requires v >= -1/e")
        v = lower
    if v == 0.0:
        return 0.0
    ev1 = math.e * v + 1.0
    if abs(v - lower) < _BRANCH_WINDOW:
        p = math.sqrt(2.0 * max(ev1, 0.0))
        return _branch_series(p)
    if v < -0.25:
        w = _branch_series(math.sqrt(2.0 * ev1))
    elif v < 100.0:
        w = math.log1p(v)
    else:
        # Solve w + ln w = ln v by Newton; exp(w) would overflow for huge v.
        t = math.log(v)
        w = t - math.log(t)
        for _ in range(_ROOT_MAX_ITER):
            f = w + math.log(w) - t
            step = f / (1.0 + 1.0 / w)
            w -= step
            if _root_converged(step, w):
                return w
        raise _not_converged(f"Newton iteration for W0(v={v!r})",
                             _ROOT_MAX_ITER)
    return _halley_iterate(v, w)


def lambert_wm1(v: float) -> float:
    """Secondary real branch W-1(v) for v in [-1/e, 0)."""
    v = _require_finite("v", v)
    lower = -_INV_E
    if v >= 0.0:
        raise DomainError("lambert_wm1 requires v < 0")
    if v < lower:
        if v < lower - _ROOT_ABS_TOL:
            raise DomainError("lambert_wm1 requires v >= -1/e")
        v = lower
    if abs(v - lower) < _BRANCH_WINDOW:
        p = math.sqrt(2.0 * max(math.e * v + 1.0, 0.0))
        return _branch_series(-p)
    if v <= -0.25:
        w = _branch_series(-math.sqrt(2.0 * (math.e * v + 1.0)))
        return _halley_iterate(v, w)
    # Near 0-: solve ln t - t = ln(-v) for t = -w by Newton, which stays
    # well-conditioned even when exp(w) underflows.
    t_target = math.log(-v)
    t = -t_target + math.log(max(-t_target, 2.0))
    for _ in range(_ROOT_MAX_ITER):
        step = _wm1_newton_step(t, t_target, math.log)
        t -= step
        if _root_converged(step, t):
            return -t
    raise _not_converged(f"Newton iteration for W-1(v={v!r})", _ROOT_MAX_ITER)


def branch_roots(z: float) -> BranchRoots:
    """Both preimages of z under the unit-peak map, for z in [1e-300, 1-1e-12].

    Near z = 1 the two roots collide; the Lambert kernels switch to the
    branch-point expansion there, which doubles as the Halley seed.
    """
    z = _require_finite("z", z)
    if not (Z_MIN <= z <= 1.0 - Z_GAP):
        raise DomainError("branch_roots requires z in [1e-300, 1 - 1e-12]")
    v = -z * _INV_E
    x1 = -lambert_w0(v)
    x2 = -lambert_wm1(v)
    return BranchRoots(z=z, x1=x1, x2=x2)


def _any(mask) -> bool:
    """A float comparison's truth, or whether any lane of an array
    comparison holds."""
    return bool(mask.any()) if hasattr(mask, "any") else mask


def branch_root_deriv(roots: BranchRoots, which: int) -> float:
    """d x_j / d z = x_j / ((1 - x_j) z); positive for j=1, negative for j=2.
    On branch_roots_many's lanes, an array of them."""
    if which == 1:
        x = roots.x1
    elif which == 2:
        x = roots.x2
    else:
        raise DomainError("which must be 1 or 2")
    om = 1.0 - x
    if _any(abs(om) < _ROOT_ABS_TOL):
        raise DomainError("branch_root_deriv is degenerate at the double root")
    return x / (om * roots.z)


def log_mean(x: float, y: float) -> float:
    """Logarithmic mean (y - x)/(ln y - ln x), extended by L(x, x) = x.

    Arguments are canonically ordered first, so the result is bitwise
    symmetric; min <= L <= max holds by construction.
    """
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    if x <= 0.0 or y <= 0.0:
        raise DomainError("log_mean requires positive arguments")
    if x == y:
        return x
    if x > y:
        x, y = y, x
    d = y - x
    r = d / x
    if r == math.inf:
        # y / x beyond the double range: ln y - ln x >= 709 loses at most
        # a few ulps, where log1p(inf) would make L zero.
        return d / (math.log(y) - math.log(x))
    return d / math.log1p(r)


def threshold_ratio(y: float) -> float:
    """The direction threshold lambda(y) = (y - l^2)/((l - 1)(y - l)) with
    l the logarithmic mean of 1 and y; strictly increasing from -1/3 at 1+
    toward 0, always inside (-1/3, 0).  Takes 1 < y <= 1e75.

    For y - 1 <= 0.25 the exact Taylor branch is used: the direct formula has
    an s^4-order cancellation that loses ~24 eps / s^2 in relative terms.
    """
    y = _require_finite("y", y)
    if not 1.0 < y <= _THRESHOLD_Y_MAX:
        raise DomainError("threshold_ratio requires 1 < y <= 1e75")
    return _threshold_forms(y)[1]


def _threshold_forms(y: float) -> tuple[float, float, bool]:
    """(lambda(y) + 1/3, lambda(y), whether the Taylor branch made them)
    for y > 1; each branch derives its other form with one rounding."""
    s = y - 1.0
    if s <= _THRESHOLD_SERIES_MAX:
        excess = eval_series(LAMBDA_EXCESS, s)
        return excess, excess - ONE_THIRD, True
    w = math.log1p(s)
    f_top = y * w * w - s * s
    m1 = -_log1pmx(s)          # s - ln y  (= (l - 1) * ln y)
    m2 = s * w + _log1pmx(s)   # y ln y - y + 1  (= (y - l) * ln y)
    ratio = f_top / (m1 * m2)
    return ratio + ONE_THIRD, ratio, False


def refined_mean(x: float, y: float) -> float:
    """sqrt(x*y + (L - x)(y - L)/3) with L the logarithmic mean: a mean that
    sits strictly between L and the arithmetic mean for x != y.  Computed
    centred on 1 (_mean_scale), so y/x must stay below 2**1000."""
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    k, fits = _mean_scale(x, y, math.frexp)
    if not (0.0 < x <= y and fits):
        raise DomainError("refined_mean requires 0 < x <= y, y/x < 2**1000")
    if x == y:
        return x
    x, y = math.ldexp(x, k), math.ldexp(y, k)
    lm = log_mean(x, y)
    return math.ldexp(math.sqrt(x * y + (lm - x) * (y - lm) / 3.0), -k)


def _mean_scale(x, y, frexp):
    """(k, fits) for 0 < x < y, floats or arrays with the matching frexp:
    2^k x and 2^k y are centred on 1 (k = 0 inside [2**-255, 2**255]), and
    fits says y/x < 2**1000, so the mean formulas' products stay normal."""
    ex, ey = frexp(x)[1], frexp(y)[1]
    unsafe = (x < 2.0 ** -255) | (y > 2.0 ** 255)
    return -((ex + ey) // 2) * unsafe, ey - ex < 1000
