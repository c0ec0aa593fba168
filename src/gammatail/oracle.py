"""Slow, independent reference implementations for cross-checks.

The fast kernels in specfun are series / continued-fraction based; everything
here goes through the defining integrals (adaptive panel quadrature of the
gamma integrand in log space), plain bisection for inverse problems, central
differences for derivatives, and error-free double-double transformations
(Dekker/Knuth two_sum and split-based two_prod) for the few scalars whose
conditioning exceeds double precision.  No Q kernel is shared with the fast
path, so agreement between the two is meaningful evidence of correctness;
the one helper borrowed from specfun is the vectorized log1p(d) - d that
evaluates the integrand's exponent.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .quadrature import integrate, integrate_many
from .specfun import _log1pmx_vec

_EPS = 2.220446049250313e-16
_SPLITTER = 134217729.0            # 2^27 + 1
# ln 2 to double-double precision (standard pair).
_LN2_HI = 6.931471805599453e-01
_LN2_LO = 2.3190468138462996e-17

DEFAULT_REL_TOL = 1e-13


# ---------------------------------------------------------------------------
# Error-free transformations and double-double arithmetic on (hi, lo) tuples.
# ---------------------------------------------------------------------------

def two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a: float, b: float) -> tuple[float, float]:
    # Requires |a| >= |b|.
    s = a + b
    return s, b - (s - a)


def _split(a: float) -> tuple[float, float]:
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_add(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    s, e = two_sum(x[0], y[0])
    e += x[1] + y[1]
    return quick_two_sum(s, e)


def dd_neg(x: tuple[float, float]) -> tuple[float, float]:
    return -x[0], -x[1]


def dd_sub(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    return dd_add(x, dd_neg(y))


def dd_mul(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    p, e = two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return quick_two_sum(p, e)


def dd_mul_d(x: tuple[float, float], d: float) -> tuple[float, float]:
    p, e = two_prod(x[0], d)
    e += x[1] * d
    return quick_two_sum(p, e)


def dd_div(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul_d(y, q1))
    q2 = r[0] / y[0]
    r = dd_sub(r, dd_mul_d(y, q2))
    q3 = r[0] / y[0]
    s, e = quick_two_sum(q1, q2)
    return quick_two_sum(s, e + q3)


def dd_sqrt(x: tuple[float, float]) -> tuple[float, float]:
    if x[0] < 0.0:
        raise DomainError("dd_sqrt requires a non-negative argument")
    if x[0] == 0.0:
        return 0.0, 0.0
    y = math.sqrt(x[0])
    r = dd_sub(x, two_prod(y, y))
    return quick_two_sum(y, r[0] / (2.0 * y))


def dd_exp(x: tuple[float, float]) -> tuple[float, float]:
    """exp of a double-double; arguments beyond the double range saturate."""
    if x[0] > 709.0:
        return math.inf, 0.0
    if x[0] < -745.0:
        return 0.0, 0.0
    k = round(x[0] / _LN2_HI)
    r = dd_sub(x, dd_mul_d((_LN2_HI, _LN2_LO), float(k)))
    # Taylor sum of exp(r) for |r| <= ~0.35.
    acc = (1.0, 0.0)
    term = (1.0, 0.0)
    for n in range(1, 40):
        term = dd_mul_d(dd_mul(term, r), 1.0 / n)
        acc = dd_add(acc, term)
        if abs(term[0]) < 1e-36 * abs(acc[0]):
            break
    return math.ldexp(acc[0], k), math.ldexp(acc[1], k)


def dd_log(x: float) -> tuple[float, float]:
    """ln x as a double-double, refined from the double log by one Newton
    step: w + (x e^{-w} - 1) - (x e^{-w} - 1)^2 / 2."""
    if x <= 0.0:
        raise DomainError("dd_log requires x > 0")
    w = math.log(x)
    r = dd_mul_d(dd_exp((-w, 0.0)), x)
    r = dd_add(r, (-1.0, 0.0))
    corr = dd_sub(r, dd_mul_d(dd_mul(r, r), 0.5))
    return dd_add((w, 0.0), corr)


def dd_log1p_small(u: tuple[float, float]) -> tuple[float, float]:
    """ln(1 + u) for |u| <= 0.5 by the Taylor series in double-double."""
    if abs(u[0]) > 0.5:
        raise DomainError("dd_log1p_small requires |u| <= 0.5")
    acc = u
    term = u
    sign = 1.0
    for n in range(2, 120):
        term = dd_mul(term, u)
        sign = -sign
        contrib = dd_mul_d(term, sign / n)
        acc = dd_add(acc, contrib)
        if abs(contrib[0]) < 1e-36 * max(abs(acc[0]), 1e-300):
            break
    return acc


# ---------------------------------------------------------------------------
# Gamma-integrand quadrature oracle.
# ---------------------------------------------------------------------------

def _referenced_exponent(t: np.ndarray, u: float,
                         ref: float | np.ndarray) -> np.ndarray:
    """h(t) - h(ref) for h(t) = u ln t - t, stably for t near ref; ref is a
    scalar or one reference per point."""
    if u == 0.0:
        return ref - t
    return u * _log1pmx_vec((t - ref) / ref) + (t - ref) * (u / ref - 1.0)


def _validate_gamma_args(a: float, x: float) -> tuple[float, float]:
    a = float(a)
    x = float(x)
    if not (math.isfinite(a) and math.isfinite(x)):
        raise DomainError("oracle_gamma_q requires finite arguments")
    if a <= 0.0 or x < 0.0:
        raise DomainError("oracle_gamma_q requires a > 0 and x >= 0")
    return a, x


# Above this shape the peak-referenced scheme is safe: the integrand behaves
# like t^(a-1) at the origin, and a - 1 >= 15 keeps the endpoint effectively
# smooth for the Gauss panels.  Below it, integrals are taken in direct
# (unreferenced) form, which cannot overflow since Gamma(16) ~ 1.3e12.
_A_BIG = 16.0


@functools.lru_cache(maxsize=512)
def _norm_big(a: float, rel_tol: float) -> tuple[float, float, float, float]:
    """Normalization integral for a >= _A_BIG, referenced at the peak
    t0 = a - 1.

    Returns (integral of exp(h(t) - h(t0)), t0, t_lo, t_up).
    """
    t0 = a - 1.0
    u = a - 1.0
    sig = math.sqrt(a)
    t_lo = max(0.0, t0 - 45.0 * sig - 45.0)
    t_up = t0 + 45.0 * sig + 900.0

    def fn(t: np.ndarray) -> np.ndarray:
        return np.exp(_referenced_exponent(t, u, t0))

    res = integrate(fn, t_lo, t_up, rel_tol=0.5 * rel_tol)
    return res.value, t0, t_lo, t_up


@functools.lru_cache(maxsize=512)
def _norm_mid(a: float, rel_tol: float) -> tuple[float, float]:
    """Gamma(a) for 1 <= a < _A_BIG as head plus tail integrals.

    The head uses t = s^4, giving the integrand 4 s^(4a-1) exp(-s^4) whose
    origin exponent 4a - 1 >= 3 bisects cleanly; a fractional a - 1 < 1 in
    the raw integrand would stall the adaptive refinement at t = 0.
    """

    def head(s: np.ndarray) -> np.ndarray:
        return 4.0 * np.exp((4.0 * a - 1.0) * np.log(s) - s ** 4)

    def tail(t: np.ndarray) -> np.ndarray:
        return np.exp((a - 1.0) * np.log(t) - t)

    h = integrate(head, 0.0, 1.0, rel_tol=0.5 * rel_tol).value
    tl = integrate(tail, 1.0, 901.0, rel_tol=0.5 * rel_tol).value
    return h, tl


@functools.lru_cache(maxsize=512)
def _norm_small(a: float, rel_tol: float) -> tuple[float, float]:
    """Gamma(a) for a < 1 as head (substituted s = t^a) plus tail integrals."""

    def head(s: np.ndarray) -> np.ndarray:
        return np.exp(-np.exp(np.log(s) / a))

    def tail(t: np.ndarray) -> np.ndarray:
        return np.exp((a - 1.0) * np.log(t) - t)

    h = integrate(head, 0.0, 1.0, rel_tol=0.5 * rel_tol).value / a
    tl = integrate(tail, 1.0, 901.0, rel_tol=0.5 * rel_tol).value
    return h, tl


def _by_group(fns: Sequence[Callable[[np.ndarray], np.ndarray]],
              group: np.ndarray) -> Callable[[np.ndarray, np.ndarray],
                                             np.ndarray]:
    """An integrate_many integrand applying fns[group[k]] to the points of
    interval k; each point's value is what its own integrand gives it."""
    def fn(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        g = group[k]
        out = np.empty_like(t)
        for i, f in enumerate(fns):
            sel = g == i
            if sel.all():
                return f(t)
            if sel.any():
                out[sel] = f(t[sel])
        return out
    return fn


def oracle_gamma_q_many(a: float, xs: Sequence[float], *,
                        rel_tol: float = DEFAULT_REL_TOL) -> list[float]:
    """oracle_gamma_q(a, x) for every x in xs, as one lockstep quadrature.

    All numerator integrals of the row advance together through
    integrate_many, and each value equals the one-x call exactly.
    Arguments are validated before any integration; a QuadratureError is
    the one the lowest-indexed failing x raises.
    """
    a = _validate_gamma_args(a, 0.0)[0]
    xs = [_validate_gamma_args(a, x)[1] for x in xs]
    out = [1.0] * len(xs)
    todo = [j for j, x in enumerate(xs) if x != 0.0]
    if not todo:
        return out
    xt = [xs[j] for j in todo]
    half_tol = 0.5 * rel_tol

    if a >= _A_BIG:
        # Numerators referenced at the peak t0 for x <= t0, at x beyond.
        d_int, t0, _t_lo, t_up = _norm_big(a, rel_tol)
        u = a - 1.0
        refs = np.array([t0 if x <= t0 else x for x in xt])

        def fn(t: np.ndarray, k: np.ndarray) -> np.ndarray:
            return np.exp(_referenced_exponent(t, u, refs[k]))

        his = [t_up if x <= t0 else max(t_up, x + 900.0) for x in xt]
        nums = integrate_many(fn, xt, his, rel_tol=half_tol)
        log_t0 = dd_log(t0)
        for j, x, res in zip(todo, xt, nums):
            if x <= t0:
                q = res.value / d_int
            else:
                log_ratio = dd_sub(dd_log(x), log_t0)
                e_dd = dd_sub(dd_mul(two_sum(a, -1.0), log_ratio),
                              two_sum(x, -t0))
                pref = math.exp(e_dd[0]) * (1.0 + e_dd[1])
                q = pref * (res.value / d_int)
            out[j] = min(max(q, 0.0), 1.0)
        return out

    # Below _A_BIG, x >= 1 integrates the direct integrand from x, and
    # x < 1 the substituted head from x's image up to 1 plus the cached
    # tail from 1.
    def tail_fn(t: np.ndarray) -> np.ndarray:
        return np.exp((a - 1.0) * np.log(t) - t)

    if a >= 1.0:
        head, tail = _norm_mid(a, rel_tol)
        head_scale = 1.0

        def head_fn(s: np.ndarray) -> np.ndarray:
            return 4.0 * np.exp((4.0 * a - 1.0) * np.log(s) - s ** 4)

        def head_lo(x: float) -> float:
            return x ** 0.25
    else:
        head, tail = _norm_small(a, rel_tol)
        head_scale = a

        def head_fn(s: np.ndarray) -> np.ndarray:
            return np.exp(-np.exp(np.log(s) / a))

        def head_lo(x: float) -> float:
            return math.exp(a * math.log(x))

    in_head = [x < 1.0 for x in xt]
    los = [head_lo(x) if h else x for h, x in zip(in_head, xt)]
    his = [1.0 if h else max(901.0, x + 900.0) for h, x in zip(in_head, xt)]
    fn = _by_group((tail_fn, head_fn), np.array(in_head, dtype=np.intp))
    nums = integrate_many(fn, los, his, rel_tol=half_tol)
    denom = head + tail
    for j, h, res in zip(todo, in_head, nums):
        # Dividing by head_scale = 1.0 is exact.
        num = res.value / head_scale + tail if h else res.value
        out[j] = min(max(num / denom, 0.0), 1.0)
    return out


def oracle_gamma_q(a: float, x: float, *, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Upper regularized incomplete gamma by direct quadrature of the
    defining integral, as a ratio of two integrals sharing one integrand.

    For x beyond the integrand peak the numerator is re-referenced at x and
    the connecting prefactor exp(h(x) - h(t0)) is evaluated in double-double,
    keeping the relative error near 2e-13 even when the exponent is ~700.
    """
    return oracle_gamma_q_many(a, (x,), rel_tol=rel_tol)[0]


def oracle_tail_prob(a: float, c: float, *,
                     rel_tol: float = DEFAULT_REL_TOL) -> float:
    """P(X_a - a > c) by quadrature; exactly 1 on the plateau a + c <= 0."""
    a = float(a)
    c = float(c)
    if not (math.isfinite(a) and math.isfinite(c)) or a <= 0.0:
        raise DomainError("oracle_tail_prob requires finite a > 0 and c")
    if a + c <= 0.0:
        return 1.0
    return oracle_gamma_q(a, a + c, rel_tol=rel_tol)


def oracle_log_gamma(a: float, *, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """ln Gamma(a) from the quadrature normalization (peak-referenced for
    a >= 1, direct for a < 1)."""
    a = float(a)
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError("oracle_log_gamma requires a > 0")
    if a < 1.0:
        head, tail = _norm_small(a, rel_tol)
        return math.log(head + tail)
    if a < _A_BIG:
        head, tail = _norm_mid(a, rel_tol)
        return math.log(head + tail)
    d_int, t0, _t_lo, _t_up = _norm_big(a, rel_tol)
    h_dd = dd_sub(dd_mul(two_sum(a, -1.0), dd_log(t0)), (t0, 0.0))
    return h_dd[0] + (math.log(d_int) + h_dd[1])


# ---------------------------------------------------------------------------
# Bisection root oracle and central differences.
# ---------------------------------------------------------------------------

_ROOT_IDS = ("w0", "wm1", "x1", "x2")


def _bisect(fn: Callable[[float], float], lo: float, hi: float,
            target: float, increasing: bool, width: float) -> float:
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        high_side = fn(mid) > target
        if high_side == increasing:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def oracle_root(fn_id: str, target: float, *, width: float = 1e-14) -> float:
    """Plain bisection inverse for the Lambert/branch-root functions.

    fn_id is one of 'w0', 'wm1' (inverse of w*exp(w)) or 'x1', 'x2'
    (inverse branches of x*exp(1-x)).  Bisection runs to the requested
    interval width or to floating-point exhaustion, whichever comes first.
    """
    target = float(target)
    if fn_id not in _ROOT_IDS:
        raise DomainError(f"fn_id must be one of {_ROOT_IDS}")
    if fn_id == "w0":
        if target < -1.0 / math.e:
            raise DomainError("w0 requires target >= -1/e")
        fn = lambda w: w * math.exp(w)  # noqa: E731
        hi = 2.0
        while fn(hi) < target:
            hi *= 2.0
        return _bisect(fn, -1.0, hi, target, True, width)
    if fn_id == "wm1":
        if not (-1.0 / math.e <= target < 0.0):
            raise DomainError("wm1 requires target in [-1/e, 0)")
        fn = lambda w: w * math.exp(w)  # noqa: E731
        lo = -2.0
        while lo * math.exp(lo) < target:
            lo *= 2.0
        # w*exp(w) is decreasing on (-inf, -1].
        return _bisect(fn, lo, -1.0, target, False, width)
    if not (0.0 < target < 1.0):
        raise DomainError("branch roots require target in (0, 1)")
    fn = lambda x: x * math.exp(1.0 - x)  # noqa: E731
    if fn_id == "x1":
        return _bisect(fn, 0.0, 1.0, target, True, width)
    hi = 2.0
    while fn(hi) > target:
        hi *= 2.0
    return _bisect(fn, 1.0, hi, target, False, width)


def central_difference(fn: Callable[[float], float], x: float,
                       h: float) -> tuple[float, float]:
    """Richardson-extrapolated central difference with an error estimate.

    Returns (derivative, err_est) where err_est combines the h^2-scaled
    extrapolation defect with the rounding noise floor ~eps*|f|/h.
    """
    x = float(x)
    h = float(h)
    if h <= 0.0:
        raise DomainError("central_difference requires h > 0")
    f_p = fn(x + h)
    f_m = fn(x - h)
    d1 = (f_p - f_m) / (2.0 * h)
    d2 = (fn(x + 0.5 * h) - fn(x - 0.5 * h)) / h
    value = (4.0 * d2 - d1) / 3.0
    err = abs(d2 - d1) / 3.0 + 2.0 * _EPS * (abs(f_p) + abs(f_m)) / h
    return value, err


# ---------------------------------------------------------------------------
# Double-double evaluations of the mean chain and the threshold ratio.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanChainGaps:
    """Signed squared-mean gaps along geometric < logarithmic < refined <
    arithmetic, each with an error bound.  All three should be positive."""

    log_vs_geo: float
    refined_vs_log: float
    arith_vs_refined: float
    err_bound: float


def oracle_mean_gaps(x: float, y: float) -> MeanChainGaps:
    """L^2 - xy, G~^2 - L^2 and A^2 - G~^2 in double-double arithmetic.

    The logarithm of the ratio is taken as log1p of the exact difference
    quotient, never as a difference of two logs, so the relative error of
    every gap stays O(eps^2) times the x*y scale even at ratio 1 + 1e-6.
    """
    x = float(x)
    y = float(y)
    if not (0.0 < x < y) or not math.isfinite(y):
        raise DomainError("oracle_mean_gaps requires 0 < x < y, finite")
    d_dd = two_sum(y, -x)
    r_dd = dd_div(d_dd, (x, 0.0))
    if r_dd[0] <= 0.5:
        w_dd = dd_log1p_small(r_dd)
    else:
        w_dd = dd_sub(dd_log(y), dd_log(x))
    l_dd = dd_div(d_dd, w_dd)
    xy_dd = two_prod(x, y)
    l2_dd = dd_mul(l_dd, l_dd)
    gap1 = dd_sub(l2_dd, xy_dd)
    cross = dd_mul(dd_sub(l_dd, (x, 0.0)), dd_sub((y, 0.0), l_dd))
    third = dd_div(cross, (3.0, 0.0))
    gap2 = dd_add(dd_sub(xy_dd, l2_dd), third)
    a_dd = dd_mul_d(two_sum(x, y), 0.5)
    a2_dd = dd_mul(a_dd, a_dd)
    gap3 = dd_sub(dd_sub(a2_dd, xy_dd), third)
    err = 64.0 * _EPS * _EPS * a2_dd[0]
    return MeanChainGaps(log_vs_geo=gap1[0], refined_vs_log=gap2[0],
                         arith_vs_refined=gap3[0], err_bound=err)


def oracle_threshold_ratio(y: float) -> float:
    """The threshold ratio evaluated entirely in double-double arithmetic."""
    y = float(y)
    if not math.isfinite(y) or y <= 1.0:
        raise DomainError("oracle_threshold_ratio requires y > 1")
    s_dd = two_sum(y, -1.0)
    if s_dd[0] <= 0.5:
        w_dd = dd_log1p_small(s_dd)
    else:
        w_dd = dd_log(y)
    l_dd = dd_div(s_dd, w_dd)
    num = dd_sub((y, 0.0), dd_mul(l_dd, l_dd))
    den = dd_mul(dd_add(l_dd, (-1.0, 0.0)), dd_sub((y, 0.0), l_dd))
    return dd_div(num, den)[0]
