"""Slow, independent reference implementations, for validation only.

Only the acceptance criteria and the tests import this module.  The fast
kernels in specfun are series / continued-fraction based; everything here
goes through the defining integrals (adaptive panel quadrature of the gamma
integrand in log space), plain bisection for inverse problems, and the
double-double arithmetic of ``_dd`` for the few scalars whose conditioning
exceeds double precision.  No Q kernel is shared with the fast path, so
agreement between the two is meaningful evidence of correctness; the one
helper borrowed from the fast path is _lanes' vectorized log1p(d) - d that
evaluates the integrand's exponent.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

# The mean-chain gaps live in _dd; perfbench/spans.py still traces them
# under this name, so it must stay bound to the same function object.
from ._dd import mean_gaps as oracle_mean_gaps  # noqa: F401
from ._dd import (dd_add, dd_div, dd_log, dd_log1p_small, dd_mul, dd_sub,
                  two_sum)
from ._lanes import _log1pmx_vec
from .errors import DomainError
from .quadrature import integrate, integrate_many

# Every quadrature gets half the oracle's relative target of 1e-13, so a
# ratio of two of them meets it.
_HALF_TOL = 0.5 * 1e-13


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


def _norm_big(a: float) -> tuple[float, float, float, float]:
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

    res = integrate(fn, t_lo, t_up, rel_tol=_HALF_TOL)
    return res.value, t0, t_lo, t_up


def _tail_integrand(a: float) -> Callable[[np.ndarray], np.ndarray]:
    """The direct integrand t^(a-1) e^(-t), integrated from t = 1 on."""
    def fn(t: np.ndarray) -> np.ndarray:
        return np.exp((a - 1.0) * np.log(t) - t)
    return fn


def _head(a: float) -> tuple[Callable[[np.ndarray], np.ndarray],
                             Callable[[float], float], float]:
    """The head t in [0, 1] of the integral for a < _A_BIG, substituted
    to keep the origin smooth: (integrand in s, the image s of a point t,
    the divisor of the integral in s).

    For a >= 1, t = s^4 gives 4 s^(4a-1) exp(-s^4), whose origin exponent
    4a - 1 >= 3 bisects cleanly where a fractional a - 1 < 1 would stall
    the refinement at t = 0.  For a < 1, s = t^a gives exp(-s^(1/a)) / a.
    """
    if a >= 1.0:
        def fn(s: np.ndarray) -> np.ndarray:
            return 4.0 * np.exp((4.0 * a - 1.0) * np.log(s) - s ** 4)
        return fn, lambda t: t ** 0.25, 1.0

    def fn(s: np.ndarray) -> np.ndarray:
        return np.exp(-np.exp(np.log(s) / a))
    return fn, lambda t: math.exp(a * math.log(t)), a


def _head_and_tail(a: float) -> tuple[float, float]:
    """Gamma(a) for a < _A_BIG as head plus tail integrals, split at 1."""
    head_fn, _image, scale = _head(a)
    # Dividing by scale = 1.0 is exact.
    h = integrate(head_fn, 0.0, 1.0, rel_tol=_HALF_TOL).value / scale
    tl = integrate(_tail_integrand(a), 1.0, 901.0, rel_tol=_HALF_TOL).value
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


def oracle_gamma_q_many(a: float, xs: Sequence[float]) -> list[float]:
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

    if a >= _A_BIG:
        # Numerators referenced at the peak t0 for x <= t0, at x beyond.
        d_int, t0, _t_lo, t_up = _norm_big(a)
        u = a - 1.0
        refs = np.array([t0 if x <= t0 else x for x in xt])

        def fn(t: np.ndarray, k: np.ndarray) -> np.ndarray:
            return np.exp(_referenced_exponent(t, u, refs[k]))

        his = [t_up if x <= t0 else max(t_up, x + 900.0) for x in xt]
        nums = integrate_many(fn, xt, his, rel_tol=_HALF_TOL)
        # The connecting prefactors of all x beyond t0, from one dd_log
        # call that also takes ln t0.
        x_far = np.array([x for x in xt if x > t0])
        logs = dd_log(np.concatenate(([t0], x_far)))
        log_ratio = dd_sub((logs[0][1:], logs[1][1:]),
                           (logs[0][0], logs[1][0]))
        e_dd = dd_sub(dd_mul(two_sum(a, -1.0), log_ratio),
                      two_sum(x_far, -t0))
        prefs = iter([math.exp(hi) * (1.0 + lo)
                      for hi, lo in zip(e_dd[0].tolist(), e_dd[1].tolist())])
        for j, x, res in zip(todo, xt, nums):
            q = res.value / d_int
            if x > t0:
                q = next(prefs) * q
            out[j] = min(max(q, 0.0), 1.0)
        return out

    # Below _A_BIG, x >= 1 integrates the direct integrand from x, and
    # x < 1 the substituted head from x's image up to 1 plus the tail
    # from 1.
    head, tail = _head_and_tail(a)
    head_fn, image, scale = _head(a)
    in_head = [x < 1.0 for x in xt]
    los = [image(x) if h else x for h, x in zip(in_head, xt)]
    his = [1.0 if h else max(901.0, x + 900.0) for h, x in zip(in_head, xt)]
    fn = _by_group((_tail_integrand(a), head_fn),
                   np.array(in_head, dtype=np.intp))
    nums = integrate_many(fn, los, his, rel_tol=_HALF_TOL)
    denom = head + tail
    for j, h, res in zip(todo, in_head, nums):
        # Dividing by scale = 1.0 is exact.
        num = res.value / scale + tail if h else res.value
        out[j] = min(max(num / denom, 0.0), 1.0)
    return out


def oracle_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma by direct quadrature of the
    defining integral, as a ratio of two integrals sharing one integrand.

    For x beyond the integrand peak the numerator is re-referenced at x and
    the connecting prefactor exp(h(x) - h(t0)) is evaluated in double-double,
    keeping the relative error near 2e-13 even when the exponent is ~700.
    """
    return oracle_gamma_q_many(a, (x,))[0]


def oracle_tail_prob(a: float, c: float) -> float:
    """P(X_a - a > c) by quadrature; exactly 1 on the plateau a + c <= 0."""
    a = float(a)
    c = float(c)
    if not (math.isfinite(a) and math.isfinite(c)) or a <= 0.0:
        raise DomainError("oracle_tail_prob requires finite a > 0 and c")
    if a + c <= 0.0:
        return 1.0
    return oracle_gamma_q(a, a + c)


def oracle_log_gamma(a: float) -> float:
    """ln Gamma(a) from the quadrature normalization (peak-referenced for
    a >= _A_BIG, direct below)."""
    a = float(a)
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError("oracle_log_gamma requires a > 0")
    if a < _A_BIG:
        head, tail = _head_and_tail(a)
        return math.log(head + tail)
    d_int, t0, _t_lo, _t_up = _norm_big(a)
    h_dd = dd_sub(dd_mul(two_sum(a, -1.0), dd_log(t0)), (t0, 0.0))
    return h_dd[0] + (math.log(d_int) + h_dd[1])


# ---------------------------------------------------------------------------
# Bisection root oracle.
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


# ---------------------------------------------------------------------------
# Double-double evaluation of the threshold ratio.
# ---------------------------------------------------------------------------

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
