"""Error-free transformations and double-double arithmetic (Dekker 1971).

A double-double is an unevaluated (hi, lo) pair of doubles, about 32 digits,
for the few scalars whose conditioning exceeds double precision: the
mean-chain gaps certify uses, tailprob's compensated difference, and the
oracle's quadrature prefactors.  central_difference, the derivative check
that certify and the tests share, lives here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError
from .specfun import EPS

_SPLITTER = 134217729.0            # 2^27 + 1
# ln 2 to double-double precision (standard pair).
_LN2_HI = 6.931471805599453e-01
_LN2_LO = 2.3190468138462996e-17


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
    err = abs(d2 - d1) / 3.0 + 2.0 * EPS * (abs(f_p) + abs(f_m)) / h
    return value, err


@dataclass(frozen=True)
class MeanChainGaps:
    """Signed squared-mean gaps along geometric < logarithmic < refined <
    arithmetic, each with an error bound.  All three should be positive."""

    log_vs_geo: float
    refined_vs_log: float
    arith_vs_refined: float
    err_bound: float


def mean_gaps(x: float, y: float) -> MeanChainGaps:
    """L^2 - xy, G~^2 - L^2 and A^2 - G~^2 in double-double arithmetic.

    The logarithm of the ratio is taken as log1p of the exact difference
    quotient, never as a difference of two logs, so the relative error of
    every gap stays O(eps^2) times the x*y scale even at ratio 1 + 1e-6.
    """
    x = float(x)
    y = float(y)
    if not (0.0 < x < y) or not math.isfinite(y):
        raise DomainError("mean_gaps requires 0 < x < y, finite")
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
    err = 64.0 * EPS * EPS * a2_dd[0]
    return MeanChainGaps(log_vs_geo=gap1[0], refined_vs_log=gap2[0],
                         arith_vs_refined=gap3[0], err_bound=err)
