"""Error-free transformations and double-double arithmetic (Dekker 1971).

A double-double is an unevaluated (hi, lo) pair of doubles, about 32 digits,
for the few scalars whose conditioning exceeds double precision: the
mean-chain gaps certify uses, and the oracle's quadrature prefactors and
threshold ratio.  central_difference, the derivative check
that certify and the tests share, lives here too.

The error-free transforms and dd_add/dd_sub/dd_mul/dd_div use only IEEE
+, -, * and /, so they work unchanged on numpy arrays, lane by lane, with
the same rounding as on floats.  dd_exp, dd_log, dd_log1p_small and
mean_gaps use that to evaluate many lanes in one lockstep pass, each lane
bit-identical to the value computed alone: their Taylor sums run on
_lanes._lockstep, which stops each lane at its own last term, and dd_log
takes one math.log call per lane.  A float argument gives a float result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import DomainError
from ._lanes import _each_step, _lockstep, _per_lane
from .specfun import EPS, _not_converged

_SPLITTER = 134217729.0            # 2^27 + 1
# ln 2 to double-double precision (standard pair).
_LN2_HI = 6.931471805599453e-01
_LN2_LO = 2.3190468138462996e-17
# Term cap of dd_exp's Taylor series; after range reduction |r| <= ln2/2,
# so r^n/n! < 1e-36 by n = 25.
_EXP_MAX_TERMS = 39
# Term cap of dd_log1p_small's Taylor series; |u| <= 1/2 stops by n = 115.
_LOG1P_MAX_TERMS = 120
# 1/n as double-double pairs for the Taylor sums, 1/n at index n - 1: a
# double 1/n alone would cap them near 1e-19 relative.
_RECIPROCALS = tuple((1.0 / n, float(Fraction(1, n) - Fraction(1.0 / n)))
                     for n in range(1, _LOG1P_MAX_TERMS))
# dd_log scales x outside [2^-960, 2^960] by a power of two, so that
# neither exp(-ln x) nor the split of x leaves the double range.
_LOG_SCALE_MAX = 960
# Within this distance of 1, dd_log sums the log1p series of the exact
# x - 1: its Newton step's absolute error, about 6e-32, would be large
# relative to ln x there.
_LOG_NEAR_ONE = 0.125


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


def _exp_term(n, r_hi, r_lo, t_hi, t_lo, s_hi, s_lo):
    """Term n of dd_exp's Taylor sum and the sum through it, on lanes."""
    term = dd_mul(dd_mul((t_hi, t_lo), (r_hi, r_lo)), _RECIPROCALS[n - 1])
    acc = dd_add((s_hi, s_lo), term)
    return *term, *acc, np.abs(term[0]) < 1e-36 * np.abs(acc[0])


def dd_exp(x: tuple) -> tuple:
    """exp of a double-double; arguments beyond the double range saturate.

    x may be a pair of floats or of equal-shape arrays.  Each lane stops
    its Taylor sum at its own last term, so its value is bit-identical to
    the same lane computed alone, and raises ConvergenceError at the cap.
    """
    x_hi = np.asarray(x[0], dtype=float)
    shape = x_hi.shape
    x_hi, x_lo = np.broadcast_arrays(x_hi.ravel(),
                                     np.asarray(x[1], dtype=float).ravel())
    out_hi = np.where(x_hi > 709.0, math.inf,
                      np.where(x_hi < -745.0, 0.0, math.nan))
    out_lo = np.zeros_like(out_hi)
    todo = np.flatnonzero((-745.0 <= x_hi) & (x_hi <= 709.0))
    k = np.rint(x_hi[todo] / _LN2_HI)
    # r = x - k ln 2: every term at the scale of x joins by an exact
    # two_sum, so the cancellation leaves the O(eps^2) error at the scale
    # of r, not of x.
    p1, e1 = two_prod(_LN2_HI, k)
    p2, e2 = two_prod(_LN2_LO, k)
    r_hi, r_lo = two_sum(x_hi[todo], -p1)
    for part in (x_lo[todo], -e1, -p2):
        r_hi, t = two_sum(r_hi, part)
        r_lo = r_lo + t
    # Taylor sum of exp(r) for |r| <= ~0.35, from term = sum = 1.
    left, _, _, _, sum_hi, sum_lo = _lockstep(
        _each_step(_exp_term), _EXP_MAX_TERMS, quick_two_sum(r_hi, r_lo - e2),
        (1.0, 0.0, 1.0, 0.0), 1)
    if left.size:
        raise _not_converged("dd_exp's Taylor series", _EXP_MAX_TERMS)
    k = k.astype(np.int64)
    out_hi[todo] = np.ldexp(sum_hi, k)
    out_lo[todo] = np.ldexp(sum_lo, k)
    if not shape:
        return float(out_hi[0]), float(out_lo[0])
    return out_hi.reshape(shape), out_lo.reshape(shape)


def dd_log(x: float | np.ndarray) -> tuple:
    """ln x as a double-double, relative error below 1e-30 for every
    positive double x.

    x outside [2^-960, 2^960] is written m 2^k with m in [1/2, 1) and taken
    as ln m + k ln 2.  Within 1/8 of 1, ln x is the log1p series of x - 1
    (exact there); elsewhere the double log w is refined by one Newton
    step, w + (x e^{-w} - 1) - (x e^{-w} - 1)^2 / 2.  x may be a float or an
    array; each lane takes one math.log call, and all lanes share one
    lockstep dd_exp, so every lane is bit-identical to the float computed
    alone.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("dd_log requires x > 0")
    shape = x.shape
    x = x.ravel()
    window = (2.0 ** -_LOG_SCALE_MAX <= x) & (x <= 2.0 ** _LOG_SCALE_MAX)
    k = np.where(window, 0, np.frexp(x)[1])
    x = np.ldexp(x, -k)
    w = _per_lane(math.log, x)
    # inf and NaN lanes turn NaN silently, as they do with floats.
    with np.errstate(over="ignore", invalid="ignore"):
        r = dd_mul_d(dd_exp((-w, 0.0)), x)
        r = dd_add(r, (-1.0, 0.0))
        corr = dd_sub(r, dd_mul_d(dd_mul(r, r), 0.5))
        hi, lo = dd_add((w, 0.0), corr)
    near = np.abs(x - 1.0) <= _LOG_NEAR_ONE
    if np.any(near):
        hi[near], lo[near] = dd_log1p_small((x[near] - 1.0, 0.0))
    scaled = ~window
    hi[scaled], lo[scaled] = dd_add(
        (hi[scaled], lo[scaled]),
        dd_mul_d((_LN2_HI, _LN2_LO), k[scaled].astype(float)))
    if not shape:
        return float(hi[0]), float(lo[0])
    return hi.reshape(shape), lo.reshape(shape)


def _log1p_term(n, u_hi, u_lo, t_hi, t_lo, s_hi, s_lo):
    """Term n + 1, (-1)^n u^(n+1) / (n+1), of dd_log1p_small's Taylor sum
    and the sum through it, on lanes."""
    term = dd_mul((t_hi, t_lo), (u_hi, u_lo))
    inv_hi, inv_lo = _RECIPROCALS[n]
    sign = -1.0 if n % 2 else 1.0
    contrib = dd_mul(term, (sign * inv_hi, sign * inv_lo))
    acc = dd_add((s_hi, s_lo), contrib)
    # A lane stops at its own last term, or once its terms underflow to 0
    # (then the relative test's right side is 0 as well, and the sum can no
    # longer change).
    floor = 1e-36 * np.maximum(np.abs(acc[0]), 1e-300)
    return *term, *acc, (np.abs(contrib[0]) < floor) | (contrib[0] == 0.0)


def dd_log1p_small(u: tuple[float, float]) -> tuple[float, float]:
    """ln(1 + u) for |u| <= 0.5 by the Taylor series in double-double.

    u may be a pair of floats or of equal-shape arrays.  Each lane stops at
    its own last term, so its sum is bit-identical to the same lane
    computed alone.
    """
    u_hi = np.asarray(u[0], dtype=float)
    u_lo = np.asarray(u[1], dtype=float)
    if np.any(np.abs(u_hi) > 0.5):
        raise DomainError("dd_log1p_small requires |u| <= 0.5")
    shape = u_hi.shape
    u_hi, u_lo = np.broadcast_arrays(u_hi.ravel(), u_lo.ravel())
    # Terms 2.._LOG1P_MAX_TERMS-1, from term = sum = u.
    left, _, _, _, out_hi, out_lo = _lockstep(
        _each_step(_log1p_term), _LOG1P_MAX_TERMS - 2, (u_hi, u_lo),
        (u_hi, u_lo, u_hi, u_lo), 1)
    if left.size:
        raise _not_converged("dd_log1p_small's Taylor series",
                             _LOG1P_MAX_TERMS)
    if not shape:
        return float(out_hi[0]), float(out_lo[0])
    return out_hi.reshape(shape), out_lo.reshape(shape)


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
    arithmetic, one array lane per pair; row k of err_bounds bounds the k-th
    gap.  All three should be positive."""

    log_vs_geo: np.ndarray
    refined_vs_log: np.ndarray
    arith_vs_refined: np.ndarray
    err_bounds: np.ndarray


def mean_gaps(x: np.ndarray | float, y: np.ndarray | float) -> MeanChainGaps:
    """L^2 - xy, G~^2 - L^2 and A^2 - G~^2 in double-double arithmetic.

    x and y are equal-shape arrays (or floats) of pairs, evaluated in one
    lockstep pass; the fields of the result are arrays of that shape, each
    lane bit-identical to the pair computed alone.  The logarithm of the
    ratio is taken as log1p of the exact difference quotient, never as a
    difference of two logs, so the relative error of every gap stays
    O(eps^2) times the x*y scale even at ratio 1 + 1e-6.  Lanes beyond the
    series window, (y - x)/x > 0.5, take the difference of the double-double
    logs of x and y instead.  Each gap's bound is 64 eps^2 A^2 for the
    double-double arithmetic plus half an ulp, 0.5 eps |gap|, for its
    rounding to a double.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    shape = x.shape
    x, y = x.ravel(), y.ravel()
    if not np.all((0.0 < x) & (x < y) & np.isfinite(y)):
        raise DomainError("mean_gaps requires 0 < x < y, finite")
    # Lanes near the double range overflow to inf/NaN silently, as floats do.
    with np.errstate(over="ignore", invalid="ignore"):
        d_dd = two_sum(y, -x)
        r_dd = dd_div(d_dd, (x, 0.0))
        small = r_dd[0] <= 0.5
        w_hi, w_lo = np.empty_like(x), np.empty_like(x)
        w_hi[small], w_lo[small] = dd_log1p_small((r_dd[0][small],
                                                   r_dd[1][small]))
        wide = ~small
        w_hi[wide], w_lo[wide] = dd_sub(dd_log(y[wide]), dd_log(x[wide]))
        l_dd = dd_div(d_dd, (w_hi, w_lo))
        xy_dd = two_prod(x, y)
        l2_dd = dd_mul(l_dd, l_dd)
        gap1 = dd_sub(l2_dd, xy_dd)
        cross = dd_mul(dd_sub(l_dd, (x, 0.0)), dd_sub((y, 0.0), l_dd))
        third = dd_div(cross, (3.0, 0.0))
        gap2 = dd_add(dd_sub(xy_dd, l2_dd), third)
        a_dd = dd_mul_d(two_sum(x, y), 0.5)
        a2_dd = dd_mul(a_dd, a_dd)
        gap3 = dd_sub(dd_sub(a2_dd, xy_dd), third)
        gaps = np.stack((gap1[0], gap2[0], gap3[0]))
        err = 64.0 * EPS * EPS * a2_dd[0] + 0.5 * EPS * np.abs(gaps)
    return MeanChainGaps(*(g.reshape(shape) for g in gaps),
                         err_bounds=err.reshape((3, *shape)))
