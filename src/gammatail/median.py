"""Gamma median solver built on the certified bracket median in (a-1/3, a).

The tail inequalities Q(a, a) < 1/2 < Q(a, a - 1/3) pin the median of a
gamma variable with shape a between a - 1/3 and a.  The solver treats that
bracket as a theorem: if either endpoint sign check fails, it raises a
certification error instead of widening the search, since a failure would
contradict the proven statement rather than indicate a bad initial guess.

For a < 0.35 the lower endpoint a - 1/3 is non-positive or nearly so while
the median itself collapses towards zero much faster than a (for a = 0.01
it is ~4e-31), so the root is located in log space on [1e-300, a]; the
positive lower floor is implementation policy justified by positivity of
the median, not by the bracket statement itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import CertificationError, ConvergenceError, DomainError
from .specfun import DEFAULT_PRECISION, ONE_THIRD, Precision, reg_gamma_q
from .tailprob import TailQuery, tail_prob_detail

_LINEAR_BRACKET_MIN = 0.35
_LOG_FLOOR = math.log(1e-300)
_COARSE_WIDTH = 1e-3


@dataclass(frozen=True)
class MedianResult:
    """A solved gamma median with its offset from the mean.

    residual is |Q(a, median) - 1/2| at the returned point.  The offset
    lies strictly inside (-1/3, 0); that containment is validated here
    because a violation would contradict the bracket theorem.
    """

    a: float
    median: float
    offset: float
    residual: float

    def __post_init__(self) -> None:
        if not (-ONE_THIRD < self.offset < 0.0):
            raise CertificationError(
                f"median offset {self.offset!r} for a={self.a!r} escapes "
                "(-1/3, 0), contradicting the bracket theorem")


@dataclass(frozen=True)
class MedianBracketCheck:
    """Margins of Q(a, a) < 1/2 < Q(a, a - 1/3) at one shape."""

    a: float
    below: float        # 1/2 - Q(a, a), should be positive
    above: float        # Q(a, a - 1/3) - 1/2, should be positive
    below_err: float
    above_err: float


@dataclass(frozen=True)
class MedianBracketReport:
    entries: tuple[MedianBracketCheck, ...]
    certified: bool
    min_margin_ratio: float


def _hybrid_root(fn: Callable[[float], float], lo: float, hi: float,
                 f_lo: float, f_hi: float, prec: Precision
                 ) -> tuple[float, float, int]:
    """Root of fn on a sign-changing bracket: bisection to a coarse width,
    then secant/inverse-quadratic refinement kept inside the bracket.

    Returns (root, fn(root), n_evals).  fn must be finite on [lo, hi] with
    f_lo > 0 > f_hi.
    """
    n = 0
    while hi - lo > _COARSE_WIDTH and n < prec.max_iter:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = fn(mid)
        n += 1
        if f_mid == 0.0:
            return mid, 0.0, n
        if f_mid > 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid

    # Refinement on the last three iterates; fall back to bisection when an
    # interpolated step escapes the bracket or stalls.
    x0, f0 = lo, f_lo
    x1, f1 = hi, f_hi
    x2, f2 = None, None
    best_x, best_f = (x0, f0) if abs(f0) <= abs(f1) else (x1, f1)
    while n < prec.max_iter:
        x_new = None
        if x2 is not None and f0 != f1 and f1 != f2 and f0 != f2:
            # Inverse quadratic interpolation through the three iterates.
            x_new = (x0 * f1 * f2 / ((f0 - f1) * (f0 - f2))
                     + x1 * f0 * f2 / ((f1 - f0) * (f1 - f2))
                     + x2 * f0 * f1 / ((f2 - f0) * (f2 - f1)))
        elif f0 != f1:
            x_new = x1 - f1 * (x1 - x0) / (f1 - f0)
        if x_new is None or not (lo < x_new < hi) or not math.isfinite(x_new):
            x_new = 0.5 * (lo + hi)
        f_new = fn(x_new)
        n += 1
        if abs(f_new) < abs(best_f):
            best_x, best_f = x_new, f_new
        if f_new == 0.0:
            return x_new, 0.0, n
        if f_new > 0.0:
            lo = x_new
        else:
            hi = x_new
        x0, f0, x1, f1, x2, f2 = x1, f1, x_new, f_new, x0, f0
        if hi - lo <= 8.0 * prec.abs_tol + 4.0 * (abs(lo) + abs(hi)) * 1.1e-16:
            break
    return best_x, best_f, n


def gamma_median(a: float, prec: Precision = DEFAULT_PRECISION
                 ) -> MedianResult:
    """The median of a gamma variable with shape a, to residual prec.rel_tol.

    Located by bracketed root finding of Q(a, m) = 1/2 on [a - 1/3, a]
    (in log space on [1e-300, a] when a < 0.35).  A bracket endpoint with
    the wrong sign raises CertificationError; a residual that will not meet
    prec.rel_tol raises ConvergenceError (the solver's evaluation count in
    n_iter).
    """
    a = float(a)
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError("gamma_median requires finite a > 0")

    def f_linear(m: float) -> float:
        return reg_gamma_q(a, m) - 0.5

    if a >= _LINEAR_BRACKET_MIN:
        lo, hi = a - ONE_THIRD, a
        f_lo, f_hi = f_linear(lo), f_linear(hi)
        if not (f_lo > 0.0 > f_hi):
            raise CertificationError(
                f"median bracket [a-1/3, a] sign check failed at a={a!r}: "
                f"endpoint values {f_lo + 0.5!r}, {f_hi + 0.5!r} "
                "contradict the bracket theorem")
        root, f_root, n_evals = _hybrid_root(f_linear, lo, hi, f_lo, f_hi,
                                             prec)
        median = root
    else:
        def f_log(t: float) -> float:
            return reg_gamma_q(a, math.exp(t)) - 0.5

        t_lo, t_hi = _LOG_FLOOR, math.log(a)
        f_lo, f_hi = f_log(t_lo), f_log(t_hi)
        if not (f_lo > 0.0 > f_hi):
            raise CertificationError(
                f"median bracket (0, a] sign check failed at a={a!r}: "
                f"endpoint values {f_lo + 0.5!r}, {f_hi + 0.5!r} "
                "contradict positivity or the bracket theorem")
        t_root, f_root, n_evals = _hybrid_root(f_log, t_lo, t_hi, f_lo,
                                               f_hi, prec)
        median = math.exp(t_root)

    residual = abs(f_root)
    if residual > prec.rel_tol:
        # An unreachable target contradicts nothing: the bracket held.
        raise ConvergenceError(
            f"median residual {residual!r} at a={a!r} exceeds the target "
            f"{prec.rel_tol!r} after {n_evals} evaluations", n_iter=n_evals)
    return MedianResult(a=a, median=median, offset=median - a,
                        residual=residual)


def check_median_bracket(a_grid: Sequence[float],
                         prec: Precision = DEFAULT_PRECISION
                         ) -> MedianBracketReport:
    """Certify Q(a, a) < 1/2 < Q(a, a - 1/3) with margins over a grid.

    Each strict inequality is certified only when its margin exceeds
    prec.strict_margin times the evaluation error bound; the report's
    min_margin_ratio is the smallest margin/error ratio encountered.
    An empty grid is rejected rather than certified vacuously.
    """
    if len(a_grid) == 0:
        raise DomainError("check_median_bracket requires a non-empty grid")
    entries = []
    certified = True
    min_ratio = math.inf
    for a in a_grid:
        a = float(a)
        at_mean = tail_prob_detail(TailQuery(a, 0.0))
        at_third = tail_prob_detail(TailQuery(a, -ONE_THIRD))
        below = 0.5 - at_mean.value
        above = at_third.value - 0.5
        entries.append(MedianBracketCheck(
            a=a, below=below, above=above,
            below_err=at_mean.err_bound, above_err=at_third.err_bound))
        for margin, err in ((below, at_mean.err_bound),
                            (above, at_third.err_bound)):
            ratio = margin / max(err, 1e-300)
            min_ratio = min(min_ratio, ratio)
            if not (margin > 0.0 and ratio > prec.strict_margin):
                certified = False
    return MedianBracketReport(entries=tuple(entries), certified=certified,
                               min_margin_ratio=min_ratio)
