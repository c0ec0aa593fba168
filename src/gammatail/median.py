"""Gamma median solver built on the certified bracket median in (a-1/3, a).

The tail inequalities Q(a, a) < 1/2 < Q(a, a - 1/3) pin the median of a
gamma variable with shape a between a - 1/3 and a.  The solver treats that
bracket as a theorem and never widens the search.  When an endpoint sign
check fails, it re-evaluates the bracket margins with their error bounds,
as check_median_bracket does (the bound charges the rounding of a - 1/3),
and raises a certification error only when a margin is wrong by more than
STRICT_MARGIN times its bound, which would contradict the proven statement.
A wrong sign inside the bound is a precision limit and raises
ConvergenceError: from about a = 3e7 the true margin ~0.0079 a^{-3/2} falls
below the rounding of the kernel's argument.

For a >= 0.35, once both endpoint signs hold, the search starts from the
median's asymptotic expansion, which is within 4.6e-4/a^5 of the root
(0.04 at a = 0.35, 1e-4 at a = 1, a few ulps of a from a ~ 100).  It
steps outward from that guess in doubling steps until Q - 1/2 changes
sign, which leaves a bracket about as wide as the guess's error, and hands
it to the secant/inverse-quadratic refinement.  A solve costs about five
kernel calls at large shapes, where each call is expensive.

For a < 0.35 the lower endpoint a - 1/3 is non-positive or nearly so while
the median itself collapses towards zero much faster than a (for a = 0.01
it is ~4e-31), so the root is located in log space on [1e-300, a]; the
positive lower floor is implementation policy justified by positivity of
the median, not by the bracket statement itself.  The search starts from
ln m ~ (lnGamma(1 + a) - ln 2) / a, from P(a, x) ~ x^a / Gamma(a + 1), with
one correction term, which is within a few ulps below a = 0.05 and within
0.005 up to 0.35, and steps outward from it as above.  Below about
a = 1.0043e-3 the median lies under the floor, and gamma_median rejects the
shape with DomainError.

gamma_median's residual target (1e-12), bracket-width floor (1e-14),
200-evaluation budget, shared by the search and the refinement, and the
bracket check's margin are constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NoReturn, Sequence

from .errors import CertificationError, ConvergenceError, DomainError
from .specfun import ONE_THIRD, STRICT_MARGIN, _lgamma1p, reg_gamma_q
from .tailprob import TailQuery, tail_prob_detail, tail_prob_many

_LINEAR_BRACKET_MIN = 0.35
_LOG_FLOOR = math.log(1e-300)
_COARSE_WIDTH = 1e-3
_REL_TOL = 1e-12    # gamma_median's residual target,
_ABS_TOL = 1e-14    # its bracket-width floor,
_MAX_EVALS = 200    # and its solver's budget of Q evaluations


@dataclass(frozen=True)
class MedianResult:
    """A solved gamma median with its offset from the mean.

    residual is |Q(a, median) - 1/2| at the returned point.  The offset
    lies strictly inside (-1/3, 0), and that containment is validated here.
    An offset that escapes by more than STRICT_MARGIN ulps of a would
    contradict the bracket theorem; one that escapes by less is a precision
    limit (ConvergenceError), since the bracket end a - 1/3 itself rounds by
    up to half an ulp of a, and from a ~ 3e7 the median lies closer to
    a - 1/3 than that.
    """

    a: float
    median: float
    offset: float
    residual: float

    def __post_init__(self) -> None:
        if -ONE_THIRD < self.offset < 0.0:
            return
        escape = max(-ONE_THIRD - self.offset, self.offset)
        slack = math.ulp(self.a)
        if escape > STRICT_MARGIN * slack:
            raise CertificationError(
                f"median offset {self.offset!r} for a={self.a!r} escapes "
                "(-1/3, 0), contradicting the bracket theorem")
        raise ConvergenceError(
            f"median offset {self.offset!r} for a={self.a!r} escapes (-1/3, "
            f"0) only by {escape!r}, within {STRICT_MARGIN:g} ulps of a: the "
            "rounding of the bracket ends", n_iter=0)


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
                 f_lo: float, f_hi: float, n: int = 0
                 ) -> tuple[float, float, int]:
    """Root of fn on a sign-changing bracket: bisection to a coarse width,
    then secant/inverse-quadratic refinement kept inside the bracket.

    Returns (root, fn(root), n_evals), counting from the n evaluations
    already spent.  fn must be finite on [lo, hi] with f_lo > 0 > f_hi.
    Raises ConvergenceError when _MAX_EVALS evaluations leave the bracket
    wider than the target.
    """
    while hi - lo > _COARSE_WIDTH and n < _MAX_EVALS:
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
    while n < _MAX_EVALS:
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
        if hi - lo <= 8.0 * _ABS_TOL + 4.0 * (abs(lo) + abs(hi)) * 1.1e-16:
            return best_x, best_f, n
    raise ConvergenceError(
        f"median root bracket [{lo!r}, {hi!r}] still wider than the target "
        f"after {n} evaluations", n_iter=n)


def _asymptotic_median(a: float) -> float:
    """The median's expansion a - 1/3 + 8/(405a) + 184/(25515a^2)
    + 2248/(3444525a^3) - 19006408/(15345358875a^4) (Choi 1994, Proc. AMS
    121; Berg & Pedersen 2006, Methods Appl. Anal. 13).  From a = 0.35 on
    it is within 4.6e-4/a^5 of the median (checked against mpmath), plus
    the rounding of the sum."""
    return a - ONE_THIRD + (8.0 / 405.0 + (184.0 / 25515.0 + (
        2248.0 / 3444525.0 - 19006408.0 / 15345358875.0 / a) / a) / a) / a


def _small_shape_log_median(a: float) -> tuple[float, float]:
    """A guess at ln m for a < 0.35, and the first step of the search
    from it.

    P(a, x) ~ x^a / Gamma(a + 1) for small x gives t0 = (lnGamma(1 + a)
    - ln 2) / a, and the next term of the series corrects it to
    t1 = t0 + exp(t0) / (a + 1).  lnGamma(1 + a) comes from _lgamma1p: the
    platform lgamma's error near its zero at 1, divided by a, would cost up
    to 4 ulps of t at a = 0.002.  Against mpmath at 50 digits, t1 is within
    0.72 exp(2 t0) + 2 ulps of ln m from a = 1.0045e-3 to 0.35: 2e-13 at
    a = 0.05, 2.2e-7 at 0.1, 2.4e-3 at 0.3 and 4.6e-3 at 0.349, where
    exp(2 t0) is 3.1e-13, 3.5e-7, 4.8e-3 and 9.7e-3.  The first step,
    0.3 exp(2 t0) but at least 4 ulps of t1, is about half that error, so
    one or two steps cross the root.
    """
    t0 = (_lgamma1p(a) - math.log(2.0)) / a
    guess = t0 + math.exp(t0) / (a + 1.0)
    return guess, max(0.3 * math.exp(2.0 * t0), 4.0 * math.ulp(guess))


def _root_from_guess(fn: Callable[[float], float], guess: float, step: float,
                     lo: float, hi: float, f_lo: float, f_hi: float
                     ) -> tuple[float, float, int]:
    """Root of fn on a sign-changing bracket, searched outward from a guess.

    Probes fn at guess (clamped into [lo, hi]) and then steps away from it
    toward the sign change by step, 2 * step, 4 * step, ..., until a probe
    flips the sign or the next step would reach the bracket's end.  The
    bracket left, about as wide as the guess's error, goes to _hybrid_root.
    Returns (root, fn(root), n_evals) as _hybrid_root does; every probe
    counts toward _MAX_EVALS.
    """
    x = min(max(guess, lo), hi)
    n = 0
    while n < _MAX_EVALS:
        f = fn(x)
        n += 1
        if f == 0.0:
            return x, 0.0, n
        if f > 0.0:
            lo, f_lo = x, f
            x = lo + step
        else:
            hi, f_hi = x, f
            x = hi - step
        if hi - lo <= step:
            return _hybrid_root(fn, lo, hi, f_lo, f_hi, n)
        step *= 2.0
    raise ConvergenceError(
        f"median search from {guess!r} found no sign change in [{lo!r}, "
        f"{hi!r}] after {n} evaluations", n_iter=n)


def _bracket_margins(a: float) -> tuple[tuple[float, float], ...]:
    """(margin, err_bound) of 1/2 - Q(a, a) and Q(a, a - 1/3) - 1/2; both
    margins are positive by the bracket theorem."""
    at_mean = tail_prob_detail(TailQuery(a, 0.0))
    at_third = tail_prob_detail(TailQuery(a, -ONE_THIRD))
    return ((0.5 - at_mean.value, at_mean.err_bound),
            (at_third.value - 0.5, at_third.err_bound))


def _bracket_failure(a: float, bracket: str) -> NoReturn:
    """Raise for a median bracket whose raw endpoint signs failed: a
    certification error if a bracket margin is wrong by more than
    STRICT_MARGIN times its bound, an inconclusive ConvergenceError
    otherwise."""
    margins = _bracket_margins(a)
    for margin, err in margins:
        if margin < -STRICT_MARGIN * err:
            raise CertificationError(
                f"median bracket {bracket} sign check failed at a={a!r}: "
                f"margin {margin!r} with error bound {err!r} contradicts the "
                "bracket theorem")
    raise ConvergenceError(
        f"median bracket {bracket} sign check at a={a!r} failed only inside "
        "the evaluation error: (margin, error bound) "
        + ", ".join(f"({m!r}, {e!r})" for m, e in margins), n_iter=2)


def gamma_median(a: float) -> MedianResult:
    """The median of a gamma variable with shape a, to residual 1e-12.

    A root of Q(a, m) = 1/2 inside [a - 1/3, a], searched outward from the
    asymptotic median once both endpoint signs hold (in log space on
    [1e-300, a], from the small-shape guess, when a < 0.35); the
    refinement stops once the bracket is narrower than about 8e-14 plus a
    few ulps.  A bracket endpoint whose sign is wrong by more than
    STRICT_MARGIN times its error bound raises CertificationError; one wrong
    only within that bound, a residual that will not meet 1e-12, or a solver
    budget run out raises ConvergenceError (with an evaluation count in
    n_iter), and so does a root that escapes the bracket only by rounding
    (n_iter 0).  A shape whose median lies below the 1e-300 floor raises
    DomainError.
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
            _bracket_failure(a, "[a-1/3, a]")
        # The first step is about half the guess's worst error, so one or
        # two steps cross the root, and never under a few ulps of a.
        median, f_root, n_evals = _root_from_guess(
            f_linear, _asymptotic_median(a),
            max(2.5e-4 / a ** 5, 4.0 * math.ulp(a)),
            lo, hi, f_lo, f_hi)
    else:
        def f_log(t: float) -> float:
            return reg_gamma_q(a, math.exp(t)) - 0.5

        t_lo, t_hi = _LOG_FLOOR, math.log(a)
        f_lo, f_hi = f_log(t_lo), f_log(t_hi)
        if not f_lo > 0.0:
            raise DomainError(
                f"gamma_median: at a={a!r} the median lies below the solver's "
                f"floor 1e-300 (Q(a, 1e-300) = {f_lo + 0.5!r} <= 1/2); shapes "
                "below about 1.0043e-3 are not supported")
        if not 0.0 > f_hi:
            _bracket_failure(a, "(0, a]")
        guess, step = _small_shape_log_median(a)
        t_root, f_root, n_evals = _root_from_guess(
            f_log, guess, step, t_lo, t_hi, f_lo, f_hi)
        median = math.exp(t_root)

    residual = abs(f_root)
    if residual > _REL_TOL:
        # An unreachable target contradicts nothing: the bracket held.
        raise ConvergenceError(
            f"median residual {residual!r} at a={a!r} exceeds the target "
            f"{_REL_TOL!r} after {n_evals} evaluations", n_iter=n_evals)
    return MedianResult(a=a, median=median, offset=median - a,
                        residual=residual)


def check_median_bracket(a_grid: Sequence[float]) -> MedianBracketReport:
    """Certify Q(a, a) < 1/2 < Q(a, a - 1/3) with margins over a grid.

    Each strict inequality is certified only when its margin exceeds
    STRICT_MARGIN (8) times the evaluation error bound; the report's
    min_margin_ratio is the smallest margin/error ratio encountered.
    The grid must be 1-D, and an empty one is rejected rather than
    certified vacuously.  The margins come from one tail_prob_many call
    with each shape's two bracket ends as adjacent lanes, each lane
    bit-identical to _bracket_margins, so a failure raises the first error
    a loop of _bracket_margins calls raises.
    """
    import numpy as np

    from ._lanes import _ordered_extreme

    a = np.asarray(a_grid, dtype=float)
    if a.ndim != 1:
        raise DomainError("check_median_bracket takes a 1-D grid of shapes")
    if not a.size:
        raise DomainError("check_median_bracket requires a non-empty grid")
    p, errs = (v.reshape(-1, 2) for v in tail_prob_many(
        np.repeat(a, 2), np.tile((0.0, -ONE_THIRD), a.size)))
    margins = np.stack((0.5 - p[:, 0], p[:, 1] - 0.5), axis=1)
    # margin / max(err, 1e-300), and the builtin min over them in grid order.
    ratios = margins / np.where(1e-300 > errs, 1e-300, errs)
    min_ratio = _ordered_extreme(min, math.inf, ratios)
    certified = bool(np.all((margins > 0.0) & (ratios > STRICT_MARGIN)))
    entries = tuple(map(MedianBracketCheck, a.tolist(), *margins.T.tolist(),
                        *errs.T.tolist()))
    return MedianBracketReport(entries=entries, certified=certified,
                               min_margin_ratio=min_ratio)
