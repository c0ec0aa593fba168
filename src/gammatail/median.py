"""Gamma median solver built on the certified bracket median in (a-1/3, a).

The tail inequalities Q(a, a) < 1/2 < Q(a, a - 1/3) pin the median of a
gamma variable with shape a between a - 1/3 and a.  The solver treats that
bracket as a theorem and never widens the search.  When an endpoint sign
check fails, it re-evaluates the bracket margins with their error bounds,
as check_median_bracket does (the bound charges the rounding of a - 1/3),
and raises a certification error only for a margin certifiably wrong, which
would contradict the proven statement.
A wrong sign inside the bound is a precision limit and raises
ConvergenceError: from about a = 3e7 the true margin ~0.0079 a^{-3/2} falls
below the rounding of the kernel's argument.

Once both endpoint signs hold, Newton's method solves Q - 1/2 = 0 inside
the bracket: the derivative of Q in m is minus the gamma density, whose
log _log_gamma_norm already computes.  A step that would leave the sign
bracket, which shrinks with each evaluation, bisects it instead.  For
a >= 0.35 the iteration starts from the median's asymptotic expansion,
which is within 4.6e-4/a^5 of the root (0.04 at a = 0.35, 1e-4 at a = 1, a
few ulps of a from a ~ 100), so a solve costs three or four kernel calls at
large shapes, where each call is expensive.

For a < 0.35 the lower endpoint a - 1/3 is non-positive or nearly so while
the median itself collapses towards zero much faster than a (for a = 0.01
it is ~4e-31), so the root is located in t = ln m on [ln 1e-300, ln a]; the
positive lower floor is implementation policy justified by positivity of
the median, not by the bracket statement itself.  The iteration starts from
ln m ~ (lnGamma(1 + a) - ln 2) / a, from P(a, x) ~ x^a / Gamma(a + 1), with
one correction term, which is within a few ulps below a = 0.05 and within
0.005 up to 0.35.  Below about a = 1.0043e-3 the median lies under the
floor, and gamma_median rejects the shape with DomainError.

gamma_median's residual target (1e-12), its 200-evaluation budget and the
bracket check's margin are constants.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, NoReturn, Sequence

from .errors import CertificationError, ConvergenceError, DomainError
from .specfun import (ONE_THIRD, STRICT_MARGIN, _certified_sign,
                      _checked_make, _lgamma1p, _log_gamma_norm, reg_gamma_q)
from .tailprob import TailQuery, tail_prob_detail, tail_prob_many

_LINEAR_BRACKET_MIN = 0.35
_LOG_FLOOR = math.log(1e-300)
_REL_TOL = 1e-12    # gamma_median's residual target
_MAX_EVALS = 200    # and its solver's budget of Q evaluations


class _MedianResultFields(NamedTuple):
    a: float
    median: float
    offset: float
    residual: float


class MedianResult(_MedianResultFields):
    """A solved gamma median with its offset from the mean.

    residual is |Q(a, median) - 1/2| at the returned point.  The offset
    lies strictly inside (-1/3, 0), and that containment is validated here.
    An offset that escapes by more than STRICT_MARGIN ulps of a would
    contradict the bracket theorem; one that escapes by less is a precision
    limit (ConvergenceError), since the bracket end a - 1/3 itself rounds by
    up to half an ulp of a, and from a ~ 3e7 the median lies closer to
    a - 1/3 than that.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, a, median, offset, residual):
        if -ONE_THIRD < offset < 0.0:
            return super().__new__(cls, a, median, offset, residual)
        escape = max(-ONE_THIRD - offset, offset)
        slack = math.ulp(a)
        # Ulps of a, the rounding of the bracket ends: the offset has no bound.
        if escape > STRICT_MARGIN * slack:
            raise CertificationError(
                f"median offset {offset!r} for a={a!r} escapes "
                "(-1/3, 0), contradicting the bracket theorem")
        raise ConvergenceError(
            f"median offset {offset!r} for a={a!r} escapes (-1/3, "
            f"0) only by {escape!r}, within {STRICT_MARGIN:g} ulps of a: the "
            "rounding of the bracket ends", n_iter=0)


class MedianBracketCheck(NamedTuple):
    """Margins of Q(a, a) < 1/2 < Q(a, a - 1/3) at one shape."""

    a: float
    below: float        # 1/2 - Q(a, a), should be positive
    above: float        # Q(a, a - 1/3) - 1/2, should be positive
    below_err: float
    above_err: float


class MedianBracketReport(NamedTuple):
    entries: tuple[MedianBracketCheck, ...]
    certified: bool
    min_margin_ratio: float


def _asymptotic_median(a: float) -> float:
    """The median's expansion a - 1/3 + 8/(405a) + 184/(25515a^2)
    + 2248/(3444525a^3) - 19006408/(15345358875a^4) (Choi 1994, Proc. AMS
    121; Berg & Pedersen 2006, Methods Appl. Anal. 13).  From a = 0.35 on
    it is within 4.6e-4/a^5 of the median (checked against mpmath), plus
    the rounding of the sum."""
    return a - ONE_THIRD + (8.0 / 405.0 + (184.0 / 25515.0 + (
        2248.0 / 3444525.0 - 19006408.0 / 15345358875.0 / a) / a) / a) / a


def _small_shape_log_median(a: float) -> float:
    """A guess at ln m for a < 0.35.

    P(a, x) ~ x^a / Gamma(a + 1) for small x gives t0 = (lnGamma(1 + a)
    - ln 2) / a, and the next term of the series corrects it to
    t1 = t0 + exp(t0) / (a + 1).  lnGamma(1 + a) comes from _lgamma1p: the
    platform lgamma's error near its zero at 1, divided by a, would cost up
    to 4 ulps of t at a = 0.002.  Against mpmath at 50 digits, t1 is within
    0.72 exp(2 t0) + 2 ulps of ln m from a = 1.0045e-3 to 0.35: 2e-13 at
    a = 0.05, 2.2e-7 at 0.1, 2.4e-3 at 0.3 and 4.6e-3 at 0.349, where
    exp(2 t0) is 3.1e-13, 3.5e-7, 4.8e-3 and 9.7e-3.
    """
    t0 = (_lgamma1p(a) - math.log(2.0)) / a
    return t0 + math.exp(t0) / (a + 1.0)


def _newton_root(fn: Callable[[float], float],
                 density: Callable[[float], float], guess: float,
                 lo: float, hi: float) -> tuple[float, float, int]:
    """Root of the decreasing fn inside its sign bracket (lo, hi), by Newton
    steps s + fn(s)/density(s) from guess, where density = -fn' > 0.

    Each evaluation moves the end of the bracket on its side to the point,
    and a step that would leave the bracket bisects it instead.  The loop
    stops at fn(s) == 0, at a step too small to move s, or once the bracket
    holds no double strictly inside, and returns (s, fn(s), n_evals) for the
    last point evaluated.  Every evaluation counts toward _MAX_EVALS, and
    reaching it raises ConvergenceError.
    """
    s = min(max(guess, lo), hi)
    n = 0
    while n < _MAX_EVALS:
        f = fn(s)
        n += 1
        if f == 0.0:
            return s, 0.0, n
        if f > 0.0:
            lo = s
        else:
            hi = s
        s_next = s + f / density(s)
        if s_next == s:
            return s, f, n
        if not lo < s_next < hi:
            s_next = 0.5 * (lo + hi)
            if not lo < s_next < hi:
                return s, f, n
        s = s_next
    raise ConvergenceError(
        f"median Newton iteration left the bracket [{lo!r}, {hi!r}] open "
        f"after {n} evaluations", n_iter=n)


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
        sign = _certified_sign(margin, err)[0]
        if sign < 0:
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

    A root of Q(a, m) = 1/2 inside [a - 1/3, a], by Newton steps from the
    asymptotic median once both endpoint signs hold (in log space on
    [1e-300, a], from the small-shape guess, when a < 0.35), until a step
    no longer moves the iterate.  A bracket endpoint whose sign is wrong by
    more than STRICT_MARGIN times its error bound raises CertificationError;
    one wrong only within that bound, a residual that will not meet 1e-12,
    or a solver budget run out raises ConvergenceError (with an evaluation
    count in n_iter), and so does a root that escapes the bracket only by
    rounding (n_iter 0).  A shape whose median lies below the 1e-300 floor
    raises DomainError.
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
        median, f_root, n_evals = _newton_root(
            f_linear, lambda m: math.exp(_log_gamma_norm(a, m)) / m,
            _asymptotic_median(a), lo, hi)
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
        t_root, f_root, n_evals = _newton_root(
            f_log, lambda t: math.exp(_log_gamma_norm(a, math.exp(t))),
            _small_shape_log_median(a), t_lo, t_hi)
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

    Each strict inequality is certified by _certified_sign, and the
    report's min_margin_ratio is the smallest |margin| / error ratio.
    The grid must be 1-D, and an empty one is rejected rather than
    certified vacuously.  The margins come from one tail_prob_many call
    with each shape's two bracket ends as adjacent lanes, each lane
    bit-identical to _bracket_margins, so a failure raises the first error
    a loop of _bracket_margins calls raises.
    """
    import numpy as np

    a = np.asarray(a_grid, dtype=float)
    if a.ndim != 1:
        raise DomainError("check_median_bracket takes a 1-D grid of shapes")
    if not a.size:
        raise DomainError("check_median_bracket requires a non-empty grid")
    p, errs = (v.reshape(-1, 2) for v in tail_prob_many(
        np.repeat(a, 2), np.tile((0.0, -ONE_THIRD), a.size)))
    margins = np.stack((0.5 - p[:, 0], p[:, 1] - 0.5), axis=1)
    sign, min_ratio, _ = _certified_sign(margins, errs)
    entries = tuple(map(MedianBracketCheck, a.tolist(), *margins.T.tolist(),
                        *errs.T.tolist()))
    return MedianBracketReport(entries=entries,
                               certified=bool((sign > 0).all()),
                               min_margin_ratio=min_ratio)
