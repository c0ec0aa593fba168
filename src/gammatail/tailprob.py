"""Centered gamma tail probabilities and their integral-identity companions.

For a gamma variable X_a with shape a (unit rate), the central quantity is

    tail_prob(a, c) = P(X_a - a > c) = Q(a, a + c),

the probability that X_a exceeds its mean by more than c.  tail_prob_many
evaluates it for many shapes, at one c or one per shape, in one pass of Q's
lane core, each value bit-identical to the one-shape evaluation.  The
companions implement an equivalent representation used to reason about how
tail_prob moves with the shape: with f(x) = x e^(1-x) and u = a - 1,

    head_integral(u) = integral_0^1   f(x)^u e^(-(1+c)x) dx,
    tail_integral(u) = integral_1^inf f(x)^u e^(-(1+c)x) dx,

and tail_prob(a, c) = 1 / (1 + head_integral/tail_integral).  On the level
set f(x) = z the two preimage branches x1(z) <= 1 <= x2(z) give rise to the
integrand ratio r(z) and the direction form

    direction_form(z, c) = 1 - x1 x2 + c (1 - x1)(x2 - 1),

whose sign is opposite to the sign of dr/dz.

ScanSpec builds every shape grid of scans, certification and acceptance,
and _default_scan gives the scan of an offset that names no range.  The
scalar functions and ScanSpec import the standard library alone;
tail_prob_many and ratio_parts(_many) import numpy, the lane kernels and
quadrature when called, so a one-shape evaluation never loads them.
direction_form(_detail) and integrand_ratio take a BranchRoots or the lanes
of _lanes.branch_roots_many, with one offset or one per lane; on lanes each
value is bit-identical to the scalar call.
"""
from __future__ import annotations

import math
import operator
import sys
from functools import partial
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import DomainError, GammaTailError
from .specfun import (
    BranchRoots,
    EPS,
    _ROOT_ABS_TOL,
    _at_least,
    _checked_make,
    _log_gamma_norm,
    _q_detail,
    branch_root_deriv,
)

if TYPE_CHECKING:
    import numpy as np

_LOG_MAX = 709.0
_LOG_DBL_MAX = math.log(sys.float_info.max)
_MIN_NORMAL = 2.0 ** -1022
_RATIO_REL_TOL = 1e-10
# The largest |c| (and |u|) the direction form and the integral identity
# take: up to it, c times the roots and the exponents stay finite.
_ARG_MAX = 1e300


class _TailQueryFields(NamedTuple):
    a: float
    c: float


class TailQuery(_TailQueryFields):
    """Shape and centering offset for a tail probability request."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, a, c):
        if not (math.isfinite(a) and math.isfinite(c)):
            raise DomainError("TailQuery requires finite a and c")
        if a <= 0.0:
            raise DomainError("TailQuery requires shape a > 0")
        return super().__new__(cls, a, c)


class TailValue(NamedTuple):
    """A tail probability with an error bound and the kernel that made it."""

    value: float
    err_bound: float
    method: str


class RatioParts(NamedTuple):
    """The two integrals splitting the tail identity at x = 1.

    head_integral covers (0, 1), tail_integral covers (1, inf), and
    ratio = head_integral / tail_integral; tail_prob(u + 1, c) equals
    1 / (1 + ratio).  The *_err fields are absolute error bounds.
    """

    u: float
    c: float
    head_integral: float
    tail_integral: float
    ratio: float
    head_err: float
    tail_err: float
    ratio_err: float


def _arg_rounding_err(ln_norm, x, log_x, exp):
    """|dQ/dx| * 0.5 eps |x|, the half-ulp rounding of x = a + c charged
    through the density, given ln_norm = _log_gamma_norm(a, x) and
    log_x = ln x (the lanes pass the log their kernel took); zero below a
    density of e^-709."""
    ln_density = ln_norm - log_x
    return exp(ln_density) * (0.5 * EPS * abs(x)) * (ln_density > -_LOG_MAX)


def tail_prob_detail(query: TailQuery) -> TailValue:
    """P(X_a - a > c) with an absolute error bound.

    Exactly 1 on the plateau a + c <= 0 (the variable always exceeds a
    negative threshold).  Otherwise Q(a, a + c), with the rounding of the
    argument a + c itself charged to the bound through the density.
    """
    a = query.a
    c = query.c
    x = a + c
    if x <= 0.0:
        return TailValue(1.0, 0.0, "plateau")
    detail, ln_norm = _q_detail(a, x)
    if ln_norm is None:                 # the tail series takes none
        ln_norm = _log_gamma_norm(a, x)
    arg_err = _arg_rounding_err(ln_norm, x, math.log(x), math.exp)
    return TailValue(detail.value, detail.err_bound + arg_err, detail.method)


class _ScanSpecFields(NamedTuple):
    a_min: float
    a_max: float
    n: int
    scale: str


class ScanSpec(_ScanSpecFields):
    """n shapes from a_min to a_max, evenly spaced in log10(a) or in a."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, a_min, a_max, n, scale="log"):
        if not (math.isfinite(a_min) and math.isfinite(a_max)):
            raise DomainError("scan bounds must be finite")
        if not (0.0 < a_min < a_max):
            raise DomainError("scan bounds must satisfy 0 < a_min < a_max")
        # A numpy integer is kept as an int, so verdicts serialize to JSON.
        try:
            n = operator.index(n)
        except TypeError:
            raise DomainError("scan needs a whole number of points") from None
        if n < 3:
            raise DomainError("scan needs at least 3 points")
        if scale not in ("linear", "log"):
            raise DomainError("scan scale must be 'linear' or 'log'")
        return super().__new__(cls, a_min, a_max, n, scale)

    def grid(self) -> tuple[float, ...]:
        """The shapes in Python floats, a_min and a_max exact.  Log point i
        is one libm pow, 10 ** (l0 + (l1 - l0) i / (n - 1)) with l = log10
        of the ends; linear point i is a_min + i step with step = (a_max -
        a_min) / (n - 1), rounded as numpy's evenly spaced grid rounds it.
        A range too narrow for n increasing doubles is rejected."""
        lo, hi, last = float(self.a_min), float(self.a_max), self.n - 1
        if self.scale == "linear":
            step = (hi - lo) / last
            inner = [lo + i * step for i in range(1, last)]
        else:
            l0, l1 = math.log10(lo), math.log10(hi)
            try:
                inner = [10.0 ** (l0 + (l1 - l0) * i / last)
                         for i in range(1, last)]
            except OverflowError:   # inf steps back to a_max: rejected
                inner = [math.inf]
        grid = (lo, *inner, hi)
        if not all(map(operator.lt, grid, grid[1:])):
            raise DomainError(f"scan range is too narrow for {self.n} "
                              "strictly increasing shapes")
        return grid


def _default_scan(c: Optional[float], a_min: Optional[float] = None,
                  a_max: float = 200.0, n: int = 400,
                  scale: str = "log") -> ScanSpec:
    """The scan of offset c, for the bounds a caller leaves out: from 0.01
    past the plateau edge max(-c, 0) (c is read only then, and must be
    finite) to 200, 400 shapes spaced in log10(a)."""
    if a_min is None:
        if not math.isfinite(c):
            raise DomainError("c must be finite")
        a_min = 0.01 if c >= 0.0 else -c + 0.01
        if a_min >= a_max:
            raise DomainError(
                f"the default scan start a_min = {a_min!r}, 0.01 past the "
                f"plateau edge max(-c, 0), is not below a_max = {a_max!r}, "
                "so a_max must exceed max(-c, 0) + 0.01")
    return ScanSpec(a_min, a_max, n, scale)


def tail_prob_many(a, c) -> tuple[np.ndarray, np.ndarray]:
    """tail_prob_detail for many shapes, at one offset c or one per shape.

    a is a 1-D sequence of shapes and c a number or a sequence as long as
    a; returns (values, err_bounds) arrays, each lane bit-identical to
    tail_prob_detail(TailQuery(a_i, c_i)): the kernel is Q's lane core
    (_lanes._reg_gamma_q_core) at x = max(a + c, 0), so a plateau lane is
    its x = 0 lane, and the argument charge is _arg_rounding_err on the
    other lanes, from the ln x and the log prefactor the core took.  If
    any lane fails, the error raised is the first one a tail_prob_detail
    scan in lane order raises.
    """
    import numpy as np

    from ._lanes import _exp, _reg_gamma_q_core

    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    if a.ndim != 1:
        raise DomainError("tail_prob_many takes a 1-D sequence of shapes")
    if c.ndim and c.shape != a.shape:
        raise DomainError("tail_prob_many takes one offset, or one per shape")
    with np.errstate(over="ignore"):        # overflows to inf, as floats do
        x = a + c
    # The plateau a + c <= 0 becomes x = 0.  NaN and -inf (c = -inf) stay,
    # so they fail the core's domain check as they fail TailQuery's.
    np.maximum(x, 0.0, out=x, where=x > -np.inf)
    try:
        values, errs, live, ln_norm, log_x = _reg_gamma_q_core(a, x)
    except GammaTailError:
        # Lanes of several branches may fail; the scalar scan says which
        # fails first, and how.
        for a_i, c_i in zip(a.tolist(), np.broadcast_to(c, a.shape).tolist()):
            tail_prob_detail(TailQuery(a_i, c_i))
        raise
    errs[live] += _arg_rounding_err(ln_norm, x[live], log_x, _exp)
    return values, errs


def tail_prob(query: TailQuery) -> float:
    """P(X_a - a > c), in [0, 1]; equals 1 exactly iff a + c <= 0."""
    return tail_prob_detail(query).value


def _substitution_order(exponent_at_zero: float) -> int:
    """Power m for t = s^m so the transformed endpoint exponent is >= 3.

    The raw integrands behave like t^e at their singular endpoint; the
    substitution turns that into s^(m(e+1)-1), and an origin exponent of at
    least 3 keeps adaptive bisection converging at a healthy rate.
    """
    return max(4, math.ceil(4.0 / (exponent_at_zero + 1.0)))


def _log_tail_peak(u: float, c: float) -> float:
    """ln of the tail integrand's largest value as the quadrature sees it,
    for c < -1 (so u > 0), where it also bounds the head's.

    With x = 1 + d and substitution order m the tail integrand is
    m e^(d/m) f(x)^u e^-(1+c)x, largest at x = u / (u + c + 1 - 1/m),
    where its log is ln m - 1/m + u ln x, ln x taken as log1p(x - 1) so
    that it stays accurate near x = 1.  The head's is largest at x = 1,
    m e^-(1+c) with m = 4, which is no larger.
    """
    m = _substitution_order(u + c)
    ln_x = math.log1p((1.0 / m - (1.0 + c)) / ((u + c) + 1.0 - 1.0 / m))
    return math.log(m) - 1.0 / m + u * ln_x


def _check_ratio_args(u: float, c: float) -> None:
    if not (abs(u) <= _ARG_MAX and abs(c) <= _ARG_MAX):
        raise DomainError("ratio_parts requires |u| and |c| <= 1e300")
    if u <= -1.0:
        raise DomainError("ratio_parts requires u > -1")
    if u + c <= -1.0:
        raise DomainError("ratio_parts requires u + c > -1 "
                          "(integrand not integrable at infinity)")
    ln_peak = _log_tail_peak(u, c) if c < -1.0 else 0.0
    if ln_peak > _LOG_DBL_MAX:
        raise DomainError(
            f"ratio_parts at u={u!r}, c={c!r}: the tail integrand's peak "
            f"e**{ln_peak:.6g} lies past the double range")


def ratio_parts_many(u, c) -> list[RatioParts]:
    """ratio_parts for lanes (u, c) that broadcast together, in lane order.

    Every lane's head runs in one integrate_many call and every tail in
    another, each integrand taking its lane's u, c, substitution order m and
    ln m per interval; the engine integrates each interval as it would
    alone, so each result equals the lane's one-lane call field for field.
    If any lane fails, the lanes are replayed one at a time, so the error
    raised is the first one a loop of ratio_parts calls raises.
    """
    import numpy as np

    from ._lanes import _log, _log1pmx_vec
    from .quadrature import integrate_many

    u, c = (v.ravel() for v in np.broadcast_arrays(
        np.asarray(u, dtype=float), np.asarray(c, dtype=float)))
    lanes = list(zip(u.tolist(), c.tolist()))
    try:
        for u_i, c_i in lanes:
            _check_ratio_args(u_i, c_i)
        m_head = np.array([_substitution_order(u_i) for u_i, _ in lanes],
                          dtype=float)
        m_tail = np.array([_substitution_order(u_i + c_i)
                           for u_i, c_i in lanes], dtype=float)
        ln_head, ln_tail = _log(m_head), _log(m_tail)

        def head_fn(s: np.ndarray, k: np.ndarray) -> np.ndarray:
            k = k // 2                  # two intervals per lane
            # x = s^m, d = x - 1.  In the bulk (d > -1/2) the exponent keeps
            # the accurate u*log1pmx(d) form.  Near s = 0, d collapses to -1
            # in floating point, so the log is taken as m*ln s exactly
            # instead: u*log1pmx(d) + (m-1)*ln s = (m(u+1)-1)*ln s - u*d.
            u_k, m_k = u[k], m_head[k]
            ln_s = np.log(s)
            w = m_k * ln_s
            d = np.expm1(w)
            x = np.where(d > -0.5, 1.0 + d, np.exp(w))
            d_safe = np.where(d > -0.5, d, 0.0)
            bulk = (u_k * _log1pmx_vec(d_safe) + (m_k - 1.0) * ln_s)
            deep = ((m_k * (u_k + 1.0) - 1.0) * ln_s - u_k * d)
            expo = (np.where(d > -0.5, bulk, deep)
                    + ln_head[k] - (1.0 + c[k]) * x)
            return np.exp(expo)

        def tail_fn(s: np.ndarray, k: np.ndarray) -> np.ndarray:
            # x = 1 - m*ln s, d = x - 1 >= 0.  For large d fold -u*d into
            # the ln s coefficient exactly: u*log1pmx(d) + (m(1+c)-1)*ln s
            # = u*log1p(d) + (m(u+c+1)-1)*ln s.
            k = k // 2
            u_k, c_k, m_k = u[k], c[k], m_tail[k]
            ln_s = np.log(s)
            d = -m_k * ln_s
            d_safe = np.where(d < 0.5, d, 0.0)
            bulk = (u_k * _log1pmx_vec(d_safe)
                    + (m_k * (1.0 + c_k) - 1.0) * ln_s)
            deep = (u_k * np.log1p(d)
                    + (m_k * (u_k + c_k + 1.0) - 1.0) * ln_s)
            expo = (np.where(d < 0.5, bulk, deep)
                    + ln_tail[k] - (1.0 + c_k))
            return np.exp(expo)

        # Each part over [0, 5/8] and [5/8, 1]: the panels next to s = 1,
        # where both integrands peak about u**-0.5 / m wide, start 1/8 wide,
        # so their nodes see the peak up to u near 6.5e8 at c = 0.
        los, his = [0.0, 0.625] * len(lanes), [0.625, 1.0] * len(lanes)
        # An integrand past the double range is inf: QuadratureError.
        with np.errstate(over="ignore"):
            heads = integrate_many(head_fn, los, his, rel_tol=_RATIO_REL_TOL)
            tails = integrate_many(tail_fn, los, his, rel_tol=_RATIO_REL_TOL)
        return [_ratio_parts_of(u_i, c_i, heads[2 * i:2 * i + 2],
                                tails[2 * i:2 * i + 2])
                for i, (u_i, c_i) in enumerate(lanes)]
    except GammaTailError:
        if len(lanes) > 1:
            for u_i, c_i in lanes:
                ratio_parts_many(u_i, c_i)
        raise


def _ratio_parts_of(u: float, c: float, heads, tails) -> RatioParts:
    """RatioParts from the head's and the tail's two QuadResults.

    Each part is at least its integral over the width w next to x = 1, w =
    1/2 up to u = 4 and u^(-1/2) past it, where f(x)^u >= e^-1 and
    e^-(1+c)x >= e^(-(1+c) - |1+c| w).  A part whose value and bound stay
    below w e^(-1 - (1+c) - |1+c| w), or that is 0 while its peak m e^-(1+c)
    at x = 1 (substitution order m; inf once e^-(1+c) overflows) is normal,
    missed that peak, about u^(-1/2) wide.  Any other part of 0 is an
    underflow.
    """
    (head, head_err), (tail, tail_err) = (
        (lo.value + hi.value, lo.err_bound + hi.err_bound)
        for lo, hi in (heads, tails))
    width = 0.5 if u <= 4.0 else u ** -0.5
    floor = math.exp(min(math.log(width) - 1.0 - (1.0 + c)
                         - abs(1.0 + c) * width, _LOG_DBL_MAX))
    for name, part, err, order in (("head", head, head_err, u),
                                   ("tail", tail, tail_err, u + c)):
        if part > 0.0 and part + err >= floor:
            continue
        peak = (_substitution_order(order) * math.exp(-(1.0 + c))
                if c > -_LOG_MAX else math.inf)
        if part + err < floor or peak >= _MIN_NORMAL:
            raise DomainError(
                f"ratio_parts at u={u!r}, c={c!r}: the quadrature misses "
                f"the {name} integrand's peak {peak!r} at x = 1, about "
                "u**-0.5 wide")
        raise DomainError(f"ratio_parts at u={u!r}, c={c!r}: an "
                          "integral underflows to 0")
    ratio = head / tail
    ratio_err = head_err / tail + ratio * tail_err / tail
    return RatioParts(u=u, c=c, head_integral=head, tail_integral=tail,
                      ratio=ratio, head_err=head_err, tail_err=tail_err,
                      ratio_err=ratio_err)


def ratio_parts(u: float, c: float) -> RatioParts:
    """The split integrals of f(x)^u e^(-(1+c)x) and their ratio.

    Requires u > -1 (integrability at 0) and u + c > -1 (integrability at
    infinity; note c > -1 alone does not suffice when u < 0).  The head uses
    x = s^m; the tail maps (1, inf) to (0, 1] via x = 1 - ln t and then
    regularizes the endpoint with t = s^m, the order m chosen from the
    endpoint exponent in each case.  An integrand whose peak lies past the
    double range, possible only for c < -1, raises DomainError before any
    quadrature runs.  The one-lane call of ratio_parts_many.
    """
    return ratio_parts_many(float(u), float(c))[0]


def _offset(roots, c, name: str):
    """c as a float for a BranchRoots, or as a float array (or 0-d array)
    that broadcasts against branch_roots_many's lanes; DomainError unless
    every |c| <= 1e300."""
    if isinstance(roots, BranchRoots):
        c = float(c)
        inside = abs(c) <= _ARG_MAX
    else:
        import numpy as np

        c = np.asarray(c, dtype=float)
        inside = np.all(np.abs(c) <= _ARG_MAX)
    if not inside:
        raise DomainError(f"{name} requires finite c, |c| <= 1e300")
    return c


def direction_form(roots: BranchRoots, c: float) -> float:
    """1 - x1 x2 + c (1 - x1)(x2 - 1): the sign of dr/dz is opposite to it.
    On branch_roots_many's lanes (c one value or one per lane), an array,
    each lane bit-identical to the scalar call."""
    c = _offset(roots, c, "direction_form")
    return 1.0 - roots.x1 * roots.x2 + c * (1.0 - roots.x1) * (roots.x2 - 1.0)


def direction_form_detail(roots: BranchRoots, c: float) -> tuple[float, float]:
    """direction_form with an error bound propagated from the root errors.

    Each root solves w e^w = v to a residual of a few eps, which maps to a
    root error of roughly eps * x / |1 - x|; that error is pushed through
    the partial derivatives of the form.  On branch_roots_many's lanes, a
    pair of arrays, each lane bit-identical to the scalar call.
    """
    c = _offset(roots, c, "direction_form")
    x1, x2 = roots.x1, roots.x2
    value = direction_form(roots, c)
    gap1 = _at_least(1.0 - x1, _ROOT_ABS_TOL)
    gap2 = _at_least(x2 - 1.0, _ROOT_ABS_TOL)
    err_x1 = 4.0 * EPS * x1 / gap1
    err_x2 = 4.0 * EPS * x2 / gap2
    d_dx1 = abs(-x2 - c * gap2)
    d_dx2 = abs(-x1 + c * gap1)
    scale = 1.0 + abs(x1 * x2) + abs(c) * gap1 * gap2
    err = d_dx1 * err_x1 + d_dx2 * err_x2 + 4.0 * EPS * scale
    return value, err


def _saturated_exp(ln_r: float) -> float:
    """exp(ln_r), or inf beyond a ratio of e^709."""
    if ln_r > _LOG_MAX:
        return math.inf
    return math.exp(ln_r)


def integrand_ratio(roots: BranchRoots, c: float) -> float:
    """r(z) = [x1' e^(-(1+c)x1)] / [-x2' e^(-(1+c)x2)] > 0.

    Evaluated in log space; values beyond the double range saturate to inf
    (r grows like e^((1+c)x2) for small z), and below it to 0.  On
    branch_roots_many's lanes (c one value or one per lane), an array, each
    lane bit-identical to the scalar call.
    """
    c = _offset(roots, c, "integrand_ratio")
    if isinstance(roots, BranchRoots):
        log, exp = math.log, _saturated_exp
    else:
        from ._lanes import _log, _per_lane

        log, exp = _log, partial(_per_lane, _saturated_exp)
    d1 = branch_root_deriv(roots, 1)
    d2 = branch_root_deriv(roots, 2)
    return exp(log(d1) - log(-d2) + (1.0 + c) * (roots.x2 - roots.x1))
