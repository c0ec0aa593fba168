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

ScanSpec builds every shape grid of scans, certification and acceptance.
The scalar functions import the standard library alone; ScanSpec.grid,
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
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from .errors import DomainError, GammaTailError
from .specfun import (
    BranchRoots,
    EPS,
    _ROOT_ABS_TOL,
    _at_least,
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


@dataclass(frozen=True)
class TailQuery:
    """Shape and centering offset for a tail probability request."""

    a: float
    c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.c)):
            raise DomainError("TailQuery requires finite a and c")
        if self.a <= 0.0:
            raise DomainError("TailQuery requires shape a > 0")


@dataclass(frozen=True)
class TailValue:
    """A tail probability with an error bound and the kernel that made it."""

    value: float
    err_bound: float
    method: str


@dataclass(frozen=True)
class RatioParts:
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


@dataclass(frozen=True)
class ScanSpec:
    """n shapes from a_min to a_max, evenly spaced in log10(a) or in a."""

    a_min: float
    a_max: float
    n: int
    scale: str = "log"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a_min) and math.isfinite(self.a_max)):
            raise DomainError("scan bounds must be finite")
        if not (0.0 < self.a_min < self.a_max):
            raise DomainError("scan bounds must satisfy 0 < a_min < a_max")
        try:
            n = operator.index(self.n)
        except TypeError:
            raise DomainError("scan needs a whole number of points") from None
        if n < 3:
            raise DomainError("scan needs at least 3 points")
        # A numpy integer is kept as an int, so verdicts serialize to JSON.
        object.__setattr__(self, "n", n)
        if self.scale not in ("linear", "log"):
            raise DomainError("scan scale must be 'linear' or 'log'")

    def grid(self) -> tuple[float, ...]:
        return tuple(self._grid_array().tolist())

    def _grid_array(self) -> np.ndarray:
        """The grid as a float array, a_min and a_max exact.  Log point i is
        one libm pow, 10 ** (l0 + (l1 - l0) i / (n - 1)) with l = log10 of
        the ends, whose exponents numpy's + - * / round alike on every SIMD
        path.  A range too narrow for n increasing doubles is rejected."""
        import numpy as np

        if self.scale == "linear":
            grid = np.linspace(self.a_min, self.a_max, self.n)
        else:
            l0, l1 = math.log10(self.a_min), math.log10(self.a_max)
            expo = l0 + (l1 - l0) * np.arange(1, self.n - 1) / (self.n - 1)
            try:
                inner = [10.0 ** e for e in expo.tolist()]
            except OverflowError:       # inf steps back to a_max: rejected
                inner = [math.inf]
            grid = np.array([self.a_min, *inner, self.a_max])
        if not np.all(grid[:-1] < grid[1:]):
            raise DomainError(f"scan range is too narrow for {self.n} "
                              "strictly increasing shapes")
        return grid


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

        zeros, ones = [0.0] * len(lanes), [1.0] * len(lanes)
        # An integrand past the double range is inf: QuadratureError.
        with np.errstate(over="ignore"):
            heads = integrate_many(head_fn, zeros, ones,
                                   rel_tol=_RATIO_REL_TOL)
            tails = integrate_many(tail_fn, zeros, ones,
                                   rel_tol=_RATIO_REL_TOL)
        return [_ratio_parts_of(u_i, c_i, head, tail) for (u_i, c_i), head,
                tail in zip(lanes, heads, tails)]
    except GammaTailError:
        if len(lanes) > 1:
            for u_i, c_i in lanes:
                ratio_parts_many(u_i, c_i)
        raise


def _ratio_parts_of(u: float, c: float, head, tail) -> RatioParts:
    """RatioParts from the head and tail QuadResults, both above 0.

    An integral of 0 is an underflow only if its integrand's peak, m e^-(1+c)
    at x = 1 for substitution order m (inf once e^-(1+c) overflows), is
    below the normal range; otherwise the quadrature missed a peak about
    u^(-1/2) wide.
    """
    for name, part, order in (("head", head, u), ("tail", tail, u + c)):
        if not part.value > 0.0:
            peak = (_substitution_order(order) * math.exp(-(1.0 + c))
                    if c > -_LOG_MAX else math.inf)
            if peak >= _MIN_NORMAL:
                raise DomainError(
                    f"ratio_parts at u={u!r}, c={c!r}: the quadrature misses "
                    f"the {name} integrand's peak {peak!r} at x = 1, about "
                    "u**-0.5 wide")
            raise DomainError(f"ratio_parts at u={u!r}, c={c!r}: an "
                              "integral underflows to 0")
    ratio = head.value / tail.value
    ratio_err = (head.err_bound / tail.value
                 + ratio * tail.err_bound / tail.value)
    return RatioParts(u=u, c=c,
                      head_integral=head.value, tail_integral=tail.value,
                      ratio=ratio, head_err=head.err_bound,
                      tail_err=tail.err_bound, ratio_err=ratio_err)


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
