"""Centered gamma tail probabilities and their integral-identity companions.

For a gamma variable X_a with shape a (unit rate), the central quantity is

    tail_prob(a, c) = P(X_a - a > c) = Q(a, a + c),

the probability that X_a exceeds its mean by more than c.  tail_prob_many
evaluates it for many shapes at one c in one batched kernel pass, each
value bit-identical to the one-shape evaluation.  The companions
implement an equivalent representation used to reason about how tail_prob
moves with the shape: with f(x) = x e^(1-x) and u = a - 1,

    head_integral(u) = integral_0^1   f(x)^u e^(-(1+c)x) dx,
    tail_integral(u) = integral_1^inf f(x)^u e^(-(1+c)x) dx,

and tail_prob(a, c) = 1 / (1 + head_integral/tail_integral).  On the level
set f(x) = z the two preimage branches x1(z) <= 1 <= x2(z) give rise to the
integrand ratio r(z) and the direction form

    direction_form(z, c) = 1 - x1 x2 + c (1 - x1)(x2 - 1),

whose sign is opposite to the sign of dr/dz.

ScanSpec is the shape grid of scans, certification and median grids.  The
scalar functions import the standard library alone; ScanSpec.grid,
tail_prob_many and ratio_parts import numpy, the lane kernels and
quadrature when called, so a one-shape evaluation never loads them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, GammaTailError
from .specfun import (
    BranchRoots,
    EPS,
    _ROOT_ABS_TOL,
    _log_gamma_norm,
    branch_root_deriv,
    reg_gamma_q_detail,
)

if TYPE_CHECKING:
    import numpy as np

_LOG_MAX = 709.0
_RATIO_REL_TOL = 1e-10


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

    def __post_init__(self) -> None:
        if not (self.head_integral > 0.0 and self.tail_integral > 0.0):
            raise DomainError("RatioParts requires positive integrals")


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
    detail = reg_gamma_q_detail(a, x)
    # |dQ/dx| = density(x); the argument x = a + c carries a half-ulp error.
    ln_density = _log_gamma_norm(a, x) - math.log(x)
    arg_err = 0.0
    if ln_density > -_LOG_MAX:
        arg_err = math.exp(ln_density) * (0.5 * EPS * abs(x))
    return TailValue(detail.value, detail.err_bound + arg_err, detail.method)


@dataclass(frozen=True)
class ScanSpec:
    """A deterministic evaluation grid over the shape parameter."""

    a_min: float
    a_max: float
    n: int
    scale: str = "log"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a_min) and math.isfinite(self.a_max)):
            raise DomainError("scan bounds must be finite")
        if not (0.0 < self.a_min < self.a_max):
            raise DomainError("scan bounds must satisfy 0 < a_min < a_max")
        if self.n < 3:
            raise DomainError("scan needs at least 3 points")
        if self.scale not in ("linear", "log"):
            raise DomainError("scan scale must be 'linear' or 'log'")

    def grid(self) -> tuple[float, ...]:
        import numpy as np

        if self.scale == "log":
            pts = np.geomspace(self.a_min, self.a_max, self.n)
        else:
            pts = np.linspace(self.a_min, self.a_max, self.n)
        return tuple(pts.tolist())


def tail_prob_many(a, c: float) -> tuple[np.ndarray, np.ndarray]:
    """tail_prob_detail for many shapes at one offset c.

    a is a 1-D sequence of shapes; returns (values, err_bounds) arrays, each
    lane bit-identical to tail_prob_detail(TailQuery(a_i, c)).  The
    ascending series, the small-shape tail and the log prefactor's
    log1pmx and lgamma1p sums fold blocks of iterations for all lanes per
    numpy pass (_lanes._fold); the continued fraction steps all lanes one
    iteration per pass (_lanes._lockstep).  Each lane's log prefactor is
    computed once.  If any lane fails, the error raised is the first one a
    tail_prob_detail scan in lane order raises.
    """
    import numpy as np

    from ._lanes import _log_gamma_norm_lanes, _per_lane, _reg_gamma_q_lanes

    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise DomainError("tail_prob_many takes a 1-D sequence of shapes")
    c = float(c)
    with np.errstate(over="ignore"):        # overflows to inf, as floats do
        x = a + c
    values = np.ones_like(a)
    errs = np.zeros_like(a)
    live = x > 0.0
    try:
        if not np.all((a > 0.0) & np.isfinite(x)
                      & ~(live & (a + 1.0 == a))):
            raise DomainError("tail_prob_many requires shapes a > 0 with "
                              "a + c finite, and a below 2**53 off the "
                              "plateau")
        a_l, x_l = a[live], x[live]
        ln_norm = _log_gamma_norm_lanes(a_l, x_l)
        q, q_err = _reg_gamma_q_lanes(a_l, x_l, ln_norm)
    except GammaTailError:
        # Lanes of several branches may fail; the scalar scan says which
        # fails first, and how.
        for a_i in a.tolist():
            tail_prob_detail(TailQuery(a_i, c))
        raise
    ln_density = ln_norm - _per_lane(math.log, x_l)
    arg_err = _per_lane(math.exp, ln_density) * (0.5 * EPS * np.abs(x_l))
    values[live] = q
    errs[live] = q_err + np.where(ln_density > -_LOG_MAX, arg_err, 0.0)
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


def ratio_parts(u: float, c: float) -> RatioParts:
    """The split integrals of f(x)^u e^(-(1+c)x) and their ratio.

    Requires u > -1 (integrability at 0) and u + c > -1 (integrability at
    infinity; note c > -1 alone does not suffice when u < 0).  The head uses
    x = s^m; the tail maps (1, inf) to (0, 1] via x = 1 - ln t and then
    regularizes the endpoint with t = s^m, the order m chosen from the
    endpoint exponent in each case.
    """
    import numpy as np

    from ._lanes import _log1pmx_vec
    from .quadrature import integrate

    u = float(u)
    c = float(c)
    if not (math.isfinite(u) and math.isfinite(c)):
        raise DomainError("ratio_parts requires finite u and c")
    if u <= -1.0:
        raise DomainError("ratio_parts requires u > -1")
    if u + c <= -1.0:
        raise DomainError("ratio_parts requires u + c > -1 "
                          "(integrand not integrable at infinity)")

    m_head = _substitution_order(u)

    def head_fn(s: np.ndarray) -> np.ndarray:
        # x = s^m, d = x - 1.  In the bulk (d > -1/2) the exponent keeps the
        # accurate u*log1pmx(d) form.  Near s = 0, d collapses to -1 in
        # floating point, so the log is taken as m*ln s exactly instead:
        #   u*log1pmx(d) + (m-1)*ln s = (m(u+1)-1)*ln s - u*d.
        ln_s = np.log(s)
        w = m_head * ln_s
        d = np.expm1(w)
        x = np.where(d > -0.5, 1.0 + d, np.exp(w))
        d_safe = np.where(d > -0.5, d, 0.0)
        bulk = (u * _log1pmx_vec(d_safe) + (m_head - 1.0) * ln_s)
        deep = ((m_head * (u + 1.0) - 1.0) * ln_s - u * d)
        expo = (np.where(d > -0.5, bulk, deep)
                + math.log(m_head) - (1.0 + c) * x)
        return np.exp(expo)

    m_tail = _substitution_order(u + c)

    def tail_fn(s: np.ndarray) -> np.ndarray:
        # x = 1 - m*ln s, d = x - 1 >= 0.  For large d fold -u*d into the
        # ln s coefficient exactly: u*log1pmx(d) + (m(1+c)-1)*ln s
        # = u*log1p(d) + (m(u+c+1)-1)*ln s.
        ln_s = np.log(s)
        d = -m_tail * ln_s
        d_safe = np.where(d < 0.5, d, 0.0)
        bulk = (u * _log1pmx_vec(d_safe)
                + (m_tail * (1.0 + c) - 1.0) * ln_s)
        deep = (u * np.log1p(d)
                + (m_tail * (u + c + 1.0) - 1.0) * ln_s)
        expo = (np.where(d < 0.5, bulk, deep)
                + math.log(m_tail) - (1.0 + c))
        return np.exp(expo)

    head = integrate(head_fn, 0.0, 1.0, rel_tol=_RATIO_REL_TOL)
    tail = integrate(tail_fn, 0.0, 1.0, rel_tol=_RATIO_REL_TOL)
    ratio = head.value / tail.value
    ratio_err = (head.err_bound / tail.value
                 + ratio * tail.err_bound / tail.value)
    return RatioParts(u=u, c=c,
                      head_integral=head.value, tail_integral=tail.value,
                      ratio=ratio, head_err=head.err_bound,
                      tail_err=tail.err_bound, ratio_err=ratio_err)


def direction_form(roots: BranchRoots, c: float) -> float:
    """1 - x1 x2 + c (1 - x1)(x2 - 1): the sign of dr/dz is opposite to it."""
    c = float(c)
    if not math.isfinite(c):
        raise DomainError("direction_form requires finite c")
    return 1.0 - roots.x1 * roots.x2 + c * (1.0 - roots.x1) * (roots.x2 - 1.0)


def direction_form_detail(roots: BranchRoots, c: float) -> tuple[float, float]:
    """direction_form with an error bound propagated from the root errors.

    Each root solves w e^w = v to a residual of a few eps, which maps to a
    root error of roughly eps * x / |1 - x|; that error is pushed through
    the partial derivatives of the form.
    """
    x1, x2 = roots.x1, roots.x2
    value = direction_form(roots, c)
    gap1 = max(1.0 - x1, _ROOT_ABS_TOL)
    gap2 = max(x2 - 1.0, _ROOT_ABS_TOL)
    err_x1 = 4.0 * EPS * x1 / gap1
    err_x2 = 4.0 * EPS * x2 / gap2
    d_dx1 = abs(-x2 - c * gap2)
    d_dx2 = abs(-x1 + c * gap1)
    scale = 1.0 + abs(x1 * x2) + abs(c) * gap1 * gap2
    err = d_dx1 * err_x1 + d_dx2 * err_x2 + 4.0 * EPS * scale
    return value, err


def integrand_ratio(roots: BranchRoots, c: float) -> float:
    """r(z) = [x1' e^(-(1+c)x1)] / [-x2' e^(-(1+c)x2)] > 0.

    Evaluated in log space; values beyond the double range saturate to inf
    (r grows like e^((1+c)x2) for small z).
    """
    c = float(c)
    if not math.isfinite(c):
        raise DomainError("integrand_ratio requires finite c")
    d1 = branch_root_deriv(roots, 1)
    d2 = branch_root_deriv(roots, 2)
    ln_r = (math.log(d1) - math.log(-d2)
            + (1.0 + c) * (roots.x2 - roots.x1))
    if ln_r > _LOG_MAX:
        return math.inf
    return math.exp(ln_r)

