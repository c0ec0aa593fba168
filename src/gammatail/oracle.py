"""Slow, independent reference implementations, for validation only.

Only the acceptance criteria and the tests import this module.  The fast
kernels in specfun are series / continued-fraction based; everything here
goes through the defining integrals (adaptive panel quadrature of the gamma
integrand in log space) and the double-double arithmetic of ``_dd`` for the
few scalars whose conditioning exceeds double precision.  No Q kernel is
shared with the fast path, so agreement between the two is meaningful
evidence of correctness; the one helper borrowed from the fast path is
_lanes' vectorized log1p(d) - d that evaluates the integrand's exponent.
oracle_tail_prob_many, the oracle's one copy of the plateau, is
oracle_gamma_q_many at x = max(a + c, 0); one-point calls are one lane.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# The mean-chain gaps live in _dd; perfbench/spans.py still traces them
# under this name, so it must stay bound to the same function object.
from ._dd import mean_gaps as oracle_mean_gaps  # noqa: F401
from ._dd import (dd_add, dd_div, dd_log, dd_log1p_small, dd_mul, dd_sub,
                  two_sum)
from ._lanes import _log1pmx_vec
from .errors import DomainError, QuadratureError
from .quadrature import integrate_many

# Every quadrature gets half the oracle's relative target of 1e-13, so a
# ratio of two of them meets it.
_HALF_TOL = 0.5 * 1e-13


# ---------------------------------------------------------------------------
# Gamma-integrand quadrature oracle.
# ---------------------------------------------------------------------------

def _referenced_exponent(t: np.ndarray, u: float | np.ndarray,
                         ref: float | np.ndarray) -> np.ndarray:
    """h(t) - h(ref) for h(t) = u ln t - t, stably for t near ref and u > 0;
    u and ref are scalars or one value per point."""
    return u * _log1pmx_vec((t - ref) / ref) + (t - ref) * (u / ref - 1.0)


def _validated(a, x) -> list[np.ndarray]:
    """a and x as float lanes of their broadcast shape, once every lane
    meets oracle_gamma_q's domain."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(x))):
        raise DomainError("oracle_gamma_q requires finite arguments")
    if np.any(a <= 0.0) or np.any(x < 0.0):
        raise DomainError("oracle_gamma_q requires a > 0 and x >= 0")
    return np.broadcast_arrays(a, x)


# Above this shape the peak-referenced scheme is safe: the integrand behaves
# like t^(a-1) at the origin, and a - 1 >= 15 keeps the endpoint effectively
# smooth for the Gauss panels.  Below it, integrals are taken in direct
# (unreferenced) form, which cannot overflow since Gamma(16) ~ 1.3e12.
_A_BIG = 16.0


# The forms of the gamma integrand t^(a-1) e^(-t) that the oracle
# integrates; each quadrature interval has one, with its shape a and, for
# the referenced form, its reference point.
def _referenced(t: np.ndarray, a: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """exp(h(t) - h(ref)), for a >= _A_BIG."""
    return np.exp(_referenced_exponent(t, a - 1.0, ref))


def _direct(t: np.ndarray, a: np.ndarray, _ref: np.ndarray) -> np.ndarray:
    """The direct integrand, for a < _A_BIG and t >= 1."""
    return np.exp((a - 1.0) * np.log(t) - t)


def _head_quartic(s: np.ndarray, a: np.ndarray,
                  _ref: np.ndarray) -> np.ndarray:
    """The head t in [0, 1] for 1 <= a < _A_BIG, in s with t = s^4: the
    integrand 4 s^(4a-1) exp(-s^4) has origin exponent 4a - 1 >= 3, which
    bisects cleanly where a fractional a - 1 < 1 would stall the refinement
    at t = 0."""
    return 4.0 * np.exp((4.0 * a - 1.0) * np.log(s) - s ** 4)


def _head_power(s: np.ndarray, a: np.ndarray,
                _ref: np.ndarray) -> np.ndarray:
    """The head t in [0, 1] for a < 1, in s = t^a: exp(-s^(1/a)), to be
    divided by a."""
    return np.exp(-np.exp(np.log(s) / a))


_FORMS = (_referenced, _direct, _head_quartic, _head_power)
_REFERENCED, _DIRECT, _HEAD_QUARTIC, _HEAD_POWER = range(len(_FORMS))


class _Intervals(NamedTuple):
    """Quadrature intervals of the gamma integrand, one lane each: the
    integrand's form, its shape a and reference point, and the bounds."""

    form: np.ndarray
    a: np.ndarray
    ref: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _joined(*parts: _Intervals) -> _Intervals:
    """The intervals of all parts, in order."""
    return _Intervals(*(np.concatenate(f) for f in zip(*parts)))


def _heads_and_tails(s: np.ndarray) -> tuple[_Intervals, _Intervals]:
    """Gamma(s)'s normalisation for distinct shapes s, as one head per
    shape and one tail per shape below _A_BIG.  For s >= _A_BIG the head is
    the whole integral, referenced at the peak t0 = s - 1; below, it is the
    substituted integral over t in [0, 1], and the tail runs from t = 1."""
    big = s >= _A_BIG
    t0 = s - 1.0
    sig = np.sqrt(s)
    heads = _Intervals(
        np.where(big, _REFERENCED,
                 np.where(s >= 1.0, _HEAD_QUARTIC, _HEAD_POWER)),
        s, np.where(big, t0, 1.0),
        np.where(big, np.maximum(0.0, t0 - 45.0 * sig - 45.0), 0.0),
        np.where(big, t0 + 45.0 * sig + 900.0, 1.0))
    small = s[~big]
    ones = np.ones_like(small)
    return heads, _Intervals(np.full(small.size, _DIRECT), small, ones, ones,
                             np.full(small.size, 901.0))


def _numerators(a: np.ndarray, x: np.ndarray,
                t_up: np.ndarray) -> _Intervals:
    """The integral from x > 0 of the integrand of a's normalisation, whose
    head ends at t_up: for a >= _A_BIG referenced at the peak t0 = a - 1
    for x <= t0 and at x beyond; below, the substituted head from x's
    image up to 1 for x < 1 (the tail is the normalisation's), else the
    direct integrand from x."""
    big = a >= _A_BIG
    t0 = a - 1.0
    near = x <= t0
    head = ~big & (x < 1.0)
    form = np.where(big, _REFERENCED, np.where(
        head, np.where(a >= 1.0, _HEAD_QUARTIC, _HEAD_POWER), _DIRECT))
    lo = x.copy()
    # x's image under the head's substitution, with the math functions.
    lo[head] = [x_i ** 0.25 if a_i >= 1.0 else math.exp(a_i * math.log(x_i))
                for a_i, x_i in zip(a[head].tolist(), x[head].tolist())]
    hi = np.where(big, np.where(near, t_up, np.maximum(t_up, x + 900.0)),
                  np.where(head, 1.0, np.maximum(901.0, x + 900.0)))
    return _Intervals(form, a, np.where(big & near, t0, np.where(big, x, 1.0)),
                      lo, hi)


def _integrals(iv: _Intervals, order: np.ndarray) -> np.ndarray:
    """Each interval's integral, to half the oracle's target.

    Each form's intervals run in one integrate_many call.  If one fails,
    the intervals are replayed one at a time in the given order, so the
    QuadratureError raised is the one the first failing interval in that
    order raises.
    """
    def values_of(idx: np.ndarray) -> list[float]:
        form, a, ref = _FORMS[iv.form[idx[0]]], iv.a[idx], iv.ref[idx]
        return [r.value for r in integrate_many(
            lambda t, k: form(t, a[k], ref[k]), iv.lo[idx], iv.hi[idx],
            rel_tol=_HALF_TOL)]

    vals = np.empty(iv.form.size)
    try:
        for i in range(len(_FORMS)):
            idx = np.flatnonzero(iv.form == i)
            if idx.size:
                vals[idx] = values_of(idx)
    except QuadratureError:
        for k in order.tolist():
            values_of(np.array([k]))
        raise
    return vals


def _prefactors(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(h(x) - h(t0)) for h(t) = (a - 1) ln t - t and the peak
    t0 = a - 1, on lanes, evaluated in double-double from one dd_log call
    so that the relative error stays near 2e-13 even when the exponent is
    ~700."""
    if not a.size:
        return a
    t0 = a - 1.0
    logs = dd_log(np.concatenate((t0, x)))
    m = x.size
    log_ratio = dd_sub((logs[0][m:], logs[1][m:]), (logs[0][:m], logs[1][:m]))
    e_dd = dd_sub(dd_mul(two_sum(a, -1.0), log_ratio), two_sum(x, -t0))
    return np.array([math.exp(hi) * (1.0 + lo)
                     for hi, lo in zip(e_dd[0].tolist(), e_dd[1].tolist())])


def oracle_gamma_q_many(a, x) -> list:
    """oracle_gamma_q(a_i, x_i) for lanes (a, x) that broadcast together,
    as a nested list of the broadcast shape.

    The normalisations of all distinct shapes and all numerators run
    through integrate_many, one call per integrand form, and the connecting
    prefactors of all x beyond the peak come from one dd_log call; each
    value equals the one-lane call exactly.  Arguments are validated before
    any integration.  A QuadratureError is the one the lowest-indexed
    failing lane raises: each shape's normalisation counts as part of its
    first lane.
    """
    a, x = _validated(a, x)
    q = np.ones(a.size)
    lanes = np.flatnonzero(x.ravel() != 0.0)
    if lanes.size:
        a_l = a.ravel()[lanes]
        x_l = x.ravel()[lanes]
        s, first, of = np.unique(a_l, return_index=True, return_inverse=True)
        heads, tails = _heads_and_tails(s)
        small = s < _A_BIG
        tail_of = np.cumsum(small) - 1 + s.size
        nums = _numerators(a_l, x_l, heads.hi[of])
        # The order a loop of one-lane calls takes the quadratures in.
        order = np.lexsort((
            np.repeat([0, 1, 2], [s.size, tails.a.size, lanes.size]),
            np.concatenate((first, first[small], np.arange(lanes.size)))))
        vals = _integrals(_joined(heads, tails, nums), order)
        num = vals[s.size + tails.a.size:]
        norm = vals[of]
        q_l = np.empty(lanes.size)
        # From _A_BIG, the numerator over the referenced normalisation,
        # times the connecting prefactor for x beyond the peak.
        big = a_l >= _A_BIG
        q_l[big] = num[big] / norm[big]
        far = big & (x_l > a_l - 1.0)
        q_l[far] = _prefactors(a_l[far], x_l[far]) * q_l[far]
        # Below, head plus tail, the head divided by its substitution's
        # scale: a for s = t^a, 1 for t = s^4 (dividing by 1.0 is exact).
        sm = ~big
        scale = np.where(a_l[sm] < 1.0, a_l[sm], 1.0)
        tail = vals[tail_of[of[sm]]]
        num_sm = np.where(x_l[sm] < 1.0, num[sm] / scale + tail, num[sm])
        q_l[sm] = num_sm / (norm[sm] / scale + tail)
        # min(max(q, 0), 1), as the builtins take it.
        q_l = np.where(0.0 > q_l, 0.0, q_l)
        q[lanes] = np.where(1.0 < q_l, 1.0, q_l)
    return q.reshape(a.shape).tolist()


def oracle_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma by direct quadrature of the
    defining integral, as a ratio of two integrals sharing one integrand.

    For x beyond the integrand peak the numerator is re-referenced at x and
    the connecting prefactor exp(h(x) - h(t0)) is evaluated in double-double,
    keeping the relative error near 2e-13 even when the exponent is ~700.
    """
    return oracle_gamma_q_many(a, (x,))[0]


def oracle_tail_prob_many(a, c) -> list:
    """oracle_tail_prob for (a, c) lanes that broadcast together, as a
    nested list of their shape; the plateau a + c <= 0 is the x = 0 lane."""
    a, c = np.asarray(a, dtype=float), np.asarray(c, dtype=float)
    if not (np.all(np.isfinite(a) & (a > 0.0)) and np.all(np.isfinite(c))):
        raise DomainError("oracle_tail_prob requires finite a > 0 and c")
    with np.errstate(over="ignore"):        # overflows to inf, as floats do
        x = a + c
    return oracle_gamma_q_many(a, np.maximum(x, 0.0))


def oracle_tail_prob(a: float, c: float) -> float:
    """P(X_a - a > c) by quadrature; exactly 1 on the plateau a + c <= 0."""
    return oracle_tail_prob_many(a, (c,))[0]


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
