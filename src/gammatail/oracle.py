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

From a = 16 each integral is taken in the offset s = t - r from its
reference r (the peak t0 = a - 1, or x beyond it), so that its nodes carry
the rounding of s, not of t.  Each referenced and direct interval ends, on
each side, where the exponent h(t) = (a - 1) ln t - t has fallen _DROP = 36
below its largest value there, placed by per-lane math calls.  For a >= 1,
h is concave and the mass past an end T is at most e^h(T) / |h'(T)|, so
each side loses at most e^-36 / (1 - e^-36) < 3e-16 of its integral; for
a < 1 the integrand falls at least as fast as e^-(t - m) from its largest
value at m, and the loss is at most 2 e^-36.  Each quadrature targets
5e-14, so a ratio of two meets 1e-13; against 40-digit mpmath the worst
lane of C01's grid errs by 2.3e-14 (a power-law head), referenced and
direct lanes by 9e-15.  Shapes up to 1e12 are taken.
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

def _referenced_exponent(s: np.ndarray, u: float | np.ndarray,
                         ref: float | np.ndarray) -> np.ndarray:
    """h(ref + s) - h(ref) for h(t) = u ln t - t, stably near s = 0 for
    u > 0; u and ref are scalars or one value per point.  The slope
    (u - ref)/ref is exact at the peak ref = u, where u/ref - 1 cancels."""
    return u * _log1pmx_vec(s / ref) + s * ((u - ref) / ref)


_A_MAX = 1e12      # the largest shape, checked against mpmath at 1e6..1e12


def _validated(a, x) -> list[np.ndarray]:
    """a and x as float lanes of their broadcast shape, once every lane
    meets oracle_gamma_q's domain."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(x))):
        raise DomainError("oracle_gamma_q requires finite arguments")
    if np.any(a <= 0.0) or np.any(x < 0.0):
        raise DomainError("oracle_gamma_q requires a > 0 and x >= 0")
    if np.any(a > _A_MAX):
        raise DomainError(f"oracle_gamma_q requires a <= {_A_MAX:g}, the "
                          f"largest shape its accuracy is checked at")
    return np.broadcast_arrays(a, x)


# Above this shape the peak-referenced scheme is safe: the integrand behaves
# like t^(a-1) at the origin, and a - 1 >= 15 keeps the endpoint effectively
# smooth for the Gauss panels.  Below it, integrals are taken in direct
# (unreferenced) form, which cannot overflow since Gamma(16) ~ 1.3e12.
_A_BIG = 16.0
# Each interval ends where the exponent has fallen this far below its
# largest value on the interval, on each side.
_DROP = 36.0


def _drop_offset(u: float, r: float) -> float:
    """An offset s > 0 with h(r + s) <= h(r) - _DROP, for h(t) = u ln t - t
    and r >= max(u, 1).  For u < 0, h' <= -1 there.  For u >= 0, h is
    concave: Newton starts inside, at its quadratic model's root, and every
    step lands past the root."""
    if u < 0.0:
        return _DROP
    b = (r - u) / r
    s = 2.0 * _DROP / (b + math.sqrt(b * b + 2.0 * _DROP * u / (r * r)))
    for _ in range(3):
        v = s / r
        s += (u * (math.log1p(v) - v) - b * s + _DROP) / (1.0 - u / (r + s))
    return s


def _left_drop_offset(u: float) -> float:
    """The offset s < 0 from the peak u >= 15 with h(u + s) <= h(u) - _DROP,
    by Newton in y = ln(t/u), where h(t) - h(u) = u (y - expm1(y)) is
    concave and has no pole: every step lands past the root."""
    y = -math.sqrt(2.0 * _DROP / u)
    for _ in range(3):
        e = math.expm1(y)
        y += (u * (y - e) + _DROP) / (u * e)
    return u * math.expm1(y)


# The forms of the gamma integrand t^(a-1) e^(-t) that the oracle
# integrates; each quadrature interval has one, with its shape a and, for
# the referenced form, its reference point.
def _referenced(s: np.ndarray, a: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """exp(h(ref + s) - h(ref)) in the offset s, for a >= _A_BIG."""
    return np.exp(_referenced_exponent(s, a - 1.0, ref))


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
    integrand's form, its shape a and reference point, and the bounds (in
    the offset from the reference for the referenced form)."""

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
    the whole integral, in the offset from the peak t0 = s - 1; below, the
    substituted integral over t in [0, 1], with a tail from t = 1."""
    big = s >= _A_BIG
    t0 = s - 1.0
    top = np.maximum(t0, 1.0)
    ends = np.array([_drop_offset(u, m)
                     for u, m in zip(t0.tolist(), top.tolist())])
    starts = np.array([_left_drop_offset(u) if b else 0.0
                       for u, b in zip(t0.tolist(), big.tolist())])
    heads = _Intervals(
        np.where(big, _REFERENCED,
                 np.where(s >= 1.0, _HEAD_QUARTIC, _HEAD_POWER)),
        s, np.where(big, t0, 1.0), starts, np.where(big, ends, 1.0))
    small = ~big
    ones = np.ones(np.count_nonzero(small))
    return heads, _Intervals(np.full(ones.size, _DIRECT), s[small], ones,
                             ones, top[small] + ends[small])


def _numerators(a: np.ndarray, x: np.ndarray, lo_of: np.ndarray,
                hi_of: np.ndarray) -> _Intervals:
    """The integral from x > 0 of the integrand of a's normalisation, whose
    referenced head or direct tail spans [lo_of, hi_of]: for a >= _A_BIG in
    the offset from the peak t0 = a - 1 for x <= t0 and from x beyond;
    below, the substituted head from x's image up to 1 for x < 1 (the tail
    is the normalisation's), else the direct integrand.  Past max(t0, 1)
    the integrand falls from x on, so x sets the end."""
    big = a >= _A_BIG
    t0 = a - 1.0
    far = x > np.maximum(t0, 1.0)
    head = ~big & (x < 1.0)
    form = np.where(big, _REFERENCED, np.where(
        head, np.where(a >= 1.0, _HEAD_QUARTIC, _HEAD_POWER), _DIRECT))
    lo = np.where(big, np.where(far, 0.0, np.maximum(x - t0, lo_of)), x)
    # x's image under the head's substitution, with the math functions.
    lo[head] = [x_i ** 0.25 if a_i >= 1.0 else math.exp(a_i * math.log(x_i))
                for a_i, x_i in zip(a[head].tolist(), x[head].tolist())]
    ends = np.array([_drop_offset(u, r)
                     for u, r in zip(t0[far].tolist(), x[far].tolist())])
    hi = hi_of.copy()
    # From x ~ 6e17 on, x + ends rounds to x; the integrand is 0 there.
    hi[far] = np.where(big[far], ends, np.maximum(
        x[far] + ends, np.nextafter(x[far], np.inf)))
    hi[head] = 1.0
    return _Intervals(form, a, np.where(big & ~far, t0, x), lo, hi)


def _integrals(iv: _Intervals) -> np.ndarray:
    """Each interval's integral, to half the oracle's target; each form's
    intervals run in one integrate_many call."""
    def values_of(idx: np.ndarray) -> list[float]:
        form, a, ref = _FORMS[iv.form[idx[0]]], iv.a[idx], iv.ref[idx]
        return [r.value for r in integrate_many(
            lambda t, k: form(t, a[k], ref[k]), iv.lo[idx], iv.hi[idx],
            rel_tol=_HALF_TOL)]

    vals = np.empty(iv.form.size)
    for i in range(len(_FORMS)):
        idx = np.flatnonzero(iv.form == i)
        if idx.size:
            vals[idx] = values_of(idx)
    return vals


def _prefactors(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(h(x) - h(t0)) for h(t) = (a - 1) ln t - t and the peak
    t0 = a - 1, on lanes, evaluated in double-double from one dd_log call,
    so that the exponent's error stays far below an ulp of the result even
    when the exponent is ~700."""
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
    any integration.  If a quadrature fails, the lanes with x > 0 are
    replayed as one-lane calls in lane order, so the QuadratureError raised
    is the one a loop of one-lane calls raises first.
    """
    a, x = _validated(a, x)
    q = np.ones(a.size)
    lanes = np.flatnonzero(x.ravel() != 0.0)
    if lanes.size:
        a_l = a.ravel()[lanes]
        x_l = x.ravel()[lanes]
        s, of = np.unique(a_l, return_inverse=True)
        heads, tails = _heads_and_tails(s)
        small = s < _A_BIG
        tail_of = np.cumsum(small) - 1 + s.size
        # Each shape's referenced head, or its direct tail below _A_BIG.
        spans = heads.hi.copy()
        spans[small] = tails.hi
        nums = _numerators(a_l, x_l, heads.lo[of], spans[of])
        try:
            vals = _integrals(_joined(heads, tails, nums))
        except QuadratureError:
            if lanes.size > 1:
                for a_i, x_i in zip(a_l.tolist(), x_l.tolist()):
                    oracle_gamma_q_many(a_i, (x_i,))
            raise
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
    keeping the relative target of 1e-13 even when the exponent is ~700.
    """
    return oracle_gamma_q_many(a, (x,))[0]


def oracle_tail_prob_many(a, c) -> list:
    """oracle_tail_prob for (a, c) lanes that broadcast together, as a
    nested list of their shape; the plateau a + c <= 0 is the x = 0 lane."""
    a, c = np.asarray(a, dtype=float), np.asarray(c, dtype=float)
    if not (np.all(np.isfinite(a) & (a > 0.0)) and np.all(np.isfinite(c))):
        raise DomainError("oracle_tail_prob requires finite a > 0 and c")
    with np.errstate(over="ignore"):
        x = a + c
    if not np.all(np.isfinite(x)):
        raise DomainError("oracle_tail_prob requires a + c within the double "
                          "range; it overflows")
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
