"""Tests for the scalar special-function kernels.

Pinned values fall into three classes:
  * closed forms (Q(1,1) = 1/e, lgamma(0.5) = ln sqrt(pi), W0(e) = 1);
  * values frozen from the extended-precision oracle in this repository
    (the oracle itself is validated independently in test_oracle.py);
  * structural properties (monotonicity, complement identity, branch
    ordering) that hold for every argument.
"""

from __future__ import annotations

import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gammatail
from gammatail import (
    ConvergenceError,
    DomainError,
    GammaTailError,
    branch_root_deriv,
    branch_roots,
    lambert_w0,
    lambert_wm1,
    log_mean,
    refined_mean,
    reg_gamma_q,
    reg_gamma_q_detail,
    threshold_ratio,
)
from gammatail import _lanes, _series, specfun
from gammatail._dd import central_difference
from gammatail.acceptance import _kernel_grid
from gammatail.oracle import oracle_gamma_q, oracle_threshold_ratio
from gammatail.specfun import _log1pmx

ULP = 2.220446049250313e-16


def _ascending_p(a, x):
    """P(a, x) by the ascending series, and its relative bound: the
    series-complement branch's P before it is complemented."""
    ln_pref = specfun._log_gamma_norm(a, x) - math.log(a)
    n, _, total = specfun._lower_series_run(a, x, 0,
                                            *specfun._LOWER_SERIES_START)
    return math.exp(ln_pref) * total, specfun._kernel_rel(ln_pref, n)


# ----------------------------------------------------------------------
# regularized incomplete gamma
# ----------------------------------------------------------------------


def test_gamma_q_closed_forms():
    # Q(1, x) = e^-x and Q(2, x) = (1+x) e^-x.
    assert math.isclose(reg_gamma_q(1.0, 1.0), math.exp(-1.0), rel_tol=4 * ULP)
    assert math.isclose(reg_gamma_q(2.0, 2.0), 3.0 * math.exp(-2.0), rel_tol=4 * ULP)
    assert math.isclose(
        reg_gamma_q(2.0, 1.5), 2.5 * math.exp(-1.5), rel_tol=4 * ULP
    )
    # Q(1/2, x) = erfc(sqrt x).
    for x in (0.25, 1.0, 4.0, 9.0):
        assert math.isclose(
            reg_gamma_q(0.5, x), math.erfc(math.sqrt(x)), rel_tol=1e-13
        )


def test_gamma_q_boundary_and_range():
    assert reg_gamma_q(3.0, 0.0) == 1.0
    assert reg_gamma_q_detail(3.0, 0.0).err_bound == 0.0
    assert reg_gamma_q(10.0, 1e6) == 0.0
    for a, x in ((0.001, 0.5), (0.5, 0.001), (7.0, 7.0), (1e4, 1.0001e4)):
        q = reg_gamma_q(a, x)
        assert 0.0 <= q <= 1.0


def test_complement_identity():
    # P from the ascending series against Q from whichever branch serves
    # (a, x); from x = a + 1 on, P would only be 1 - Q.
    for a in (0.01, 0.7, 1.0, 3.5, 42.0, 1e3):
        for x in (0.3 * a, a, 2.5 * a):
            if x == 0.0 or x >= a + 1.0:
                continue
            q = reg_gamma_q(a, x)
            p = _ascending_p(a, x)[0]
            assert abs(p + q - 1.0) <= 8 * ULP


def test_gamma_q_monotone_in_each_argument():
    # decreasing in x, increasing in a
    xs = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    qs = [reg_gamma_q(3.0, x) for x in xs]
    assert all(b < a for a, b in zip(qs, qs[1:]))
    shapes = [0.5, 1.0, 2.0, 4.0, 8.0]
    qa = [reg_gamma_q(a, 3.0) for a in shapes]
    assert all(b > a for a, b in zip(qa, qa[1:]))


def test_gamma_q_matches_oracle_on_spot_grid():
    # A quick cross-check; the full 50x50 sweep is acceptance criterion C01.
    worst = 0.0
    for a in (1e-3, 0.03, 0.5, 1.0, 4.0, 31.0, 250.0, 1e4):
        for x in (0.25 * a, a, a + 3.0 * math.sqrt(a), 4.0 * a + 2.0):
            fast = reg_gamma_q(a, x)
            slow = oracle_gamma_q(a, x)
            err = abs(fast - slow) / max(slow, 1e-300) if slow else abs(fast)
            worst = max(worst, err)
    assert worst <= 1e-12, worst


def test_gamma_q_detail_methods_and_error_bounds():
    seen = set()
    for a, x in ((1.0, 0.0), (0.3, 0.2), (5.0, 2.0), (5.0, 20.0), (1e4, 1e4)):
        d = reg_gamma_q_detail(a, x)
        seen.add(d.method)
        assert d.err_bound >= 0.0
        assert d.n_iter >= 0
        oracle = oracle_gamma_q(a, x)
        assert abs(d.value - oracle) <= d.err_bound + 1e-13 * max(oracle, 1e-300)
    assert {"exact", "tail-series", "series-complement", "cf"} <= seen


def test_gamma_q_rejects_bad_arguments():
    for a, x in ((0.0, 1.0), (-1.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(DomainError):
            reg_gamma_q(a, x)


def test_gamma_q_kernel_cap_raises_instead_of_partial_sum():
    # The ascending series needs ~sqrt(a) terms: beyond its cap a partial
    # sum would be returned as 0.6587 with a bound of 1.5e-11 (true value
    # 0.4999995).
    with pytest.raises(ConvergenceError) as excinfo:
        reg_gamma_q_detail(1e10, 1e10 - 0.2)
    assert excinfo.value.n_iter == 100_000
    assert isinstance(excinfo.value, GammaTailError)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    a=st.floats(min_value=1e-3, max_value=1e4),
    frac=st.floats(min_value=0.05, max_value=4.0),
)
def test_gamma_q_complement_property(a, frac):
    x = frac * a
    q = reg_gamma_q(a, x)
    assert 0.0 <= q <= 1.0
    if x < a + 1.0:
        p = _ascending_p(a, x)[0]
        assert abs(p + q - 1.0) <= 16 * ULP


# ----------------------------------------------------------------------
# log-gamma
# ----------------------------------------------------------------------


def test_log_gamma_known_values():
    # The kernels' normalization (_log_gamma_norm) calls math.lgamma.
    assert math.lgamma(1.0) == 0.0
    assert math.lgamma(2.0) == 0.0
    assert math.isclose(math.lgamma(0.5), 0.5 * math.log(math.pi),
                        abs_tol=4 * ULP)
    assert math.isclose(math.lgamma(6.0), math.log(120.0), rel_tol=4 * ULP)
    # recurrence lgamma(a+1) = lgamma(a) + ln a at an awkward point
    a = 1.0 + 1e-8
    assert abs(math.lgamma(a + 1.0)
               - (math.lgamma(a) + math.log(a))) <= 1e-15


def test_log_gamma_near_unity_zero():
    # The platform lgamma's contract near the simple zero at a = 1 is
    # small *absolute* error.
    # The reference is the zeta series lgamma(1+e) = -gamma e +
    # sum_{k>=2} (-1)^k zeta(k) e^k / k truncated after e^5.
    zeta_over_k = (0.8224670334241132, -0.4006856343865314,
                   0.2705808084277845, -0.2073855510286740)

    def series(eps: float) -> float:
        ref = -0.5772156649015329 * eps
        for k, coeff in enumerate(zeta_over_k, start=2):
            ref += coeff * eps**k
        return ref

    # tolerance = rounding floor + zeta(6)/6 eps^6 series truncation
    for eps in (1e-12, 1e-8, 1e-4, 1e-2):
        tol = 5e-16 + 0.2 * eps**6
        assert abs(math.lgamma(1.0 + eps) - series(eps)) <= tol, eps


def test_lgamma1p_kernel_is_relatively_accurate_near_zero():
    # The polynomial kernel restores *relative* accuracy for lgamma(1+a) at
    # small a, which the tail normalization needs: within 2 eps of 40-digit
    # mpmath on [0, 1/2], down to a = 1e-300 and at the edge a = 1/2.  The
    # exact sum 1 + a keeps the reference relative at tiny a.
    mpmath = pytest.importorskip("mpmath")
    from gammatail.specfun import _lgamma1p

    rng = np.random.default_rng(43)
    a = np.concatenate((rng.uniform(0.0, 0.5, 2000),
                        10.0 ** rng.uniform(-300.0, math.log10(0.5), 1000),
                        [1e-300, 0.5]))
    worst = 0.0
    with mpmath.workdps(40):
        for v in a.tolist():
            ref = mpmath.loggamma(mpmath.fadd(1, v, exact=True))
            worst = max(worst, float(abs((_lgamma1p(v) - ref) / ref)) / ULP)
    print(f"lgamma1p worst relative error: {worst:.2f} eps")
    assert worst <= 2.0
    assert _lgamma1p(0.0) == 0.0


def _lgamma1p_coefficients(degree: int) -> tuple[float, ...]:
    """_LGAMMA1P_COEF's build: the Chebyshev interpolant of lnGamma(1 + a)/a
    on [0, 1/2] at degree + 1 first-kind nodes, computed in 50-digit mpmath
    and turned into monomial coefficients in a, rounded to doubles."""
    mpmath = pytest.importorskip("mpmath")
    n = degree + 1
    with mpmath.workdps(50):
        angles = [(2 * j + 1) * mpmath.pi / (2 * n) for j in range(n)]
        nodes = [(1 + mpmath.cos(t)) / 4 for t in angles]
        f = [mpmath.loggamma(1 + v) / v for v in nodes]
        cheb = [2 * mpmath.fsum(fj * mpmath.cos(k * t)
                                for fj, t in zip(f, angles)) / n
                for k in range(n)]
        cheb[0] /= 2

        def times_u(p):                 # p(a) * (4a - 1), u on [-1, 1]
            return [4 * (p[i - 1] if i else 0) - p[i] for i in range(n)]

        one = [mpmath.mpf(1)] + [mpmath.mpf(0)] * degree
        chebyshev = [one, times_u(one)]          # T_k(u) in powers of a
        while len(chebyshev) < n:
            chebyshev.append([2 * v - w for v, w in
                              zip(times_u(chebyshev[-1]), chebyshev[-2])])
        coef = [mpmath.fsum(c * t[i] for c, t in zip(cheb, chebyshev))
                for i in range(n)]
    return tuple(float(c) for c in coef)


def test_frozen_lgamma1p_polynomial_matches_its_mpmath_build():
    # The coefficients ship as float literals; the build regenerates them.
    frozen = specfun._LGAMMA1P_COEF
    rebuilt = _lgamma1p_coefficients(len(frozen) - 1)
    assert [c.hex() for c in frozen] == [c.hex() for c in rebuilt]


# ----------------------------------------------------------------------
# Lambert W branches
# ----------------------------------------------------------------------


def test_lambert_branch_anchors():
    assert lambert_w0(0.0) == 0.0
    assert math.isclose(lambert_w0(math.e), 1.0, rel_tol=4 * ULP)
    assert math.isclose(lambert_w0(-1.0 / math.e), -1.0, rel_tol=1e-7)
    assert math.isclose(lambert_wm1(-1.0 / math.e), -1.0, rel_tol=1e-7)


def test_lambert_wm1_deep_tail():
    # For tiny |v| the -1 branch satisfies w + ln(-w) = ln(-v); the direct
    # identity w e^w underflows, the logarithmic form does not.
    w = lambert_wm1(-1e-300)
    assert w < -690.0
    assert abs((w + math.log(-w)) - math.log(1e-300)) <= 1e-12


@settings(derandomize=True, max_examples=50, deadline=None)
@given(v=st.floats(min_value=1e-8, max_value=1e8))
def test_lambert_w0_inverts_positive_axis(v):
    w = lambert_w0(v)
    assert w >= 0.0
    assert math.isclose(w * math.exp(w), v, rel_tol=1e-12)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(t=st.floats(min_value=1e-6, max_value=0.999))
def test_lambert_branches_straddle_minus_one(t):
    v = -t / math.e
    w0 = lambert_w0(v)
    wm1 = lambert_wm1(v)
    assert -1.0 <= w0 <= 0.0
    assert wm1 <= -1.0
    assert math.isclose(w0 * math.exp(w0), v, rel_tol=1e-9, abs_tol=1e-300)
    assert math.isclose(wm1 * math.exp(wm1), v, rel_tol=1e-9, abs_tol=1e-300)


def test_lambert_rejects_out_of_branch_arguments():
    with pytest.raises(DomainError):
        lambert_w0(-0.5)  # below -1/e
    with pytest.raises(DomainError):
        lambert_wm1(0.5)  # -1 branch needs v in [-1/e, 0)


@pytest.mark.parametrize("fn, v", [
    (lambert_w0, 1.0),     # Halley from the log1p seed
    (lambert_w0, 1e6),     # Newton on w + ln w = ln v
    (lambert_wm1, -0.3),   # Halley from the branch-point seed
    (lambert_wm1, -0.1),   # Newton on ln t - t = ln(-v)
])
def test_lambert_loops_raise_at_their_cap(monkeypatch, fn, v):
    monkeypatch.setattr("gammatail.specfun._ROOT_MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as info:
        fn(v)
    assert info.value.n_iter == 1


# ----------------------------------------------------------------------
# peak map and its branch inverses
# ----------------------------------------------------------------------


def test_peak_map_values():
    # x e^{1-x} maps both branch roots to z.
    z = 0.5 * math.exp(1 - 0.5)
    partner = branch_roots(z).x2
    assert math.isclose(partner * math.exp(1 - partner), z, rel_tol=1e-12)


def test_branch_roots_at_two_over_e():
    # x e^{1-x} = 2/e has the exact root x = 2; the companion root was
    # frozen from the oracle bisection (interval width 1e-14).
    r = branch_roots(2.0 / math.e)
    assert abs(r.x2 - 2.0) <= 1e-13
    assert math.isclose(r.x1, 0.4063757399599588, rel_tol=1e-12)
    assert 0.0 < r.x1 < 1.0 < r.x2


def test_branch_roots_collapse_at_one():
    # As z -> 1- both roots approach 1 like 1 -+ sqrt(2(1-z)); z = 1
    # itself is outside the contract because the root map is singular
    # there.
    r = branch_roots(1.0 - 1e-12)
    spread = math.sqrt(2e-12)
    assert math.isclose(r.x1, 1.0 - spread, rel_tol=1e-3)
    assert math.isclose(r.x2, 1.0 + spread, rel_tol=1e-3)
    with pytest.raises(DomainError):
        branch_roots(1.0)
    with pytest.raises(DomainError):
        branch_roots(0.0)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(z=st.floats(min_value=1e-6, max_value=1.0 - 1e-9))
def test_branch_roots_satisfy_defining_equation(z):
    r = branch_roots(z)
    assert 0.0 < r.x1 <= 1.0 <= r.x2
    assert math.isclose(r.x1 * math.exp(1 - r.x1), z, rel_tol=1e-11)
    assert math.isclose(r.x2 * math.exp(1 - r.x2), z, rel_tol=1e-11)


def test_branch_root_derivatives():
    z = 2.0 / math.e
    r = branch_roots(z)
    # dx/dz = x / ((1-x) z); at x2 = 2 this is exactly -e.
    assert math.isclose(branch_root_deriv(r, 2), -math.e, rel_tol=1e-12)
    assert branch_root_deriv(r, 1) > 0.0
    # finite-difference cross-check on both branches
    for which in (1, 2):
        fd, fd_err = central_difference(
            lambda t, w=which: getattr(branch_roots(t), f"x{w}"), z, 1e-6
        )
        assert math.isclose(branch_root_deriv(r, which), fd, rel_tol=1e-6)
        assert fd_err < 1e-6
    with pytest.raises(DomainError):
        branch_root_deriv(r, 3)


def _steps_around(z: float, n: int = 20) -> np.ndarray:
    """z and the n doubles on each side of it."""
    out = [z]
    lo = hi = z
    for _ in range(n):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 2.0)
        out += [lo, hi]
    return np.array(sorted(out))


# z where v = -z/e sits at the edge of the branch-point window, and at the
# switch of lambert_w0 and lambert_wm1 at v = -0.25.
_WINDOW_EDGE = (1.0 - specfun._BRANCH_WINDOW * math.e)
_QUARTER = 0.25 * math.e


def _seeded_z(seed: int, n: int) -> np.ndarray:
    """3n seeded z in [1e-300, 1 - 1e-12]: n uniform, n log-spaced below
    0.1, and n with 1 - z log-spaced below 0.1."""
    rng = np.random.default_rng(seed)
    return np.concatenate((
        rng.random(n) * (1.0 - specfun.Z_GAP - specfun.Z_MIN) + specfun.Z_MIN,
        10.0 ** rng.uniform(-300.0, -1.0, n),
        1.0 - 10.0 ** rng.uniform(-12.0, -1.0, n)))


def _mp_roots(z: float):
    """x1 and x2 at z from 40-digit mpmath.lambertw, branches 0 and -1."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        v = -mpmath.mpf(z) / mpmath.e
        return -mpmath.lambertw(v, 0).real, -mpmath.lambertw(v, -1).real


def test_branch_roots_match_mpmath_lambertw():
    # Each root errs by the rounding of v = -z/e, magnified by the
    # conditioning x / |1 - x| of w e^w = v, plus its own rounding.  The
    # window-edge and quarter grids reach both sides of each regime switch.
    v = -_steps_around(_WINDOW_EDGE) * specfun._INV_E
    inside = np.abs(v + specfun._INV_E) < specfun._BRANCH_WINDOW
    assert inside.any() and not inside.all()
    v = -_steps_around(_QUARTER) * specfun._INV_E
    assert (v < -0.25).any() and (v > -0.25).any() and (v == -0.25).any()
    z = np.concatenate((_seeded_z(31, 200), _steps_around(_WINDOW_EDGE),
                        _steps_around(_QUARTER),
                        [specfun.Z_MIN, 1.0 - specfun.Z_GAP]))
    for z_i in z.tolist():
        r = branch_roots(z_i)
        for x, ref in zip((r.x1, r.x2), _mp_roots(z_i)):
            bound = 4.0 * ULP * x / abs(1.0 - x) + 2.0 * ULP * abs(x)
            assert abs(x - ref) <= bound, (z_i, x)


def test_lambert_w0_is_within_four_ulps_on_the_positive_axis():
    mpmath = pytest.importorskip("mpmath")
    for v in np.geomspace(1e-8, 1e12, 400).tolist():
        with mpmath.workdps(40):
            ref = float(mpmath.lambertw(v).real)
        assert abs(lambert_w0(v) - ref) <= 4.0 * math.ulp(ref), v


# ----------------------------------------------------------------------
# means
# ----------------------------------------------------------------------


def test_log_mean_values():
    assert log_mean(3.0, 3.0) == 3.0
    assert math.isclose(log_mean(1.0, math.e), math.e - 1.0, rel_tol=4 * ULP)
    # frozen oracle pin, also printed by the CLI example
    assert math.isclose(log_mean(1.0, 4.0), 2.1640425613334453, rel_tol=1e-14)
    assert log_mean(2.0, 5.0) == log_mean(5.0, 2.0)


@pytest.mark.parametrize("x, y", [(1e-300, 1e300), (5e-324, 1.7e308),
                                  (1e-10, 1e300)])
def test_log_mean_where_the_ratio_overflows(x, y):
    # y / x leaves the double range; L is (y - x) / (ln y - ln x), between
    # the arguments, not log1p(inf)'s 0.0.
    lm = log_mean(x, y)
    assert x <= lm <= y
    assert log_mean(y, x) == lm
    expected = (y - x) / (math.log(y) - math.log(x))
    assert math.isclose(lm, expected, rel_tol=8 * ULP)
    if x == 1e-300:
        assert math.isclose(lm, 1e300 / (600.0 * math.log(10.0)),
                            rel_tol=1e-14)


def test_refined_mean_matches_definition():
    x, y = 1.0, 4.0
    lm = log_mean(x, y)
    expected = math.sqrt(x * y + (lm - x) * (y - lm) / 3.0)
    assert math.isclose(refined_mean(x, y), expected, rel_tol=4 * ULP)
    assert math.isclose(refined_mean(x, y), 2.1708011270346415, rel_tol=1e-14)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    x=st.floats(min_value=1e-2, max_value=1e2),
    ratio=st.floats(min_value=1.01, max_value=1e4),
)
def test_mean_ordering_chain(x, ratio):
    # At ratio 1.01 every gap in the chain is at least ~1e-9 x, orders of
    # magnitude above rounding, so the strict ordering is decidable in
    # doubles.  (Certification of near-diagonal pairs goes through the
    # extended-precision route in check_mean_chain instead.)
    y = x * ratio
    geo = math.sqrt(x * y)
    lm = log_mean(x, y)
    ref = refined_mean(x, y)
    arith = 0.5 * (x + y)
    assert geo < lm < arith
    assert lm < ref < arith


def test_refined_mean_near_the_ends_of_the_double_range():
    # x*y leaves the normal range here (the product underflowed to 0.0 or
    # overflowed to inf); the pair is evaluated centred on 1 by a power of
    # two, which gives the bits of the centred pair scaled back.
    for x, y, k in ((1e-200, 1.03e-200, 664), (1e-160, 1.03e-160, 531),
                    (1e160, 1.03e160, -532), (1e308, 1.7e308, -1023)):
        ref = refined_mean(x, y)
        centred = refined_mean(math.ldexp(x, k), math.ldexp(y, k))
        assert ref == math.ldexp(centred, -k)
        assert log_mean(x, y) < ref < 0.5 * (x + y)
    assert refined_mean(1.0, 1e200) == math.ldexp(
        refined_mean(2.0 ** -332, 1e200 * 2.0 ** -332), 332)
    with pytest.raises(DomainError, match="2\\*\\*1000"):
        refined_mean(1e-300, 1e300)


def test_log_mean_derivative_spot_check():
    # d/dy L(1, y) at y = e equals (ln y - 1 + 1/y)/ln^2 y = 1/e.
    fd, _ = central_difference(lambda y: log_mean(1.0, y), math.e, 1e-5)
    assert math.isclose(fd, 1.0 / math.e, rel_tol=1e-8)


def test_mean_domain_errors():
    for x, y in ((0.0, 1.0), (-1.0, 2.0), (1.0, math.inf)):
        with pytest.raises(DomainError):
            log_mean(x, y)
        with pytest.raises(DomainError):
            refined_mean(x, y)


# ----------------------------------------------------------------------
# threshold ratio
# ----------------------------------------------------------------------


def test_threshold_ratio_limits_and_range():
    # The excess over the limit -1/3 grows like s^2/18, so at s = 1e-8 it
    # is below one ulp of 1/3 and the value collapses onto the limit.
    assert threshold_ratio(1.0 + 1e-8) == -1.0 / 3.0
    assert abs(threshold_ratio(1.0 + 1e-4) + 1.0 / 3.0) <= 1e-8
    assert -1.0 / 3.0 < threshold_ratio(1e8) < 0.0
    ys = [1.0 + 1e-6, 1.01, 1.1, 1.25, 2.0, 10.0, 1e4]
    vals = [threshold_ratio(y) for y in ys]
    assert all(b > a for a, b in zip(vals, vals[1:])), vals
    assert all(-1.0 / 3.0 <= v < 0.0 for v in vals)


def test_threshold_ratio_matches_oracle_across_series_handoff():
    # The implementation switches from a series to direct evaluation at
    # y = 1.25; both sides must agree with the double-double oracle.
    # (Below y ~ 1.0001 the oracle's own cancellation error dominates,
    # so the near-limit regime is checked via the series limit above.)
    for y in (1.0001, 1.01, 1.1, 1.2499999999, 1.2500000001, 2.0, 50.0, 1e6):
        fast = threshold_ratio(y)
        slow = oracle_threshold_ratio(y)
        assert math.isclose(fast, slow, rel_tol=1e-13, abs_tol=1e-18), y


def test_frozen_series_tables_match_their_fraction_build():
    # The tables ship as float literals; _build() regenerates them exactly.
    built = _series._build()
    for name in ("LAMBDA_EXCESS", "CHAIN1_NUM", "CHAIN2_NUM"):
        frozen = getattr(_series, name)
        assert len(frozen) == _series.ORDER + 1, name
        rebuilt = built[name]
        assert [c.hex() for c in frozen] == [c.hex() for c in rebuilt], name


def test_frozen_series_tables_are_exact_through_their_order():
    # A quotient is only exact to ORDER when its operands run past it by
    # the cancelled leading block; a longer build must agree term by term.
    longer = _series._build(_series.ORDER + 8)
    for name in ("LAMBDA_EXCESS", "CHAIN1_NUM", "CHAIN2_NUM"):
        frozen = getattr(_series, name)
        assert ([c.hex() for c in frozen]
                == [c.hex() for c in longer[name][:_series.ORDER + 1]]), name


def test_log1pmx_series_converges_across_its_window():
    # Near d = -0.95 the series needs ~374 terms; it used to stop at 120
    # with an unconverged sum (relative error 3.4e-6 at d = -0.949999).
    # Summing ~374 terms costs up to ~13 eps of rounding here.
    for k in range(201):
        d = -0.95 + 0.1 * k / 200
        exact = math.log1p(d) - d
        assert abs(_log1pmx(d) - exact) <= 32 * ULP * abs(exact), d


def test_log1pmx_fix_reaches_the_gamma_kernels():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        # a >= 24 takes the prefactor through log1pmx((x - a) / a) = -0.948.
        p, rel = _ascending_p(24.0, 1.25)
        ref = float(mpmath.gammainc(24, 0, 1.25, regularized=True))
        assert abs(p - ref) <= rel * p
        assert abs(p - ref) <= 1e-13 * ref


def _hex(values):
    return [v.hex() for v in values.tolist()]


def test_lane_prefactors_are_bitwise_the_scalar_ones(monkeypatch):
    # tail_prob_many's log prefactor folds the log1pmx sum over all lanes
    # at once and takes lgamma1p on arrays; every lane must keep the scalar
    # bits.
    rng = np.random.default_rng(8)
    d = np.concatenate((rng.uniform(-0.999, 2.0, 2000),
                        [-0.95, np.nextafter(-0.95, 0.0), 1.5,
                         np.nextafter(1.5, 2.0), 0.0]))
    assert (_hex(_lanes._log1pmx_lanes(d))
            == [_log1pmx(v).hex() for v in d.tolist()])
    a = np.concatenate((rng.uniform(0.0, 0.5, 2000), [0.0, 1e-300, 0.5]))
    assert (_hex(specfun._lgamma1p(a))
            == [specfun._lgamma1p(v).hex() for v in a.tolist()])
    a = 10.0 ** rng.uniform(-3.0, 6.0, 2000)
    x = a * rng.uniform(0.01, 3.0, a.size)
    assert (_hex(_lanes._log_gamma_norm_lanes(a, x, _lanes._log(x)))
            == [specfun._log_gamma_norm(*p).hex()
                for p in zip(a.tolist(), x.tolist())])
    with pytest.raises(DomainError):
        _lanes._log1pmx_lanes(np.array([0.5, -1.0]))
    # At a lowered term cap the lanes raise the scalar loop's error.
    monkeypatch.setattr(specfun, "_L1PMX_MAX_TERMS", 40)
    with pytest.raises(ConvergenceError) as scalar:
        _log1pmx(-0.9)
    with pytest.raises(ConvergenceError) as lanes:
        _lanes._log1pmx_lanes(np.array([0.1, -0.9, -0.92]))
    assert str(lanes.value) == str(scalar.value)


def _unmasked_log1pmx_vec(d):
    """_log1pmx_vec as it was before it masked its lanes: both forms on
    every lane, then a select; kept as the bit-level reference."""
    series = np.abs(d) <= 0.5
    safe = np.where(series, 0.0, d)
    direct = np.log1p(safe) - safe
    ud = np.where(series, d, 0.0)
    u = ud / (2.0 + ud)
    acc = np.zeros_like(u)
    for c in _lanes._L1PMX_COEF[_lanes._L1PMX_VEC_TERMS - 1::-1]:
        acc = acc * u + c
    return np.where(series, -2.0 * u * u * acc, direct)


def test_log1pmx_vec_masked_lanes_keep_the_unmasked_bits():
    rng = np.random.default_rng(12)
    edges = [0.5, -0.5, 0.0, -0.0]
    edges += [np.nextafter(e, t) for e in (0.5, -0.5) for t in (-1.0, 1.0)]
    d = np.concatenate((rng.uniform(-0.999, 3.0, 4000), edges,
                        [-1.0 + 2.0 ** -52, -0.999999, -0.95, 1.5,
                         np.nextafter(1.5, 2.0), 2.0, 10.0, 1e300]))
    assert _hex(_lanes._log1pmx_vec(d)) == _hex(_unmasked_log1pmx_vec(d))
    assert _lanes._log1pmx_vec(np.array([0.7])).shape == (1,)


def test_reg_gamma_q_many_is_bitwise_the_scalar_loop():
    a, x = _kernel_grid()
    # Branch edges: x = 0, x = a + 1 and its neighbours, the small-shape
    # switch at a = 1/2 and the Stirling switch at a = 24.
    for s in (0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 24.0,
              np.nextafter(24.0, 0.0), np.nextafter(24.0, 25.0), 3.0):
        xs = [0.0, s + 1.0, np.nextafter(s + 1.0, 0.0),
              np.nextafter(s + 1.0, 99.0), 0.5 * s, 2.0 * s + 5.0]
        a = np.append(a, [s] * len(xs))
        x = np.append(x, xs)
    got = _lanes.reg_gamma_q_many(a, x)
    assert _hex(got) == [reg_gamma_q(*p).hex()
                         for p in zip(a.tolist(), x.tolist())]
    assert _lanes.reg_gamma_q_many(a[:2500].reshape(50, 50),
                                    x[:2500].reshape(50, 50)).shape == (50, 50)


def test_reg_gamma_q_many_raises_the_scalar_loops_error(monkeypatch):
    def raised(fn, *args):
        with pytest.raises(GammaTailError) as info:
            fn(*args)
        return type(info.value), str(info.value)

    def scalar_loop(a, x):
        for p in zip(a, x):
            reg_gamma_q(*p)

    for a, x in (([1.0, 0.0, 2.0], [1.0, 1.0, 1.0]),
                 ([1.0, 2.0], [1.0, -1.0]),
                 ([1.0, 2.0], [math.nan, 1.0]),
                 ([1.0, math.inf], [1.0, 1.0]),
                 ([1.0, 1e16, 2.0], [1.0, 1e16, -1.0])):
        err = raised(_lanes.reg_gamma_q_many, a, x)
        assert err[0] is DomainError
        assert err == raised(scalar_loop, a, x)
    # x = 0 is exact at every shape, 2^53 and beyond included.
    assert _lanes.reg_gamma_q_many([1e16, 2.0], [0.0, 0.0]).tolist() == [
        reg_gamma_q(1e16, 0.0), 1.0]
    # A lane at a lowered cap: each branch's first failure in lane order.
    monkeypatch.setattr(specfun, "_KERNEL_MAX_ITER", 12)
    for a, x in (([0.3, 5.0, 40.0, 0.2], [0.1, 20.0, 30.0, 0.5]),
                 ([0.3, 5.0, 0.2, 40.0], [0.1, 20.0, 0.9, 30.0]),
                 ([40.0, 0.2], [30.0, 0.9])):
        err = raised(_lanes.reg_gamma_q_many, a, x)
        assert err[0] is ConvergenceError
        assert err == raised(scalar_loop, a, x)


def test_q_bound_is_finite_where_the_prefactor_underflows():
    # From x ~ 9e307, 2 |ln prefactor| would overflow, and the bound of a
    # Q that underflowed to 0 would be inf * 0 = NaN.  The continued
    # fraction's h is at most 1, so the true Q is below 5e-324.
    a = np.repeat([0.3, 2.0, 30.0, 1e6], 3)
    x = np.tile([9e307, 1e308, 1.79e308], 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = [reg_gamma_q_detail(*p) for p in zip(a.tolist(), x.tolist())]
        q, err = _lanes._reg_gamma_q_core(a, x)[:2]
    assert {(d.value, d.err_bound, d.method) for d in scalar} == {
        (0.0, 5e-324, "cf")}
    assert q.tolist() == [0.0] * a.size
    assert err.tolist() == [5e-324] * a.size


def test_q_is_one_below_half_an_ulp_of_a_large_shape():
    # From a = 24 the prefactor takes Stirling's form in d = (x - a)/a, and
    # below about half an ulp of a, x - a rounds to -a and d to -1.  The
    # prefactor is below e^-850 there, so Q is 1 to double precision.
    a = [24.0, 100.0, 30.0, 1e6, 24.0]
    x = [1e-15, 6e-15, 1e-320, 1e-11, 5e-324]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        details = [reg_gamma_q_detail(*p) for p in zip(a, x)]
        lanes = _lanes.reg_gamma_q_many(a, x)
    assert [(d.value, d.err_bound, d.method) for d in details] == [
        (1.0, ULP, "series-complement")] * len(a)
    assert lanes.tolist() == [1.0] * len(a)


def test_threshold_ratio_domain():
    with pytest.raises(DomainError):
        threshold_ratio(0.999)
    with pytest.raises(DomainError):
        threshold_ratio(math.inf)
    # From about 7e152 its denominator overflows; the chain stops at 1e75.
    for y in (math.nextafter(1e75, math.inf), 1e153, 1.3e154):
        with pytest.raises(DomainError, match="1 < y <= 1e"):
            threshold_ratio(y)


def test_threshold_ratio_matches_mpmath_up_to_its_top():
    # lambda(y) falls toward 0 like -1/ln y; it returned -0.0 from y = 1e153
    # and NaN from 1.3e154.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for y in (1e16, 1e17, 1e20, 1e50, 1e75):
            l = (mpmath.mpf(y) - 1) / mpmath.log(y)
            exact = (y - l * l) / ((l - 1) * (y - l))
            assert math.isclose(threshold_ratio(y), float(exact),
                                rel_tol=8 * ULP), y


# ----------------------------------------------------------------------
# tolerance keywords
# ----------------------------------------------------------------------


def test_public_signatures_take_only_the_tolerances_they_read():
    # The certification margin, the median's residual target and its
    # bracket floor are constants; only integrate takes a target, because
    # its callers need different ones.
    takers = {"prec": set(), "strict_margin": set(), "rel_tol": set(),
              "abs_tol": set()}
    for name in gammatail.__all__:
        obj = getattr(gammatail, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:
            continue
        for key, names in takers.items():
            if key in params:
                names.add(name)
    assert takers == {"prec": set(), "strict_margin": set(),
                      "rel_tol": {"integrate"}, "abs_tol": set()}
