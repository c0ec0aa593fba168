"""Tests for the independent slow-path oracle and the double-double
arithmetic (``gammatail._dd``) it shares with the certification layer.

The oracle exists to validate the fast kernels, so it must itself be
checked only against closed forms, exactly representable arithmetic, and
the standard library -- never against the code it is meant to audit.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gammatail import DomainError
from gammatail._dd import (
    central_difference,
    dd_add,
    dd_div,
    dd_exp,
    dd_log,
    dd_mul,
    mean_gaps,
    two_prod,
    two_sum,
)
from gammatail.oracle import (
    oracle_gamma_q,
    oracle_gamma_q_many,
    oracle_log_gamma,
    oracle_root,
    oracle_tail_prob,
    oracle_threshold_ratio,
)

ULP = 2.220446049250313e-16


# ----------------------------------------------------------------------
# double-double primitives (error-free transforms)
# ----------------------------------------------------------------------


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    a=st.floats(min_value=-1e8, max_value=1e8),
    b=st.floats(min_value=-1e8, max_value=1e8),
)
def test_two_sum_is_error_free(a, b):
    s, e = two_sum(a, b)
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    a=st.floats(min_value=-1e6, max_value=1e6),
    b=st.floats(min_value=-1e6, max_value=1e6),
)
def test_two_prod_is_error_free(a, b):
    # Dekker's product is error-free only when the rounding error itself
    # is representable, i.e. away from the subnormal underflow range.
    assume(a == 0.0 or b == 0.0 or abs(a * b) > 1e-290)
    p, e = two_prod(a, b)
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


def test_dd_arithmetic_recovers_dropped_bits():
    # (1 + 2^-60) - 1 vanishes in doubles but survives in dd.
    tiny = 2.0**-60
    x = dd_add((1.0, 0.0), (tiny, 0.0))
    y = dd_add(x, (-1.0, 0.0))
    assert y[0] == tiny
    prod = dd_mul((1.0 + 2.0**-30, 0.0), (1.0 - 2.0**-30, 0.0))
    back = dd_add(prod, (-1.0, 0.0))
    assert math.isclose(back[0], -(2.0**-60), rel_tol=1e-12)


def test_dd_transcendentals():
    hi, lo = dd_exp(dd_log(2.0))
    assert hi == 2.0 and abs(lo) <= 4 * ULP
    hi, lo = dd_div((1.0, 0.0), (3.0, 0.0))
    resid = dd_add(dd_mul((hi, lo), (3.0, 0.0)), (-1.0, 0.0))
    assert abs(resid[0]) <= 1e-30


# ----------------------------------------------------------------------
# oracle gamma functions
# ----------------------------------------------------------------------


def test_oracle_gamma_q_closed_forms():
    assert math.isclose(oracle_gamma_q(1.0, 1.0), math.exp(-1.0), rel_tol=1e-13)
    assert math.isclose(
        oracle_gamma_q(2.0, 2.0), 3.0 * math.exp(-2.0), rel_tol=1e-13
    )
    assert math.isclose(
        oracle_gamma_q(3.0, 1.0), 2.5 * math.exp(-1.0), rel_tol=1e-13
    )
    for x in (0.5, 2.0, 6.25):
        assert math.isclose(
            oracle_gamma_q(0.5, x), math.erfc(math.sqrt(x)), rel_tol=1e-12
        )
    assert oracle_gamma_q(4.0, 0.0) == 1.0


def test_oracle_gamma_q_range_and_regimes():
    # one probe per internal normalization regime (small/mid/large shape)
    for a, x in ((1e-3, 1e-3), (0.2, 1.5), (5.0, 5.0), (40.0, 35.0), (2e4, 2e4)):
        q = oracle_gamma_q(a, x)
        assert 0.0 <= q <= 1.0


def test_oracle_log_gamma_matches_stdlib_away_from_zeros():
    for a in (0.5, 3.0, 7.5, 120.0, 3e4):
        assert math.isclose(oracle_log_gamma(a), math.lgamma(a), rel_tol=1e-14)


def test_oracle_tail_prob_plateau_and_identity():
    assert oracle_tail_prob(0.25, -0.5) == 1.0
    got = oracle_tail_prob(2.0, -0.5)
    assert math.isclose(got, 2.5 * math.exp(-1.5), rel_tol=1e-12)


def test_oracle_gamma_q_rejects_bad_arguments():
    for a, x in ((0.0, 1.0), (-2.0, 1.0), (1.0, -1.0), (math.inf, 1.0)):
        with pytest.raises(DomainError):
            oracle_gamma_q(a, x)


@pytest.mark.parametrize("a", [1e-3, 0.3, 0.999, 1.0, 5.5, 15.99, 16.0, 40.0,
                               2.5e3])
def test_oracle_gamma_q_many_equals_one_x_calls(a):
    # x = 0, both sides of x = 1 (the head/tail split below a = 16) and of
    # the peak a - 1 (the reference switch from a = 16), out of order and
    # with a repeat.
    xs = [0.0, 1e-9, 0.4, 0.999, 1.0, 1.5, a - 1.0 - 0.5 * math.sqrt(a),
          a - 1.0, a - 1.0 + 1e-9, a, 0.0, a + 5.0 * math.sqrt(a), 0.4,
          a + 40.0 * math.sqrt(a) + 40.0]
    xs = [x for x in xs if x >= 0.0]
    assert oracle_gamma_q_many(a, xs) == [oracle_gamma_q(a, x) for x in xs]


def test_oracle_gamma_q_many_edge_rows():
    assert oracle_gamma_q_many(3.0, []) == []
    assert oracle_gamma_q_many(3.0, [0.0, 0.0]) == [1.0, 1.0]
    for a, xs in ((0.0, [1.0]), (2.0, [1.0, -1.0]), (math.inf, []),
                  (2.0, [math.nan])):
        with pytest.raises(DomainError):
            oracle_gamma_q_many(a, xs)


# ----------------------------------------------------------------------
# bisection root oracle
# ----------------------------------------------------------------------


def test_oracle_root_anchors():
    # w e^w = e has root w = 1; x e^{1-x} = 2/e has upper root x = 2.
    assert math.isclose(oracle_root("w0", math.e), 1.0, rel_tol=1e-13)
    assert math.isclose(oracle_root("x2", 2.0 / math.e), 2.0, rel_tol=1e-13)
    x1 = oracle_root("x1", 2.0 / math.e)
    assert math.isclose(x1, 0.4063757399599588, rel_tol=1e-12)
    assert math.isclose(x1 * math.exp(1.0 - x1), 2.0 / math.e, rel_tol=1e-12)
    wm1 = oracle_root("wm1", -0.1)
    assert wm1 < -1.0
    assert math.isclose(wm1 * math.exp(wm1), -0.1, rel_tol=1e-11)


def test_oracle_root_rejects_unknown_function():
    with pytest.raises(DomainError):
        oracle_root("nope", 0.5)
    with pytest.raises(DomainError):
        oracle_root("w0", -1.0)  # below the branch point -1/e


# ----------------------------------------------------------------------
# finite differences
# ----------------------------------------------------------------------


def test_central_difference_on_known_derivatives():
    fd, err = central_difference(math.exp, 1.0, 1e-4)
    assert math.isclose(fd, math.e, rel_tol=1e-10)
    assert abs(fd - math.e) <= 8.0 * err + 1e-12
    fd, _ = central_difference(lambda t: t * math.exp(1.0 - t), 1.0, 1e-4)
    assert abs(fd) <= 1e-10  # stationary point of the peak map
    # derivative of the upper branch root at z = 2/e is exactly -e
    fd, _ = central_difference(
        lambda z: oracle_root("x2", z, width=1e-13), 2.0 / math.e, 1e-6
    )
    assert math.isclose(fd, -math.e, rel_tol=1e-5)


# ----------------------------------------------------------------------
# mean-gap and threshold-ratio oracles
# ----------------------------------------------------------------------


def test_oracle_mean_gaps_wide_pair_matches_double_formulas():
    # The oracle reports gaps between *squared* means: L^2 - xy,
    # G~^2 - L^2 = (L-x)(y-L)/3, and A^2 - G~^2.
    g = mean_gaps(1.0, 4.0)
    lm = 3.0 / math.log(4.0)
    refined_sq = 4.0 + (lm - 1.0) * (4.0 - lm) / 3.0
    assert math.isclose(g.log_vs_geo, lm * lm - 4.0, rel_tol=1e-13)
    assert math.isclose(g.refined_vs_log, refined_sq - lm * lm, rel_tol=1e-12)
    assert math.isclose(g.arith_vs_refined, 6.25 - refined_sq, rel_tol=1e-12)
    assert g.err_bound < 1e-20


def test_oracle_mean_gaps_resolves_near_diagonal():
    # At y/x - 1 = 1e-6 the refined-vs-log gap is O(t^4) ~ 1e-25, far
    # below double rounding; the dd route must still certify its sign.
    g = mean_gaps(1.0, 1.0 + 1e-6)
    assert g.log_vs_geo > 0.0
    assert g.refined_vs_log > 0.0
    assert g.arith_vs_refined > 0.0
    assert g.err_bound < g.refined_vs_log
    # leading terms: L^2 - G^2 ~ x^2 t^2/12, A^2 - G^2 ~ x^2 t^2/4 => ratio 3
    assert math.isclose(
        (g.log_vs_geo + g.refined_vs_log + g.arith_vs_refined) / g.log_vs_geo,
        3.0,
        rel_tol=1e-3,
    )


def test_oracle_mean_gaps_rejects_bad_pairs():
    for x, y in ((1.0, 1.0), (2.0, 1.0), (0.0, 1.0), (-1.0, 3.0)):
        with pytest.raises(DomainError):
            mean_gaps(x, y)


def test_oracle_threshold_ratio_known_point():
    # lambda(y) = (y - L^2) / ((L - 1)(y - L)) with L = (y-1)/ln y the
    # log-mean of (1, y).  At y = 2 the double transcription only loses
    # about one digit to cancellation in the numerator.
    lm = 1.0 / math.log(2.0)
    expected = (2.0 - lm * lm) / ((lm - 1.0) * (2.0 - lm))
    assert math.isclose(oracle_threshold_ratio(2.0), expected, rel_tol=1e-13)
    assert -1.0 / 3.0 < oracle_threshold_ratio(2.0) < 0.0
