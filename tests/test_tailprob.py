"""Tests for the centered tail probability and its analytic companions.

p(a, c) = Q(a, a + c) where Q is the regularized upper incomplete gamma
function.  Closed forms at integer shapes anchor the values; the
slow-path oracle anchors everything else; the ratio identity and the
derivative sign relation are checked at deterministic spot points (the
randomized sweeps live in the acceptance criteria).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gammatail import (
    DomainError,
    TailQuery,
    branch_roots,
    direction_form,
    direction_form_detail,
    integrand_ratio,
    power_function,
    ratio_parts,
    reg_gamma_q,
    tail_delta,
    tail_prob,
    tail_prob_detail,
)
from gammatail._dd import central_difference
from gammatail.oracle import oracle_tail_prob

ULP = 2.220446049250313e-16


# ----------------------------------------------------------------------
# tail probability
# ----------------------------------------------------------------------


def test_query_validation():
    for a, c in ((0.0, 0.0), (-1.0, 0.5), (math.nan, 0.0), (1.0, math.inf)):
        with pytest.raises(DomainError):
            TailQuery(a, c)


def test_plateau_is_exactly_one():
    # For 0 < a <= -c the threshold a + c is non-positive, so the event
    # has full probability; the implementation reports it exactly.
    for a, c in ((0.1, -0.5), (0.5, -0.5), (0.3, -1.0), (1e-6, -1e-6)):
        d = tail_prob_detail(TailQuery(a, c))
        assert d.value == 1.0
        assert d.err_bound == 0.0
        assert d.method == "plateau"
    just_above = tail_prob(TailQuery(0.5 + 1e-9, -0.5))
    assert just_above < 1.0


def test_integer_shape_closed_forms():
    assert math.isclose(
        tail_prob(TailQuery(1.0, 0.0)), math.exp(-1.0), rel_tol=4 * ULP
    )
    assert math.isclose(
        tail_prob(TailQuery(2.0, 0.0)), 3.0 * math.exp(-2.0), rel_tol=4 * ULP
    )
    assert math.isclose(
        tail_prob(TailQuery(2.0, -0.5)), 2.5 * math.exp(-1.5), rel_tol=4 * ULP
    )
    assert math.isclose(
        tail_prob(TailQuery(1.0, 1.0)), math.exp(-2.0), rel_tol=4 * ULP
    )


def test_error_bound_is_honesty_checked_against_oracle():
    for a in (0.01, 0.4, 1.0, 7.0, 300.0, 2e4):
        for c in (-0.3, 0.0, 1.5):
            if a + c <= 0.0:
                continue
            d = tail_prob_detail(TailQuery(a, c))
            slow = oracle_tail_prob(a, c)
            assert abs(d.value - slow) <= d.err_bound + 1e-13 * slow, (a, c)


def test_large_shape_limit_is_half():
    # By the central limit theorem p(a, c) -> 1/2 from below for fixed c.
    p = tail_prob(TailQuery(1e8, 0.0))
    assert 0.49 < p < 0.5


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    a=st.floats(min_value=1e-3, max_value=1e5),
    c=st.floats(min_value=-2.0, max_value=2.0),
)
def test_probability_range_property(a, c):
    assume(a + c > 0.0 or -c >= a)
    p = tail_prob(TailQuery(a, c))
    assert 0.0 <= p <= 1.0


# ----------------------------------------------------------------------
# consecutive difference
# ----------------------------------------------------------------------


def test_tail_delta_matches_direct_difference():
    delta, err = tail_delta(1.0, 0.0)
    direct = 3.0 * math.exp(-2.0) - math.exp(-1.0)
    assert abs(delta - direct) <= err + 4 * ULP
    assert err > 0.0


def test_tail_delta_oracle_pin():
    # frozen from the extended-precision oracle: p(51, -0.2) - p(50, -0.2)
    delta, err = tail_delta(50.0, -0.2)
    assert abs(delta - 7.410432853893756e-05) <= err + 1e-15
    assert err < 1e-12


def test_tail_delta_signs_in_certified_regimes():
    # increasing for c >= 0, decreasing for c <= -1/3, both certified
    # (difference exceeds its error bound).
    for a in (0.5, 2.0, 10.0):
        up, up_err = tail_delta(a, 0.0)
        assert up > up_err > 0.0
        down, down_err = tail_delta(a + 1.0, -1.0)
        assert down < -down_err


# ----------------------------------------------------------------------
# ratio decomposition
# ----------------------------------------------------------------------


def test_ratio_identity_at_deterministic_corners():
    # p(u+1, c) = 1 / (1 + R(u, c)) where R is the head/tail integral
    # ratio of the shifted integrand.
    for u, c in (
        (1.0, 0.5),
        (0.1, -0.3),
        (-0.9, 2.0),
        (5.0, -0.9),
        (0.5, -0.4),
        (19.0, 1.9),
    ):
        parts = ratio_parts(u, c)
        direct = reg_gamma_q(u + 1.0, u + 1.0 + c)
        assert math.isclose(1.0 / (1.0 + parts.ratio), direct, rel_tol=1e-10), (u, c)


def test_ratio_parts_structure():
    parts = ratio_parts(1.0, 0.5)
    assert parts.head_integral > 0.0
    assert parts.tail_integral > 0.0
    assert math.isclose(
        parts.ratio, parts.head_integral / parts.tail_integral, rel_tol=1e-12
    )
    assert parts.head_err >= 0.0
    assert parts.tail_err >= 0.0
    assert parts.ratio_err >= 0.0


def test_ratio_parts_domain():
    # requires u > -1 (shape u+1 > 0) and u + c > -1 (positive threshold)
    for u, c in ((-1.0, 0.5), (-1.5, 0.0), (0.5, -1.6)):
        with pytest.raises(DomainError):
            ratio_parts(u, c)


# ----------------------------------------------------------------------
# direction form on branch roots
# ----------------------------------------------------------------------


def test_direction_form_closed_form_at_c_minus_one():
    # m = 1 - x1 x2 + c (1 - x1)(x2 - 1) collapses to 2 - x1 - x2 at
    # c = -1; both expressions must agree exactly in floats here because
    # the implementation uses the same product arrangement.
    r = branch_roots(0.5)
    assert direction_form(r, -1.0) == 1.0 - r.x1 * r.x2 - (1.0 - r.x1) * (r.x2 - 1.0)
    value, err = direction_form_detail(r, -1.0)
    assert value == direction_form(r, -1.0)
    assert err >= 0.0


def test_direction_form_sign_pattern():
    # at the threshold c = -1/3 and below, the form is negative across
    # the band; for c closer to zero a positive region exists near z -> 1
    zs = (0.05, 0.3, 0.6, 0.9, 0.999)
    for c in (-1.0 / 3.0, -0.5, -2.0):
        for z in zs:
            m = direction_form(branch_roots(z), c)
            assert m < 0.0, (c, z)
    assert direction_form(branch_roots(0.999), -0.2) > 0.0
    assert direction_form(branch_roots(0.05), -0.2) < 0.0
    for z in zs:  # c = 0: m = 1 - x1 x2 > 0 everywhere
        assert direction_form(branch_roots(z), 0.0) > 0.0


def test_integrand_ratio_derivative_sign_relation():
    # d/dz log r has the opposite sign of the direction form m(z, c);
    # spot-check by finite differences at deterministic points.  (The
    # randomized 1000-point sweep is acceptance criterion C12.)
    for z, c in ((0.3, -1.0), (0.5, 0.0), (0.7, -0.2), (0.9, 1.0), (0.999, -0.2)):
        roots = branch_roots(z)
        m, m_err = direction_form_detail(roots, c)
        if abs(m) <= 8.0 * max(m_err, 1e-12):
            continue
        fd, _ = central_difference(
            lambda t: math.log(integrand_ratio(branch_roots(t), c)), z, 1e-5 * z
        )
        assert (fd > 0.0) == (m < 0.0), (z, c, m, fd)


# ----------------------------------------------------------------------
# power function view
# ----------------------------------------------------------------------


def test_power_function_equals_tail_probability():
    for theta, c in ((0.5, 0.2), (2.0, 0.5), (10.0, 1.0)):
        assert power_function(theta, c) == tail_prob(TailQuery(theta, c))


def test_power_function_monotone_toward_half():
    thetas = (0.5, 1.0, 4.0, 64.0, 1e4)
    vals = [power_function(t, 0.5) for t in thetas]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.5


def test_power_function_domain():
    with pytest.raises(DomainError):
        power_function(0.0, 0.5)
    with pytest.raises(DomainError):
        power_function(1.0, 0.0)  # strictly positive offset required
    with pytest.raises(DomainError):
        power_function(1.0, -0.5)
