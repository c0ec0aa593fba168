"""Tests for the independent slow-path oracle and the double-double
arithmetic (``gammatail._dd``) it shares with the certification layer.

The oracle exists to validate the fast kernels, so it must itself be
checked only against closed forms, exactly representable arithmetic, and
the standard library -- never against the code it is meant to audit.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gammatail import ConvergenceError, DomainError, QuadratureError
from gammatail._dd import (
    _LN2_HI,
    _LN2_LO,
    _RECIPROCALS,
    central_difference,
    dd_add,
    dd_div,
    dd_exp,
    dd_log,
    dd_log1p_small,
    dd_mul,
    dd_mul_d,
    dd_sub,
    mean_gaps,
    quick_two_sum,
    two_prod,
    two_sum,
)
from gammatail.oracle import (
    _DROP,
    _drop_offset,
    _left_drop_offset,
    oracle_gamma_q,
    oracle_gamma_q_many,
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


def test_reciprocals_are_the_exact_low_parts():
    # Each pair is 1/n rounded, then the exact remainder 1/n - hi rounded.
    assert [(hi.hex(), lo.hex()) for hi, lo in _RECIPROCALS] == [
        ((1.0 / n).hex(), float(Fraction(1, n) - Fraction(1.0 / n)).hex())
        for n in range(1, len(_RECIPROCALS) + 1)]


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


def test_oracle_tail_prob_plateau_and_identity():
    assert oracle_tail_prob(0.25, -0.5) == 1.0
    got = oracle_tail_prob(2.0, -0.5)
    assert math.isclose(got, 2.5 * math.exp(-1.5), rel_tol=1e-12)


def test_oracle_gamma_q_rejects_bad_arguments():
    for a, x in ((0.0, 1.0), (-2.0, 1.0), (1.0, -1.0), (math.inf, 1.0)):
        with pytest.raises(DomainError):
            oracle_gamma_q(a, x)


_LANE_SHAPES = [1e-3, 0.3, 0.999, 1.0, 5.5, 15.99, 16.0, 40.0, 2.5e3]


def _lane_xs(a):
    """x = 0, both sides of x = 1 (the head/tail split below a = 16) and of
    the peak a - 1 (the reference switch from a = 16), out of order and
    with a repeat."""
    xs = [0.0, 1e-9, 0.4, 0.999, 1.0, 1.5, a - 1.0 - 0.5 * math.sqrt(a),
          a - 1.0, a - 1.0 + 1e-9, a, 0.0, a + 5.0 * math.sqrt(a), 0.4,
          a + 40.0 * math.sqrt(a) + 40.0]
    return [x for x in xs if x >= 0.0]


@pytest.mark.parametrize("a", _LANE_SHAPES)
def test_oracle_gamma_q_many_equals_one_x_calls(a):
    xs = _lane_xs(a)
    assert oracle_gamma_q_many(a, xs) == [oracle_gamma_q(a, x) for x in xs]


def test_oracle_gamma_q_many_mixed_shape_lanes_equal_one_lane_calls():
    # Every shape regime in one call, a on both sides of 1 and of 16,
    # interleaved so that no shape's lanes are adjacent.
    lanes = [(a, x) for a in _LANE_SHAPES for x in _lane_xs(a)]
    lanes = lanes[1::3] + lanes[2::3] + lanes[::3]
    a, x = zip(*lanes)
    assert oracle_gamma_q_many(a, x) == [oracle_gamma_q(*lane)
                                         for lane in lanes]
    # Lanes broadcast: a column of shapes against a row of x.
    shapes = [0.3, 5.5, 16.0, 40.0]
    xs = [0.0, 0.5, 3.0, 39.5, 60.0]
    assert oracle_gamma_q_many(np.array(shapes)[:, None], xs) == [
        [oracle_gamma_q(s, x) for x in xs] for s in shapes]


def test_oracle_gamma_q_many_raises_the_first_failing_lanes_error(
        monkeypatch):
    # With one sweep, lanes 2 and 3 fail, through different integrand
    # forms: lane 2 first at its power-law head, lane 3 at its direct tail.
    # The quadratures run form by form, direct before the heads, but the
    # error must be the one a loop of one-lane calls meets first, lane 2's.
    monkeypatch.setattr("gammatail.quadrature._MAX_SWEEPS", 1)
    lanes = [(40.0, 60.0), (5.5, 0.5), (1e-3, 0.2), (1.5, 2.0)]

    def fields(exc):
        return (str(exc), exc.value, exc.err_bound, exc.n_panels)

    errors = []
    for lane in lanes:
        try:
            oracle_gamma_q(*lane)
        except QuadratureError as exc:
            errors.append(fields(exc))
        else:
            errors.append(None)
    assert errors[:2] == [None, None]
    assert errors[2] is not None and errors[3] not in (None, errors[2])
    with pytest.raises(QuadratureError) as many:
        oracle_gamma_q_many(*zip(*lanes))
    assert fields(many.value) == errors[2]


def test_oracle_gamma_q_many_edge_rows():
    assert oracle_gamma_q_many(3.0, []) == []
    assert oracle_gamma_q_many(3.0, [0.0, 0.0]) == [1.0, 1.0]
    for a, xs in ((0.0, [1.0]), (2.0, [1.0, -1.0]), (math.inf, []),
                  (2.0, [math.nan])):
        with pytest.raises(DomainError):
            oracle_gamma_q_many(a, xs)


def test_oracle_domain_edges():
    # Past the largest shape its accuracy is checked at, the oracle names
    # that limit; a + c past the double range is named as an overflow.
    for a, x in ((math.nextafter(1e12, math.inf), 1e12), (1e300, 2e300)):
        with pytest.raises(DomainError, match=r"a <= 1e\+12"):
            oracle_gamma_q(a, x)
    with pytest.raises(DomainError, match="overflows"):
        oracle_tail_prob(1e308, 1e308)
    # Far past the peak the upper tail underflows to 0, in the direct form
    # too, where an end x + 36 rounds back onto x.
    assert oracle_gamma_q_many([5.0, 0.5, 100.0, 5.0], [1e300, 1e18, 1e300,
                                                        2e18]) == [0.0] * 4


@pytest.mark.parametrize("u, r", [
    (0.0, 1.0), (0.5, 1.0), (15.0, 15.0), (15.0, 15.5), (15.0, 40.0),
    (14.99, 700.0), (9999.0, 9999.0), (9999.0, 40002.0), (1e12, 1e12),
    (1e12, 1e12 + 1e6), (16.0, 1e300)])
def test_drop_ends_lie_just_past_the_drop(u, r):
    # h(r + s) - h(r) for h(t) = u ln t - t: at most -_DROP, so that the
    # truncation bound holds, and within 0.1 of it, so that no span is
    # wasted.  1e-6 allows for this check's own rounding: log1p(v) - v
    # cancels for small v.
    s = _drop_offset(u, r)
    v = s / r
    assert -_DROP - 0.1 <= u * (math.log1p(v) - v) - s * (r - u) / r \
        <= -_DROP + 1e-6
    if u >= 15.0:
        s = _left_drop_offset(u)
        v = s / u
        assert -1.0 < v < 0.0
        assert -_DROP - 0.1 <= u * (math.log1p(v) - v) <= -_DROP + 1e-6
    assert _drop_offset(-0.5, r) == _DROP


def _c01_grid():
    """The (a, x) lanes of acceptance criterion C01's 50 x 50 grid."""
    shapes = np.geomspace(1e-3, 1e4, 50)
    rows = [np.linspace(0.0, a + 40.0 * math.sqrt(a) + 40.0, 50)
            for a in shapes.tolist()]
    return np.repeat(shapes, 50), np.concatenate(rows)


def test_oracle_quadrature_on_c01s_grid_stays_within_its_evaluations(
        monkeypatch):
    from gammatail import oracle
    from gammatail.quadrature import integrate_many

    spent = []

    def spy(*args, **kwargs):
        results = integrate_many(*args, **kwargs)
        spent.extend(r.n_evals for r in results)
        return results

    monkeypatch.setattr(oracle, "integrate_many", spy)
    oracle_gamma_q_many(*_c01_grid())
    # 2,530 quadratures: 50 normalisation heads, 30 tails and 2,450
    # numerators.  Taken in t up to t0 + 45 sqrt(a) + 900 or x + 900, they
    # cost 1,353,660 evaluations.
    assert len(spent) == 2530
    assert sum(spent) <= 950_000


def _numerator_form(a, x):
    """The integrand form that takes the numerator of Q(a, x > 0)."""
    if a >= 16.0:
        return "referenced at the peak" if x <= a - 1.0 else "referenced at x"
    if x >= 1.0:
        return "direct"
    return "quartic head" if a >= 1.0 else "power head"


# Lanes off C01's grid: numerators in the quartic head, which the grid takes
# only in its normalisations, and offsets far into the upper tail, where Q
# underflows to 0 at (1e3, 3e3) and (1e4, 40002).
_OFF_GRID_LANES = [(1.0, 0.3), (5.5, 0.5), (15.99, 0.9), (2.0, 1e-3),
                   (16.0, 200.0), (16.0, 700.0), (15.99, 700.0), (0.5, 700.0),
                   (40.0, 600.0), (1e3, 3e3), (1e4, 13000.0), (1e4, 40002.0),
                   (1e6, 1.03e6)]


def test_oracle_matches_mpmath_across_its_integrand_forms():
    mpmath = pytest.importorskip("mpmath")
    a, x = _c01_grid()
    strata = {}
    for lane in zip(a.tolist(), x.tolist()):
        if lane[1] > 0.0:
            strata.setdefault(_numerator_form(*lane), []).append(lane)
    for lane in _OFF_GRID_LANES:
        strata.setdefault(_numerator_form(*lane), []).append(lane)
    # About 80 lanes of each form, evenly spread over the grid's order.
    sample = [lane for lanes in strata.values()
              for lane in lanes[::max(1, len(lanes) // 80)]]
    sample += [lane for lane in _OFF_GRID_LANES if lane not in sample]
    values = oracle_gamma_q_many(*zip(*sample))
    worst = {}
    with mpmath.workdps(40):
        for (a_i, x_i), q in zip(sample, values):
            ref = mpmath.gammainc(a_i, x_i, mpmath.inf, regularized=True)
            if float(ref) == 0.0:
                err = 0.0 if q == 0.0 else math.inf
            else:
                err = float(abs(q - ref) / ref)
            form = _numerator_form(a_i, x_i)
            worst[form] = max(worst.get(form, 0.0), err)
    assert len(worst) == 5
    # The heads' substitutions in t = s^4 and t = s^(1/a): their worst lane,
    # (0.00139, 0.847), errs by 2.3e-14.
    assert worst.pop("power head") <= 3e-14
    assert worst.pop("quartic head") <= 3e-14
    assert max(worst.values()) <= 2e-14, worst


@pytest.mark.parametrize("a, x", [(1e6, 1e6), (1e6, 1e6 + 3e3),
                                  (1e8, 1e8 - 2e4), (1e12, 1e12)])
def test_oracle_reach_against_mpmath(a, x):
    mpmath = pytest.importorskip("mpmath")
    # 30 digits: at a = 1e12 mpmath takes seconds, and agrees with its
    # 40-digit value to 1e-21.
    with mpmath.workdps(30):
        ref = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
        assert abs(oracle_gamma_q(a, x) - ref) <= 1e-13 * ref


# ----------------------------------------------------------------------
# finite differences
# ----------------------------------------------------------------------


def test_central_difference_on_known_derivatives():
    fd, err = central_difference(math.exp, 1.0, 1e-4)
    assert math.isclose(fd, math.e, rel_tol=1e-10)
    assert abs(fd - math.e) <= 8.0 * err + 1e-12
    fd, _ = central_difference(lambda t: t * math.exp(1.0 - t), 1.0, 1e-4)
    assert abs(fd) <= 1e-10  # stationary point of the peak map


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
    # Each bound is its gap's half-ulp rounding plus the double-double term.
    gaps = np.array([g.log_vs_geo, g.refined_vs_log, g.arith_vs_refined])
    assert np.all(g.err_bounds - 0.5 * ULP * np.abs(gaps) < 1e-20)


def test_oracle_mean_gaps_resolves_near_diagonal():
    # At y/x - 1 = 1e-6 the refined-vs-log gap is O(t^4) ~ 1e-25, far
    # below double rounding; the dd route must still certify its sign.
    g = mean_gaps(1.0, 1.0 + 1e-6)
    assert g.log_vs_geo > 0.0
    assert g.refined_vs_log > 0.0
    assert g.arith_vs_refined > 0.0
    assert np.all(g.err_bounds
                  < [g.log_vs_geo, g.refined_vs_log, g.arith_vs_refined])
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


def _reference_log1p_small(u):
    """The one-pair Taylor loop the lockstep series replaced."""
    acc = term = u
    sign = 1.0
    for n in range(2, 120):
        term = dd_mul(term, u)
        sign = -sign
        inv_hi, inv_lo = _RECIPROCALS[n - 1]
        contrib = dd_mul(term, (sign * inv_hi, sign * inv_lo))
        acc = dd_add(acc, contrib)
        if abs(contrib[0]) < 1e-36 * max(abs(acc[0]), 1e-300):
            break
    return acc


def _reference_mean_gaps(x, y):
    """The one-pair gap routine the lockstep pass replaced, kept as the
    bit-level reference for mean_gaps."""
    d_dd = two_sum(y, -x)
    r_dd = dd_div(d_dd, (x, 0.0))
    if r_dd[0] <= 0.5:
        w_dd = _reference_log1p_small(r_dd)
    else:
        w_dd = dd_sub(dd_log(y), dd_log(x))
    l_dd = dd_div(d_dd, w_dd)
    xy_dd = two_prod(x, y)
    l2_dd = dd_mul(l_dd, l_dd)
    gap1 = dd_sub(l2_dd, xy_dd)
    cross = dd_mul(dd_sub(l_dd, (x, 0.0)), dd_sub((y, 0.0), l_dd))
    third = dd_div(cross, (3.0, 0.0))
    gap2 = dd_add(dd_sub(xy_dd, l2_dd), third)
    a_dd = dd_mul_d(two_sum(x, y), 0.5)
    a2_dd = dd_mul(a_dd, a_dd)
    gap3 = dd_sub(dd_sub(a2_dd, xy_dd), third)
    gaps = (gap1[0], gap2[0], gap3[0])
    return (*gaps, *(64.0 * ULP * ULP * a2_dd[0] + 0.5 * ULP * abs(gap)
                     for gap in gaps))


def _bits(values):
    # NaN lanes (overflow near the double range) compare equal to NaN.
    return ["nan" if math.isnan(v) else float(v).hex() for v in values]


def test_mean_gaps_lockstep_matches_one_pair_loop_bitwise():
    rng = np.random.default_rng(20240611)
    n = 600
    x = 10.0 ** rng.uniform(-300.0, 300.0, n)
    x[:200] = 10.0 ** rng.uniform(-3.0, 3.0, 200)
    spread = 10.0 ** rng.uniform(-15.0, math.log10(0.49), n)
    spread[:60] = rng.uniform(0.5, 50.0, 60)      # the dd_log lanes
    y = x * (1.0 + spread)
    x = np.append(x, [1.0, 1.0, 2.0])
    y = np.append(y, [4.0, 1.0 + 1e-6, 2.0 + 2.0 ** -51])
    keep = x < y
    x, y = x[keep], y[keep]
    with np.errstate(all="ignore"):
        ref = [_reference_mean_gaps(a, b)
               for a, b in zip(x.tolist(), y.tolist())]
    g = mean_gaps(x, y)
    fields = (g.log_vs_geo, g.refined_vs_log, g.arith_vs_refined,
              *g.err_bounds)
    for k, field in enumerate(fields):
        assert field.shape == x.shape
        assert _bits(field.tolist()) == _bits(r[k] for r in ref)
    # one pair at a time through the same routine, scalars in and out
    for i in (0, 250, len(x) - 3):
        one = mean_gaps(float(x[i]), float(y[i]))
        assert _bits([one.log_vs_geo, *one.err_bounds]) == _bits(
            [ref[i][0], *ref[i][3:]])


def test_dd_log1p_small_lanes_stop_at_their_own_term():
    u = np.array([0.5, -0.5, 1e-3, 1e-12, 0.0, 0.25])
    lo = np.array([1e-17, 0.0, -1e-20, 0.0, 0.0, 1e-18])
    hi_out, lo_out = dd_log1p_small((u, lo))
    for k in range(u.size):
        ref = _reference_log1p_small((float(u[k]), float(lo[k])))
        assert (hi_out[k], lo_out[k]) == ref
    scalar = dd_log1p_small((0.1, 0.0))
    assert type(scalar[0]) is float and type(scalar[1]) is float
    assert scalar == _reference_log1p_small((0.1, 0.0))
    with pytest.raises(DomainError):
        dd_log1p_small((np.array([0.1, 0.6]), np.zeros(2)))


def _reference_dd_exp(x):
    """The float-only dd_exp the lockstep form replaced, kept as the
    bit-level reference."""
    if x[0] > 709.0:
        return math.inf, 0.0
    if x[0] < -745.0:
        return 0.0, 0.0
    k = round(x[0] / _LN2_HI)
    p1, e1 = two_prod(_LN2_HI, float(k))
    p2, e2 = two_prod(_LN2_LO, float(k))
    r_hi, r_lo = two_sum(x[0], -p1)
    for part in (x[1], -e1, -p2):
        r_hi, t = two_sum(r_hi, part)
        r_lo += t
    r = quick_two_sum(r_hi, r_lo - e2)
    acc = (1.0, 0.0)
    term = (1.0, 0.0)
    for n in range(1, 40):
        term = dd_mul(dd_mul(term, r), _RECIPROCALS[n - 1])
        acc = dd_add(acc, term)
        if abs(term[0]) < 1e-36 * abs(acc[0]):
            break
    return math.ldexp(acc[0], k), math.ldexp(acc[1], k)


def _reference_dd_log(x):
    """The float-only dd_log the lockstep form replaced."""
    k = 0 if 2.0 ** -960 <= x <= 2.0 ** 960 else math.frexp(x)[1]
    x = math.ldexp(x, -k)
    if abs(x - 1.0) <= 0.125:
        out = _reference_log1p_small((x - 1.0, 0.0))
    else:
        w = math.log(x)
        r = dd_mul_d(_reference_dd_exp((-w, 0.0)), x)
        r = dd_add(r, (-1.0, 0.0))
        corr = dd_sub(r, dd_mul_d(dd_mul(r, r), 0.5))
        out = dd_add((w, 0.0), corr)
    if k:
        out = dd_add(out, dd_mul_d((_LN2_HI, _LN2_LO), float(k)))
    return out


def _pair_bits(pairs):
    return [(float(hi).hex(), float(lo).hex()) for hi, lo in pairs]


def test_dd_exp_and_dd_log_lanes_are_bitwise_the_float_calls():
    x = np.concatenate((np.geomspace(1e-300, 1e300, 1201),
                        2.0 ** np.arange(-1000.0, 1001.0, 37.0),
                        [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                         5e-324, 2.0 ** -1022, 1e308]))
    hi, lo = dd_log(x)
    ref = [_reference_dd_log(v) for v in x.tolist()]
    assert _pair_bits(zip(hi.tolist(), lo.tolist())) == _pair_bits(ref)
    for i in (0, 700, x.size - 6):
        one = dd_log(float(x[i]))
        assert type(one[0]) is float and type(one[1]) is float
        assert _pair_bits([one]) == _pair_bits([ref[i]])
    # dd_exp across its range and at both saturation edges, with a low part
    e_hi = np.concatenate((np.linspace(-750.0, 712.0, 2923),
                           [709.0, np.nextafter(709.0, 710.0), -745.0,
                            np.nextafter(-745.0, -746.0), 0.0, -0.0,
                            0.5 * _LN2_HI, -0.5 * _LN2_HI]))
    e_lo = e_hi * 1e-17
    hi, lo = dd_exp((e_hi, e_lo))
    ref = [_reference_dd_exp(p) for p in zip(e_hi.tolist(), e_lo.tolist())]
    assert _pair_bits(zip(hi.tolist(), lo.tolist())) == _pair_bits(ref)
    one = dd_exp((709.0, 1e-15))
    assert type(one[0]) is float
    assert _pair_bits([one]) == _pair_bits([_reference_dd_exp((709.0, 1e-15))])
    assert dd_exp((np.array([710.0, -746.0]), 0.0))[0].tolist() == [
        math.inf, 0.0]
    with pytest.raises(DomainError):
        dd_log(np.array([1.0, 0.0]))


def _worst_rel_err(pairs, refs, mpmath):
    return max(float(abs(mpmath.mpf(hi) + mpmath.mpf(lo) - ref) / abs(ref))
               for (hi, lo), ref in zip(pairs, refs))


def test_dd_transcendentals_are_double_double_accurate():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    # dd_log over every positive double: subnormals, the scaling window's
    # edges, both sides of 1 and the top of the range
    x = np.concatenate((
        10.0 ** rng.uniform(-323.3, 308.25, 400),
        1.0 + rng.uniform(-0.3, 0.3, 100),
        1.0 + 10.0 ** rng.uniform(-15.0, -1.0, 50) * rng.choice([-1, 1], 50),
        [5e-324, 2.0 ** -1022, 2.0 ** -960, np.nextafter(2.0 ** -960, 0.0),
         2.0 ** 960, np.nextafter(2.0 ** 960, np.inf), 1.34e300, 1e308,
         np.finfo(float).max, 0.875, 1.125, np.nextafter(1.0, 0.0),
         np.nextafter(1.0, 2.0), 2.0, 10.0]))
    u = np.concatenate((rng.uniform(-0.5, 0.5, 300),
                        10.0 ** rng.uniform(-300.0, -0.4, 100)
                        * rng.choice([-1, 1], 100), [0.5, -0.5, 0.02]))
    e = np.concatenate((rng.uniform(-600.0, 700.0, 400),
                        [-600.0, 700.0, 0.5, 1e-20, -0.5 * _LN2_HI]))
    cases = ((dd_log(x), x, mpmath.log, 1e-30),
             (dd_log1p_small((u, np.zeros_like(u))), u, mpmath.log1p, 1e-30),
             (dd_exp((e, np.zeros_like(e))), e, mpmath.exp, 2e-30))
    with mpmath.workprec(240):
        for (hi, lo), args, ref, tol in cases:
            assert _worst_rel_err(zip(hi.tolist(), lo.tolist()),
                                  [ref(v) for v in args.tolist()],
                                  mpmath) <= tol, ref


def test_dd_log1p_small_stops_zero_lanes_and_raises_at_its_cap(monkeypatch):
    # With one term allowed, lanes whose terms underflow to 0 still stop,
    # and a lane that needs more terms raises instead of returning.
    monkeypatch.setattr("gammatail._dd._LOG1P_MAX_TERMS", 3)
    assert dd_log1p_small((0.0, 0.0)) == (0.0, 0.0)
    hi, lo = dd_log1p_small((np.array([0.0, 1e-300]), np.zeros(2)))
    assert hi.tolist() == [0.0, 1e-300] and lo.tolist() == [0.0, 0.0]
    with pytest.raises(ConvergenceError):
        dd_log1p_small((0.25, 0.0))


def test_dd_exp_raises_at_its_cap(monkeypatch):
    # With five terms allowed, |r| near ln2/2 needs more and must raise
    # rather than return a partial sum; r = 0 stops at its first term.  At
    # the default cap the lanes keep the reference bits (tested above).
    monkeypatch.setattr("gammatail._dd._EXP_MAX_TERMS", 5)
    assert dd_exp((0.0, 0.0)) == (1.0, 0.0)
    with pytest.raises(ConvergenceError):
        dd_exp((0.3, 0.0))
    with pytest.raises(ConvergenceError):
        dd_exp((np.array([0.0, 0.3]), 0.0))


def test_mean_gaps_bounds_cover_each_returned_gap():
    # Each gap is rounded to a double; its bound must cover that half-ulp
    # on top of the double-double error, against a 300-bit reference.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(12)
    x = np.append(10.0 ** rng.uniform(-2.0, 2.0, 300), 1.0)
    spread = 10.0 ** rng.uniform(-6.0, math.log10(0.02), 300)
    y = np.append(x[:-1] * (1.0 + spread), 1.02)
    g = mean_gaps(x, y)
    gaps = (g.log_vs_geo, g.refined_vs_log, g.arith_vs_refined)
    with mpmath.workprec(300):
        for i, (xi, yi) in enumerate(zip(x.tolist(), y.tolist())):
            X, Y = mpmath.mpf(xi), mpmath.mpf(yi)
            lm = (Y - X) / mpmath.log(Y / X)
            refined_sq = X * Y + (lm - X) * (Y - lm) / 3
            refs = (lm * lm - X * Y, refined_sq - lm * lm,
                    (X + Y) ** 2 / 4 - refined_sq)
            for k, ref in enumerate(refs):
                assert abs(mpmath.mpf(float(gaps[k][i])) - ref) <= (
                    g.err_bounds[k][i]), (xi, yi, k)


def test_oracle_threshold_ratio_known_point():
    # lambda(y) = (y - L^2) / ((L - 1)(y - L)) with L = (y-1)/ln y the
    # log-mean of (1, y).  At y = 2 the double transcription only loses
    # about one digit to cancellation in the numerator.
    lm = 1.0 / math.log(2.0)
    expected = (2.0 - lm * lm) / ((lm - 1.0) * (2.0 - lm))
    assert math.isclose(oracle_threshold_ratio(2.0), expected, rel_tol=1e-13)
    assert -1.0 / 3.0 < oracle_threshold_ratio(2.0) < 0.0
