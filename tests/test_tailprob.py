"""Tests for the centered tail probability and its analytic companions.

p(a, c) = Q(a, a + c) where Q is the regularized upper incomplete gamma
function.  Closed forms at integer shapes anchor the values; the
slow-path oracle anchors everything else; the ratio identity and the
derivative sign relation are checked at deterministic spot points (the
randomized sweeps live in the acceptance criteria).
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gammatail import (
    ConvergenceError,
    DomainError,
    TailQuery,
    branch_roots,
    direction_form,
    direction_form_detail,
    integrand_ratio,
    ratio_parts,
    ratio_parts_many,
    reg_gamma_q,
    tail_prob,
    tail_prob_detail,
    tail_prob_many,
)
from gammatail import _lanes, specfun
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
# many shapes at one offset
# ----------------------------------------------------------------------


def _scalar_scan(a, c):
    """(value, err_bound) hex strings of tail_prob_detail, lane by lane."""
    out = [tail_prob_detail(TailQuery(float(v), c)) for v in a]
    return [(d.value.hex(), d.err_bound.hex()) for d in out]


def _hex_pairs(values, errs):
    return [(v.hex(), e.hex()) for v, e in zip(values.tolist(), errs.tolist())]


def _batch_scan(a, c):
    return _hex_pairs(*tail_prob_many(a, c))


_RNG = np.random.default_rng(20)
_BATCH_GRIDS = [
    # plateau interior, its edge a + c = 0, and just past it
    (np.array([0.1, 0.25, 0.5, 0.5 + 1e-12, 0.6, 3.0]), -0.5),
    (np.array([2.0, 2.0 + 2.0 ** -51, 2.5]), -2.0),
    # a <= 1/2: the small-shape tail, and the continued fraction above it
    (np.geomspace(1e-3, 0.5, 60), 0.3),
    (np.geomspace(1e-3, 0.5, 60), 1.7),
    # series and continued fraction on both sides of x = a + 1 and at it
    (np.linspace(0.6, 40.0, 150), 1.0),
    (np.linspace(0.6, 40.0, 150), 1.0 - 2.0 ** -40),
    # the Stirling switch of the log prefactor at a = 24
    (np.concatenate(([np.nextafter(24.0, 0.0), 24.0,
                      np.nextafter(24.0, 48.0)], np.linspace(23.0, 25.0, 81))),
     -0.7),
    (np.linspace(23.0, 25.0, 81), 2.0),
    # a from 1e-3 to 1e6, and seeded random shapes and offsets
    (np.geomspace(1e-3, 1e6, 400), 0.5),
    (np.geomspace(1e-3, 1e6, 400), -0.2),
    # the log1pmx window of the Stirling prefactor in d = c/a: just outside
    # and just inside d = -0.95 (a = 24 and its successor) and across it, at
    # d = 1.5 and across it
    (np.array([24.0, np.nextafter(24.0, 25.0), 24.01, 25.0, 40.0]), -22.8),
    (np.concatenate(([23.0 / 0.95], np.linspace(24.0, 24.5, 41))), -23.0),
    (np.array([24.0, np.nextafter(24.0, 25.0), 24.5, 30.0]), 36.0),
    (np.concatenate(([40.0 / 1.5], np.linspace(24.0, 30.0, 41))), 40.0),
    # lgamma1p's whole range: tiny shapes, and at and just below a = 1/2
    (np.array([1e-300, 1e-100, 1e-10, 0.45, np.nextafter(0.5, 0.0), 0.5,
               np.nextafter(0.5, 1.0)]), 0.2),
    (np.linspace(0.4, 0.5, 50), -0.3),
] + [(10.0 ** _RNG.uniform(-3.0, 4.0, 120), float(c))
     for c in _RNG.uniform(-3.0, 6.0, 6)]


def _has_cf_lanes(a, c):
    """Whether any lane of the grid takes the continued fraction."""
    x = a + c
    return bool(np.any((x > 0.0) & (x >= a + 1.0)))


@pytest.mark.parametrize("min_lanes", [1, None, 10 ** 9],
                         ids=["lockstep-only", "default", "scalar-only"])
def test_tail_prob_many_is_bitwise_the_scalar_scan(monkeypatch, min_lanes):
    # The default hands the last lanes of the continued fraction to the
    # scalar loop; a threshold of 1 never does, and a huge one hands over at
    # once.  Only the continued fraction reads the threshold, so the other
    # two variants run the grids that have continued-fraction lanes.
    grids = _BATCH_GRIDS
    if min_lanes is not None:
        monkeypatch.setattr(_lanes, "_LOCKSTEP_MIN_LANES", min_lanes)
        grids = [g for g in _BATCH_GRIDS if _has_cf_lanes(*g)]
    for a, c in grids:
        assert _batch_scan(a, c) == _scalar_scan(a, c), (a[0], a[-1], c)


def test_tail_prob_many_hands_its_last_lanes_to_the_scalar_loop(monkeypatch):
    # The continued fraction (x = a + 3 >= a + 1 on the whole grid) runs
    # in blocks of iterations and hands over its last lanes; the folded
    # loops never do.
    handed = []
    run = _lanes._upper_cf_run

    def spy(a, x, n, *state):
        handed.append(n)
        return run(a, x, n, *state)

    monkeypatch.setattr(_lanes, "_upper_cf_run", spy)
    a = np.geomspace(1.0, 1e4, 200)
    assert _batch_scan(a, 3.0) == _scalar_scan(a, 3.0)
    assert 0 < len(handed) < _lanes._LOCKSTEP_MIN_LANES
    assert all(n > 0 for n in handed)


def test_tail_prob_many_takes_one_log_of_x_per_live_lane(monkeypatch):
    # One scan with a lane of each kind: the small-shape tail, the ascending
    # series and the continued fraction below and from the Stirling switch
    # at a = 24, and two plateau lanes.  The direct prefactor, the tail's
    # result and the argument charge all read the one ln x the core takes.
    a = np.array([0.2, 0.3, 3.0, 10.0, 0.1, 30.0, 50.0, 0.5, 2.0, 40.0])
    c = np.array([0.4, 0.5, 0.5, 2.0, 2.0, 0.5, 3.0, -1.0, -2.5, 1.5])
    x = np.maximum(a + c, 0.0)              # the core's x; 0 on the plateau
    scalar = [tail_prob_detail(TailQuery(*p))
              for p in zip(a.tolist(), c.tolist())]
    branches = [d.method for d in scalar]
    assert set(branches) == {"tail-series", "series-complement", "cf",
                             "plateau"}
    logged = []
    log = _lanes._log

    def spy(values):
        logged.extend(values.tolist())
        return log(values)

    monkeypatch.setattr(_lanes, "_log", spy)
    values, errs = tail_prob_many(a, c)
    assert [logged.count(v) for v in x.tolist()] == [1] * 7 + [0, 0] + [1]
    # The other per-lane logs are of the shapes: ln(a / 2 pi) in the
    # Stirling prefactor and ln a in the series complement.
    assert len(logged) == ((x > 0.0).sum() + (a >= 24.0).sum()
                           + branches.count("series-complement"))
    assert (_hex_pairs(values, errs)
            == [(d.value.hex(), d.err_bound.hex()) for d in scalar])


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value), getattr(info.value, "n_iter",
                                                      None)


def test_tail_prob_many_raises_the_scalar_scans_error():
    # The series needs ~sqrt(72 a) terms, past the cap from a ~ 2e8: the
    # lowest failing lane raises, as a scan in lane order does.
    grid = np.geomspace(3e9, 1e10, 3)
    err = _raised(tail_prob_many, grid, 0.5)
    assert err[0] is ConvergenceError
    assert err == _raised(_scalar_scan, grid, 0.5)
    for a, c in ((np.array([1.0, 0.0, 2.0]), 0.0),
                 (np.array([1.0, np.nan]), 0.0),
                 (np.array([1.0, 2.0]), math.inf),
                 (np.array([1e308, 1.7e308]), 1e308)):
        err = _raised(tail_prob_many, a, c)
        assert err[0] is DomainError
        assert err == _raised(_scalar_scan, a, c)
    with pytest.raises(DomainError):
        tail_prob_many(np.ones((2, 2)), 0.0)
    assert tail_prob_many([], 0.5)[0].shape == (0,)


def test_tail_prob_bound_is_finite_at_offsets_near_the_double_range():
    # Q underflows to 0 there; its bound is 5e-324, not NaN, and the
    # argument's rounding charge is 0 below a density of e^-709.
    a = np.array([0.3, 2.0, 30.0, 1e6])
    for c in (9e307, 1e308, 1.79e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, errs = tail_prob_many(a, c)
            scan = [tail_prob_detail(TailQuery(a_i, c)) for a_i in a.tolist()]
        assert [(v.value, v.err_bound) for v in scan] == [(0.0, 5e-324)] * 4
        assert list(zip(values.tolist(), errs.tolist())) == [(0.0, 5e-324)] * 4


def test_tail_prob_many_rejects_shapes_past_two_to_53_as_the_scan_does():
    # From a = 2^53 on, a + 1 rounds to a and x = a would divide by zero in
    # the continued fraction's start; both paths raise DomainError, and the
    # batch computes nothing that warns first.
    for a, c in ((np.array([1.0, 1e16]), 0.0),
                 (np.array([2.0 ** 53, 3.0]), 0.5),
                 (np.array([3.0, 1e300]), -0.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = _raised(tail_prob_many, a, c)
        assert err[0] is DomainError and "2**53" in err[1]
        assert err == _raised(_scalar_scan, a, c)
    # The plateau and the largest shape below 2^53 are still served.
    a = np.array([1e16, np.nextafter(2.0 ** 53, 0.0)])
    assert _batch_scan(a, -2e16) == _scalar_scan(a, -2e16)
    assert _batch_scan(a[1:], 1e15) == _scalar_scan(a[1:], 1e15)


def test_tail_prob_many_cap_error_with_many_lanes_at_the_cap(monkeypatch):
    # With a low cap, many lanes are still in the lockstep loop when it
    # reaches the cap; and a series lane must win over a later small-shape
    # lane, although the small-shape branch is evaluated first.
    monkeypatch.setattr(specfun, "_KERNEL_MAX_ITER", 12)
    monkeypatch.setattr(_lanes, "_LOCKSTEP_MIN_LANES", 4)
    for grid, c in ((np.geomspace(0.05, 1e4, 300), 0.5),
                    (np.geomspace(0.05, 1e4, 300), 3.0),
                    (np.geomspace(0.15, 1e4, 300), -0.1),
                    (np.array([5000.0, 0.4, 0.3]), 0.9)):
        err = _raised(tail_prob_many, grid, c)
        assert err[0] is ConvergenceError and err[2] == 12
        assert err == _raised(_scalar_scan, grid, c)
    assert "ascending series" in err[1]


def test_tail_prob_many_stops_no_lane_past_a_cap_inside_a_block(
        monkeypatch):
    # The cap falls inside a fold block, which must end there: the series
    # needs 45 iterations at a = 16 and 46 at a = 16.2 (c = 0.5).
    monkeypatch.setattr(specfun, "_KERNEL_MAX_ITER", 45)
    assert 45 % _lanes._FOLD_BLOCK != 0
    grid = np.array([0.3, 3.0, 15.2, 16.0])
    assert _batch_scan(grid, 0.5) == _scalar_scan(grid, 0.5)
    grid = np.append(grid, 16.2)
    err = _raised(tail_prob_many, grid, 0.5)
    assert err[0] is ConvergenceError and err[2] == 45
    assert err == _raised(_scalar_scan, grid, 0.5)


def _lane_scan(a, c):
    """(value, err_bound) hex strings of tail_prob_detail at each (a_i, c_i)."""
    out = [tail_prob_detail(TailQuery(a_i, c_i))
           for a_i, c_i in zip(a.tolist(), c.tolist())]
    return [(d.value.hex(), d.err_bound.hex()) for d in out]


def _offset_lanes(seed):
    """Seeded (a, c) lanes, one offset each, shuffled so branches interleave:
    the plateau and its edge, both sides of x = a + 1 and on it, a <= 1/2,
    and a >= 24 past the Stirling switch."""
    rng = np.random.default_rng(seed)
    a_mid = 10.0 ** rng.uniform(-1.0, 2.0, 40)
    a_small = 10.0 ** rng.uniform(-3.0, math.log10(0.5), 40)
    a_big = 10.0 ** rng.uniform(math.log10(24.0), 6.0, 40)
    edge = 10.0 ** rng.uniform(-2.0, 3.0, 20)
    lanes = [
        (a_mid, -a_mid - rng.uniform(0.0, 2.0, 40)),       # plateau
        (edge, -edge),                                     # x = 0
        (edge, np.nextafter(-edge, 0.0)),                  # just past it
        (a_mid, np.full(40, 1.0)),                         # x = a + 1
        (a_mid, 1.0 + rng.uniform(-1e-9, 1e-9, 40)),       # either side
        (a_mid, rng.uniform(-0.9, 3.0, 40)),
        (a_small, rng.uniform(-0.4, 3.0, 40)),
        (np.array([0.5, np.nextafter(0.5, 0.0)]), np.array([0.2, 0.7])),
        (a_big, rng.uniform(-20.0, 40.0, 40)),
        (np.array([24.0, np.nextafter(24.0, 0.0)]), np.array([-0.7, 2.0])),
    ]
    a = np.concatenate([v for v, _ in lanes])
    c = np.concatenate([v for _, v in lanes])
    order = rng.permutation(a.size)
    return a[order], c[order]


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_tail_prob_many_with_one_offset_per_lane_is_bitwise_the_scan(seed):
    a, c = _offset_lanes(seed)
    x = a + c
    assert (x <= 0.0).any() and (x == 0.0).any()
    assert ((x > 0.0) & (x < a + 1.0)).any() and (x > a + 1.0).any()
    assert (x == a + 1.0).any()
    assert (a <= 0.5).any() and (a >= 24.0).any()
    values, errs = tail_prob_many(a, c)
    assert [(v.hex(), e.hex()) for v, e in zip(values.tolist(),
                                              errs.tolist())] == \
        _lane_scan(a, c)
    # One offset per lane equal to a shared one gives the shared call's bits.
    assert _batch_scan(a, c[0]) == _batch_scan(a, np.full(a.size, c[0]))


def test_tail_prob_many_per_lane_offsets_raise_the_scans_error(monkeypatch):
    # With a low cap, a continued-fraction lane, a series lane and a
    # small-shape lane all fail; whichever comes first in lane order wins,
    # as in the scan, whatever order the branches are evaluated in.  A
    # plateau lane leads, so each failing lane fails only at its own c.
    monkeypatch.setattr(specfun, "_KERNEL_MAX_ITER", 12)
    lanes = {"continued fraction": (5000.0, 3.0),
             "ascending series": (5000.0, 0.5),
             "small-shape series": (0.3, 0.9)}
    for first, second in ((k, j) for k in lanes for j in lanes if k != j):
        a, c = (np.array(v) for v in zip((0.5, -1.0), lanes[first],
                                         lanes[second]))
        err = _raised(tail_prob_many, a, c)
        assert err[0] is ConvergenceError and err[2] == 12
        assert first in err[1]
        assert err == _raised(_lane_scan, a, c)


def test_tail_prob_many_rejects_offsets_of_another_length():
    for c in ([0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]], np.zeros((2, 1))):
        with pytest.raises(DomainError, match="one per shape"):
            tail_prob_many([1.0, 2.0], c)
    assert tail_prob_many([], [])[0].shape == (0,)


# ----------------------------------------------------------------------
# ratio decomposition
# ----------------------------------------------------------------------


def test_ratio_identity_at_deterministic_corners():
    # p(u+1, c) = 1 / (1 + R(u, c)) where R is the head/tail integral
    # ratio of the shifted integrand.  From u = 1e8 the peak at x = 1, about
    # u**-0.5 wide, is seen only by nodes next to s = 1 (up to u near 6.5e8
    # at c = 0); reg_gamma_q converges at these (u + 1, u + 1 + c).  At
    # (1e6, 700) and (1e6, 705) both parts are tiny, 1e-307 to 1e-310,
    # because e^-(1+c) is, and still return.
    for u, c in (
        (1.0, 0.5),
        (0.1, -0.3),
        (-0.9, 2.0),
        (5.0, -0.9),
        (0.5, -0.4),
        (19.0, 1.9),
        (1e8, 0.0),
        (1e8, -0.5),
        (2e8, 5.0),
        (6e8, 5.0),
        (1e6, 700.0),
        (1e6, 705.0),
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


def test_ratio_parts_rejects_an_integral_that_underflows():
    # The tail integral is about 1.7e-351 at (0, 800), and the integrands'
    # peak m e^-(1+c) at x = 1 underflows too.
    for u, c in ((0.0, 800.0), (1.0, 1e6)):
        with pytest.raises(DomainError, match="underflows to 0"):
            ratio_parts(u, c)
    # The lane replay names the first failing lane.
    with pytest.raises(DomainError, match=r"u=1\.0, c=1000000\.0"):
        ratio_parts_many([1.0, 1.0], [0.0, 1e6])


def test_ratio_parts_names_a_peak_its_quadrature_misses():
    # From u = 1e9 both integrals are about 1.5e-5, but the peak at x = 1,
    # about u**-0.5 wide, falls between the nodes and both come back 0.  At
    # u = 6.5e8 the head comes back subnormal, accepted under the
    # quadrature's 1e-320 absolute floor, though each part is at least
    # w e^(-1 - (1+c) - |1+c| w) with w = u**-0.5 (p(u + 1, c) is about 1/2
    # there, so the true ratio is about 1).  The head's peak is m e^-(1+c)
    # with substitution order m = 4.
    for u, c in ((1e9, 0.0), (1e9, 5.0), (1e12, -0.5), (6.5e8, -0.5),
                 (6.5e8, 0.0), (6.5e8, 5.0)):
        peak = 4.0 * math.exp(-(1.0 + c))
        with pytest.raises(DomainError) as info:
            ratio_parts(u, c)
        assert str(info.value) == (
            f"ratio_parts at u={u!r}, c={c!r}: the quadrature misses the "
            f"head integrand's peak {peak!r} at x = 1, about u**-0.5 wide")


@pytest.mark.parametrize("u, c, ln_peak", [
    (1000.0, -1000.0, "7196.57"), (800.0, -700.0, "1658.71"),
    (1e300, -1e300, "6.91063e+302")])
def test_ratio_parts_rejects_a_peak_past_the_double_range(monkeypatch, u, c,
                                                           ln_peak):
    # For c < -1 the tail integrand peaks at x = u / (u + c + 1 - 1/m), at
    # m x^u e^(u + (x - 1)/m - (1 + c) x) with substitution order m.  Past
    # the double range no quadrature can run, so none starts.
    import gammatail.quadrature

    calls = []
    monkeypatch.setattr(gammatail.quadrature, "integrate_many",
                        lambda *args, **kw: calls.append(args))
    with pytest.raises(DomainError) as info:
        ratio_parts(u, c)
    assert str(info.value) == (
        f"ratio_parts at u={u!r}, c={c!r}: the tail integrand's peak "
        f"e**{ln_peak} lies past the double range")
    assert not calls


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


def test_power_function_monotone_toward_half():
    # The power of the test rejecting when X_theta > theta + c is
    # tail_prob(theta, c); for c > 0 it rises toward 1/2.
    thetas = (0.5, 1.0, 4.0, 64.0, 1e4)
    vals = [tail_prob(TailQuery(t, 0.5)) for t in thetas]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.5
