"""Tests for the adaptive Gauss-Legendre integrator.

Expected values here are closed-form antiderivatives, so every tolerance
is a statement about the integrator alone.
"""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammatail import QuadResult, QuadratureError, integrate
from gammatail import quadrature
from gammatail.quadrature import integrate_many


def test_polynomials_are_integrated_to_machine_precision():
    # A 15-point Gauss-Legendre panel is exact through degree 29; the
    # only error left is rounding.
    for k in range(0, 21):
        res = integrate(lambda x, k=k: x**k, 0.0, 1.0)
        exact = 1.0 / (k + 1)
        assert math.isclose(res.value, exact, rel_tol=1e-13), (k, res.value)
        assert res.n_panels >= 1
        assert res.n_evals >= 15 * res.n_panels


def test_exponential_tail_integral():
    res = integrate(np.exp, 0.0, 50.0, rel_tol=1e-12)
    exact = math.expm1(50.0)
    assert math.isclose(res.value, exact, rel_tol=1e-12)
    assert abs(res.value - exact) <= 4.0 * res.err_bound + 1e-15 * exact


def test_gaussian_mass():
    res = integrate(lambda x: np.exp(-0.5 * x * x), -8.0, 8.0, rel_tol=1e-12)
    exact = math.sqrt(2.0 * math.pi)  # erfc(8/sqrt 2) ~ 1e-15, below rel_tol
    assert math.isclose(res.value, exact, rel_tol=1e-12)


def test_sharply_peaked_integrand_converges():
    # A spike of width 1e-3 inside a unit interval forces adaptive splits.
    res = integrate(
        lambda x: np.exp(-((x - 0.3) / 1e-3) ** 2), 0.0, 1.0, rel_tol=1e-10
    )
    exact = 1e-3 * math.sqrt(math.pi)
    assert math.isclose(res.value, exact, rel_tol=1e-9)
    assert res.n_panels > 8


def test_error_bound_is_honest_on_oscillatory_integrand():
    res = integrate(lambda x: np.cos(7.0 * x), 0.0, 3.0, rel_tol=1e-12)
    exact = math.sin(21.0) / 7.0
    assert abs(res.value - exact) <= 4.0 * res.err_bound + 1e-16


def test_degenerate_intervals_are_rejected():
    for lo, hi in ((1.0, 1.0), (2.0, 1.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(QuadratureError):
            integrate(np.exp, lo, hi)


def test_non_finite_integrand_raises_quadrature_error():
    # The engine's arithmetic on inf panels must not surface as a numpy
    # RuntimeWarning (an error under this suite's warning filter).
    with pytest.raises(QuadratureError):
        integrate(lambda t: np.full_like(t, np.inf), 0.0, 1.0)


@pytest.mark.parametrize("fn, hi", [
    (lambda t: np.where(t < 0.5, np.inf, -np.inf), 1.0),
    (lambda t: np.full_like(t, 1e307), 100.0),
], ids=["mixed-infinities", "overflow"])
def test_fsum_refusals_raise_quadrature_error(fn, hi):
    # math.fsum raises ValueError on +inf with -inf and OverflowError when
    # its total leaves the double range; neither may escape the engine.
    with pytest.raises(QuadratureError) as excinfo:
        integrate(fn, 0.0, hi)
    assert excinfo.value.err_bound == math.inf


def _set_budget(monkeypatch, max_panels, pre_split):
    """Shrink the engine's panel budget and initial split for one test."""
    monkeypatch.setattr("gammatail.quadrature._MAX_PANELS", max_panels)
    monkeypatch.setattr("gammatail.quadrature._PRE_SPLIT", pre_split)


def test_panel_budget_exhaustion_raises_with_diagnostics(monkeypatch):
    _set_budget(monkeypatch, max_panels=3, pre_split=1)
    with pytest.raises(QuadratureError) as excinfo:
        integrate(
            lambda x: np.exp(-0.5 * x * x),
            -30.0,
            30.0,
            rel_tol=1e-14,
        )
    err = excinfo.value
    assert err.n_panels >= 3
    assert err.err_bound > 0.0
    assert math.isfinite(err.value)


def test_engine_takes_only_its_tolerances():
    # The panel budget and the initial split are module constants.
    for fn in (integrate, integrate_many):
        params = inspect.signature(fn).parameters.values()
        assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == [
            "rel_tol"]


def test_result_is_deterministic():
    a = integrate(lambda x: np.exp(-x) * np.sin(x), 0.0, 20.0)
    b = integrate(lambda x: np.exp(-x) * np.sin(x), 0.0, 20.0)
    assert a == b
    assert isinstance(a, QuadResult)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    coeffs=st.lists(
        st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=8
    ),
    lo=st.floats(min_value=-3.0, max_value=1.0),
    width=st.floats(min_value=1e-3, max_value=4.0),
)
def test_random_polynomials_match_antiderivative(coeffs, lo, width):
    hi = lo + width
    res = integrate(lambda x: np.polyval(coeffs, x), lo, hi)

    def anti(t: float) -> float:
        return sum(
            c * t ** (len(coeffs) - i) / (len(coeffs) - i)
            for i, c in enumerate(coeffs)
        )

    exact = anti(hi) - anti(lo)
    scale = max(1.0, sum(abs(c) for c in coeffs) * max(abs(lo), abs(hi), 1.0) ** len(coeffs))
    assert abs(res.value - exact) <= 1e-11 * scale


# ----------------------------------------------------------------------
# integrate_many: the lockstep engine
# ----------------------------------------------------------------------


def _one_at_a_time(fn, los, his, **kw):
    """integrate on each interval alone, fn seeing that interval's index."""
    return [
        integrate(lambda t, k=k: fn(t, np.full(t.shape, k)), lo, hi, **kw)
        for k, (lo, hi) in enumerate(zip(los, his))
    ]


def test_integrate_many_endpoint_singular_matches_integrate():
    # t^p with 0 < p < 1 has an unbounded derivative at the endpoint 0,
    # which forces deep refinement there and nowhere else.
    powers = np.array([0.5, 0.25, 0.75, 1.5])
    los = [0.0, 0.0, 0.0, 0.0]
    his = [1.0, 3.0, 0.5, 2.0]

    def fn(t, k):
        return t ** powers[k]

    many = integrate_many(fn, los, his)
    assert many == _one_at_a_time(fn, los, his)
    for res, p, hi in zip(many, powers, his):
        assert math.isclose(res.value, hi ** (p + 1) / (p + 1), rel_tol=1e-10)


def test_integrate_many_sharply_peaked_matches_integrate():
    centers = np.array([0.3, 0.71, 0.05, 0.5, 0.999])
    widths = np.array([1e-3, 1e-2, 3e-4, 0.2, 1e-3])

    def fn(t, k):
        return np.exp(-(((t - centers[k]) / widths[k]) ** 2))

    los = [0.0] * 5
    his = [1.0] * 5
    many = integrate_many(fn, los, his, rel_tol=1e-12)
    assert many == _one_at_a_time(fn, los, his, rel_tol=1e-12)
    assert [r.n_panels for r in many] != [many[0].n_panels] * 5


def test_integrate_many_oracle_referenced_integrand_matches_integrate():
    # The oracle's a >= 16 numerator, in the offset from the peak u = a - 1
    # for x <= u and from x beyond: one reference point per interval.
    from gammatail.oracle import _referenced_exponent

    a = 40.0
    u = a - 1.0
    xs = [1.0, 20.0, 39.0, 39.5, 60.0, 120.0]
    refs = np.array([u if x <= u else x for x in xs])

    def fn(s, k):
        return np.exp(_referenced_exponent(s, u, refs[k]))

    los = [x - r for x, r in zip(xs, refs.tolist())]
    his = [100.0] * len(xs)
    many = integrate_many(fn, los, his, rel_tol=5e-14)
    assert many == _one_at_a_time(fn, los, his, rel_tol=5e-14)


def test_integrate_many_passes_each_points_interval_index():
    seen = []

    def fn(t, k):
        seen.append((t.copy(), k.copy()))
        return np.ones_like(t)

    los = [0.0, 10.0, 20.0]
    his = [1.0, 11.0, 21.0]
    res = integrate_many(fn, los, his)
    assert [r.value for r in res] == [1.0, 1.0, 1.0]
    # One integrand call per sweep: a constant converges in the first.
    assert len(seen) == 1
    # One row of nodes per panel, and each row's interval index as a column.
    t, k = seen[0]
    assert t.shape[1] == 15 and k.shape == (t.shape[0], 1)
    for j, (lo, hi) in enumerate(zip(los, his)):
        rows = t[k[:, 0] == j]
        assert rows.size and np.all((rows > lo) & (rows < hi))


def test_integrate_many_empty_input():
    assert integrate_many(lambda t, k: t, [], []) == []


def _error_fields(exc):
    return (str(exc), exc.value, exc.err_bound, exc.n_panels)


def _power_law(powers):
    powers = np.asarray(powers)
    return lambda t, k: t ** powers[k]


def test_integrate_many_raises_lowest_index_failure():
    # t^p with p < 0 stalls at its singular endpoint until the sweep limit.
    # Interval 1 fails only after all 120 sweeps, interval 3 is degenerate
    # and fails at once; a loop of integrate calls reaches interval 1 first.
    fn = _power_law([2.0, -0.5, 1.0, 0.0, -0.3])
    los = [0.0, 0.0, 0.0, 2.0, 0.0]
    his = [1.0, 1.0, 1.0, 2.0, 1.0]
    with pytest.raises(QuadratureError) as single:
        integrate(lambda t: t ** -0.5, 0.0, 1.0)
    with pytest.raises(QuadratureError) as many:
        integrate_many(fn, los, his)
    assert _error_fields(many.value) == _error_fields(single.value)


def test_integrate_many_two_stalled_intervals_report_the_first():
    fn = _power_law([-0.3, 1.0, -0.5])
    with pytest.raises(QuadratureError) as first:
        integrate(lambda t: t ** -0.3, 0.0, 0.5)
    with pytest.raises(QuadratureError) as second:
        integrate(lambda t: t ** -0.5, 0.0, 1.0)
    assert _error_fields(first.value) != _error_fields(second.value)
    with pytest.raises(QuadratureError) as many:
        integrate_many(fn, [0.0, 0.0, 0.0], [0.5, 1.0, 1.0])
    assert _error_fields(many.value) == _error_fields(first.value)


def test_integrate_many_replays_a_failed_batch_one_interval_at_a_time():
    # After the batch raises, the intervals run alone in index order up to
    # the first one that fails, each seeing its own index k.
    powers = np.array([1.0, -0.5, 2.0])
    seen = []

    def fn(t, k):
        seen.append(np.unique(k).tolist())
        return t ** powers[k]

    with pytest.raises(QuadratureError):
        integrate_many(fn, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert seen[0] == [0, 1, 2]
    replay = seen[seen.index([0]):]
    assert replay[0] == [0] and replay[-1] == [1]
    assert {tuple(k) for k in replay} == {(0,), (1,)}


def test_integrate_many_panel_budget_is_per_interval(monkeypatch):
    def gauss(t):
        return np.exp(-0.5 * t * t)

    _set_budget(monkeypatch, max_panels=6, pre_split=1)
    with pytest.raises(QuadratureError) as single:
        integrate(gauss, -30.0, 30.0, rel_tol=1e-14)
    with pytest.raises(QuadratureError) as many:
        integrate_many(lambda t, k: gauss(t), [0.0, -30.0, -40.0],
                       [1.0, 30.0, 40.0], rel_tol=1e-14)
    assert "panel budget" in str(many.value)
    assert _error_fields(many.value) == _error_fields(single.value)


# ----------------------------------------------------------------------
# The lockstep engine against the one-interval refinement loop
# ----------------------------------------------------------------------

_EPS = 2.220446049250313e-16


@np.errstate(invalid="ignore", over="ignore")
def _reference_integrate(fn, lo, hi, *, rel_tol=1e-10, max_panels=10_000,
                         pre_split=None):
    """The plain one-interval refinement loop the lockstep engine replaced,
    kept as the bit-level reference for integrate; a non-finite integrand
    reaches its checks without numpy warnings, as in the engine.  pre_split
    defaults to the engine's own starting panel count."""
    from gammatail.quadrature import (_MAX_SWEEPS, _PRE_SPLIT, GAUSS_NODES_01,
                                      GAUSS_ORDER, GAUSS_WEIGHTS_01)

    if pre_split is None:
        pre_split = _PRE_SPLIT

    def estimates(lows, widths):
        pts = lows[:, None] + widths[:, None] * GAUSS_NODES_01[None, :]
        vals = np.asarray(fn(pts.ravel()), dtype=float).reshape(pts.shape)
        return (vals * GAUSS_WEIGHTS_01[None, :]).sum(axis=1) * widths

    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise QuadratureError("integration interval must be finite with hi > lo",
                              value=math.nan, err_bound=math.inf, n_panels=0)
    span = hi - lo
    width0 = span / pre_split
    lows = lo + width0 * np.arange(pre_split)
    widths = np.full(pre_split, width0)
    vals = estimates(lows, widths)
    n_evals = pre_split * GAUSS_ORDER
    acc_vals, acc_errs = [], []

    def partial(message):
        return QuadratureError(
            message, value=math.fsum(acc_vals) + math.fsum(vals.tolist()),
            err_bound=math.fsum(acc_errs) + math.fsum(np.abs(vals).tolist()),
            n_panels=len(acc_vals) + lows.size)

    for _ in range(_MAX_SWEEPS):
        total = math.fsum(acc_vals) + math.fsum(vals.tolist())
        tol = max(rel_tol * abs(total), 1e-320)
        half = 0.5 * widths
        l_vals = estimates(lows, half)
        r_lows = lows + half
        r_vals = estimates(r_lows, half)
        n_evals += 2 * GAUSS_ORDER * lows.size
        pair = l_vals + r_vals
        diff = np.abs(vals - pair)
        mass = (math.fsum(abs(v) for v in acc_vals)
                + math.fsum(np.abs(vals).tolist()))
        share = widths / span
        if mass > 0.0:
            share = np.maximum(share, np.abs(vals) / mass)
        floor = 32.0 * _EPS * (np.abs(l_vals) + np.abs(r_vals))
        exhausted = (r_lows <= lows) | (r_lows >= lows + widths)
        finite = np.isfinite(pair)
        if (~finite & exhausted).any():
            raise QuadratureError(
                "integrand is non-finite on an unsplittable panel",
                value=math.fsum(acc_vals), err_bound=math.inf,
                n_panels=len(acc_vals) + lows.size)
        accept = ((diff <= tol * share) | (diff <= floor) | exhausted) & finite
        for i in np.nonzero(accept)[0]:
            acc_vals += [float(l_vals[i]), float(r_vals[i])]
            acc_errs.append(float(diff[i]))
        keep = np.nonzero(~accept)[0]
        if keep.size == 0:
            break
        lows = np.stack((lows[keep], r_lows[keep]), axis=1).ravel()
        widths = np.repeat(half[keep], 2)
        vals = np.stack((l_vals[keep], r_vals[keep]), axis=1).ravel()
        if len(acc_vals) + lows.size > max_panels:
            raise partial(f"panel budget {max_panels} exceeded")
    else:
        raise partial(f"no convergence after {_MAX_SWEEPS} refinement sweeps")
    abs_sum = math.fsum(abs(v) for v in acc_vals)
    return QuadResult(value=math.fsum(acc_vals),
                      err_bound=math.fsum(acc_errs) + 4.0 * _EPS * abs_sum,
                      n_panels=len(acc_vals), n_evals=n_evals)


def _outcome(integrator, fn, lo, hi, **kw):
    try:
        return integrator(fn, lo, hi, **kw)
    except QuadratureError as exc:
        return _error_fields(exc)


_LOOP_CASES = [
    (np.exp, 0.0, 50.0, {}, {}),
    (lambda t: np.sqrt(t), 0.0, 1.0, {}, {}),
    (lambda t: np.exp(-(((t - 0.3) / 1e-3) ** 2)), 0.0, 1.0,
     {"rel_tol": 1e-12}, {}),
    (lambda t: np.cos(40.0 * t) ** 2, 0.0, 3.0, {"rel_tol": 1e-13}, {}),
    (lambda t: np.exp(-0.5 * t * t), -30.0, 30.0, {"rel_tol": 1e-14}, {}),
    # Signed integrands whose total is far below their mass: there the
    # engine's plain running sums stray furthest from fsums.
    (lambda t: np.sin(37.0 * t), 0.0, 3.0, {"rel_tol": 1e-12}, {}),
    (lambda t: t * np.sin(20.0 * t * t), 0.0, 3.0, {"rel_tol": 1e-12}, {}),
    # Failures: sweep limit, panel budget, non-finite unsplittable panels,
    # and a degenerate interval.
    (lambda t: t ** -0.5, 0.0, 1.0, {}, {}),
    (lambda t: np.exp(-0.5 * t * t), -30.0, 30.0, {"rel_tol": 1e-14},
     {"max_panels": 6, "pre_split": 1}),
    (lambda t: np.full_like(t, np.inf), 1.0, 1.0 + 1e-14, {}, {}),
    (np.exp, 2.0, 2.0, {}, {}),
]
_LOOP_IDS = ["exp", "sqrt", "peak", "oscillatory", "gauss", "sine", "chirp",
             "sweep-limit", "budget", "non-finite", "degenerate"]


@pytest.mark.parametrize("fn, lo, hi, kw, budget", _LOOP_CASES,
                         ids=_LOOP_IDS)
def test_integrate_equals_the_one_interval_loop(fn, lo, hi, kw, budget,
                                                monkeypatch):
    if budget:
        _set_budget(monkeypatch, **budget)
    assert (_outcome(integrate, fn, lo, hi, **kw)
            == _outcome(_reference_integrate, fn, lo, hi, **kw, **budget))


@pytest.mark.parametrize("fn, lo, hi, kw, budget", _LOOP_CASES,
                         ids=_LOOP_IDS)
def test_integrate_many_under_per_panel_owners_equals_the_loop(
        fn, lo, hi, kw, budget, monkeypatch):
    # The integrand reads a per-interval parameter through its owner
    # column, shaped (panels, 1) against the (panels, 15) nodes: three
    # copies of each case must each give the one-interval loop's result,
    # which takes the nodes flat, or its error.
    if budget:
        _set_budget(monkeypatch, **budget)
    scale = np.ones(3)

    def owned(t, k):
        assert k.shape == (t.shape[0], 1) and t.shape[1] == 15
        return fn(t) * scale[k]

    expected = _outcome(_reference_integrate, fn, lo, hi, **kw, **budget)
    try:
        got = integrate_many(owned, [lo] * 3, [hi] * 3, **kw)
    except QuadratureError as exc:
        assert _error_fields(exc) == expected
    else:
        assert got == [expected] * 3


# Integrands whose masses span the double range, from near the smallest
# normal double to near the largest.
_SCALES = [1e-300, 1e-285, 1e-200, 1e-50, 1.0, 1e100, 1e302, 1e306]
_SCALED_CASES = [
    (lambda t: np.exp(-t), 0.0, 50.0),
    (lambda t: np.exp(-(((t - 0.3) / 1e-3) ** 2)), 0.0, 1.0),
    (lambda t: np.sqrt(t), 0.0, 1.0),
]
_SCALED_IDS = ["exp", "peak", "sqrt"]


@pytest.mark.parametrize("scale", _SCALES)
@pytest.mark.parametrize("fn, lo, hi", _SCALED_CASES, ids=_SCALED_IDS)
def test_integrate_equals_the_one_interval_loop_at_every_scale(fn, lo, hi,
                                                               scale):
    def scaled(t):
        return scale * fn(t)

    assert (_outcome(integrate, scaled, lo, hi, rel_tol=1e-12)
            == _outcome(_reference_integrate, scaled, lo, hi, rel_tol=1e-12))


@pytest.mark.parametrize("fn, lo, hi", _SCALED_CASES, ids=_SCALED_IDS)
def test_integrate_many_mixing_every_scale_equals_each_alone(fn, lo, hi):
    # One group holds all eight scales: each interval's target and mass
    # are its own sums, whatever the other intervals' magnitudes.
    scales = np.array(_SCALES)

    def scaled(t, k):
        return scales[k] * fn(t)

    los, his = [lo] * len(_SCALES), [hi] * len(_SCALES)
    assert (integrate_many(scaled, los, his, rel_tol=1e-12)
            == _one_at_a_time(scaled, los, his, rel_tol=1e-12))


def test_integrate_many_across_groups_equals_the_one_interval_loop(
        monkeypatch):
    # Eight intervals in lockstep groups of three, and integrand calls of
    # at most five panels: each result is the plain loop's, field for field.
    monkeypatch.setattr(quadrature, "_GROUP", 3)
    monkeypatch.setattr(quadrature, "_CHUNK", 5)
    centers = np.linspace(0.05, 0.95, 8)
    widths = np.geomspace(1e-3, 0.3, 8)
    seen = []

    def fn(t, k):
        seen.append(np.unique(k).tolist())
        return np.exp(-(((t - centers[k]) / widths[k]) ** 2))

    los, his = [0.0] * 8, [1.0] * 8
    many = integrate_many(fn, los, his, rel_tol=1e-12)
    assert many == [
        _reference_integrate(lambda t, k=k: fn(t, np.full(t.shape, k)), lo,
                             hi, rel_tol=1e-12)
        for k, (lo, hi) in enumerate(zip(los, his))]
    assert [r.n_panels for r in many] != [many[0].n_panels] * 8
    assert max(len(k) for k in seen) <= 3


def test_integrate_many_replays_only_the_failing_group(monkeypatch):
    # Interval 3 stalls in the second group of two.  The first group's
    # results stand, the third group never runs, and the replay covers the
    # failing group alone, ending at interval 3 with its one-interval error.
    monkeypatch.setattr(quadrature, "_GROUP", 2)
    powers = np.array([1.0, 2.0, 0.5, -0.5, 3.0])
    seen = []

    def fn(t, k):
        seen.append(np.unique(k).tolist())
        return t ** powers[k]

    with pytest.raises(QuadratureError) as single:
        integrate(lambda t: t ** -0.5, 0.0, 1.0)
    with pytest.raises(QuadratureError) as many:
        integrate_many(fn, [0.0] * 5, [1.0] * 5)
    assert _error_fields(many.value) == _error_fields(single.value)
    assert seen[0] == [0, 1]
    second = next(i for i, k in enumerate(seen) if 2 in k)
    assert all(set(k) <= {2, 3} for k in seen[second:])
    replay = seen[seen.index([2]):]
    assert {tuple(k) for k in replay} == {(2,), (3,)}
    assert replay[-1] == [3]


def test_gauss_legendre_literals_are_numpys_rule():
    # The frozen rule is leggauss(15) to within 2 ulps, with the symmetry of
    # the exact rule: nodes antisymmetric, weights symmetric, summing to 2.
    nodes, weights = np.polynomial.legendre.leggauss(quadrature.GAUSS_ORDER)
    for ours, ref in ((quadrature._NODES, nodes),
                      (quadrature._WEIGHTS, weights)):
        assert ours.shape == (quadrature.GAUSS_ORDER,)
        assert np.all(np.abs(ours - ref) <= 2.0 * np.spacing(np.abs(ref)))
    assert np.all(np.diff(quadrature._NODES) > 0.0)
    assert quadrature._NODES.tolist() == (-quadrature._NODES[::-1]).tolist()
    assert quadrature._WEIGHTS.tolist() == quadrature._WEIGHTS[::-1].tolist()
    assert (abs(math.fsum(quadrature._WEIGHTS.tolist()) - 2.0)
            <= 4.0 * math.ulp(2.0))
